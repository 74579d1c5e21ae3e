"""Tier-2 verdicts carried across update epochs.

A serving session's solver keeps what its last decisions proved as far as
each update kind allows (``repro.engine.grounder.Verdicts``): a proof
survives inserts, a refutation and consistency survive deletes.  The
property tests replay random insert/delete streams and compare every
answer path, after every epoch that is queried, with a fresh
``ground_program(program, instance)``.  Queries come after some epochs but
not all, so an epoch can mix inserts and deletes; streams re-insert present
facts, delete absent ones, and pass through a stretch of inconsistent data.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.datalog import DisjunctiveDatalogProgram, Rule, goal_atom
from repro.engine.grounder import ground_program
from repro.obs import enabled
from repro.omq.certain import compile_to_mddlog
from repro.planner import PlanPolicy
from repro.service import ObdaSession
from repro.translations.csp_templates import csp_to_mddlog
from repro.workloads.csp_zoo import EDGE, two_colourability_template
from repro.workloads.medical import example_2_1_omq

X = Variable("x")
TIER2 = PlanPolicy(tier=2, check="off")
#: A candidate no fact mentions: never an answer, not even vacuously.
NOWHERE = ("nowhere",)

# -- coCSP(K2) with a unary goal ----------------------------------------------

RED = RelationSymbol("Red", 1)
VERTICES = ("v0", "v1", "v2")


@functools.cache
def colouring_program() -> DisjunctiveDatalogProgram:
    """coCSP of K2 with template vertex 0 marked ``Red``, plus ``goal(x)``
    for every ``x`` that all colourings give colour 0: the vertices an
    even path joins to a ``Red`` one.  An odd cycle makes the data
    inconsistent."""
    template = Instance([*two_colourability_template().facts, Fact(RED, (0,))])
    program = csp_to_mddlog(template)
    [guess] = [rule for rule in program.rules if len(rule.head) > 1]
    colour_zero = guess.head[0].relation
    return DisjunctiveDatalogProgram(
        [*program.rules, Rule((goal_atom(X),), (Atom(colour_zero, (X,)),))]
    )


COLOURING_UNIVERSE = tuple(
    [Fact(EDGE, (a, b)) for a in VERTICES for b in VERTICES if a != b]
    + [Fact(RED, (v,)) for v in VERTICES]
)
COLOURING_CLASH = Fact(EDGE, ("v0", "v0"))  # a self-loop: no 2-colouring

# -- compiled Example 2.1 plus one constraint -----------------------------------

HAS_FINDING = RelationSymbol("HasFinding", 2)
HAS_DIAGNOSIS = RelationSymbol("HasDiagnosis", 2)
ERYTHEMA = RelationSymbol("ErythemaMigrans", 1)
LISTERIOSIS = RelationSymbol("Listeriosis", 1)
BAD = RelationSymbol("Bad", 1)


@functools.cache
def medical_program() -> DisjunctiveDatalogProgram:
    """Compiled Example 2.1 with ``⊥ <- Bad(x)``, so data can turn
    inconsistent and back."""
    program = compile_to_mddlog(example_2_1_omq())
    return DisjunctiveDatalogProgram(
        [*program.rules, Rule((), (Atom(BAD, (X,)),))],
        goal_relation=program.goal_relation,
    )


MEDICAL_UNIVERSE = (
    Fact(HAS_FINDING, ("p0", "f0")),
    Fact(ERYTHEMA, ("f0",)),
    Fact(HAS_DIAGNOSIS, ("p1", "d1")),
    Fact(LISTERIOSIS, ("d1",)),
)
MEDICAL_CLASH = Fact(BAD, ("f0",))


PROGRAMS = {"colouring": colouring_program, "medical": medical_program}


@functools.cache
def fresh_verdicts(name: str, facts: frozenset) -> tuple[frozenset, bool]:
    """(certain answers, consistent?) from a from-scratch grounding."""
    grounded = ground_program(PROGRAMS[name](), Instance(facts))
    return grounded.certain_answers(), grounded.has_model_avoiding([])


CHECKS = ("certain_answers", "is_certain", "answer_batch", "is_consistent")


def _steps(universe):
    step = st.tuples(
        st.sampled_from(("insert", "delete")),
        st.lists(st.sampled_from(universe), min_size=1, max_size=3),
        st.booleans(),  # query after this epoch?
        st.permutations(CHECKS),
    )
    return st.lists(step, max_size=5)


def _streams(universe, clash):
    """Three random stretches; the clash fact is inserted (with a query)
    before the middle one and deleted (with a query) after it."""
    return st.tuples(_steps(universe), _steps(universe), _steps(universe)).map(
        lambda parts: [
            *parts[0],
            ("insert", [clash], True, CHECKS),
            *parts[1],
            ("delete", [clash], True, CHECKS[::-1]),
            *parts[2],
        ]
    )


def _replay(name: str, universe, stream) -> None:
    session = ObdaSession(PROGRAMS[name](), policy=TIER2)
    live: set[Fact] = set()
    elements = sorted({value for fact in universe for value in fact.arguments})
    candidates = [(value,) for value in elements] + [NOWHERE]
    for epoch, (kind, facts, ask, checks) in enumerate(stream):
        if kind == "insert":
            session.insert_facts(facts)
            live.update(facts)
        else:
            session.delete_facts(facts)
            live.difference_update(facts)
        if not ask:
            continue
        certain, consistent = fresh_verdicts(name, frozenset(live))
        expected = {candidate: candidate in certain for candidate in candidates}
        where = f"epoch {epoch} over {sorted(map(str, live))}"
        for check in checks:
            if check == "certain_answers":
                assert session.certain_answers() == certain, where
            elif check == "is_certain":
                for candidate in candidates:
                    assert session.is_certain(candidate) == expected[candidate], where
            elif check == "answer_batch":
                assert session.answer_batch(candidates) == expected, where
            else:
                assert session.is_consistent() == consistent, where


@settings(max_examples=60, deadline=None)
@given(stream=_streams(COLOURING_UNIVERSE, COLOURING_CLASH))
def test_carried_verdicts_match_fresh_grounding_on_cocsp(stream):
    _replay("colouring", COLOURING_UNIVERSE, stream)


@settings(max_examples=6, deadline=None)
@given(stream=_streams(MEDICAL_UNIVERSE, MEDICAL_CLASH))
def test_carried_verdicts_match_fresh_grounding_on_example_2_1(stream):
    _replay("medical", MEDICAL_UNIVERSE, stream)


# -- what a carried verdict saves ------------------------------------------------

A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
L1 = RelationSymbol("L1", 1)
L2 = RelationSymbol("L2", 1)


def _labelled_session():
    """``L1(x) v L2(x) <- A(x)``, ``goal(x) <- L1(x)``, ``goal(x) <- B(x)``:
    the ``B`` constants are the certain answers."""
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(L1, (X,)), Atom(L2, (X,))), (Atom(A, (X,)),)),
            Rule((goal_atom(X),), (Atom(L1, (X,)),)),
            Rule((goal_atom(X),), (Atom(B, (X,)),)),
        ]
    )
    facts = [Fact(A, (f"a{i}",)) for i in range(20)]
    facts += [Fact(A, (f"b{i}",)) for i in range(4)]
    facts += [Fact(B, (f"b{i}",)) for i in range(4)]
    session = ObdaSession(program, facts, policy=TIER2)
    solves: list[tuple[list, list]] = []
    solver = session._state(None).solver
    solve = solver.solve

    def recording(false_atoms=(), true_atoms=(), prefer_false=()):
        solves.append((list(false_atoms), list(prefer_false)))
        return solve(false_atoms, true_atoms, prefer_false)

    solver.solve = recording
    return session, solves


def test_a_delete_only_epoch_runs_no_screening_solve():
    session, solves = _labelled_session()
    assert session.certain_answers() == {(f"b{i}",) for i in range(4)}
    session.delete_facts([Fact(B, ("b0",))])
    solves.clear()
    with enabled() as tel:
        assert session.certain_answers() == {(f"b{i}",) for i in range(1, 4)}
    # one proof per formerly certain atom, each assuming it false
    assert len(solves) == 4
    assert all(len(false_atoms) == 1 for false_atoms, _ in solves)
    assert tel.counter("sat.screens_skipped") == 1
    assert tel.counter("sat.verdicts_carried") == 20  # the refuted a's


def test_an_insert_only_epoch_redecides_no_certain_atom():
    session, solves = _labelled_session()
    before = session.certain_answers()
    goal = session.program().goal_relation
    proved = {(goal, answer) for answer in before}
    session.insert_facts([Fact(B, ("c0",)), Fact(A, ("c1",))])
    solves.clear()
    with enabled() as tel:
        assert session.certain_answers() == before | {("c0",)}
    # one screening solve, then the proof of the one new answer
    assert len(solves) == 2
    for false_atoms, prefer_false in solves:
        assert not proved & {*false_atoms, *prefer_false}
    assert tel.counter("sat.verdicts_carried") == len(before)
    assert tel.counter("sat.screens_skipped") == 0


def test_repeated_queries_in_one_epoch_reuse_every_verdict():
    session, solves = _labelled_session()
    answers = session.certain_answers()
    solves.clear()
    assert session.certain_answers() == answers
    assert session.answer_batch([("a0",), ("b0",), NOWHERE]) == {
        ("a0",): False,
        ("b0",): True,
        NOWHERE: False,
    }
    assert session.is_consistent()
    assert solves == []
