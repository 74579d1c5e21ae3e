"""Incremental correctness of the OBDA serving layer.

Randomized insert/delete/query streams are replayed through
:class:`ObdaSession` and every answer is cross-validated against a fresh
from-scratch recomputation (``ground_program(...).certain_answers()``) over
the instance as it stands — the serving layer is only allowed to be faster,
never different.
"""

import functools
import random

import pytest

from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.datalog import DisjunctiveDatalogProgram, Rule, adom_atom, goal_atom
from repro.datalog.plain import DatalogProgram
from repro.engine.grounder import ground_program
from repro.omq.certain import compile_to_mddlog
from repro.planner import PlanPolicy
from repro.service import (
    IncrementalFixpoint,
    ObdaSession,
    ShardedObdaSession,
    graph_universe,
    is_shardable,
    medical_universe,
    random_stream,
    replay,
    shardability_violation,
)
from repro.service.session import _FixpointState, _SatState
from repro.translations.csp_templates import csp_to_mddlog
from repro.workloads.csp_zoo import two_colourability_template
from repro.workloads.medical import example_2_1_omq, patient_instance

#: Random programs legitimately trip analyzer warnings (MD003/MD005/...);
#: these suites cross-check answers, so their sessions skip the analyzer
#: (``tests/test_analysis.py`` covers the warn mode).
UNCHECKED = PlanPolicy(check="off")

A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
EDGE = RelationSymbol("edge", 2)
P = RelationSymbol("P", 1)
Q = RelationSymbol("Q", 1)
X, Y = Variable("x"), Variable("y")


def _random_body(rng):
    pool = []
    for symbol in (A, B, EDGE, P, Q):
        if symbol.arity == 1:
            pool.extend([Atom(symbol, (X,)), Atom(symbol, (Y,))])
        else:
            pool.extend(
                [Atom(symbol, (X, Y)), Atom(symbol, (Y, X)), Atom(symbol, (X, X))]
            )
    pool.extend([adom_atom(X), adom_atom(Y)])
    return tuple(rng.sample(pool, rng.randint(1, 3)))


def _random_program(rng, goal_arity):
    rules = []
    for _ in range(rng.randint(2, 4)):
        body = _random_body(rng)
        body_vars = sorted({v for atom in body for v in atom.variables}, key=str)
        head_pool = [Atom(s, (v,)) for s in (P, Q) for v in body_vars]
        kind = rng.random()
        if kind < 0.25:
            head = ()
        elif kind < 0.55:
            if goal_arity == 0:
                head = (goal_atom(),)
            else:
                head = (goal_atom(rng.choice(body_vars)),)
        else:
            head = tuple(
                rng.sample(head_pool, min(len(head_pool), rng.randint(1, 2)))
            )
        rules.append(Rule(head, body))
    if not any(rule.is_goal_rule() for rule in rules):
        goal_head = (goal_atom(),) if goal_arity == 0 else (goal_atom(X),)
        rules.append(Rule(goal_head, (Atom(P, (X,)),)))
    return DisjunctiveDatalogProgram(rules)


def _fact_universe(domain):
    facts = []
    for element in domain:
        facts.extend([Fact(A, (element,)), Fact(B, (element,))])
    for source in domain:
        for target in domain:
            facts.append(Fact(EDGE, (source, target)))
    return facts


def _run_stream(rng, session, universe, steps, check_every=1):
    """Drive random updates, cross-validating against from-scratch answers."""
    live = set()
    for step in range(steps):
        free = [f for f in universe if f not in live]
        if free and (not live or rng.random() < 0.65):
            batch = rng.sample(free, min(len(free), rng.randint(1, 3)))
            live.update(batch)
            session.insert_facts(batch)
        else:
            batch = rng.sample(
                sorted(live, key=str), min(len(live), rng.randint(1, 3))
            )
            live.difference_update(batch)
            session.delete_facts(batch)
        assert session.instance == Instance(live)
        if step % check_every == 0:
            for name in session.query_names:
                got = session.certain_answers(name)
                expected = ground_program(
                    session.program(name), session.instance
                ).certain_answers()
                assert got == expected, (
                    f"step {step}: {sorted(got)} != {sorted(expected)}"
                )
    return live


@pytest.mark.parametrize("seed", range(12))
def test_random_streams_match_from_scratch(seed):
    rng = random.Random(seed)
    program = _random_program(rng, rng.choice([0, 1]))
    session = ObdaSession(program, policy=UNCHECKED)
    _run_stream(rng, session, _fact_universe([1, 2, 3]), steps=18)


@pytest.mark.parametrize("seed", range(6))
def test_disjunctive_streams_use_guarded_solver(seed):
    """Force the SAT path (disjunctive head) and validate across churn."""
    rng = random.Random(100 + seed)
    rules = [
        Rule((Atom(P, (X,)), Atom(Q, (X,))), (adom_atom(X),)),
        Rule((), (Atom(P, (X,)), Atom(A, (X,)))),
        Rule((goal_atom(X),), (Atom(Q, (X,)), Atom(EDGE, (X, Y)))),
    ]
    program = DisjunctiveDatalogProgram(rules)
    session = ObdaSession(program)
    assert isinstance(session._state(None), _SatState)
    _run_stream(rng, session, _fact_universe([1, 2, 3]), steps=20)


@pytest.mark.parametrize("seed", range(6))
def test_plain_datalog_streams_use_incremental_fixpoint(seed):
    """Force the fixpoint path (disjunction-free) and validate across churn."""
    rng = random.Random(200 + seed)
    rules = [
        Rule((Atom(P, (X,)),), (Atom(A, (X,)),)),
        Rule((Atom(P, (Y,)),), (Atom(P, (X,)), Atom(EDGE, (X, Y)))),
        Rule((goal_atom(X),), (Atom(P, (X,)), Atom(B, (X,)))),
    ]
    program = DisjunctiveDatalogProgram(rules)
    session = ObdaSession(program)
    assert isinstance(session._state(None), _FixpointState)
    _run_stream(rng, session, _fact_universe([1, 2, 3, 4]), steps=22)


@pytest.mark.parametrize("seed", range(8))
def test_incremental_fixpoint_matches_least_fixpoint(seed):
    """IncrementalFixpoint (semi-naive + DRed) equals a fresh fixpoint."""
    rng = random.Random(300 + seed)
    rules = [
        Rule((Atom(P, (X,)),), (Atom(A, (X,)),)),
        Rule((Atom(P, (Y,)),), (Atom(P, (X,)), Atom(EDGE, (X, Y)))),
        Rule((Atom(Q, (X,)),), (Atom(P, (X,)), Atom(B, (X,)))),
        Rule((goal_atom(X),), (Atom(Q, (X,)), adom_atom(X))),
    ]
    program = DatalogProgram(rules)
    incremental = IncrementalFixpoint(program)
    universe = _fact_universe([1, 2, 3, 4])
    live = set()
    for _ in range(25):
        free = [f for f in universe if f not in live]
        if free and (not live or rng.random() < 0.6):
            batch = rng.sample(free, min(len(free), rng.randint(1, 4)))
            live.update(batch)
            incremental.insert(batch)
        else:
            batch = rng.sample(
                sorted(live, key=str), min(len(live), rng.randint(1, 4))
            )
            live.difference_update(batch)
            incremental.delete(batch)
        assert incremental.edb == Instance(live)
        assert incremental.fixpoint == program.least_fixpoint(Instance(live))


def _random_shardable_program(rng, goal_arity):
    """Random programs restricted to the shardable fragment (connected
    rule bodies, no constants, no nullary IDBs besides goal)."""
    while True:
        program = _random_program(rng, goal_arity)
        if is_shardable(program):
            return program


@pytest.mark.parametrize("seed", range(10))
def test_sharded_streams_match_from_scratch(seed):
    """Randomized insert/delete streams through a ShardedObdaSession equal
    the serial engine over the union instance, for every shard count —
    edge facts keep linking components, so migrations are exercised too."""
    rng = random.Random(400 + seed)
    program = _random_shardable_program(rng, rng.choice([0, 1]))
    shards = rng.choice([1, 2, 3])
    session = ShardedObdaSession(program, shards=shards, policy=UNCHECKED)
    universe = _fact_universe([1, 2, 3, 4])
    live: set = set()
    for step in range(16):
        free = [f for f in universe if f not in live]
        if free and (not live or rng.random() < 0.6):
            batch = rng.sample(free, min(len(free), rng.randint(1, 3)))
            live.update(batch)
            session.insert_facts(batch)
        else:
            batch = rng.sample(
                sorted(live, key=str), min(len(live), rng.randint(1, 3))
            )
            live.difference_update(batch)
            session.delete_facts(batch)
        assert session.instance == Instance(live)
        got = session.certain_answers()
        expected = ground_program(program, Instance(live)).certain_answers()
        assert got == expected, (
            f"step {step}, {shards} shards: {sorted(got)} != {sorted(expected)}"
        )


@functools.cache
def _medical_program():
    return compile_to_mddlog(example_2_1_omq())


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_medical_workload_matches_single_session(shards):
    """The Table 1 workload sharded: bulk load, point deletes, batch
    queries — every answer equals the single-session serving layer.
    (The degenerate shards=1 case is covered by the randomized streams.)"""
    program = _medical_program()
    universe = medical_universe(patients=4, generations=3)
    single = ObdaSession(program, initial_facts=universe)
    sharded = ShardedObdaSession(program, shards=shards, initial_facts=universe)
    assert sharded.instance == single.instance
    assert sharded.certain_answers() == single.certain_answers()
    candidates = [("patient1",), ("patient2",), ("nobody",), ()]
    sharded_batch = sharded.answer_batch([c for c in candidates if c])
    single_batch = single.answer_batch([c for c in candidates if c])
    assert sharded_batch == single_batch
    victims = sorted(universe, key=str)[::3]
    sharded.delete_facts(victims)
    single.delete_facts(victims)
    assert sharded.certain_answers() == single.certain_answers()
    assert sum(sharded.shard_sizes()) == len(sharded.instance)


def test_sharded_binary_goal_routes_mixed_candidates():
    """Arity-2 goals: candidates within one component are decided by its
    shard; candidates mixing components (or unknown constants) are never
    certain while every shard is consistent."""
    from repro.datalog.ddlog import GOAL

    goal2 = RelationSymbol(GOAL, 2)
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (X,)), Atom(Q, (X,))), (adom_atom(X),)),
            Rule((Atom(goal2, (X, Y)),), (Atom(EDGE, (X, Y)), Atom(P, (X,)))),
            Rule((Atom(goal2, (X, Y)),), (Atom(EDGE, (X, Y)), Atom(Q, (X,)))),
        ],
        goal_relation=goal2,
    )
    facts = [Fact(EDGE, ("a", "b")), Fact(EDGE, ("c", "d")), Fact(EDGE, ("d", "c"))]
    session = ShardedObdaSession(program, shards=3)
    session.insert_facts(facts)
    expected = ground_program(program, Instance(facts)).certain_answers()
    assert session.certain_answers() == expected
    decided = session.answer_batch(
        [("a", "b"), ("a", "c"), ("c", "d"), ("zz", "a")]
    )
    assert decided == {
        ("a", "b"): True,
        ("a", "c"): False,  # spans two components
        ("c", "d"): True,
        ("zz", "a"): False,  # unknown constant
    }


def test_sharded_session_rejects_unshardable_programs():
    disconnected = DisjunctiveDatalogProgram(
        [Rule((goal_atom(X),), (Atom(A, (X,)), Atom(B, (Y,))))]
    )
    assert not is_shardable(disconnected)
    assert "not connected" in shardability_violation(disconnected)
    with pytest.raises(ValueError, match="cannot be sharded"):
        ShardedObdaSession(disconnected, shards=2)
    nullary = DisjunctiveDatalogProgram(
        [
            Rule((Atom(RelationSymbol("flag", 0), ()),), (Atom(A, (X,)),)),
            Rule((goal_atom(X),), (Atom(B, (X,)),)),
        ]
    )
    assert "nullary" in shardability_violation(nullary)
    constant = DisjunctiveDatalogProgram(
        [Rule((goal_atom(X),), (Atom(EDGE, (X, "c")),))]
    )
    assert "constant" in shardability_violation(constant)


def test_sharded_inconsistency_is_globally_vacuous():
    """One shard's data violating a constraint makes every tuple over the
    *global* domain certain, exactly as the serial engine says."""
    program = DisjunctiveDatalogProgram(
        [
            Rule((), (Atom(A, (X,)),)),
            Rule((goal_atom(X),), (Atom(B, (X,)),)),
        ]
    )
    session = ShardedObdaSession(program, shards=3)
    session.insert_facts([Fact(B, (1,)), Fact(B, (2,))])
    assert session.certain_answers() == frozenset({(1,), (2,)})
    session.insert_facts([Fact(A, (3,))])  # breaks one shard only
    expected = ground_program(program, session.instance).certain_answers()
    assert session.certain_answers() == expected
    assert session.certain_answers() == frozenset({(1,), (2,), (3,)})
    assert session.answer_batch([(1,), (3,), (99,)]) == {
        (1,): True,
        (3,): True,
        (99,): False,
    }
    session.delete_facts([Fact(A, (3,))])
    assert session.certain_answers() == frozenset({(1,), (2,)})


def test_sharded_compact_preserves_answers():
    rng = random.Random(77)
    program = _random_shardable_program(rng, 1)
    session = ShardedObdaSession(program, shards=2, policy=UNCHECKED)
    universe = _fact_universe([1, 2, 3])
    session.insert_facts(rng.sample(universe, 8))
    session.delete_facts(rng.sample(sorted(session.instance, key=str), 3))
    before = session.certain_answers()
    instance_before = session.instance
    session.compact()
    assert session.instance == instance_before
    assert session.certain_answers() == before


@pytest.mark.parametrize("make_session", [
    lambda program: ObdaSession(program),
    lambda program: ShardedObdaSession(program, shards=2),
])
def test_adversarial_deletion_streams_are_noops(make_session):
    """Deleting facts that were never inserted, double deletions (within a
    batch and across epochs) and duplicate insertions must leave epoch
    counters and answers exactly as if the junk traffic never happened."""
    rules = [
        Rule((Atom(P, (X,)), Atom(Q, (X,))), (adom_atom(X),)),
        Rule((goal_atom(X),), (Atom(Q, (X,)), Atom(EDGE, (X, Y)))),
    ]
    program = DisjunctiveDatalogProgram(rules)
    session = make_session(program)
    ghost = Fact(EDGE, (8, 9))
    live = Fact(EDGE, (1, 2))
    # delete on an empty session: clean no-op
    assert session.delete_facts([ghost]) == 0
    assert session.stats.epoch == 0
    # duplicate insert entries count once
    assert session.insert_facts([live, live, Fact(A, (1,))]) == 2
    epoch = session.stats.epoch
    # deleting unknown facts alongside a real one: only the real one counts
    assert session.delete_facts([ghost, live, live]) == 1
    assert session.stats.epoch == epoch + 1
    # double delete across epochs: no-op, no epoch
    assert session.delete_facts([live]) == 0
    assert session.stats.epoch == epoch + 1
    # re-insert after delete still reactivates cleanly
    assert session.insert_facts([live]) == 1
    expected = ground_program(program, session.instance).certain_answers()
    assert session.certain_answers() == expected
    # retracting a guard the solver never saw is harmless at the SAT layer
    assert session.delete_facts([Fact(EDGE, (5, 6))]) == 0
    assert session.certain_answers() == expected


def test_session_survives_emptying_a_relation():
    """Regression for the ``without_facts`` schema shrink: delete the last
    fact of a relation the compiled query mentions, query, re-insert."""
    rules = [
        Rule((Atom(P, (X,)),), (Atom(A, (X,)), Atom(EDGE, (X, Y)))),
        Rule((goal_atom(X),), (Atom(P, (X,)),)),
    ]
    program = DisjunctiveDatalogProgram(rules)
    session = ObdaSession(program)
    edge = Fact(EDGE, (1, 2))
    session.insert_facts([Fact(A, (1,)), Fact(A, (2,)), edge])
    assert session.certain_answers() == frozenset({(1,)})
    # delete the only edge fact: the relation empties but stays resolvable
    session.delete_facts([edge])
    assert EDGE in session.instance.schema
    assert session.instance.tuples("edge") == frozenset()
    assert session.certain_answers() == frozenset()
    assert session.certain_answers() == ground_program(
        program, session.instance
    ).certain_answers()
    # re-insert: the compiled state comes back identical to from-scratch
    session.insert_facts([edge])
    assert session.certain_answers() == frozenset({(1,)})


def test_medical_workload_session():
    """The Table 1 workload: compile once, stream updates, stay correct."""
    omq = example_2_1_omq()
    program = compile_to_mddlog(omq)
    session = ObdaSession(program, initial_facts=patient_instance().facts)
    assert session.certain_answers() == frozenset(
        {("patient1",), ("patient2",)}
    )
    # the session agrees with the OMQ engines on the same data
    assert session.certain_answers() == omq.certain_answers(patient_instance())
    # batch interface
    decided = session.answer_batch([("patient1",), ("jan12find1",)])
    assert decided == {("patient1",): True, ("jan12find1",): False}
    # a deletion retracts the Lyme-disease chain for patient1
    finding = Fact(RelationSymbol("ErythemaMigrans", 1), ("jan12find1",))
    session.delete_facts([finding])
    assert session.certain_answers() == frozenset({("patient2",)})
    # re-insertion reactivates the retracted epoch's clauses
    session.insert_facts([finding])
    assert session.certain_answers() == frozenset(
        {("patient1",), ("patient2",)}
    )


def test_medical_stream_replay_validates():
    program = compile_to_mddlog(example_2_1_omq())
    events = random_stream(
        medical_universe(patients=3, generations=3), length=12, seed=7, query_every=2
    )
    report = replay(ObdaSession(program), events, validate=True)
    assert report.validated and report.queries > 0


def test_csp_zoo_stream_replay_validates():
    """coCSP(K2) over a churning random graph: non-2-colourability serving."""
    program = csp_to_mddlog(two_colourability_template())
    events = random_stream(graph_universe(6, seed=3), length=30, seed=9)
    session = ObdaSession({"non2col": program})
    report = replay(session, events, validate=True)
    assert report.validated and report.queries == 30


def test_multi_query_workload_shares_the_stream():
    rules_reach = [
        Rule((Atom(P, (X,)),), (Atom(A, (X,)),)),
        Rule((Atom(P, (Y,)),), (Atom(P, (X,)), Atom(EDGE, (X, Y)))),
        Rule((goal_atom(X),), (Atom(P, (X,)),)),
    ]
    guess = [
        Rule((Atom(P, (X,)), Atom(Q, (X,))), (adom_atom(X),)),
        Rule((goal_atom(),), (Atom(P, (X,)), Atom(Q, (X,)))),
    ]
    session = ObdaSession(
        {
            "reach": DisjunctiveDatalogProgram(rules_reach),
            "guess": DisjunctiveDatalogProgram(guess),
        }
    )
    session.insert_facts(
        [Fact(A, (1,)), Fact(EDGE, (1, 2)), Fact(EDGE, (2, 3))]
    )
    answers = session.answer_all()
    assert answers["reach"] == frozenset({(1,), (2,), (3,)})
    for name in session.query_names:
        assert answers[name] == ground_program(
            session.program(name), session.instance
        ).certain_answers()
    with pytest.raises(ValueError):
        session.certain_answers()  # ambiguous without a name
    with pytest.raises(KeyError):
        session.certain_answers("missing")


def test_compact_preserves_answers_and_resets_state():
    rng = random.Random(42)
    program = _random_program(rng, 1)
    session = ObdaSession(program)
    _run_stream(rng, session, _fact_universe([1, 2, 3]), steps=12, check_every=3)
    before = session.certain_answers()
    session.compact()
    assert session.certain_answers() == before
    expected = ground_program(program, session.instance).certain_answers()
    assert before == expected


def test_session_stats_track_epochs():
    program = csp_to_mddlog(two_colourability_template())
    session = ObdaSession(program)
    edge = RelationSymbol("edge", 2)
    session.insert_facts([Fact(edge, ("a", "b"))])
    session.insert_facts([Fact(edge, ("b", "a"))])
    session.delete_facts([Fact(edge, ("a", "b"))])
    assert session.stats.epoch == 3
    assert session.stats.facts_inserted == 2
    assert session.stats.facts_deleted == 1
    assert [entry["op"] for entry in session.stats.epochs] == [
        "insert",
        "insert",
        "delete",
    ]
    # no-op updates do not advance the epoch
    session.insert_facts([Fact(edge, ("b", "a"))])
    session.delete_facts([Fact(edge, ("a", "b"))])
    assert session.stats.epoch == 3


def test_inconsistent_data_makes_every_tuple_certain():
    """Mirrors GroundProgram.certain_answers: no model -> vacuously certain."""
    program = DisjunctiveDatalogProgram(
        [
            Rule((), (Atom(A, (X,)),)),  # data with an A-fact is inconsistent
            Rule((goal_atom(X),), (Atom(B, (X,)),)),
        ]
    )
    session = ObdaSession(program)
    session.insert_facts([Fact(B, (1,))])
    assert session.certain_answers() == frozenset({(1,)})
    session.insert_facts([Fact(A, (2,))])
    assert session.certain_answers() == ground_program(
        program, session.instance
    ).certain_answers()
    assert session.certain_answers() == frozenset({(1,), (2,)})
    # deleting the offending fact restores consistency
    session.delete_facts([Fact(A, (2,))])
    assert session.certain_answers() == frozenset({(1,)})
