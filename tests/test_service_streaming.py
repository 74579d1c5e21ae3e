"""Incremental correctness of the OBDA serving layer.

Randomized insert/delete/query streams are replayed through
:class:`ObdaSession` and every answer is cross-validated against a fresh
from-scratch recomputation (``ground_program(...).certain_answers()``) over
the instance as it stands — the serving layer is only allowed to be faster,
never different.
"""

import functools
import itertools
import random

import pytest

from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.datalog import DisjunctiveDatalogProgram, Rule, adom_atom, goal_atom
from repro.datalog.ddlog import ADOM, GOAL
from repro.datalog.plain import DatalogProgram, seed_row_builder
from repro.engine.grounder import _split_body, ground_program, instantiate_atom
from repro.engine.joins import compile_join, execute_join
from repro.obs import enabled
from repro.omq.certain import compile_to_mddlog
from repro.planner import TIER_GROUND_SAT, PlanPolicy
from repro.service import (
    DeltaGrounder,
    IncrementalFixpoint,
    ObdaSession,
    ShardedObdaSession,
    adom_guard,
    fact_guard,
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


@pytest.mark.parametrize("seed", range(6))
def test_incremental_fixpoint_keeps_edb_facts_over_idb_relations(seed):
    """EDB facts over derived relations survive DRed over-deletion: a
    derived row that is also a live EDB fact is never over-deleted, and a
    deleted one stays exactly when some rule still derives it."""
    rng = random.Random(350 + seed)
    program = DatalogProgram(
        [
            Rule((Atom(P, (X,)),), (Atom(A, (X,)),)),
            Rule((Atom(P, (Y,)),), (Atom(P, (X,)), Atom(EDGE, (X, Y)))),
            Rule((Atom(Q, (X,)),), (Atom(P, (X,)), Atom(B, (X,)))),
            Rule((goal_atom(X),), (Atom(Q, (X,)),)),
        ]
    )
    incremental = IncrementalFixpoint(program)
    domain = [1, 2, 3, 4]
    universe = _fact_universe(domain) + [Fact(rel, (e,)) for rel in (P, Q) for e in domain]
    live = set()
    for _ in range(30):
        free = [f for f in universe if f not in live]
        if free and (not live or rng.random() < 0.55):
            batch = rng.sample(free, min(len(free), rng.randint(1, 4)))
            live.update(batch)
            incremental.insert(batch)
        else:
            batch = rng.sample(sorted(live, key=str), min(len(live), rng.randint(1, 3)))
            live.difference_update(batch)
            incremental.delete(batch)
        assert incremental.fixpoint == program.least_fixpoint(Instance(live))


HAS_PARENT = RelationSymbol("HasParent", 2)
PREDISPOSITION = RelationSymbol("HereditaryPredisposition", 1)


def _ancestry_forest(rng, trees=4, generations=6, width=4):
    """Family trees in which everyone below the top generation has two
    parents in the generation above (so DRed deletions re-derive), and half
    of the top generation carries the predisposition."""
    facts = []
    for tree in range(trees):
        people = [
            [f"p{tree}_{generation}_{slot}" for slot in range(width)]
            for generation in range(generations)
        ]
        for generation in range(generations - 1):
            for person in people[generation]:
                for parent in rng.sample(people[generation + 1], 2):
                    facts.append(Fact(HAS_PARENT, (person, parent)))
        facts.extend(Fact(PREDISPOSITION, (a,)) for a in people[-1] if rng.random() < 0.5)
    return facts


def test_tier1_updates_maintain_the_materialization_in_place(monkeypatch):
    """Once set up, a tier-1 session's epochs neither copy nor freeze nor
    decode the materialization, and a read decodes the goal rows once per
    epoch, while answers stay equal to a stateless recomputation."""
    from repro.core.instance import MutableIndexedInstance
    from repro.core.interning import Interner
    from repro.planner import execute_plan

    derived = RelationSymbol("P__derived", 1)
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(derived, (X,)),), (Atom(PREDISPOSITION, (X,)),)),
            Rule((Atom(derived, (X,)),), (Atom(HAS_PARENT, (X, Y)), Atom(derived, (Y,)))),
            Rule((goal_atom(X),), (Atom(derived, (X,)),)),
        ]
    )
    rng = random.Random(19)
    forest = _ancestry_forest(rng)
    session = ObdaSession(program, forest)
    assert isinstance(session._state(None), _FixpointState)
    calls = {"stores": 0, "freezes": 0, "decodes": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        MutableIndexedInstance, "__init__", counting("stores", MutableIndexedInstance.__init__)
    )
    monkeypatch.setattr(
        MutableIndexedInstance, "freeze", counting("freezes", MutableIndexedInstance.freeze)
    )
    monkeypatch.setattr(Interner, "decode_row", counting("decodes", Interner.decode_row))
    during_updates = dict.fromkeys(calls, 0)
    edges = [fact for fact in forest if fact.relation == HAS_PARENT]
    for step in range(40):
        before = dict(calls)
        if step % 2 == 0:
            edge = rng.choice(edges)
            session.delete_facts([edge])
        else:
            session.insert_facts([edge])
        for name, count in calls.items():
            during_updates[name] += count - before[name]
        assert session.certain_answers() == execute_plan(session.plan(), session.instance)
    assert during_updates == {"stores": 0, "freezes": 0, "decodes": 0}

    # A newborn child of a predisposed ancestor changes the goal relation.
    ancestor = next(fact for fact in forest if fact.relation == PREDISPOSITION).arguments[0]
    session.insert_facts([Fact(HAS_PARENT, ("newborn", ancestor))])
    before = calls["decodes"]
    answers = {session.certain_answers() for _ in range(100)}
    goal_rows = session._state(None).fixpoint.store.relation_rows(program.goal_relation)
    assert calls["decodes"] - before == len(goal_rows) > 0
    assert answers == {execute_plan(session.plan(), session.instance)}


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


@pytest.mark.parametrize(
    "policy", [None, PlanPolicy(tier=2)], ids=["natural", "tier2"]
)
def test_sharded_inconsistency_is_globally_vacuous(policy):
    """One shard's data violating a constraint makes every tuple over the
    *global* domain certain, exactly as the serial engine says.  Under
    tier 2 the delete re-opens the consistency verdict each shard keeps
    from its last screening solve."""
    program = DisjunctiveDatalogProgram(
        [
            Rule((), (Atom(A, (X,)),)),
            Rule((goal_atom(X),), (Atom(B, (X,)),)),
        ]
    )
    session = ShardedObdaSession(program, shards=3, policy=policy)
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
    # (5,) is answered on its own shard; the shard of 3 only reports its
    # consistency, which each insert and delete must re-open.
    session.insert_facts([Fact(EDGE, (5, 5))])
    assert session.answer_batch([(5,)]) == {(5,): False}
    session.insert_facts([Fact(A, (3,))])
    assert session.answer_batch([(5,)]) == {(5,): True}
    session.delete_facts([Fact(A, (3,))])
    assert session.answer_batch([(5,)]) == {(5,): False}


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


# ---------------------------------------------------------------------------
# Shape-grouped delta grounding against the per-rule oracle
# ---------------------------------------------------------------------------


class _PerRuleGrounder:
    """The per-rule delta grounder, kept only as an oracle.

    One semi-naive join per rule and delta, each rule keeping its own join
    results and building its clauses from its own variable assignments —
    the insert loop :class:`DeltaGrounder` replaced by one join per EDB
    body shape.  Its clauses must match clause for clause.
    """

    def __init__(self, program):
        idb_names = frozenset({s.name for s in program.idb_relations} | {GOAL}) - {ADOM}
        self._rules = []
        self._emitted = set()
        self.bootstrap = []
        for rule in program.rules:
            edb_atoms, adom_atoms, idb_atoms = _split_body(rule, idb_names, ADOM)
            free = sorted(
                {v for v in rule.variables if not any(v in a.variables for a in edb_atoms)},
                key=str,
            )
            # (rule, EDB atoms, adom atoms, IDB atoms, free variables,
            #  join results by interned key, compiled plans)
            state = [rule, edb_atoms, adom_atoms, idb_atoms, free, {}, None]
            self._rules.append(state)
            if not edb_atoms:
                state[5][()] = {}
                if not free:
                    self._emit_clause(state, {}, (), self.bootstrap.append)

    def insert(self, old_instance, delta, new_instance):
        emitted = []

        def emit(clause):
            if clause not in self._emitted:
                self._emitted.add(clause)
                emitted.append(clause)

        for fact in sorted(delta, key=str):
            for constant in set(fact.arguments):
                emit((frozenset([fact_guard(fact)]), frozenset([adom_guard(constant)])))
        new_elements = delta.active_domain - old_instance.active_domain
        full_domain = sorted(new_instance.active_domain, key=repr)
        interner = new_instance.interner
        for state in self._rules:
            _rule, edb_atoms, _adom, _idb, free, partials, plans = state
            arity = len(free)
            if new_elements and arity and partials:
                top_up = [
                    values
                    for values in itertools.product(full_domain, repeat=arity)
                    if any(value in new_elements for value in values)
                ]
                for partial in partials.values():
                    for values in top_up:
                        self._emit_clause(state, partial, values, emit)
            new_partials = []
            for index, atom in enumerate(edb_atoms):
                rows = delta.tuples(atom.relation)
                if not rows:
                    continue
                if plans is None:
                    plans = state[6] = self._compile(edb_atoms, new_instance)
                plan, build_seed, perm = plans[index]
                seeds = [
                    seed
                    for row in rows
                    if (seed := build_seed(interner.intern_row(row))) is not None
                ]
                if not seeds:
                    continue
                for result in execute_join(plan, new_instance, seeds):
                    key = tuple(result[p] for p in perm)
                    if key not in partials:
                        partials[key] = dict(zip(plan.variables, interner.decode_row(result)))
                        new_partials.append(partials[key])
            all_tuples = list(itertools.product(full_domain, repeat=arity))
            for assignment in new_partials:
                for values in all_tuples:
                    self._emit_clause(state, assignment, values, emit)
        return emitted

    @staticmethod
    def _compile(edb_atoms, store):
        variables = sorted({v for a in edb_atoms for v in a.variables}, key=lambda v: v.name)
        plans = []
        for index, atom in enumerate(edb_atoms):
            rest = edb_atoms[:index] + edb_atoms[index + 1 :]
            plan = compile_join(rest, store, bound=atom.variables)
            slot_of = {v: s for s, v in enumerate(plan.variables)}
            perm = tuple(slot_of[v] for v in variables)
            plans.append((plan, seed_row_builder(atom, plan, store.interner), perm))
        return plans

    @staticmethod
    def _emit_clause(state, partial, values, emit):
        rule, edb_atoms, adom_atoms, idb_atoms, free = state[:5]
        assignment = dict(partial)
        assignment.update(zip(free, values))
        negative = {instantiate_atom(a, assignment) for a in idb_atoms}
        positive = frozenset(instantiate_atom(a, assignment) for a in rule.head)
        if negative & positive:
            return
        for atom in edb_atoms:
            negative.add(fact_guard(Fact(*instantiate_atom(atom, assignment))))
        for value in values:
            negative.add(adom_guard(value))
        for atom in adom_atoms:
            if not isinstance(atom.arguments[0], Variable):
                negative.add(adom_guard(atom.arguments[0]))
        emit((frozenset(negative), positive))


def _assert_same_clauses(program, events, ordered=False):
    """Replay insert/delete events through both grounders; after every
    insert, the clauses each has emitted so far must be the same set.

    Both start from the same bootstrap clauses, so comparing each insert's
    new clauses (as ``(negative, positive)`` frozenset pairs) keeps the
    running sets equal without rescanning them.  ``ordered`` also demands
    the same emission order, i.e. the same solver input.
    """
    oracle, grounder = _PerRuleGrounder(program), DeltaGrounder(program)
    assert set(grounder.bootstrap_clauses()) == set(oracle.bootstrap)
    instance = Instance([])
    inserts = 0
    for kind, facts in events:
        if kind == "delete":
            instance = instance.without_facts(facts)
            continue
        old, delta, instance = instance, Instance(facts), instance.with_facts(facts)
        expected = oracle.insert(old, delta, instance)
        got = grounder.insert(old, delta, instance)
        assert set(got) == set(expected), f"insert {inserts}: {set(got) ^ set(expected)}"
        assert got == expected or not ordered
        inserts += 1
    return inserts


@pytest.mark.parametrize("seed", range(11, 16))
def test_grouped_grounder_matches_per_rule_on_table1_streams(seed):
    """Compiled Example 2.1 on the serve-table1 stream shapes: the same
    clauses in the same order (all its rules have at most one EDB atom)."""
    stream = random_stream(medical_universe(4, 3), 100, seed=seed)
    events = [(e.kind, e.facts) for e in stream if e.kind in ("insert", "delete")]
    assert _assert_same_clauses(_medical_program(), events, ordered=True) > 0


class _Twin:
    """A constant that prints like every other twin: equal ``repr``,
    distinct value."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, _Twin) and other.tag == self.tag

    def __hash__(self):
        return hash(("twin", self.tag))

    def __repr__(self):
        return "twin"


TWIN_A, TWIN_B = _Twin("a"), _Twin("b")
Z = Variable("z")
#: EDB bodies over x and y, renamed per rule so that rules share shapes.
_SHAPE_BODIES = (
    (Atom(EDGE, (X, Y)),),
    (Atom(EDGE, (Y, X)),),  # a renaming of edge(x, y): one shape
    (Atom(EDGE, (X, X)),),  # not a renaming of edge(x, y)
    (Atom(EDGE, (X, Y)), Atom(A, (Y,))),
    (Atom(A, (Y,)), Atom(EDGE, (X, Y))),  # the same body in the other order
    (Atom(EDGE, (X, Y)), Atom(EDGE, (Y, X))),
    (Atom(EDGE, (X, TWIN_A)), Atom(B, (X,))),
    (),  # no EDB atom: the rule's variables are all free
)
#: In every program: equal reprs, different constants, so different shapes.
_TWIN_BODIES = ((Atom(A, (TWIN_A,)),), (Atom(A, (TWIN_B,)),))


def _shape_sharing_program(rng, goal_arity):
    rules = []
    for body in rng.sample(_SHAPE_BODIES, 3) + list(_TWIN_BODIES):
        for _ in range(rng.randint(1, 3)):
            rename = dict(zip((X, Y), rng.sample((X, Y, Z), 2)))
            edb = tuple(atom.substitute(rename) for atom in body)
            bound = sorted({v for atom in edb for v in atom.variables}, key=str)
            free = [v for v in (X, Y, Z) if v not in bound]
            pool = bound + rng.sample(free, rng.randint(0 if bound else 1, min(2, len(free))))
            extra = [
                Atom(rng.choice((P, Q)), (rng.choice(pool),)) for _ in range(rng.randint(0, 2))
            ]
            extra += [adom_atom(v) for v in pool if v not in bound and rng.random() < 0.5]
            if rng.random() < 0.2:
                extra.append(adom_atom(rng.choice((1, TWIN_A, TWIN_B))))
            if not edb and not extra:
                extra.append(adom_atom(pool[0]))
            variables = sorted({v for atom in edb + tuple(extra) for v in atom.variables}, key=str)
            kind = rng.random()
            if kind < 0.3 or not variables:
                head = ()
            elif kind < 0.55:
                head = (goal_atom(*rng.sample(variables, goal_arity)),)
            else:
                head = tuple(Atom(rng.choice((P, Q)), (v,)) for v in rng.sample(variables, 1))
            rules.append(Rule(head, edb + tuple(extra)))
    rules.append(Rule((goal_atom(X) if goal_arity else goal_atom(),), (Atom(P, (X,)),)))
    return DisjunctiveDatalogProgram(rules)


@pytest.mark.parametrize("seed", range(20))
def test_grouped_grounder_matches_per_rule_on_shared_shapes(seed):
    rng = random.Random(seed)
    program = _shape_sharing_program(rng, rng.choice([0, 1]))
    universe = _fact_universe([1, 2, TWIN_A, TWIN_B])
    # live facts in insertion order: twins print alike, so sorting by str
    # alone would leave their order to the hash seed
    live, gone, events = {}, [], []
    for _ in range(30):
        if live and rng.random() < 0.35:
            batch = rng.sample(sorted(live, key=str), min(len(live), rng.randint(1, 3)))
            for fact in batch:
                del live[fact]
            gone.extend(batch)
            events.append(("delete", batch))
            continue
        # re-insert deleted facts half the time
        pool = [f for f in (gone if gone and rng.random() < 0.5 else universe) if f not in live]
        batch = list(dict.fromkeys(rng.sample(pool, min(len(pool), rng.randint(1, 3)))))
        if batch:
            live.update(dict.fromkeys(batch))
            events.append(("insert", batch))
    assert _assert_same_clauses(program, events) > 0


def test_insert_joins_once_per_shape():
    """Compiled Example 2.1: one HasParent fact is one join (3,600 rules
    share its EDB body), and re-inserting it emits no clause."""
    session = ObdaSession(_medical_program(), policy=PlanPolicy(tier=TIER_GROUND_SAT))
    session.insert_facts(
        [
            Fact(RelationSymbol("HasFinding", 2), ("p", "f")),
            Fact(RelationSymbol("ErythemaMigrans", 1), ("f",)),
        ]
    )
    assert session.certain_answers() == frozenset({("p",)})
    parent = Fact(RelationSymbol("HasParent", 2), ("p", "q"))
    for clauses in (3736, 0):
        with enabled() as tel:
            session.insert_facts([parent])
        assert tel.counter("join.plans_executed") == 1
        assert tel.counter("delta.clauses_emitted") == clauses
        assert session.certain_answers() == frozenset({("p",)})
        session.delete_facts([parent])
        assert session.certain_answers() == frozenset({("p",)})
