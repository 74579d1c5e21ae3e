"""The tiered query planner: tier selection, unfolding, and cross-validation.

Pins the routing decisions for the paper's flagship workloads (Table 1
medical in rewritten form, the Example 2.2 datalog rewriting, coCSP(K3)),
unit-tests the UCQ unfolding, and cross-validates planner-routed and
forced-tier evaluation against each other and against the naive
model-enumeration reference on randomized programs.
"""

import itertools
import random

import pytest

from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.core.cq import atomic_query
from repro.datalog import (
    DisjunctiveDatalogProgram,
    Rule,
    adom_atom,
    evaluate,
    goal_atom,
    models,
)
from repro.dl import FunctionalRole, Ontology, Role
from repro.obda.applications import plan_omq_workload, serve_omq_workload
from repro.omq.certain import certain_answers, compile_to_mddlog
from repro.omq.query import OntologyMediatedQuery
from repro.planner import (
    TIER_FIXPOINT,
    TIER_GROUND_SAT,
    TIER_REWRITE,
    PlanPolicy,
    analyse_program,
    estimate_cost,
    execute_plan,
    plan_for_tier,
    plan_program,
    unfold_to_ucq,
)
from repro.service import ObdaSession, ShardedObdaSession
from repro.service.session import _FixpointState, _SatState, _UcqState
from repro.translations.csp_templates import csp_to_mddlog
from repro.workloads.csp_zoo import three_colourability_template
from repro.workloads.medical import example_2_1_omq, patient_instance

A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
EDGE = RelationSymbol("edge", 2)
P = RelationSymbol("P", 1)
Q = RelationSymbol("Q", 1)
X, Y, Z = Variable("x"), Variable("y"), Variable("z")

#: Pins a program to the ground+CDCL tier, the reference the cheaper tiers
#: are cross-validated against.
FORCE_SAT = PlanPolicy(tier=TIER_GROUND_SAT)


def _ucq_rewriting_program() -> DisjunctiveDatalogProgram:
    """The Table 1 q1 workload in UCQ-rewritten form (Example 2.2)."""
    hd = RelationSymbol("HasDiagnosis", 2)
    hf = RelationSymbol("HasFinding", 2)
    return DisjunctiveDatalogProgram(
        [
            Rule(
                (goal_atom(X),),
                (Atom(hd, (X, Y)), Atom(RelationSymbol("BacterialInfection", 1), (Y,))),
            ),
            Rule(
                (goal_atom(X),),
                (Atom(hd, (X, Y)), Atom(RelationSymbol("Listeriosis", 1), (Y,))),
            ),
            Rule(
                (goal_atom(X),),
                (Atom(hf, (X, Y)), Atom(RelationSymbol("ErythemaMigrans", 1), (Y,))),
            ),
        ]
    )


def _rewriting_program() -> DisjunctiveDatalogProgram:
    """The Example 2.2 recursive datalog rewriting of q2."""
    pred = RelationSymbol("HereditaryPredisposition", 1)
    parent = RelationSymbol("HasParent", 2)
    derived = RelationSymbol("P__derived", 1)
    return DisjunctiveDatalogProgram(
        [
            Rule((Atom(derived, (X,)),), (Atom(pred, (X,)),)),
            Rule((Atom(derived, (X,)),), (Atom(parent, (X, Y)), Atom(derived, (Y,)))),
            Rule((goal_atom(X),), (Atom(derived, (X,)),)),
        ]
    )


# ---------------------------------------------------------------------------
# Tier pinning for the flagship workloads
# ---------------------------------------------------------------------------


def test_medical_ucq_rewriting_routes_to_tier0():
    plan = plan_program(_ucq_rewriting_program())
    assert plan.tier == TIER_REWRITE
    assert plan.skips_sat
    assert plan.unfolding is not None
    assert len(plan.unfolding.goal_disjuncts) == 3
    assert plan.describe()["tier_name"] == "ucq-rewrite"


def test_datalog_rewriting_routes_to_tier1():
    plan = plan_program(_rewriting_program())
    assert plan.tier == TIER_FIXPOINT
    assert plan.skips_sat
    assert "P__derived" in plan.shape.recursive_relations


def test_cocsp_k3_routes_to_tier2():
    plan = plan_program(csp_to_mddlog(three_colourability_template()))
    assert plan.tier == TIER_GROUND_SAT
    assert not plan.skips_sat
    assert plan.shape.disjunctive_rule_count >= 1


def test_compiled_theorem33_medical_program_routes_to_tier2():
    """The Theorem 3.3 compilation of the Example 2.1 CQ stays on tier 2:
    syntactically disjunctive, and the semantic stage reports itself
    inapplicable (Theorem 4.6 covers atomic queries; the source query is
    a CQ) — see tests/test_semantic_routing.py for the compiled AQ
    workloads that do route off SAT."""
    program = compile_to_mddlog(example_2_1_omq())
    plan = plan_program(program)
    assert plan.tier == TIER_GROUND_SAT
    assert plan.semantic is not None
    assert "inapplicable" in plan.semantic.rationale


def test_plans_are_cached_per_program_object():
    program = _ucq_rewriting_program()
    assert plan_program(program) is plan_program(program)
    # a structurally equal but distinct program object is planned afresh
    assert plan_program(_ucq_rewriting_program()) is not plan_program(program)


# ---------------------------------------------------------------------------
# Structure analysis and unfolding
# ---------------------------------------------------------------------------


def test_analysis_census_counts_constraints_and_disjunction():
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (X,)), Atom(Q, (X,))), (adom_atom(X),)),
            Rule((), (Atom(P, (X,)), Atom(A, (X,)))),
            Rule((goal_atom(X),), (Atom(Q, (X,)),)),
        ]
    )
    shape = analyse_program(program)
    assert shape.rule_count == 3
    assert shape.constraint_count == 1
    assert shape.disjunctive_rule_count == 1
    assert not shape.recursive
    assert plan_program(program).tier == TIER_GROUND_SAT


def test_mutual_recursion_is_detected():
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (X,)),), (Atom(Q, (X,)), Atom(A, (X,)))),
            Rule((Atom(Q, (X,)),), (Atom(P, (X,)), Atom(B, (X,)))),
            Rule((Atom(Q, (X,)),), (Atom(B, (X,)),)),
            Rule((goal_atom(X),), (Atom(P, (X,)),)),
        ]
    )
    shape = analyse_program(program)
    assert set(shape.recursive_relations) == {"P", "Q"}
    assert plan_program(program).tier == TIER_FIXPOINT


def test_unfolding_handles_idb_chains_and_edb_leaves():
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (X,)),), (Atom(A, (X,)),)),
            Rule((Atom(P, (X,)),), (Atom(Q, (X,)),)),  # Q has no rules: EDB
            Rule((goal_atom(X),), (Atom(P, (X,)), Atom(EDGE, (X, Y)))),
        ]
    )
    unfolding = unfold_to_ucq(program)
    assert unfolding is not None
    leaves = {
        frozenset(a.relation.name for a in d.atoms)
        for d in unfolding.goal_disjuncts
    }
    # Q never occurs in a head, so (like the grounder) it is data-defined
    assert leaves == {frozenset({"A", "edge"}), frozenset({"Q", "edge"})}
    instance = Instance([Fact(A, (1,)), Fact(Q, (2,)), Fact(EDGE, (1, 3)), Fact(EDGE, (2, 2))])
    assert (
        evaluate(program, instance)
        == evaluate(program, instance, policy=FORCE_SAT)
        == frozenset({(1,), (2,)})
    )


def test_unfolding_drops_branches_on_constant_clash():
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, ("c",)),), (Atom(A, (X,)),)),
            Rule((goal_atom(X),), (Atom(P, (X,)), Atom(EDGE, (X, "d")))),
        ]
    )
    unfolding = unfold_to_ucq(program)
    assert unfolding is not None
    # the only definition pins x = "c"; the disjunct survives with x bound
    assert len(unfolding.goal_disjuncts) == 1
    assert unfolding.goal_disjuncts[0].answer_terms == ("c",)
    instance = Instance([Fact(A, (9,)), Fact(EDGE, ("c", "d"))])
    assert (
        evaluate(program, instance)
        == evaluate(program, instance, policy=FORCE_SAT)
        == frozenset({("c",)})
    )
    clashing = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, ("c",)),), (Atom(A, (X,)),)),
            Rule((goal_atom(X),), (Atom(P, ("e",)), Atom(EDGE, (X, X)))),
        ]
    )
    unfolded = unfold_to_ucq(clashing)
    assert unfolded is not None and unfolded.goal_disjuncts == ()
    assert evaluate(clashing, instance) == evaluate(
        clashing, instance, policy=FORCE_SAT
    )


def test_unfolding_unifies_repeated_head_variables_and_constants():
    two = RelationSymbol("P2", 2)
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(two, (X, X)),), (Atom(A, (X,)),)),
            Rule((Atom(two, (X, "c")),), (Atom(B, (X,)),)),
            Rule((goal_atom(X),), (Atom(two, (X, Y)), Atom(EDGE, (Y, X)))),
        ]
    )
    instance = Instance(
        [
            Fact(A, (1,)),
            Fact(EDGE, (1, 1)),
            Fact(B, (2,)),
            Fact(EDGE, ("c", 2)),
            Fact(A, (3,)),
            Fact(EDGE, (3, 1)),
        ]
    )
    plan = plan_program(program)
    assert plan.tier == TIER_REWRITE
    expected = evaluate(program, instance, policy=FORCE_SAT)
    assert evaluate(program, instance) == expected == frozenset({(1,), (2,)})


def test_unfolding_cap_falls_back_to_fixpoint():
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (X,)),), (Atom(A, (X,)),)),
            Rule((Atom(P, (X,)),), (Atom(B, (X,)),)),
            Rule((goal_atom(X),), tuple(Atom(P, (X,)) for _ in range(2)) + (adom_atom(X),)),
        ]
    )
    assert unfold_to_ucq(program, max_disjuncts=2) is None
    assert unfold_to_ucq(program) is not None
    plan = plan_for_tier(program, TIER_FIXPOINT)
    assert plan.tier == TIER_FIXPOINT


def test_adom_only_variables_and_boolean_goals():
    program = DisjunctiveDatalogProgram(
        [Rule((goal_atom(),), (adom_atom(X),))]
    )
    assert plan_program(program).tier == TIER_REWRITE
    assert evaluate(program, Instance([])) == frozenset()
    instance = Instance([Fact(A, (1,))])
    assert (
        evaluate(program, instance)
        == evaluate(program, instance, policy=FORCE_SAT)
        == frozenset({()})
    )
    unary = DisjunctiveDatalogProgram(
        [Rule((goal_atom(X),), (adom_atom(X), Atom(A, (Y,))))]
    )
    assert plan_program(unary).tier == TIER_REWRITE
    instance = Instance([Fact(A, (1,)), Fact(EDGE, (2, 3))])
    expected = evaluate(unary, instance, policy=FORCE_SAT)
    assert evaluate(unary, instance) == expected
    assert expected == frozenset({(1,), (2,), (3,)})


def test_forced_tier_errors_are_informative():
    disjunctive = csp_to_mddlog(three_colourability_template())
    with pytest.raises(ValueError, match="unsound"):
        plan_for_tier(disjunctive, TIER_REWRITE)
    with pytest.raises(ValueError, match="unsound"):
        plan_for_tier(disjunctive, TIER_FIXPOINT)
    with pytest.raises(ValueError, match="unknown tier"):
        plan_for_tier(disjunctive, 7)
    assert plan_for_tier(disjunctive, TIER_GROUND_SAT).tier == TIER_GROUND_SAT


def test_forcing_tier0_on_recursive_programs_raises():
    """Regression: forcing tier 0 on a recursive program must raise, not
    spin in the unfolder — a pure-IDB cycle (no EDB atom in the loop)
    grows no disjunct, so no unfolding cap would ever trip."""
    pure_cycle = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (X,)),), (Atom(Q, (X,)),)),
            Rule((Atom(Q, (X,)),), (Atom(P, (X,)),)),
            Rule((goal_atom(X),), (Atom(P, (X,)),)),
        ]
    )
    with pytest.raises(ValueError, match="recursive"):
        plan_for_tier(pure_cycle, TIER_REWRITE)
    # the natural plan and forced tier 1 stay available
    assert plan_program(pure_cycle).tier == TIER_FIXPOINT
    instance = Instance([Fact(A, (1,))])
    assert evaluate(pure_cycle, instance) == evaluate(
        pure_cycle, instance, policy=FORCE_SAT
    )


def test_cost_estimates_come_from_index_statistics():
    program = _ucq_rewriting_program()
    plan = plan_program(program)
    hd = RelationSymbol("HasDiagnosis", 2)
    li = RelationSymbol("Listeriosis", 1)
    instance = Instance(
        [Fact(hd, (f"p{i}", f"d{i}")) for i in range(10)]
        + [Fact(li, (f"d{i}",)) for i in range(10)]
    )
    estimate = estimate_cost(plan, instance)
    assert estimate.tier == TIER_REWRITE
    assert estimate.domain_size == 20
    assert estimate.candidates == 20  # unary goal
    assert estimate.join_cost > 0
    assert estimate.describe()["candidates"] == 20


def test_position_value_count_matches_position_values():
    instance = Instance([Fact(EDGE, (1, 2)), Fact(EDGE, (1, 3)), Fact(EDGE, (2, 3))])
    for position in range(2):
        assert instance.position_value_count(EDGE, position) == len(
            instance.position_values(EDGE, position)
        )
    assert instance.position_value_count(RelationSymbol("nope", 1), 0) == 0


# ---------------------------------------------------------------------------
# Randomized planner-vs-forced-tier cross-validation
# ---------------------------------------------------------------------------


def _random_instance(rng: random.Random, domain) -> Instance:
    facts = []
    for element in domain:
        for symbol in (A, B):
            if rng.random() < 0.5:
                facts.append(Fact(symbol, (element,)))
    for source in domain:
        for target in domain:
            if rng.random() < 0.4:
                facts.append(Fact(EDGE, (source, target)))
    return Instance(facts)


def _random_horn_program(rng: random.Random, goal_arity: int) -> DisjunctiveDatalogProgram:
    """Random disjunction-free programs: chains, optional recursion,
    optional constraints, adom atoms — the tier-0/1 population."""
    rules = [Rule((Atom(P, (X,)),), (Atom(A, (X,)),))]
    if rng.random() < 0.5:
        rules.append(Rule((Atom(P, (Y,)),), (Atom(P, (X,)), Atom(EDGE, (X, Y)))))
    if rng.random() < 0.6:
        rules.append(Rule((Atom(Q, (X,)),), (Atom(P, (X,)), Atom(B, (X,)))))
    else:
        rules.append(Rule((Atom(Q, (X,)),), (Atom(B, (X,)), adom_atom(Y))))
    if rng.random() < 0.4:
        rules.append(Rule((), (Atom(Q, (X,)), Atom(EDGE, (X, X)))))
    goal_body_rel = rng.choice([P, Q])
    if goal_arity == 0:
        rules.append(Rule((goal_atom(),), (Atom(goal_body_rel, (X,)),)))
    else:
        rules.append(Rule((goal_atom(X),), (Atom(goal_body_rel, (X,)),)))
    return DisjunctiveDatalogProgram(rules)


def _naive_certain_answers(program, instance):
    domain = sorted(instance.active_domain, key=repr)
    candidates = list(itertools.product(domain, repeat=program.arity))
    certain = set(candidates)
    for model in models(program, instance):
        goal_tuples = model.tuples(program.goal_relation)
        certain &= {c for c in certain if c in goal_tuples}
        if not certain:
            break
    return frozenset(certain)


@pytest.mark.parametrize("seed", range(25))
def test_forced_tiers_agree_with_model_enumeration(seed):
    """Every sound tier equals the textbook reference on tiny inputs."""
    rng = random.Random(98_000 + seed)
    goal_arity = rng.choice([0, 1])
    program = _random_horn_program(rng, goal_arity)
    instance = _random_instance(rng, [1, 2])
    expected = _naive_certain_answers(program, instance)
    assert evaluate(program, instance) == expected
    for tier in (TIER_REWRITE, TIER_FIXPOINT, TIER_GROUND_SAT):
        try:
            plan_for_tier(program, tier)
        except ValueError:
            continue
        assert evaluate(program, instance, policy=PlanPolicy(tier=tier)) == expected, tier


@pytest.mark.parametrize("seed", range(15))
def test_forced_tiers_agree_on_larger_instances(seed):
    rng = random.Random(99_000 + seed)
    goal_arity = rng.choice([0, 1])
    program = _random_horn_program(rng, goal_arity)
    instance = _random_instance(rng, list(range(1, 6)))
    reference = evaluate(program, instance, policy=FORCE_SAT)
    assert evaluate(program, instance) == reference
    for tier in (TIER_REWRITE, TIER_FIXPOINT):
        try:
            plan_for_tier(program, tier)
        except ValueError:
            continue
        assert evaluate(program, instance, policy=PlanPolicy(tier=tier)) == reference, tier


def test_vacuous_certainty_parity_across_tiers():
    """A fired constraint makes every adom tuple certain — identically in
    the UCQ, fixpoint and ground tiers, one-shot and in sessions."""
    program = DisjunctiveDatalogProgram(
        [
            Rule((), (Atom(A, (X,)),)),
            Rule((goal_atom(X),), (Atom(B, (X,)),)),
        ]
    )
    instance = Instance([Fact(A, (1,)), Fact(EDGE, (2, 3))])
    expected = frozenset({(1,), (2,), (3,)})
    for tier in (TIER_REWRITE, TIER_FIXPOINT, TIER_GROUND_SAT):
        assert evaluate(program, instance, policy=PlanPolicy(tier=tier)) == expected, tier
    for tier in (None, TIER_REWRITE, TIER_FIXPOINT, TIER_GROUND_SAT):
        session = ObdaSession(program, policy=PlanPolicy(tier=tier))
        session.insert_facts(instance.facts)
        assert not session.is_consistent()
        assert session.certain_answers() == expected, tier
        batch = session.answer_batch([(1,), ("ghost",)])
        assert batch == {(1,): True, ("ghost",): False}, tier


# ---------------------------------------------------------------------------
# Serving sessions route through the planner
# ---------------------------------------------------------------------------


def test_session_states_match_plan_tiers():
    session = ObdaSession(
        {
            "ucq": _ucq_rewriting_program(),
            "fixpoint": _rewriting_program(),
            "sat": csp_to_mddlog(three_colourability_template()),
        }
    )
    assert isinstance(session._state("ucq"), _UcqState)
    assert isinstance(session._state("fixpoint"), _FixpointState)
    assert isinstance(session._state("sat"), _SatState)
    explain = session.explain()
    assert explain["schema"] == "obda-explain/v2"
    queries = explain["queries"]
    assert queries["ucq"]["tier"] == TIER_REWRITE
    assert queries["fixpoint"]["tier"] == TIER_FIXPOINT
    assert queries["sat"]["tier"] == TIER_GROUND_SAT
    assert session.plan("ucq").tier_name == "ucq-rewrite"


def test_tier1_constraint_plans_compile_once(monkeypatch):
    """A tier-1 query checks its constraint through one cached plan: 100
    session reads, then a stateless execution on a frozen fixpoint, compile
    it once."""
    from repro.planner import execute

    reach = RelationSymbol("reach", 1)
    start, bad = RelationSymbol("start", 1), RelationSymbol("bad", 1)
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(reach, (X,)),), (Atom(start, (X,)),)),
            Rule((Atom(reach, (Y,)),), (Atom(reach, (X,)), Atom(EDGE, (X, Y)))),
            Rule((goal_atom(X),), (Atom(reach, (X,)),)),
            Rule((), (Atom(reach, (X,)), Atom(bad, (X,)))),
        ]
    )
    chain = [Fact(EDGE, (i, i + 1)) for i in range(200)] + [Fact(start, (0,))]
    session = ObdaSession(program, chain)
    assert isinstance(session._state(None), _FixpointState)
    compiled = []
    original = execute.compile_join

    def counting_compile(*args, **kwargs):
        compiled.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(execute, "compile_join", counting_compile)
    answers = {session.certain_answers() for _ in range(100)}
    assert answers == {frozenset((i,) for i in range(201))}
    assert execute.execute_plan(session.plan(), session.instance) == answers.pop()
    assert len(compiled) == 1


def _late_constant_cases():
    """Programs whose body constant the first read's data lacks, each with
    the fact that first brings it in: a tier-1 constraint, a tier-1
    recursive rule and a tier-0 disjunct."""
    reach = RelationSymbol("reach", 1)
    start = RelationSymbol("start", 1)
    base = [
        Rule((Atom(reach, (X,)),), (Atom(start, (X,)),)),
        Rule((Atom(reach, (Y,)),), (Atom(reach, (X,)), Atom(EDGE, (X, Y)))),
    ]
    chain = [Fact(EDGE, (i, i + 1)) for i in range(5)] + [Fact(start, (0,))]
    constraint = DisjunctiveDatalogProgram(
        base
        + [
            Rule((goal_atom(X),), (Atom(start, (X,)),)),
            Rule((), (Atom(reach, ("sink",)),)),
        ]
    )
    gated = DisjunctiveDatalogProgram(
        [
            base[0],
            Rule(
                (Atom(reach, (Y,)),),
                (Atom(reach, (X,)), Atom(EDGE, (X, Y)), Atom(A, ("on",))),
            ),
            Rule((goal_atom(X),), (Atom(reach, (X,)),)),
        ]
    )
    disjunct = DisjunctiveDatalogProgram(
        [Rule((goal_atom(X),), (Atom(A, (X,)), Atom(EDGE, (X, "d"))))]
    )
    return [
        pytest.param(
            constraint, _FixpointState, chain, Fact(EDGE, (5, "sink")), id="constraint"
        ),
        pytest.param(gated, _FixpointState, chain, Fact(A, ("on",)), id="recursive-rule"),
        pytest.param(
            disjunct, _UcqState, [Fact(A, (1,))], Fact(EDGE, (1, "d")), id="disjunct"
        ),
    ]


@pytest.mark.parametrize("program, state_type, facts, late", _late_constant_cases())
def test_cached_plans_see_a_constant_that_arrives_late(program, state_type, facts, late):
    """A body constant unknown to the interner at the first read takes
    effect once an insert brings it in, although the join plans reading it
    are cached: the session, a snapshot and ``execute_plan`` agree with a
    fresh grounding before the insert, after it and after the delete."""
    from repro.engine import ground_program

    facts = list(facts)
    session = ObdaSession(program, facts, policy=PlanPolicy(check="off"))
    assert isinstance(session._state(None), state_type)

    def check():
        expected = ground_program(program, Instance(facts)).certain_answers()
        assert session.certain_answers() == expected
        assert session.snapshot().certain_answers() == expected
        assert execute_plan(session.plan(), session.instance) == expected
        return expected

    before = check()
    session.insert_facts([late])
    facts.append(late)
    assert check() != before
    session.delete_facts([late])
    facts.remove(late)
    assert check() == before


def test_session_force_tier_overrides_routing():
    program = _ucq_rewriting_program()
    session = ObdaSession(program, policy=FORCE_SAT)
    assert isinstance(session._state(None), _SatState)
    with pytest.raises(ValueError):
        ObdaSession(
            csp_to_mddlog(three_colourability_template()),
            policy=PlanPolicy(tier=TIER_REWRITE),
        )


@pytest.mark.parametrize("seed", range(8))
def test_tier0_session_streams_match_from_scratch(seed):
    """Insert/delete/query streams against the stateless UCQ state equal
    ground-and-solve from scratch after every epoch."""
    from repro.engine import ground_program

    rng = random.Random(77_000 + seed)
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (X,)),), (Atom(A, (X,)),)),
            Rule((Atom(Q, (X,)),), (Atom(P, (X,)), Atom(EDGE, (X, Y)))),
            Rule((goal_atom(X),), (Atom(Q, (X,)),)),
        ]
    )
    session = ObdaSession(program)
    assert isinstance(session._state(None), _UcqState)
    universe = [Fact(A, (e,)) for e in [1, 2, 3]] + [
        Fact(EDGE, (a, b)) for a in [1, 2, 3] for b in [1, 2, 3]
    ]
    live: set[Fact] = set()
    for _ in range(20):
        free = [f for f in universe if f not in live]
        if free and (not live or rng.random() < 0.6):
            batch = rng.sample(free, min(len(free), rng.randint(1, 3)))
            live.update(batch)
            session.insert_facts(batch)
        else:
            batch = rng.sample(sorted(live, key=str), min(len(live), rng.randint(1, 2)))
            live.difference_update(batch)
            session.delete_facts(batch)
        expected = ground_program(program, session.instance).certain_answers()
        assert session.certain_answers() == expected
        for candidate in [(1,), (2,), ("ghost",)]:
            assert session.is_certain(candidate) == (candidate in expected)


def test_sharded_session_exposes_plans():
    program = _ucq_rewriting_program()
    sharded = ShardedObdaSession(program, shards=2)
    assert sharded.plan().tier == TIER_REWRITE
    assert sharded.explain()["queries"][next(iter(sharded.query_names))]["tier"] == TIER_REWRITE
    hd = RelationSymbol("HasDiagnosis", 2)
    li = RelationSymbol("Listeriosis", 1)
    facts = [Fact(hd, (f"p{i}", f"d{i}")) for i in range(6)] + [
        Fact(li, (f"d{i}",)) for i in range(0, 6, 2)
    ]
    sharded.insert_facts(facts)
    single = ObdaSession(program, initial_facts=facts)
    assert sharded.certain_answers() == single.certain_answers()


# ---------------------------------------------------------------------------
# OMQ layer: the planned engine and workload planning
# ---------------------------------------------------------------------------


def test_planned_engine_matches_auto_on_medical():
    omq = example_2_1_omq()
    instance = patient_instance()
    auto = certain_answers(omq, instance, engine="auto")
    planned = certain_answers(omq, instance, engine="planned")
    assert planned == auto == frozenset({("patient1",), ("patient2",)})


def test_planned_engine_falls_back_without_mddlog_translation():
    """Functional roles have no complete MDDlog translation; the planned
    engine must fall back to the auto selection instead of failing."""
    omq = OntologyMediatedQuery(
        ontology=Ontology([FunctionalRole(Role("r"))]),
        query=atomic_query("A"),
    )
    instance = Instance([Fact(A, ("a",))])
    assert certain_answers(omq, instance, engine="planned") == certain_answers(
        omq, instance, engine="auto"
    )


def test_plan_omq_workload_reports_tiers():
    plans = plan_omq_workload(
        {
            "q1_rewritten": _ucq_rewriting_program(),
            "q2_rewriting": _rewriting_program(),
            "q1_compiled": example_2_1_omq(),
        }
    )
    assert plans["q1_rewritten"].tier == TIER_REWRITE
    assert plans["q2_rewriting"].tier == TIER_FIXPOINT
    assert plans["q1_compiled"].tier == TIER_GROUND_SAT
    single = plan_omq_workload(_rewriting_program())
    assert single["q"].tier == TIER_FIXPOINT


def test_serve_omq_workload_sessions_are_planned():
    session = serve_omq_workload(_ucq_rewriting_program())
    assert session.plan().tier == TIER_REWRITE
    sharded = serve_omq_workload(_rewriting_program(), shards=2)
    assert sharded.plan().tier == TIER_FIXPOINT

