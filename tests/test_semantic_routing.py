"""Semantic rewritability routing: construction, budgets, forcing, serving.

Pins the planner's semantic stage (:mod:`repro.planner.semantic`) end to
end: Theorem 3.3 compilations of FO-/datalog-rewritable atomic OMQs route
off SAT onto constructed rewritings (obstruction-set UCQs on tier 0,
canonical datalog on tier 1) with answers cross-validated against the
ground+CDCL engine; budget exhaustion, inapplicability, missing tree
duality and a forced tier all keep (or pin) the program on tier 2 with an
explainable rationale.
"""

import random

import pytest

from repro.core import Fact, Instance, RelationSymbol
from repro.core.cq import atomic_query
from repro.core.schema import Schema
from repro.csp.canonical_datalog import has_tree_duality
from repro.datalog import evaluate
from repro.dl import ConceptInclusion, ConceptName, Exists, Ontology, Role
from repro.obda.applications import plan_omq_workload, serve_omq_workload
from repro.omq.certain import compile_to_mddlog
from repro.omq.query import OntologyMediatedQuery
from repro.planner import (
    TIER_FIXPOINT,
    TIER_GROUND_SAT,
    TIER_REWRITE,
    PlanPolicy,
    SemanticBudget,
    cross_validate,
    plan_for_tier,
    plan_program,
)
from repro.service import ObdaSession, ShardedObdaSession
from repro.service.session import _FixpointState, _SatState, _UcqState
from repro.translations.csp_templates import csp_to_mddlog
from repro.workloads.csp_zoo import (
    three_colourability_template,
    two_colourability_template,
)

HAS_DIAGNOSIS = RelationSymbol("HasDiagnosis", 2)
HAS_PARENT = RelationSymbol("HasParent", 2)
LYME = RelationSymbol("LymeDisease", 1)
LISTERIOSIS = RelationSymbol("Listeriosis", 1)
BACTERIAL = RelationSymbol("BacterialInfection", 1)
PREDISPOSITION = RelationSymbol("HereditaryPredisposition", 1)
EDGE = RelationSymbol("edge", 2)

#: Pins a program to the ground+CDCL tier: the reference every semantic
#: route is cross-validated against.
FORCE_SAT = PlanPolicy(tier=TIER_GROUND_SAT)


def fo_rewritable_omq() -> OntologyMediatedQuery:
    """q1(x) = BacterialInfection(x) under the Example 2.2 subsumptions:
    FO-rewritable (the paper's UCQ rewriting adds the Lyme / Listeriosis
    disjuncts), with a small enough type space for the semantic budget."""
    return OntologyMediatedQuery(
        ontology=Ontology(
            [
                ConceptInclusion(
                    ConceptName("LymeDisease"), ConceptName("BacterialInfection")
                ),
                ConceptInclusion(
                    ConceptName("Listeriosis"), ConceptName("BacterialInfection")
                ),
            ]
        ),
        query=atomic_query("BacterialInfection"),
        data_schema=Schema.binary(
            concept_names=["LymeDisease", "Listeriosis", "BacterialInfection"],
            role_names=["HasDiagnosis"],
        ),
    )


def datalog_rewritable_omq() -> OntologyMediatedQuery:
    """The Example 4.5 query: datalog- but not FO-rewritable (recursion
    through HasParent), with a width-1 (tree-duality) template."""
    return OntologyMediatedQuery(
        ontology=Ontology(
            [
                ConceptInclusion(
                    Exists(
                        Role("HasParent"), ConceptName("HereditaryPredisposition")
                    ),
                    ConceptName("HereditaryPredisposition"),
                )
            ]
        ),
        query=atomic_query("HereditaryPredisposition"),
        data_schema=Schema.binary(
            concept_names=["HereditaryPredisposition"], role_names=["HasParent"]
        ),
    )


def medical_fo_instance() -> Instance:
    return Instance(
        [
            Fact(LYME, ("d1",)),
            Fact(HAS_DIAGNOSIS, ("p1", "d1")),
            Fact(LISTERIOSIS, ("d2",)),
            Fact(BACTERIAL, ("p3",)),
            Fact(HAS_DIAGNOSIS, ("p4", "d9")),  # d9 carries no concept
        ]
    )


def ancestry_chain(depth: int, predisposed_root: bool = True) -> Instance:
    facts = [
        Fact(HAS_PARENT, (f"g{i}", f"g{i + 1}")) for i in range(depth)
    ]
    if predisposed_root:
        facts.append(Fact(PREDISPOSITION, (f"g{depth}",)))
    return Instance(facts)


# ---------------------------------------------------------------------------
# Construction: compiled OMQs route onto materialized rewritings
# ---------------------------------------------------------------------------


def test_compiled_fo_rewritable_routes_to_tier0():
    program = compile_to_mddlog(fo_rewritable_omq())
    assert plan_program(program, PlanPolicy(semantic=False)).tier == TIER_GROUND_SAT
    plan = plan_program(program)
    assert plan.tier == TIER_REWRITE
    assert plan.skips_sat
    assert plan.unfolding is not None and plan.unfolding.goal_disjuncts
    report = plan.semantic
    assert report is not None and report.applicable
    assert report.route == "source-omq"
    assert report.fo_rewritable and report.rewriting == "obstruction-ucq"
    assert report.validated_instances > 0
    assert "semantic" in plan.describe()


def test_compiled_fo_rewritable_answers_match_forced_tier2():
    program = compile_to_mddlog(fo_rewritable_omq())
    instance = medical_fo_instance()
    routed = evaluate(program, instance)
    forced = evaluate(program, instance, policy=FORCE_SAT)
    assert routed == forced == frozenset({("d1",), ("d2",), ("p3",)})


def test_compiled_datalog_rewritable_routes_to_tier1():
    program = compile_to_mddlog(datalog_rewritable_omq())
    plan = plan_program(program)
    assert plan.tier == TIER_FIXPOINT
    assert plan.rewritten is not None
    assert plan.execution_program is plan.rewritten
    report = plan.semantic
    assert report is not None and report.applicable
    assert report.fo_rewritable is False and report.datalog_rewritable
    assert report.rewriting == "canonical-datalog"
    assert plan.describe()["rewritten_rules"] == len(plan.rewritten.rules)


def test_compiled_datalog_rewritable_answers_match_on_deep_chains():
    """The canonical program recurses through chains far beyond the
    cross-validation family's size."""
    program = compile_to_mddlog(datalog_rewritable_omq())
    for depth, predisposed in [(6, True), (6, False), (10, True)]:
        instance = ancestry_chain(depth, predisposed)
        routed = evaluate(program, instance)
        forced = evaluate(program, instance, policy=FORCE_SAT)
        assert routed == forced
        if predisposed:
            assert (f"g{0}",) in routed


def test_cross_validate_is_a_public_hook():
    program = compile_to_mddlog(fo_rewritable_omq())
    plan = plan_program(program)
    assert cross_validate(program, plan) > 0


@pytest.mark.parametrize(
    "omq, tier", [(fo_rewritable_omq, TIER_REWRITE), (datalog_rewritable_omq, TIER_FIXPOINT)]
)
def test_cross_validate_grounds_and_materializes_once_per_instance(monkeypatch, omq, tier):
    """One grounding serves the reference answers and consistency verdict
    of a validation instance, and one fixpoint both surfaces of a tier-1
    candidate."""
    from repro.datalog.plain import DatalogProgram
    from repro.engine.grounder import GroundProgram

    program = compile_to_mddlog(omq())
    plan = plan_program(program)
    assert plan.tier == tier
    calls = {"groundings": 0, "fixpoints": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(GroundProgram, "__init__", counting("groundings", GroundProgram.__init__))
    monkeypatch.setattr(
        DatalogProgram, "least_fixpoint", counting("fixpoints", DatalogProgram.least_fixpoint)
    )
    checked = cross_validate(program, plan)
    assert checked > 0
    assert calls == {
        "groundings": checked,
        "fixpoints": checked if tier == TIER_FIXPOINT else 0,
    }


# ---------------------------------------------------------------------------
# Budgets and degradation
# ---------------------------------------------------------------------------


def test_exhausted_time_budget_routes_to_tier2_with_rationale():
    program = compile_to_mddlog(fo_rewritable_omq())
    budget = SemanticBudget(time_budget_s=0.0)
    plan = plan_program(program, PlanPolicy(semantic_budget=budget))
    assert plan.tier == TIER_GROUND_SAT
    assert plan.semantic is not None and not plan.semantic.applicable
    assert "semantic budget exceeded" in plan.semantic.rationale
    assert "wall-clock budget" in plan.semantic.rationale


def test_size_gate_routes_to_tier2_with_rationale():
    program = compile_to_mddlog(fo_rewritable_omq())
    budget = SemanticBudget(max_template_elements=1)
    plan = plan_program(program, PlanPolicy(semantic_budget=budget))
    assert plan.tier == TIER_GROUND_SAT
    assert "semantic budget exceeded" in plan.semantic.rationale
    assert "element" in plan.semantic.rationale


def test_budget_gated_plan_still_serves_identical_answers():
    program = compile_to_mddlog(fo_rewritable_omq())
    budget = SemanticBudget(time_budget_s=0.0)
    instance = medical_fo_instance()
    gated = evaluate(program, instance, PlanPolicy(semantic_budget=budget))
    assert gated == evaluate(program, instance, policy=FORCE_SAT)


def test_semantic_plans_cached_per_budget():
    program = compile_to_mddlog(fo_rewritable_omq())
    gated = SemanticBudget(max_template_elements=1)  # deterministic size gate
    first = plan_program(program, PlanPolicy(semantic_budget=gated))
    assert plan_program(program, PlanPolicy(semantic_budget=gated)) is first
    assert plan_program(program).tier != first.tier


def test_transient_deadline_verdicts_are_not_cached():
    """A tripped wall-clock deadline reflects machine load, not program
    structure: the degraded plan must be re-analysed on the next call
    instead of pinning the query to tier 2 forever."""
    program = compile_to_mddlog(fo_rewritable_omq())
    tight = SemanticBudget(time_budget_s=0.0)
    first = plan_program(program, PlanPolicy(semantic_budget=tight))
    assert first.tier == TIER_GROUND_SAT and first.semantic.transient
    assert "transient" in first.semantic.describe()
    second = plan_program(program, PlanPolicy(semantic_budget=tight))
    assert second is not first  # re-analysed, not served from cache
    # ...and a later call with a sane budget recovers the rewriting.
    assert plan_program(program).tier == TIER_REWRITE


def test_plan_caches_die_with_the_program():
    """Regression: plans are cached on the program object, not in a global
    mapping whose values strongly reference the keys — dropping the
    program must free the plan and its materialized rewriting."""
    import gc
    import weakref

    program = compile_to_mddlog(datalog_rewritable_omq())
    plan = plan_program(program)
    assert plan.rewritten is not None
    program_ref = weakref.ref(program)
    plan_ref = weakref.ref(plan)
    del program, plan
    gc.collect()
    assert program_ref() is None
    assert plan_ref() is None


def test_full_medical_compilation_is_inapplicable_not_wrong():
    """The Example 2.1 CQ is outside the Theorem 4.6 atomic fragment; the
    semantic stage must say so (and the huge compiled program must never
    reach the template construction)."""
    from repro.workloads.medical import example_2_1_omq

    program = compile_to_mddlog(example_2_1_omq())
    plan = plan_program(program)
    assert plan.tier == TIER_GROUND_SAT
    assert plan.semantic is not None
    assert "inapplicable" in plan.semantic.rationale


# ---------------------------------------------------------------------------
# Forcing overrides semantic routing; the knob disables it
# ---------------------------------------------------------------------------


def test_force_tier_overrides_semantic_routing():
    program = compile_to_mddlog(fo_rewritable_omq())
    assert plan_program(program).tier == TIER_REWRITE  # semantic would route
    forced = plan_for_tier(program, TIER_GROUND_SAT)
    assert forced.tier == TIER_GROUND_SAT and forced.rewritten is None
    instance = medical_fo_instance()
    assert evaluate(program, instance, policy=FORCE_SAT) == evaluate(program, instance)
    session = ObdaSession(program, policy=FORCE_SAT)
    assert isinstance(session._state(None), _SatState)


def test_semantic_disabled_keeps_syntactic_plan():
    program = compile_to_mddlog(fo_rewritable_omq())
    plan = plan_program(program, PlanPolicy(semantic=False))
    assert plan.tier == TIER_GROUND_SAT
    assert plan.semantic is None and plan.rewritten is None


# ---------------------------------------------------------------------------
# The MMSNP/MDDlog bridge for unhinted programs
# ---------------------------------------------------------------------------


def arrow_template() -> Instance:
    schema = Schema.binary(concept_names=[], role_names=["edge"])
    return Instance([Fact(EDGE, ("a", "b"))], schema=schema)


def test_bridge_routes_unhinted_fo_program():
    """coCSP(a→b) — true iff the graph has a loop or a 2-path — is
    FO-rewritable; the bare csp_to_mddlog program has no source hint, so
    the MMSNP bridge must reconstruct the templates, and the obstruction
    bounds must escalate past (2,2) (the 2-path obstruction has three
    elements, so the first bound fails cross-validation)."""
    program = csp_to_mddlog(arrow_template())
    plan = plan_program(program)
    assert plan.tier == TIER_REWRITE
    assert plan.semantic.route == "mmsnp-bridge"
    assert "(3, 3)" in plan.semantic.rationale
    rng = random.Random(5)
    for _ in range(20):
        size = rng.randint(1, 5)
        facts = [
            Fact(EDGE, (i, j))
            for i in range(size)
            for j in range(size)
            if rng.random() < 0.3
        ]
        instance = Instance(facts)
        assert evaluate(program, instance) == evaluate(
            program, instance, policy=FORCE_SAT
        )


def test_bridge_disabled_by_budget():
    program = csp_to_mddlog(arrow_template())
    plan = plan_program(
        program, PlanPolicy(semantic_budget=SemanticBudget(bridge=False))
    )
    assert plan.tier == TIER_GROUND_SAT
    assert "bridge is disabled" in plan.semantic.rationale


def test_k2_bounded_width_without_tree_duality_stays_tier2():
    """coCSP(K2) is datalog-rewritable (width 2) but has no tree duality,
    so the only constructible (width-1) rewriting would be incomplete —
    the planner must refuse it rather than serve wrong answers on odd
    cycles."""
    program = csp_to_mddlog(two_colourability_template())
    plan = plan_program(program)
    assert plan.tier == TIER_GROUND_SAT
    assert plan.semantic.datalog_rewritable is True
    assert "tree duality" in plan.semantic.rationale
    triangle = Instance(
        [Fact(EDGE, (1, 2)), Fact(EDGE, (2, 3)), Fact(EDGE, (3, 1))]
    )
    assert evaluate(program, triangle) == frozenset({()})


def test_k3_is_semantically_confirmed_disjunctive():
    """coCSP(K3) must not merely *fall back* to tier 2 — the procedures run
    to completion and certify that no rewriting exists (NP-hard template:
    no finite duality, no bounded-width certificate)."""
    program = csp_to_mddlog(three_colourability_template())
    plan = plan_program(program)
    assert plan.tier == TIER_GROUND_SAT
    assert plan.semantic.applicable
    assert plan.semantic.fo_rewritable is False
    assert plan.semantic.datalog_rewritable is False
    assert "semantically confirmed disjunctive" in plan.semantic.rationale


def test_tree_duality_classifier():
    assert not has_tree_duality(two_colourability_template())
    assert not has_tree_duality(three_colourability_template())
    assert has_tree_duality(arrow_template())
    loop = Instance([Fact(EDGE, ("a", "a"))])
    assert has_tree_duality(loop)


# ---------------------------------------------------------------------------
# Serving: sessions and shards run the constructed rewritings
# ---------------------------------------------------------------------------


def test_session_serves_semantic_tier0_state():
    program = compile_to_mddlog(fo_rewritable_omq())
    session = ObdaSession(program)
    assert isinstance(session._state(None), _UcqState)
    explanation = session.explain()["queries"]["q"]
    assert explanation["tier"] == TIER_REWRITE
    assert explanation["semantic"]["rewriting"] == "obstruction-ucq"
    forced = ObdaSession(program, policy=FORCE_SAT)
    universe = sorted(medical_fo_instance().facts, key=str)
    rng = random.Random(17)
    live: set[Fact] = set()
    for _ in range(20):
        free = [f for f in universe if f not in live]
        if free and (not live or rng.random() < 0.6):
            batch = rng.sample(free, min(len(free), 2))
            live.update(batch)
            session.insert_facts(batch)
            forced.insert_facts(batch)
        else:
            batch = rng.sample(sorted(live, key=str), 1)
            live.difference_update(batch)
            session.delete_facts(batch)
            forced.delete_facts(batch)
        assert session.certain_answers() == forced.certain_answers()


def test_session_serves_semantic_tier1_state_with_deletions():
    """The parameterized canonical program is DRed-maintained: inserts and
    deletes on an ancestry chain agree with forced tier 2 throughout."""
    program = compile_to_mddlog(datalog_rewritable_omq())
    session = ObdaSession(program)
    assert isinstance(session._state(None), _FixpointState)
    forced = ObdaSession(program, policy=FORCE_SAT)
    chain = sorted(ancestry_chain(4).facts, key=str)
    session.insert_facts(chain)
    forced.insert_facts(chain)
    assert session.certain_answers() == forced.certain_answers()
    assert ("g0",) in session.certain_answers()
    # cut the chain: descendants below the cut lose the predisposition
    cut = [Fact(HAS_PARENT, ("g1", "g2"))]
    session.delete_facts(cut)
    forced.delete_facts(cut)
    assert session.certain_answers() == forced.certain_answers()
    assert ("g0",) not in session.certain_answers()
    session.insert_facts(cut)
    forced.insert_facts(cut)
    assert session.certain_answers() == forced.certain_answers()
    assert ("g0",) in session.certain_answers()


def test_sharded_session_shares_semantic_plan():
    program = compile_to_mddlog(fo_rewritable_omq())
    sharded = ShardedObdaSession(program, shards=2)
    assert sharded.plan().tier == TIER_REWRITE
    facts = [
        Fact(LYME, (f"d{i}",)) for i in range(4)
    ] + [Fact(HAS_DIAGNOSIS, (f"p{i}", f"d{i}")) for i in range(4)]
    sharded.insert_facts(facts)
    single = ObdaSession(program, initial_facts=facts)
    assert sharded.certain_answers() == single.certain_answers()


def test_serve_and_plan_workload_expose_semantic_routing():
    plans = plan_omq_workload(
        {
            "fo": fo_rewritable_omq(),
            "datalog": datalog_rewritable_omq(),
        }
    )
    assert plans["fo"].tier == TIER_REWRITE
    assert plans["datalog"].tier == TIER_FIXPOINT
    syntactic = plan_omq_workload(
        {"fo": fo_rewritable_omq()}, PlanPolicy(semantic=False)
    )
    assert syntactic["fo"].tier == TIER_GROUND_SAT
    session = serve_omq_workload(fo_rewritable_omq())
    assert session.plan().tier == TIER_REWRITE
    gated = serve_omq_workload(
        fo_rewritable_omq(),
        policy=PlanPolicy(semantic_budget=SemanticBudget(time_budget_s=0.0)),
    )
    assert gated.plan().tier == TIER_GROUND_SAT


# ---------------------------------------------------------------------------
# Consistency artifacts: is_consistent and the sharded vacuous escalation
# ---------------------------------------------------------------------------


def inconsistency_capable_fo_omq() -> OntologyMediatedQuery:
    """Lyme ⊑ Bacterial plus Lyme ⊓ Viral ⊑ ⊥: FO-rewritable, and data can
    contradict the ontology (the no-model case)."""
    from repro.dl.concepts import And, Bottom

    return OntologyMediatedQuery(
        ontology=Ontology(
            [
                ConceptInclusion(
                    ConceptName("LymeDisease"), ConceptName("BacterialInfection")
                ),
                ConceptInclusion(
                    And(ConceptName("LymeDisease"), ConceptName("Viral")), Bottom()
                ),
            ]
        ),
        query=atomic_query("BacterialInfection"),
        data_schema=Schema.binary(
            concept_names=["LymeDisease", "Viral", "BacterialInfection"],
            role_names=["R"],
        ),
    )


def test_semantic_tier0_plans_report_inconsistency():
    """Regression: the obstruction UCQ must carry *constraint* disjuncts so
    a routed session's is_consistent matches the solver's verdict (it used
    to report True unconditionally)."""
    program = compile_to_mddlog(inconsistency_capable_fo_omq())
    plan = plan_program(program)
    assert plan.tier == TIER_REWRITE
    assert plan.unfolding.constraint_disjuncts
    viral = RelationSymbol("Viral", 1)
    facts = [Fact(LYME, ("a",)), Fact(viral, ("a",)), Fact(EDGE, ("p", "q"))]
    routed = ObdaSession(program, initial_facts=facts)
    forced = ObdaSession(program, initial_facts=facts, policy=FORCE_SAT)
    assert routed.is_consistent() is forced.is_consistent() is False
    assert (
        routed.certain_answers()
        == forced.certain_answers()
        == frozenset({("a",), ("p",), ("q",)})
    )
    consistent = [Fact(LYME, ("a",)), Fact(EDGE, ("p", "q"))]
    routed2 = ObdaSession(program, initial_facts=consistent)
    assert routed2.is_consistent()
    assert routed2.certain_answers() == frozenset({("a",)})


def test_sharded_semantic_session_escalates_inconsistency():
    """Regression: the sharded merge relies on per-shard is_consistent to
    escalate to global vacuous answers; a semantically routed plan whose
    inconsistency lives on one shard must still make tuples on *other*
    shards certain."""
    program = compile_to_mddlog(inconsistency_capable_fo_omq())
    viral = RelationSymbol("Viral", 1)
    facts = [Fact(LYME, ("a",)), Fact(viral, ("a",)), Fact(EDGE, ("p", "q"))]
    sharded = ShardedObdaSession(program, shards=2, initial_facts=facts)
    single = ObdaSession(program, initial_facts=facts)
    assert sharded.certain_answers() == single.certain_answers()
    assert ("p",) in sharded.certain_answers()  # the globally vacuous part


def test_semantic_tier1_plans_report_inconsistency():
    """Regression: the canonical datalog rewriting carries a Y_∅-based
    constraint, so derived inconsistencies (recursion reaching a forbidden
    concept) flip is_consistent exactly like the solver."""
    from repro.dl.concepts import And, Bottom

    omq = OntologyMediatedQuery(
        ontology=Ontology(
            [
                ConceptInclusion(
                    Exists(
                        Role("HasParent"), ConceptName("HereditaryPredisposition")
                    ),
                    ConceptName("HereditaryPredisposition"),
                ),
                ConceptInclusion(
                    And(
                        ConceptName("HereditaryPredisposition"),
                        ConceptName("ClearedByTest"),
                    ),
                    Bottom(),
                ),
            ]
        ),
        query=atomic_query("HereditaryPredisposition"),
        data_schema=Schema.binary(
            concept_names=["HereditaryPredisposition", "ClearedByTest"],
            role_names=["HasParent"],
        ),
    )
    program = compile_to_mddlog(omq)
    plan = plan_program(program)
    assert plan.tier == TIER_FIXPOINT
    assert any(rule.is_constraint() for rule in plan.rewritten.rules)
    clear = RelationSymbol("ClearedByTest", 1)
    facts = [
        Fact(HAS_PARENT, ("g0", "g1")),
        Fact(PREDISPOSITION, ("g1",)),
        Fact(clear, ("g0",)),
    ]
    routed = ObdaSession(program, initial_facts=facts)
    forced = ObdaSession(program, initial_facts=facts, policy=FORCE_SAT)
    assert routed.is_consistent() is forced.is_consistent() is False
    assert routed.certain_answers() == forced.certain_answers()
    routed.delete_facts([Fact(clear, ("g0",))])
    forced.delete_facts([Fact(clear, ("g0",))])
    assert routed.is_consistent() is forced.is_consistent() is True
    assert routed.certain_answers() == forced.certain_answers()


@pytest.mark.parametrize("seed", range(6))
def test_randomized_streams_match_forced_tier2(seed):
    """Randomized insert/delete/query streams on both rewriting kinds."""
    rng = random.Random(31_000 + seed)
    omq = fo_rewritable_omq() if seed % 2 else datalog_rewritable_omq()
    program = compile_to_mddlog(omq)
    if seed % 2:
        universe = [Fact(LYME, (e,)) for e in "uvw"] + [
            Fact(BACTERIAL, (e,)) for e in "uv"
        ] + [Fact(HAS_DIAGNOSIS, (a, b)) for a in "uv" for b in "vw"]
    else:
        universe = [Fact(PREDISPOSITION, (e,)) for e in "uv"] + [
            Fact(HAS_PARENT, (a, b)) for a in "uvw" for b in "uvw" if a != b
        ]
    session = ObdaSession(program)
    forced = ObdaSession(program, policy=FORCE_SAT)
    live: set[Fact] = set()
    for _ in range(15):
        free = [f for f in universe if f not in live]
        if free and (not live or rng.random() < 0.65):
            batch = rng.sample(free, min(len(free), rng.randint(1, 2)))
            live.update(batch)
            session.insert_facts(batch)
            forced.insert_facts(batch)
        else:
            batch = rng.sample(sorted(live, key=str), 1)
            live.difference_update(batch)
            session.delete_facts(batch)
            forced.delete_facts(batch)
        assert session.certain_answers() == forced.certain_answers()
