"""Adaptive re-planning sessions and the unified PlanPolicy API.

Covers the PR's two faces end to end:

* **PlanPolicy** — one frozen object for every planner knob and the only
  planner keyword of every public entry point (the removed per-call
  keywords are rejected with ``TypeError``);
* **adaptive re-planning** — sessions that watch their rolling
  read/insert/delete mix and hot-swap serving tiers, cross-validated on
  randomized mix-flip streams against every sound forced tier (including
  sharded sessions with migrations), with the hysteresis gates pinned so
  the controller can never flap, and warm join-plan caches proven to
  survive the swap.
"""

import random
from dataclasses import fields

import pytest

from repro.core import Fact, Instance, RelationSymbol
from repro.core.cq import atomic_query
from repro.core.schema import Schema
from repro.datalog import evaluate
from repro.dl import ConceptInclusion, ConceptName, Exists, Ontology, Role
from repro.obda.applications import plan_omq_workload, serve_omq_workload
from repro.omq.bounded import BoundedModelEngine
from repro.omq.certain import compile_to_mddlog
from repro.omq.query import OntologyMediatedQuery
from repro.planner import (
    TIER_FIXPOINT,
    TIER_GROUND_SAT,
    TIER_REWRITE,
    AdaptivePolicy,
    PlannedMddlogEngine,
    PlanPolicy,
    TierCostModel,
    candidate_plans,
    effective_unfold_caps,
    execute_plan,
    plan_for_tier,
    plan_program,
    plan_workload,
    static_rates,
)
from repro.planner.analysis import MAX_DISJUNCT_ATOMS, MAX_UNFOLDED_DISJUNCTS
from repro.service import (
    ObdaSession,
    ShardedObdaSession,
    validate_explain,
)
from repro.service.session import _FixpointState, _SatState

HAS_PARENT = RelationSymbol("HasParent", 2)
PREDISPOSITION = RelationSymbol("HereditaryPredisposition", 1)


def ancestry_omq() -> OntologyMediatedQuery:
    """The Example 4.5 ancestry query (datalog-rewritable, not FO)."""
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


def datalog_rewritable_compiled():
    """Theorem 3.3 compilation of the Example 4.5 ancestry query: the
    planner's semantic stage serves it on tier 1, tier 2 stays sound —
    exactly the two-tier candidate set adaptive swapping needs."""
    return compile_to_mddlog(ancestry_omq())


def ancestry_universe(generations: int = 16) -> list[Fact]:
    facts = [
        Fact(HAS_PARENT, (f"g{i}", f"g{i + 1}")) for i in range(generations)
    ]
    facts.append(Fact(PREDISPOSITION, (f"g{generations}",)))
    facts.append(Fact(PREDISPOSITION, ("g3",)))
    return facts


#: A twitchy policy for tests: decisions after a handful of events.
FAST_ADAPTIVE = AdaptivePolicy(mix_window=12, min_dwell=10, warmup=6, cost_gap=1.5)


def mix_flip_stream(session, universe, rng, queries_per_phase=20, churn=30):
    """Read-heavy -> delete-heavy churn -> read-heavy, collecting every
    query's answers (the cross-validation trace)."""
    answers = []
    session.insert_facts(universe)
    for _ in range(queries_per_phase):
        answers.append(session.certain_answers())
    live = list(universe)
    for step in range(churn):
        fact = rng.choice(sorted(live, key=str))
        session.delete_facts([fact])
        session.insert_facts([fact])
        if step % 8 == 0:
            answers.append(session.certain_answers())
    for _ in range(queries_per_phase):
        answers.append(session.certain_answers())
    return answers


# ---------------------------------------------------------------------------
# PlanPolicy: validation and the one-keyword surface
# ---------------------------------------------------------------------------


def test_adaptive_policy_validates_knobs():
    with pytest.raises(ValueError, match="mix_window"):
        AdaptivePolicy(mix_window=0)
    with pytest.raises(ValueError, match="flapping"):
        AdaptivePolicy(cost_gap=0.5)
    assert PlanPolicy().resolved_adaptive() is None
    assert PlanPolicy(adaptive=False).resolved_adaptive() is None
    assert PlanPolicy(adaptive=True).resolved_adaptive() == AdaptivePolicy()
    custom = AdaptivePolicy(mix_window=4)
    assert PlanPolicy(adaptive=custom).resolved_adaptive() is custom


def test_removed_planner_keywords_are_type_errors():
    """``policy=`` is the only planner knob: every entry point rejects each
    removed per-call keyword (the old aliases and the worker-pool
    controls) with ``TypeError`` instead of translating it."""
    assert [field.name for field in fields(PlanPolicy)] == [
        "tier",
        "semantic",
        "semantic_budget",
        "check",
        "adaptive",
    ]
    for removed in ("parallel", "chunk_size", "unfold_caps"):
        with pytest.raises(TypeError, match=removed):
            PlanPolicy(**{removed: None})
    omq = ancestry_omq()
    program = compile_to_mddlog(omq)
    instance = Instance(ancestry_universe(2))
    plan = plan_program(program)
    planned = PlannedMddlogEngine(program)
    bounded = BoundedModelEngine(omq, extra_elements=0)
    entry_points = [
        (
            lambda **kw: evaluate(program, instance, **kw),
            ("parallel", "chunk_size", "force_tier", "semantic", "semantic_budget"),
        ),
        (lambda **kw: plan_program(program, **kw), ("semantic", "budget", "check")),
        (lambda **kw: plan_workload({"q": program}, **kw), ("semantic", "budget")),
        (
            lambda **kw: ObdaSession(program, **kw),
            ("force_tier", "semantic", "semantic_budget", "check"),
        ),
        (
            lambda **kw: ShardedObdaSession(program, **kw),
            ("semantic", "semantic_budget", "check"),
        ),
        (
            lambda **kw: serve_omq_workload(program, **kw),
            ("semantic", "semantic_budget"),
        ),
        (
            lambda **kw: plan_omq_workload(program, **kw),
            ("semantic", "semantic_budget"),
        ),
        (lambda **kw: execute_plan(plan, instance, **kw), ("parallel", "chunk_size")),
        (lambda **kw: PlannedMddlogEngine(program, **kw), ("semantic", "budget")),
        (lambda **kw: planned.certain_answers(instance, **kw), ("parallel",)),
        (lambda **kw: bounded.certain_answers(instance, **kw), ("parallel",)),
    ]
    checked = 0
    for call, keywords in entry_points:
        for keyword in keywords:
            with pytest.raises(TypeError, match=f"'{keyword}'"):
                call(**{keyword: None})
            checked += 1
    assert checked == 27


def test_policy_reaches_every_entry_point():
    program = datalog_rewritable_compiled()
    policy = PlanPolicy(semantic=False)
    assert plan_program(program, policy).tier == TIER_GROUND_SAT
    assert isinstance(
        evaluate(program, Instance(ancestry_universe(4)), policy), frozenset
    )
    session = serve_omq_workload(program, policy=policy)
    assert isinstance(session, ObdaSession)
    assert session.plan().tier == TIER_GROUND_SAT
    sharded = serve_omq_workload(program, shards=2, policy=policy)
    assert isinstance(sharded, ShardedObdaSession)
    assert sharded.plan().tier == TIER_GROUND_SAT


# ---------------------------------------------------------------------------
# explain(): the versioned v2 contract
# ---------------------------------------------------------------------------


def test_explain_v2_schema_validates_plain_and_sharded():
    program = datalog_rewritable_compiled()
    session = ObdaSession(program, policy=PlanPolicy(adaptive=FAST_ADAPTIVE))
    session.insert_facts(ancestry_universe(6))
    session.certain_answers()
    report = session.explain()
    assert report["schema"] == "obda-explain/v2"
    assert validate_explain(report) == []
    assert report["adaptive"]["enabled"] is True
    assert report["adaptive"]["queries"]["q"]["candidates"] == [
        TIER_FIXPOINT,
        TIER_GROUND_SAT,
    ]

    sharded = ShardedObdaSession(
        program, shards=2, policy=PlanPolicy(adaptive=FAST_ADAPTIVE)
    )
    sharded.insert_facts(ancestry_universe(6))
    sharded.certain_answers()
    sharded_report = sharded.explain()
    assert validate_explain(sharded_report) == []
    assert sharded_report["queries"]["q"]["shards"][0]["shard"] == 0


def test_forced_tier_pins_the_session_with_rationale():
    program = datalog_rewritable_compiled()
    session = ObdaSession(
        program, policy=PlanPolicy(tier=TIER_GROUND_SAT, adaptive=FAST_ADAPTIVE)
    )
    rng = random.Random(3)
    mix_flip_stream(session, ancestry_universe(8), rng, queries_per_phase=8, churn=16)
    report = session.explain()
    assert validate_explain(report) == []
    assert report["adaptive"]["enabled"] is False
    assert report["adaptive"]["replans"] == []
    assert "forced" in report["adaptive"]["reason"]
    assert isinstance(session._state(None), _SatState)  # never swapped


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------


def test_candidate_plans_cover_exactly_the_sound_tiers():
    program = datalog_rewritable_compiled()
    natural = plan_program(program)
    assert natural.tier == TIER_FIXPOINT  # semantic canonical datalog
    candidates = candidate_plans(program, natural)
    assert sorted(candidates) == [TIER_FIXPOINT, TIER_GROUND_SAT]
    assert candidates[TIER_FIXPOINT] is natural
    with pytest.raises(ValueError):
        plan_for_tier(program, TIER_REWRITE)  # and that's why 0 is absent


def test_static_rates_encode_the_tier_asymmetry():
    program = datalog_rewritable_compiled()
    natural = plan_program(program)
    candidates = candidate_plans(program, natural)
    instance = Instance(ancestry_universe(10))
    tier1 = static_rates(candidates[TIER_FIXPOINT], instance)
    tier2 = static_rates(candidates[TIER_GROUND_SAT], instance)
    # DRed deletion is the fixpoint tier's weakness; reads are its strength.
    assert tier1.delete > tier2.delete
    assert tier2.read > tier1.read


def test_cost_model_prefers_observed_means_over_statics():
    program = datalog_rewritable_compiled()
    natural = plan_program(program)
    model = TierCostModel(candidate_plans(program, natural))
    instance = Instance(ancestry_universe(6))
    mix = {"query": 1.0, "insert": 0.0, "delete": 0.0}
    # Observed: tier 1 reads are slow, tier 2 reads are fast — the model
    # must follow the measurements even though the statics say otherwise.
    model.observe(TIER_FIXPOINT, "query", 10, 10.0)
    model.observe(TIER_GROUND_SAT, "query", 10, 0.1)
    assert model.predict(TIER_GROUND_SAT, mix, instance) < model.predict(
        TIER_FIXPOINT, mix, instance
    )


# ---------------------------------------------------------------------------
# Live re-planning, cross-validated against every sound forced tier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_adaptive_mix_flip_matches_every_sound_forced_tier(seed):
    program = datalog_rewritable_compiled()
    universe = ancestry_universe(10)
    adaptive = ObdaSession(program, policy=PlanPolicy(adaptive=FAST_ADAPTIVE))
    adaptive_answers = mix_flip_stream(
        adaptive, universe, random.Random(1000 + seed)
    )
    # The sound pinned baselines: the semantic tier-1 plan (a default
    # session never swaps) and syntactically forced tier 2.  Tier 0 is
    # unsound for this program, which candidate_plans proves elsewhere.
    pinned = {
        TIER_FIXPOINT: PlanPolicy(),
        TIER_GROUND_SAT: PlanPolicy(tier=TIER_GROUND_SAT),
    }
    for tier, policy in pinned.items():
        forced = ObdaSession(program, policy=policy)
        assert forced.plan().tier == tier
        forced_answers = mix_flip_stream(
            forced, universe, random.Random(1000 + seed)
        )
        assert adaptive_answers == forced_answers, (
            f"seed {seed}: adaptive answers diverge from pinned tier {tier}"
        )
    report = adaptive.explain()
    assert validate_explain(report) == []
    assert len(report["adaptive"]["replans"]) >= 1, "the mix flip never triggered"


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_adaptive_streams_with_migrations(shards):
    program = datalog_rewritable_compiled()
    rng = random.Random(40 + shards)
    sharded = ShardedObdaSession(
        program, shards=shards, policy=PlanPolicy(adaptive=FAST_ADAPTIVE)
    )
    reference = ObdaSession(program)
    # Two ancestry chains inserted interleaved, then joined by a bridging
    # fact — components merge, so smaller ones migrate between shards.
    chain_a = ancestry_universe(8)
    # Pick the second chain's prefix so its component lands on a different
    # shard than the first chain's — the bridge must then migrate one side.
    from repro.service.shards import _consistent_shard

    prefix = next(
        p
        for p in "hjkmnpqrstuvwxyz"
        if _consistent_shard(f"{p}0", shards) != _consistent_shard("g0", shards)
    )
    chain_b = [
        Fact(HAS_PARENT, (f"{prefix}{i}", f"{prefix}{i + 1}")) for i in range(8)
    ] + [Fact(PREDISPOSITION, (f"{prefix}8",))]
    bridge = Fact(HAS_PARENT, ("g0", f"{prefix}0"))
    for batch in (chain_a, chain_b, [bridge]):
        sharded.insert_facts(batch)
        reference.insert_facts(batch)
        assert sharded.certain_answers() == reference.certain_answers()
    live = chain_a + chain_b + [bridge]
    for step in range(24):
        fact = rng.choice(sorted(live, key=str))
        sharded.delete_facts([fact])
        reference.delete_facts([fact])
        sharded.insert_facts([fact])
        reference.insert_facts([fact])
        if step % 6 == 0:
            assert sharded.certain_answers() == reference.certain_answers()
    for _ in range(10):
        assert sharded.certain_answers() == reference.certain_answers()
    assert sharded.stats.facts_migrated > 0, "the bridge never forced a migration"
    report = sharded.explain()
    assert validate_explain(report) == []
    for record in report["adaptive"]["replans"]:
        assert record["shard"] in range(shards)


def test_hysteresis_never_flaps():
    """Consecutive swaps are always at least ``min_dwell`` events apart,
    and the ``max_replans`` cap is hard."""
    program = datalog_rewritable_compiled()
    policy = AdaptivePolicy(
        mix_window=8, min_dwell=12, warmup=4, cost_gap=1.2, max_replans=2
    )
    session = ObdaSession(program, policy=PlanPolicy(adaptive=policy))
    universe = ancestry_universe(8)
    rng = random.Random(99)
    # An adversarial alternating stream: one query, one delete/insert pair,
    # repeatedly — the mix itself flaps, the controller must not.
    session.insert_facts(universe)
    live = list(universe)
    for _ in range(120):
        session.certain_answers()
        fact = rng.choice(sorted(live, key=str))
        session.delete_facts([fact])
        session.insert_facts([fact])
    history = session.explain()["adaptive"]["queries"]["q"]["history"]
    assert len(history) <= 2  # max_replans is a hard cap
    for previous, current in zip(history, history[1:]):
        assert current["event"] - previous["event"] >= policy.min_dwell


def test_warm_plan_caches_survive_swaps():
    """A tier revisited after a swap (or compaction) reuses the join plans
    it compiled the first time instead of recompiling them."""
    program = datalog_rewritable_compiled()
    session = ObdaSession(program, policy=PlanPolicy(tier=TIER_GROUND_SAT))
    session.insert_facts(ancestry_universe(6))
    state = session._state(None)
    assert isinstance(state, _SatState)
    before = [shape.plans for shape in state.grounder._shapes]
    assert any(plans is not None for plans in before)
    session.compact()
    after = session._state(None)
    assert after is not state
    for old_plans, shape in zip(before, after.grounder._shapes):
        if old_plans is not None:
            assert shape.plans is old_plans  # transplanted, not recompiled

    fix_session = ObdaSession(program)  # semantic tier-1 plan
    fix_session.insert_facts(ancestry_universe(6))
    fix_session.delete_facts([Fact(PREDISPOSITION, ("g3",))])  # compiles DRed plans
    fix_state = fix_session._state(None)
    assert isinstance(fix_state, _FixpointState)
    rederive = fix_state.fixpoint._rederive_plans
    assert rederive is not None
    fix_session.compact()
    assert fix_session._state(None).fixpoint._rederive_plans is rederive


def test_adaptive_session_answers_unchanged_mid_swap_epoch():
    """The epoch that triggers a swap still answers identically: the swap
    rebuilds state from the same frozen instance."""
    program = datalog_rewritable_compiled()
    universe = ancestry_universe(10)
    adaptive = ObdaSession(
        program,
        policy=PlanPolicy(
            adaptive=AdaptivePolicy(mix_window=6, min_dwell=4, warmup=4, cost_gap=1.1)
        ),
    )
    forced = ObdaSession(program, policy=PlanPolicy(tier=TIER_GROUND_SAT))
    adaptive.insert_facts(universe)
    forced.insert_facts(universe)
    rng = random.Random(7)
    live = list(universe)
    for _ in range(40):
        fact = rng.choice(sorted(live, key=str))
        for sess in (adaptive, forced):
            sess.delete_facts([fact])
        assert adaptive.certain_answers() == forced.certain_answers()
        for sess in (adaptive, forced):
            sess.insert_facts([fact])
        assert adaptive.certain_answers() == forced.certain_answers()


# ---------------------------------------------------------------------------
# Cost-based unfolding caps
# ---------------------------------------------------------------------------


def test_effective_caps_default_to_the_historical_floor():
    program = datalog_rewritable_compiled()  # recursive -> no estimate
    assert effective_unfold_caps(program) == (
        MAX_UNFOLDED_DISJUNCTS,
        MAX_DISJUNCT_ATOMS,
    )
