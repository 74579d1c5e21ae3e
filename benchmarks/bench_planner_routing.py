"""E-PLAN — Tiered planner routing: every OMQ on its cheapest engine.

The paper's Section 5 dichotomy says the Table 1 queries do not need the
generic coNP machinery: q1 is equivalent to a UCQ (Example 2.2) and q2 has
a plain datalog rewriting, while coCSP(K3) is genuinely disjunctive
(NP-hard template).  This benchmark certifies that the planner exploits
that at runtime:

* the **Table 1 medical workload** (q1 as its UCQ rewriting) routes to
  tier 0 and serves a 100-update query stream ≥ 3x faster than the same
  workload forced onto the ground+CDCL tier, with identical answers;
* the **datalog-rewriting workload** (q2's recursive rewriting over an
  ancestry chain) routes to tier 1 with the same ≥ 3x bar;
* **coCSP(K3)** routes to tier 2 — the planner must not pretend a
  genuinely disjunctive program is cheap — and routed answers equal the
  forced-tier ones;
* randomized programs are cross-validated across every sound tier.

Besides the pytest-benchmark numbers (consolidated into
``BENCH_RESULTS.json`` by ``run_all.py``), each test appends its verdict
to ``results/PLANNER_ROUTING.json`` — the planner routing report uploaded
as a CI artifact.
"""

import json
import random
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.datalog import (
    DisjunctiveDatalogProgram,
    Rule,
    adom_atom,
    evaluate,
    goal_atom,
)
from repro.planner import TIER_GROUND_SAT, PlanPolicy, plan_for_tier, plan_program
from repro.service import ObdaSession, medical_universe, random_stream, replay
from repro.translations.csp_templates import csp_to_mddlog
from repro.workloads.csp_zoo import three_colourability_template

REQUIRED_SPEEDUP = 3.0
REPORT_PATH = Path(__file__).resolve().parent / "results" / "PLANNER_ROUTING.json"
#: The forced ground+CDCL baseline every routed tier is timed against.
FORCE_SAT = PlanPolicy(tier=TIER_GROUND_SAT)

_REPORT: dict = {"workloads": {}, "crossval": {}}


def _record(section: str, name: str, **fields) -> None:
    _REPORT[section][name] = fields
    _REPORT["generated_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(REPORT_PATH, "w") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# The Table 1 workloads in their rewritten forms (Example 2.2)
# ---------------------------------------------------------------------------

HAS_DIAGNOSIS = RelationSymbol("HasDiagnosis", 2)
HAS_FINDING = RelationSymbol("HasFinding", 2)
HAS_PARENT = RelationSymbol("HasParent", 2)
BACTERIAL = RelationSymbol("BacterialInfection", 1)
LYME = RelationSymbol("LymeDisease", 1)
LISTERIOSIS = RelationSymbol("Listeriosis", 1)
ERYTHEMA = RelationSymbol("ErythemaMigrans", 1)
PREDISPOSITION = RelationSymbol("HereditaryPredisposition", 1)
DERIVED = RelationSymbol("P__derived", 1)
X, Y = Variable("x"), Variable("y")


def bacterial_ucq_rewriting() -> DisjunctiveDatalogProgram:
    """Example 2.2's UCQ rewriting of q1, as a nonrecursive datalog program.

    ``q1(x) = ∃y HasDiagnosis(x,y) ∧ BacterialInfection(y)`` under the
    Table 1 ontology is equivalent to the UCQ asking for a diagnosed
    bacterial infection / Lyme disease / listeriosis, or a finding of
    Erythema Migrans (which entails an anonymous Lyme diagnosis).
    """
    return DisjunctiveDatalogProgram(
        [
            Rule((goal_atom(X),), (Atom(HAS_DIAGNOSIS, (X, Y)), Atom(BACTERIAL, (Y,)))),
            Rule((goal_atom(X),), (Atom(HAS_DIAGNOSIS, (X, Y)), Atom(LYME, (Y,)))),
            Rule((goal_atom(X),), (Atom(HAS_DIAGNOSIS, (X, Y)), Atom(LISTERIOSIS, (Y,)))),
            Rule((goal_atom(X),), (Atom(HAS_FINDING, (X, Y)), Atom(ERYTHEMA, (Y,)))),
        ]
    )


def predisposition_rewriting() -> DisjunctiveDatalogProgram:
    """Example 2.2's (recursive) datalog rewriting of q2."""
    return DisjunctiveDatalogProgram(
        [
            Rule((Atom(DERIVED, (X,)),), (Atom(PREDISPOSITION, (X,)),)),
            Rule(
                (Atom(DERIVED, (X,)),),
                (Atom(HAS_PARENT, (X, Y)), Atom(DERIVED, (Y,))),
            ),
            Rule((goal_atom(X),), (Atom(DERIVED, (X,)),)),
        ]
    )


def _stream_answers(report) -> list:
    return [answers for step in report.answers for answers in step.values()]


def _routed_vs_forced_stream(benchmark, name, program, events, expected_tier):
    """Benchmark the routed session, time the forced-tier-2 twin, compare."""
    plan = plan_program(program)
    assert plan.tier == expected_tier, plan.rationale

    def routed():
        session = ObdaSession({name: program})
        return replay(session, events)

    report = benchmark.pedantic(routed, rounds=3, iterations=1)
    forced_session = ObdaSession({name: program}, policy=FORCE_SAT)
    forced_report = replay(forced_session, events)
    routed_answers = _stream_answers(report)
    assert routed_answers == _stream_answers(forced_report), (
        f"{name}: routed tier-{plan.tier} answers diverge from forced tier-2"
    )
    assert any(routed_answers), f"{name}: the stream never produced an answer"
    speedup = forced_report.elapsed_s / report.elapsed_s
    print(
        f"\n[E-PLAN] {name}: tier {plan.tier} ({plan.tier_name}) "
        f"routed {report.elapsed_s:.3f}s vs forced tier-2 "
        f"{forced_report.elapsed_s:.3f}s -> {speedup:.1f}x "
        f"({report.queries} queries)"
    )
    _record(
        "workloads",
        name,
        tier=plan.tier,
        tier_name=plan.tier_name,
        rationale=plan.rationale,
        routed_s=round(report.elapsed_s, 4),
        forced_tier2_s=round(forced_report.elapsed_s, 4),
        speedup_vs_forced_tier2=round(speedup, 2),
        queries=report.queries,
        answers_identical=True,
    )
    return speedup


def test_planner_tier0_medical_stream(benchmark):
    """Table 1 q1 (UCQ rewriting) routes to tier 0: stateless join
    evaluation beats the guarded-solver serving state by ≥ 3x."""
    events = random_stream(
        medical_universe(patients=25, generations=0),
        length=100,
        seed=11,
        query_every=1,
    )
    speedup = _routed_vs_forced_stream(
        benchmark, "table1_medical_q1", bacterial_ucq_rewriting(), events, 0
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"tier-0 routing only {speedup:.1f}x faster (required {REQUIRED_SPEEDUP}x)"
    )


def test_planner_tier1_rewriting_stream(benchmark):
    """Table 1 q2 (datalog rewriting) routes to tier 1: DRed-maintained
    fixpoint beats forced tier-2 solving by ≥ 3x."""
    events = random_stream(
        medical_universe(patients=0, generations=150),
        length=100,
        seed=41,  # keeps the (single) predisposition root live long enough
        query_every=1,
    )
    speedup = _routed_vs_forced_stream(
        benchmark, "datalog_rewriting_q2", predisposition_rewriting(), events, 1
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"tier-1 routing only {speedup:.1f}x faster (required {REQUIRED_SPEEDUP}x)"
    )


def test_planner_tier2_cocsp_control(benchmark):
    """coCSP(K3) is genuinely disjunctive: the planner must keep it on the
    ground+CDCL tier, and routing must not change its answers."""
    program = csp_to_mddlog(three_colourability_template())
    plan = plan_program(program)
    assert plan.tier == TIER_GROUND_SAT, plan.rationale

    rng = random.Random(7)
    vertices = [f"v{i}" for i in range(12)]
    edge = RelationSymbol("edge", 2)
    facts = [
        Fact(edge, (a, b))
        for a in vertices
        for b in vertices
        if a != b and rng.random() < 0.35
    ]
    instance = Instance(facts)

    routed = benchmark.pedantic(
        lambda: evaluate(program, instance), rounds=3, iterations=1
    )
    forced = evaluate(program, instance, policy=FORCE_SAT)
    assert routed == forced
    _record(
        "workloads",
        "cocsp_k3_control",
        tier=plan.tier,
        tier_name=plan.tier_name,
        rationale=plan.rationale,
        answers_identical=True,
    )


# ---------------------------------------------------------------------------
# Randomized cross-validation: every sound tier, identical answers
# ---------------------------------------------------------------------------

A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
EDGE = RelationSymbol("edge", 2)
P = RelationSymbol("P", 1)
Q = RelationSymbol("Q", 1)


def _random_tiered_program(rng: random.Random) -> DisjunctiveDatalogProgram:
    """Random programs spread across all three tiers: disjunction-free
    chains (recursive or not), constraints, and occasional disjunction."""
    goal_arity = rng.choice([0, 1])
    rules = []
    disjunctive = rng.random() < 0.25
    recursive = rng.random() < 0.5
    rules.append(Rule((Atom(P, (X,)),), (Atom(A, (X,)),)))
    if recursive:
        rules.append(
            Rule((Atom(P, (Y,)),), (Atom(P, (X,)), Atom(EDGE, (X, Y))))
        )
    else:
        rules.append(Rule((Atom(Q, (X,)),), (Atom(P, (X,)), Atom(B, (X,)))))
    if disjunctive:
        rules.append(Rule((Atom(P, (X,)), Atom(Q, (X,))), (adom_atom(X),)))
    if rng.random() < 0.4:
        rules.append(Rule((), (Atom(P, (X,)), Atom(EDGE, (X, X)))))
    body_rel = P if recursive else Q
    if goal_arity == 0:
        rules.append(Rule((goal_atom(),), (Atom(body_rel, (X,)),)))
    else:
        rules.append(Rule((goal_atom(X),), (Atom(body_rel, (X,)), adom_atom(Y))))
    return DisjunctiveDatalogProgram(rules)


def _random_instance(rng: random.Random) -> Instance:
    domain = list(range(1, rng.randint(3, 5)))
    facts = []
    for element in domain:
        for symbol in (A, B):
            if rng.random() < 0.5:
                facts.append(Fact(symbol, (element,)))
    for a in domain:
        for b in domain:
            if rng.random() < 0.35:
                facts.append(Fact(EDGE, (a, b)))
    return Instance(facts)


def test_planner_crossval_randomized_programs():
    """Force every sound tier on random programs/instances: identical
    certain answers everywhere, and the routed result matches too."""
    rng = random.Random(20260730)
    tier_counts = {0: 0, 1: 0, 2: 0}
    trials = 40
    for _ in range(trials):
        program = _random_tiered_program(rng)
        instance = _random_instance(rng)
        plan = plan_program(program)
        tier_counts[plan.tier] += 1
        reference = evaluate(program, instance, policy=FORCE_SAT)
        assert evaluate(program, instance) == reference, plan.rationale
        for tier in (0, 1):
            try:
                plan_for_tier(program, tier)
            except ValueError:
                continue
            forced = evaluate(program, instance, policy=PlanPolicy(tier=tier))
            assert forced == reference, (
                f"tier {tier} diverges on {program!r}"
            )
    assert all(tier_counts.values()), f"tier coverage gap: {tier_counts}"
    _record(
        "crossval",
        "randomized_programs",
        trials=trials,
        tiers_exercised=tier_counts,
        identical=True,
    )


def test_planner_one_shot_ratios():
    """One-shot evaluate() ratios on sizeable instances (recorded,
    unasserted: the streaming numbers above are the acceptance bar)."""
    program = bacterial_ucq_rewriting()
    facts = []
    for i in range(300):
        patient, item = f"p{i}", f"o{i}"
        if i % 2:
            facts.extend(
                [Fact(HAS_DIAGNOSIS, (patient, item)), Fact(LISTERIOSIS, (item,))]
            )
        else:
            facts.extend(
                [Fact(HAS_FINDING, (patient, item)), Fact(ERYTHEMA, (item,))]
            )
    instance = Instance(facts)
    timings = {}
    for label, tier in (("routed", None), ("forced_tier2", TIER_GROUND_SAT)):
        start = time.perf_counter()
        answers = (
            evaluate(program, instance)
            if tier is None
            else evaluate(program, instance, policy=PlanPolicy(tier=tier))
        )
        timings[label] = time.perf_counter() - start
        timings[f"{label}_answers"] = len(answers)
    assert timings["routed_answers"] == timings["forced_tier2_answers"] == 300
    _record(
        "crossval",
        "one_shot_medical_ucq",
        routed_s=round(timings["routed"], 4),
        forced_tier2_s=round(timings["forced_tier2"], 4),
        ratio=round(timings["forced_tier2"] / timings["routed"], 2),
    )


def test_planner_report_mentions_all_workloads():
    """The routing report (the CI artifact) covers the three workloads."""
    with open(REPORT_PATH) as handle:
        report = json.load(handle)
    for name in ("table1_medical_q1", "datalog_rewriting_q2", "cocsp_k3_control"):
        assert name in report["workloads"], name
