"""Tiered query plans: route a compiled program to its cheapest engine.

The paper's Section 5 dichotomy separates OMQs that are FO-rewritable,
datalog-rewritable, and genuinely disjunctive (coNP via MDDlog/CSP).  The
planner is the runtime mirror of that classification over *compiled*
disjunctive datalog programs:

* **tier 0** (``ucq-rewrite``) — nonrecursive, disjunction-free: the goal
  (and every constraint) unfolds into a UCQ over the EDB relations, which
  is evaluated directly against the instance indexes with the engine's
  join planner.  No grounding, no SAT, and nothing to maintain under
  streaming updates.
* **tier 1** (``datalog-fixpoint``) — disjunction-free but recursive (or
  past the unfolding caps): semi-naive least-fixpoint evaluation
  (:mod:`repro.datalog.plain`), DRed-maintained in serving sessions.
  Constraints are checked against the materialized fixpoint — rule bodies
  are positive, so a constraint firing in the minimal model fires in every
  model, and the certain answers are vacuously all tuples over the active
  domain (exactly the engine's convention for unsatisfiable programs).
* **tier 2** (``ground+cdcl``) — everything else: the ground-once +
  incremental CDCL engine (one-shot, or per shard in sharded sessions).

Syntactic tier-2 programs additionally pass through the *semantic* stage
(:mod:`repro.planner.semantic`), which runs the paper's Section 5.3
rewritability procedures and, on success, materializes the rewriting — an
obstruction-set UCQ served by tier 0, or a canonical datalog program served
by tier 1 — so Theorem 3.3 compilations of FO-/datalog-rewritable OMQs
route off SAT despite their disjunctive guess rules.

Plans are cached per compiled program object, so a workload compiled once
into a session (or shared across shards) is planned once.  Cost estimates
come from the instance's per-relation / per-position index statistics via
:func:`estimate_cost` and make the plan explainable; the adaptive
controller (:mod:`repro.planner.adaptive`) prices its static per-tier
rates from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..core.cq import Variable, canonical_atoms
from ..core.instance import Instance
from ..datalog.ddlog import ADOM, DisjunctiveDatalogProgram
from ..engine.grounder import _free_variable_blocks, _split_body
from ..engine.joins import _estimated_rows, order_atoms
from ..obs import telemetry as _telemetry
from .analysis import (
    ProgramShape,
    UcqUnfolding,
    analyse_program,
    effective_unfold_caps,
    unfold_to_ucq,
)
from .policy import PlanPolicy
from .semantic import DEFAULT_BUDGET, SemanticReport

TIER_REWRITE = 0
TIER_FIXPOINT = 1
TIER_GROUND_SAT = 2
TIER_NAMES = {
    TIER_REWRITE: "ucq-rewrite",
    TIER_FIXPOINT: "datalog-fixpoint",
    TIER_GROUND_SAT: "ground+cdcl",
}

#: Why a syntactic classification keeps a program off the cheaper tiers
#: (``QueryPlan.pin``), mapped to the cheapest tier that stays sound.  A
#: plan's sound tiers run from that floor up to tier 2.
PIN_FLOORS = {
    None: TIER_REWRITE,
    "unfolding-caps": TIER_FIXPOINT,
    "recursion": TIER_FIXPOINT,
    "disjunction": TIER_GROUND_SAT,
    "adom": TIER_GROUND_SAT,
}


@dataclass(frozen=True)
class CostEstimate:
    """Instance-statistics-based cost figures for one plan.

    All figures are estimates from the index statistics (relation
    cardinalities and per-position bucket sizes), not measurements: they
    explain *why* a tier is cheap and size the tier-2 work score.
    """

    tier: int
    domain_size: int
    candidates: int
    join_cost: float
    ground_clauses: float
    fixpoint_bound: float

    @property
    def tier2_work_score(self) -> float:
        """Estimated tier-2 work: ground clauses x candidate tuples."""
        return self.ground_clauses * max(1, self.candidates)

    def describe(self) -> dict:
        return {
            "tier": self.tier,
            "domain_size": self.domain_size,
            "candidates": self.candidates,
            "estimated_join_cost": round(self.join_cost, 1),
            "estimated_ground_clauses": round(self.ground_clauses, 1),
            "fixpoint_bound": round(self.fixpoint_bound, 1),
        }


@dataclass(frozen=True)
class QueryPlan:
    """An explainable routing decision for one compiled program.

    ``pin`` is the syntactic classification's record of *why* the
    program cannot go cheaper (a :data:`PIN_FLOORS` key), and
    :attr:`sound_tiers` follows from it alone: every consumer that asks
    which tiers are sound — :func:`plan_for_tier`, adaptive
    re-planning, the analyzer's MD2xx diagnostics — reads this record.

    Plans produced by the semantic stage (:mod:`repro.planner.semantic`)
    keep the syntactic plan's ``pin`` and additionally carry the
    constructed artifact — ``unfolding`` holds an obstruction-set UCQ for
    tier 0, ``rewritten`` a canonical datalog program for tier 1 — plus
    the :class:`SemanticReport` documenting the decision and its
    cross-validation.
    """

    tier: int
    rationale: str
    program: DisjunctiveDatalogProgram = field(repr=False)
    shape: ProgramShape
    unfolding: UcqUnfolding | None = field(repr=False, default=None)
    rewritten: DisjunctiveDatalogProgram | None = field(repr=False, default=None)
    semantic: SemanticReport | None = field(default=None)
    pin: str | None = None

    @property
    def tier_name(self) -> str:
        return TIER_NAMES[self.tier]

    @property
    def sound_tiers(self) -> tuple[int, ...]:
        """The tiers that compute the program's certain answers, syntactically."""
        return tuple(range(PIN_FLOORS[self.pin], TIER_GROUND_SAT + 1))

    @property
    def skips_sat(self) -> bool:
        return self.tier != TIER_GROUND_SAT

    @property
    def execution_program(self) -> DisjunctiveDatalogProgram:
        """The program the tier executor actually runs.

        The original compiled program, unless the semantic stage
        materialized a datalog rewriting — then that rewriting (whose
        certain answers were cross-validated to agree) runs instead.
        """
        return self.rewritten if self.rewritten is not None else self.program

    def describe(self) -> dict:
        """A JSON-able explanation (what sessions expose as ``explain()``)."""
        info = {
            "tier": self.tier,
            "tier_name": self.tier_name,
            "rationale": self.rationale,
            "rules": self.shape.rule_count,
            "constraints": self.shape.constraint_count,
            "disjunctive_rules": self.shape.disjunctive_rule_count,
            "recursive_relations": list(self.shape.recursive_relations),
        }
        if self.unfolding is not None:
            info["unfolded_goal_disjuncts"] = len(self.unfolding.goal_disjuncts)
            info["unfolded_constraint_disjuncts"] = len(
                self.unfolding.constraint_disjuncts
            )
        if self.rewritten is not None:
            info["rewritten_rules"] = len(self.rewritten.rules)
        if self.semantic is not None:
            info["semantic"] = self.semantic.describe()
        return info


#: Whether ``plan_program(program)`` runs the semantic stage on syntactic
#: tier-2 programs by default (``PlanPolicy(semantic=...)`` overrides it).
SEMANTIC_ROUTING_DEFAULT = True

# Plans are cached as private attributes *on the program object* rather
# than in a module-level mapping: a QueryPlan strongly references its
# program, so a (weak-keyed) global cache whose values point back at the
# keys would keep every program — and its materialized rewritings — alive
# forever.  Attribute storage couples the cache entry's lifetime to the
# program's own.  A program has one syntactic plan; semantic plans are
# keyed by budget.
_SYNTACTIC_PLAN_ATTR = "_planner_syntactic_plan"
_SEMANTIC_PLANS_ATTR = "_planner_semantic_plans"


def plan_program(
    program: DisjunctiveDatalogProgram,
    policy: PlanPolicy | None = None,
) -> QueryPlan:
    """The (cached) cheapest-correct-engine plan for a compiled program.

    All knobs arrive through ``policy`` (:class:`PlanPolicy`).  A policy
    with ``tier`` set delegates to :func:`plan_for_tier` (forced tiers
    bypass the semantic stage entirely).

    Syntactic classification always runs first (and is cached on the
    program object).  When it lands on tier 2 and ``policy.semantic`` is
    enabled (the default, see
    ``SEMANTIC_ROUTING_DEFAULT``), the semantic stage of
    :mod:`repro.planner.semantic` attempts to *construct* an FO- or
    datalog-rewriting within the budget and route the program to tier 0/1;
    otherwise — inapplicable, budget exceeded, genuinely disjunctive, or
    failed cross-validation — the syntactic tier-2 plan is returned with
    the semantic verdict attached.  Semantic plans are cached per
    (program, budget) pair, except *transient* verdicts (a tripped
    wall-clock deadline, which says more about machine load than about the
    program): those are re-analysed on the next call instead of pinning a
    rewritable query to tier 2 for the program's lifetime.

    ``policy.check`` runs the static analyzer first: ``"strict"`` raises
    :class:`repro.analysis.ProgramAnalysisError` on error-severity
    diagnostics before any classification work, ``"warn"`` reports them as
    Python warnings, ``"off"`` (the default here) trusts the caller.
    """
    if policy is None:
        policy = PlanPolicy()
    if policy.tier is not None:
        return plan_for_tier(program, policy.tier)
    resolved_check = policy.resolved_check("off")
    if resolved_check != "off":
        from ..analysis import vet_program

        vet_program(program, resolved_check, label="plan_program")
    tel = _telemetry.ACTIVE
    plan = getattr(program, _SYNTACTIC_PLAN_ATTR, None)
    if plan is None:
        if tel is not None:
            tel.count("planner.plan_cache_misses")
        with _telemetry.maybe_span("planner.classify"):
            plan = _classify(program)
        setattr(program, _SYNTACTIC_PLAN_ATTR, plan)
        if tel is not None:
            tel.event(
                "planner.tier_decision",
                stage="syntactic",
                tier=plan.tier,
                tier_name=plan.tier_name,
            )
    elif tel is not None:
        tel.count("planner.plan_cache_hits")
    enabled = (
        SEMANTIC_ROUTING_DEFAULT if policy.semantic is None else policy.semantic
    )
    if not enabled or plan.tier != TIER_GROUND_SAT:
        return plan
    from .semantic import analyse_rewritability

    resolved = (
        policy.semantic_budget
        if policy.semantic_budget is not None
        else DEFAULT_BUDGET
    )
    per_budget = getattr(program, _SEMANTIC_PLANS_ATTR, None)
    if per_budget is None:
        per_budget = {}
        setattr(program, _SEMANTIC_PLANS_ATTR, per_budget)
    semantic_plan = per_budget.get(resolved)
    if semantic_plan is None:
        if tel is not None:
            tel.count("planner.semantic_cache_misses")
        semantic_plan = analyse_rewritability(program, resolved)
        if not (semantic_plan.semantic and semantic_plan.semantic.transient):
            per_budget[resolved] = semantic_plan
        if tel is not None:
            report = semantic_plan.semantic
            tel.event(
                "planner.tier_decision",
                stage="semantic",
                tier=semantic_plan.tier,
                tier_name=semantic_plan.tier_name,
                rewriting=report.rewriting if report is not None else None,
            )
    elif tel is not None:
        tel.count("planner.semantic_cache_hits")
    return semantic_plan


def _classify(program: DisjunctiveDatalogProgram) -> QueryPlan:
    """The syntactic plan: the one place tier soundness is decided."""
    shape = analyse_program(program)
    if shape.defines_adom:
        return QueryPlan(
            TIER_GROUND_SAT,
            "program derives the built-in adom relation; only the ground "
            "engine implements that faithfully",
            program,
            shape,
            pin="adom",
        )
    if not shape.disjunction_free:
        return QueryPlan(
            TIER_GROUND_SAT,
            f"{shape.disjunctive_rule_count} disjunctive rule(s): certain "
            "answers need the ground-once + incremental CDCL engine",
            program,
            shape,
            pin="disjunction",
        )
    if shape.recursive:
        shown = ", ".join(shape.recursive_relations[:4])
        return QueryPlan(
            TIER_FIXPOINT,
            "disjunction-free but recursive through "
            f"{shown}: semi-naive least fixpoint, no SAT",
            program,
            shape,
            pin="recursion",
        )
    max_disjuncts, max_atoms = effective_unfold_caps(program)
    unfolding = unfold_to_ucq(program, max_disjuncts, max_atoms)
    if unfolding is None:
        return QueryPlan(
            TIER_FIXPOINT,
            "disjunction-free and nonrecursive, but the UCQ unfolding "
            f"exceeds the cost-model caps ({max_disjuncts} disjuncts x "
            f"{max_atoms} atoms): semi-naive least fixpoint, no SAT",
            program,
            shape,
            pin="unfolding-caps",
        )
    return QueryPlan(
        TIER_REWRITE,
        "nonrecursive and disjunction-free: goal unfolds into a UCQ with "
        f"{len(unfolding.goal_disjuncts)} disjunct(s) "
        f"(+{len(unfolding.constraint_disjuncts)} constraint disjunct(s)); "
        "evaluated by the join planner over the instance indexes — no "
        "grounding, no SAT",
        program,
        shape,
        unfolding,
    )


def plan_for_tier(program: DisjunctiveDatalogProgram, tier: int) -> QueryPlan:
    """Force a specific tier (for cross-validation and benchmarks).

    Raises ``ValueError`` when the tier is not among the syntactic plan's
    :attr:`~QueryPlan.sound_tiers`: tier 2 is always legal, tier 1 needs a
    disjunction-free program, and tier 0 additionally needs the UCQ
    unfolding to exist within the cost model's caps.  Forcing is a
    *syntactic* notion: it bypasses (and thereby overrides) the semantic
    stage entirely, so ``plan_for_tier(p, TIER_GROUND_SAT)`` pins a
    semantically rewritable program to the ground+CDCL engine.
    """
    if tier not in TIER_NAMES:
        raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(TIER_NAMES)}")
    natural = plan_program(program, PlanPolicy(semantic=False))
    if tier == natural.tier:
        return natural
    if tier not in natural.sound_tiers:
        if natural.pin == "recursion":
            raise ValueError(
                "tier 0 is unsound for this program: recursive through "
                + ", ".join(natural.shape.recursive_relations)
            )
        if natural.pin == "unfolding-caps":
            raise ValueError(
                "tier 0 is unavailable: the UCQ unfolding exceeds its caps"
            )
        raise ValueError(
            f"tier {tier} is unsound for this program: {natural.rationale}"
        )
    forced = "ground+CDCL" if tier == TIER_GROUND_SAT else "fixpoint"
    return replace(
        natural, tier=tier, rationale=f"forced to the {forced} tier", unfolding=None
    )


def plan_workload(
    programs: Mapping[str, DisjunctiveDatalogProgram],
    policy: PlanPolicy | None = None,
) -> dict[str, QueryPlan]:
    """Plan every compiled query of a workload (cached per program)."""
    return {
        name: plan_program(program, policy)
        for name, program in programs.items()
    }


# ---------------------------------------------------------------------------
# Program identity interning and the LRU plan/artifact cache
# ---------------------------------------------------------------------------

# Plans (and the other per-program artifacts below) live as attributes on
# the program object, so two *structurally identical* programs compiled by
# different tenants would each plan, ground, and compile from scratch.
# ``PlanCache`` fixes that by interning programs under a canonical
# structural key: the first program with a given shape becomes the
# representative every later tenant is handed, so all attribute caches —
# and the warm serving state keyed on the program object — are shared.
_IDENTITY_KEY_ATTR = "_planner_identity_key"

#: Per-program attribute caches cleared when ``PlanCache`` evicts a
#: representative (each is rebuilt on demand by its owning layer).
PLAN_ARTIFACT_ATTRS = (
    _SYNTACTIC_PLAN_ATTR,  # the syntactic QueryPlan
    _SEMANTIC_PLANS_ATTR,  # semantic QueryPlans, keyed by budget
    "_ground_plan_cache",  # engine/grounder.py per-rule ground plans
    "_columnar_compiled",  # datalog/plain.py compiled columnar rules
    "_analysis_report",  # analysis/checks.py static diagnostics
)


def _canonical_rule(rule) -> tuple:
    """One rule up to variable renaming: vars numbered by first occurrence."""
    numbering: dict = {}
    return canonical_atoms(rule.body, numbering), canonical_atoms(rule.head, numbering)


def program_identity_key(program: DisjunctiveDatalogProgram) -> tuple:
    """A hashable structural identity for a compiled program.

    Two programs get equal keys iff they have the same goal relation and
    the same *set* of rules up to per-rule variable renaming — i.e. they
    are interchangeable for planning and evaluation.  Constants are kept
    as the constant objects themselves (compared by ``__eq__``), so
    distinct constants that merely share a ``repr`` never collide.  The
    key is cached on the program object.
    """
    cached = getattr(program, _IDENTITY_KEY_ATTR, None)
    if cached is not None:
        return cached
    rules = sorted((_canonical_rule(rule) for rule in program.rules), key=repr)
    key = (
        "obda-program/v1",
        program.goal_relation.name,
        program.goal_relation.arity,
        tuple(rules),
    )
    try:
        setattr(program, _IDENTITY_KEY_ATTR, key)
    except AttributeError:  # slotted/frozen program stand-ins in tests
        pass
    return key


def clear_plan_artifacts(program: DisjunctiveDatalogProgram) -> tuple[str, ...]:
    """Drop every attribute-cached artifact from a program object.

    The eviction hook of :class:`PlanCache`; safe to call on any program
    (missing attributes are skipped).  Returns the names cleared, which
    makes eviction observable in tests.
    """
    cleared = []
    for attr in PLAN_ARTIFACT_ATTRS:
        if hasattr(program, attr):
            try:
                delattr(program, attr)
            except AttributeError:
                continue
            cleared.append(attr)
    return tuple(cleared)


class PlanCache:
    """LRU-interning cache of compiled programs and their plan artifacts.

    ``intern(program)`` returns the cached *representative* for the
    program's structural identity (inserting it on first sight).  Callers
    that plan/serve the representative instead of their own copy share
    every per-program artifact — plans, ground plans, columnar compiles,
    warm session state keyed on the object — across tenants.  When the
    cache exceeds ``capacity`` the least-recently-interned representative
    is evicted and its artifacts are cleared via
    :func:`clear_plan_artifacts`; re-interning later re-plans from scratch
    (same answers, cold caches).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"PlanCache capacity must be >= 1, got {capacity}")
        from collections import OrderedDict

        self.capacity = capacity
        self._programs: OrderedDict[tuple, DisjunctiveDatalogProgram] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._programs)

    def __contains__(self, program: DisjunctiveDatalogProgram) -> bool:
        return program_identity_key(program) in self._programs

    def intern(
        self, program: DisjunctiveDatalogProgram
    ) -> DisjunctiveDatalogProgram:
        """The representative program for ``program``'s structural identity."""
        key = program_identity_key(program)
        tel = _telemetry.ACTIVE
        representative = self._programs.get(key)
        if representative is not None:
            self._programs.move_to_end(key)
            self.hits += 1
            if tel is not None:
                tel.count("planner.program_cache_hits")
            return representative
        self.misses += 1
        self._programs[key] = program
        if tel is not None:
            tel.count("planner.program_cache_misses")
        while len(self._programs) > self.capacity:
            _evicted_key, evicted = self._programs.popitem(last=False)
            self.evictions += 1
            clear_plan_artifacts(evicted)
            if tel is not None:
                tel.count("planner.program_cache_evictions")
        return program

    def describe(self) -> dict:
        return {
            "capacity": self.capacity,
            "size": len(self._programs),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# ---------------------------------------------------------------------------
# Cost model over instance index statistics
# ---------------------------------------------------------------------------


def _chain_cost(atoms, instance: Instance, bound=frozenset()) -> tuple[float, float]:
    """Greedy-join cost of a CQ body: (total intermediate rows, result rows).

    Follows the same greedy selectivity order the executor uses; per-step
    estimates come from the instance's relation cardinalities and position
    index bucket sizes.
    """
    total = 0.0
    acc = 1.0
    bound_now = set(bound)
    for atom in order_atoms(atoms, instance, bound=bound_now):
        acc *= max(_estimated_rows(atom, bound_now, instance), 0.0)
        total += acc
        bound_now.update(atom.variables)
    return total, acc


def estimate_cost(plan: QueryPlan, instance: Instance) -> CostEstimate:
    """Cost figures for executing the plan on this instance."""
    program = plan.execution_program
    domain_size = len(instance.active_domain)
    candidates = domain_size ** program.arity
    join_cost = 0.0
    if plan.unfolding is not None:
        for disjunct in (
            plan.unfolding.goal_disjuncts + plan.unfolding.constraint_disjuncts
        ):
            steps, results = _chain_cost(disjunct.atoms, instance)
            atom_vars = {v for atom in disjunct.atoms for v in atom.variables}
            free_answers = {
                t
                for t in disjunct.answer_terms
                if isinstance(t, Variable) and t not in atom_vars
            }
            join_cost += steps + results * max(
                float(domain_size) ** len(free_answers), 1.0
            )
    idb_names = frozenset(
        {sym.name for sym in program.idb_relations}
    ) - {ADOM}
    ground_clauses = 0.0
    for rule in program.rules:
        edb_atoms, _adom_atoms, idb_atoms = _split_body(rule, idb_names, ADOM)
        steps, results = _chain_cost(edb_atoms, instance)
        bound = {v for atom in edb_atoms for v in atom.variables}
        free = sorted(
            {v for v in rule.variables if v not in bound}, key=str
        )
        literals = [(a, False) for a in idb_atoms] + [(a, True) for a in rule.head]
        blocks, _bound_literals = _free_variable_blocks(free, literals)
        multiplier = sum(
            float(domain_size) ** len(variables) for variables, _ in blocks
        )
        ground_clauses += results * max(multiplier, 1.0)
    fixpoint_bound = float(
        sum(
            float(domain_size) ** sym.arity
            for sym in program.idb_relations
            if sym.name != ADOM
        )
    )
    return CostEstimate(
        tier=plan.tier,
        domain_size=domain_size,
        candidates=candidates,
        join_cost=join_cost,
        ground_clauses=ground_clauses,
        fixpoint_bound=fixpoint_bound,
    )
