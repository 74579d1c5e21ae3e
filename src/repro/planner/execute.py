"""Executors for the planner's three tiers.

Every executor computes exactly the certain answers the ground+CDCL engine
(:mod:`repro.engine.grounder`) would — including the vacuous-certainty
convention for inconsistent programs (every tuple over the active domain)
and the restriction of answers to the active domain — so routing never
changes answers, only cost.  One-shot evaluation, serving sessions and
the semantic stage's cross-validation all answer through this module:

* tier 0 evaluates the UCQ unfolding disjunct-by-disjunct with the
  engine's join planner directly over the instance indexes;
* tier 1 runs the semi-naive least fixpoint of
  :mod:`repro.datalog.plain` and checks constraints against the
  materialized minimal model (rule bodies are positive, hence monotone: a
  constraint body satisfied in the minimal model is satisfied in every
  model, so firing means *no* model exists);
* tier 2 grounds once and decides candidates against the persistent
  incremental CDCL solver.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from ..core.cq import Variable
from ..core.instance import Instance, MutableIndexedInstance
from ..datalog.plain import DatalogProgram
from ..engine.grounder import ground_program
from ..engine.joins import JoinPlan, compile_join, execute_join, join_exists
from .analysis import UcqUnfolding, UnfoldedDisjunct
from .plan import TIER_REWRITE, QueryPlan, plan_program

#: A tier-1 minimal model: a fresh frozen fixpoint, or a session's live
#: DRed-maintained store (both speak the row protocol).
Model = Instance | MutableIndexedInstance


def vacuous_answers(instance: Instance, arity: int) -> frozenset[tuple]:
    """Every tuple over the active domain (the no-model convention)."""
    domain = sorted(instance.active_domain, key=repr)
    return frozenset(itertools.product(domain, repeat=arity))


def vacuous_decisions(
    instance: Instance, candidates: "Sequence[tuple]"
) -> dict[tuple, bool]:
    """Per-candidate verdicts when no model exists: certain iff over adom."""
    adom = instance.active_domain
    return {
        candidate: all(value in adom for value in candidate)
        for candidate in candidates
    }


# ---------------------------------------------------------------------------
# Tier 0: UCQ evaluation through the join planner
# ---------------------------------------------------------------------------


def _disjunct_guards_hold(disjunct: UnfoldedDisjunct, adom: frozenset) -> bool:
    """Constant guards: constants under adom atoms / answer positions."""
    for term in disjunct.adom_terms:
        if not isinstance(term, Variable) and term not in adom:
            return False
    return all(
        isinstance(term, Variable) or term in adom
        for term in disjunct.answer_terms
    )


def _free_adom_variables(
    disjunct: UnfoldedDisjunct, bound: set[Variable]
) -> set[Variable]:
    """Variables constrained only by adom membership, given ``bound``."""
    atom_vars = {v for atom in disjunct.atoms for v in atom.variables}
    return {
        term
        for term in disjunct.adom_terms + disjunct.answer_terms
        if isinstance(term, Variable)
        and term not in atom_vars
        and term not in bound
    }


# Tier-0 join plans, cached on the disjunct object itself (frozen
# dataclass, hence ``object.__setattr__`` — the repo's attribute-cache
# idiom): plans are interner-independent, so one compiled plan per
# (disjunct, bound-variable set) serves every instance the unfolding is
# ever evaluated on, and the cache dies with the unfolding.
_DISJUNCT_PLANS_ATTR = "_columnar_plans"


def _disjunct_plan(disjunct: UnfoldedDisjunct, instance: Instance, bound=()):
    plans = getattr(disjunct, _DISJUNCT_PLANS_ATTR, None)
    if plans is None:
        plans = {}
        object.__setattr__(disjunct, _DISJUNCT_PLANS_ATTR, plans)
    key = frozenset(v.name for v in bound)
    plan = plans.get(key)
    if plan is None:
        plan = compile_join(disjunct.atoms, instance, bound=bound)
        plans[key] = plan
    return plan


def _disjunct_answers(
    disjunct: UnfoldedDisjunct, instance: Instance, domain: Sequence
) -> Iterator[tuple]:
    adom = instance.active_domain
    if not _disjunct_guards_hold(disjunct, adom):
        return
    free_all = _free_adom_variables(disjunct, set())
    if free_all and not domain:
        return
    answer_vars = {t for t in disjunct.answer_terms if isinstance(t, Variable)}
    # Existential adom-only variables only need a nonempty domain (checked
    # above); enumerating them would yield each answer |domain| extra times.
    free = sorted(free_all & answer_vars, key=str)
    plan = _disjunct_plan(disjunct, instance)
    for assignment in plan.assignments(
        execute_join(plan, instance), instance.interner
    ):
        if free:
            for values in itertools.product(domain, repeat=len(free)):
                full = dict(assignment)
                full.update(zip(free, values))
                yield tuple(
                    full[t] if isinstance(t, Variable) else t
                    for t in disjunct.answer_terms
                )
        else:
            yield tuple(
                assignment[t] if isinstance(t, Variable) else t
                for t in disjunct.answer_terms
            )


def _disjunct_satisfiable(
    disjunct: UnfoldedDisjunct,
    instance: Instance,
    initial: dict | None = None,
) -> bool:
    """Is the (Boolean, possibly partially bound) disjunct satisfiable?"""
    adom = instance.active_domain
    if not _disjunct_guards_hold(disjunct, adom):
        return False
    if _free_adom_variables(disjunct, set(initial or ())) and not adom:
        return False
    if not initial:
        return join_exists(_disjunct_plan(disjunct, instance), instance)
    bound = tuple(sorted(initial, key=lambda v: v.name))
    plan = _disjunct_plan(disjunct, instance, bound)
    seed = plan.intern_seed(initial, instance.interner)
    return join_exists(plan, instance, seed)


def ucq_certain_answers(plan: QueryPlan, instance: Instance) -> frozenset[tuple]:
    """Tier-0 certain answers: evaluate the unfolded UCQ, no grounding."""
    if not plan_consistent(plan, instance):
        return vacuous_answers(instance, plan.program.arity)
    domain = sorted(instance.active_domain, key=repr)
    answers: set[tuple] = set()
    for disjunct in plan.unfolding.goal_disjuncts:
        answers.update(_disjunct_answers(disjunct, instance, domain))
    return frozenset(answers)


def _candidate_certain(
    unfolding: UcqUnfolding, instance: Instance, candidate: tuple
) -> bool:
    """Decide one candidate tuple against the unfolded goal.

    Assumes consistency was checked; binds the answer terms and asks the
    join planner for a single witness per disjunct.
    """
    adom = instance.active_domain
    if any(value not in adom for value in candidate):
        return False
    for disjunct in unfolding.goal_disjuncts:
        if len(disjunct.answer_terms) != len(candidate):
            continue
        initial: dict = {}
        feasible = True
        for term, value in zip(disjunct.answer_terms, candidate):
            if isinstance(term, Variable):
                if initial.setdefault(term, value) != value:
                    feasible = False
                    break
            elif term != value:
                feasible = False
                break
        if feasible and _disjunct_satisfiable(disjunct, instance, initial):
            return True
    return False


# ---------------------------------------------------------------------------
# Tier 1: semi-naive fixpoint plus constraint checking
# ---------------------------------------------------------------------------


# Cached on the (frozen) plan object via the repo's attribute-cache idiom:
# the fixpoint tier's compiled datalog program carries per-rule join plans
# (``DatalogProgram.compiled_rules``) that must stay warm across adaptive
# tier-state swaps — rebuilding the program would discard them.
_FIXPOINT_PROGRAM_ATTR = "_planner_fixpoint_program"


def fixpoint_program(plan: QueryPlan) -> DatalogProgram:
    """The disjunction-free rules the fixpoint tier runs, as plain datalog.

    For plans carrying a semantic rewriting this is the constructed
    canonical datalog program; otherwise the plan's own rules minus
    constraints (which :func:`plan_consistent` checks against the
    materialized minimal model instead).  The result is cached on the plan
    so repeated state (re)builds — adaptive swaps, session compaction —
    reuse one program object and its compiled-rule caches.
    """
    cached = getattr(plan, _FIXPOINT_PROGRAM_ATTR, None)
    if cached is not None:
        return cached
    program = plan.execution_program
    if isinstance(program, DatalogProgram) and not any(
        rule.is_constraint() for rule in program.rules
    ):
        result = program
    else:
        result = DatalogProgram(
            [rule for rule in program.rules if rule.head],
            goal_relation=program.goal_relation,
        )
    object.__setattr__(plan, _FIXPOINT_PROGRAM_ATTR, result)
    return result


def fixpoint_goal_answers(
    plan: QueryPlan, instance: Instance, fixpoint: Model
) -> frozenset[tuple]:
    """Goal tuples of the materialized fixpoint over ``instance``'s active
    domain: the certain answers of a consistent disjunction-free program.
    Both model kinds cache the decoded goal view until it changes."""
    adom = instance.active_domain
    return frozenset(
        row
        for row in fixpoint.tuples(plan.execution_program.goal_relation)
        if all(value in adom for value in row)
    )


def _minimal_model(
    plan: QueryPlan, instance: Instance, fixpoint: Model | None
) -> Model | None:
    """The caller's maintained fixpoint, else a fresh one (none on tier 0)."""
    if fixpoint is not None or plan.tier == TIER_REWRITE:
        return fixpoint
    return fixpoint_program(plan).least_fixpoint(instance)


def fixpoint_certain_answers(
    plan: QueryPlan, instance: Instance, fixpoint: Model | None = None
) -> frozenset[tuple]:
    """Tier-1 certain answers: least fixpoint + constraint check, no SAT."""
    fixpoint = _minimal_model(plan, instance, fixpoint)
    if not plan_consistent(plan, instance, fixpoint):
        return vacuous_answers(instance, plan.program.arity)
    return fixpoint_goal_answers(plan, instance, fixpoint)


# ---------------------------------------------------------------------------
# Tiers 0 and 1: consistency and candidate decisions
# ---------------------------------------------------------------------------


# One join plan per constraint of the executed program, cached on the
# (frozen) plan like the fixpoint program above: plans are
# interner-independent, so the same plans serve a session's live store and
# every fresh fixpoint the plan is executed on.
_CONSTRAINT_PLANS_ATTR = "_planner_constraint_plans"


def _constraint_plans(plan: QueryPlan, fixpoint: Model) -> list[JoinPlan]:
    plans = getattr(plan, _CONSTRAINT_PLANS_ATTR, None)
    if plans is None:
        plans = [
            compile_join(rule.body, fixpoint)
            for rule in plan.execution_program.rules
            if rule.is_constraint()
        ]
        object.__setattr__(plan, _CONSTRAINT_PLANS_ATTR, plans)
    return plans


def plan_consistent(
    plan: QueryPlan, instance: Instance, fixpoint: Model | None = None
) -> bool:
    """Does some model extend ``instance``?  (SAT-free tiers only.)

    Tier 0 joins the unfolded constraints against the instance.  Tier 1
    joins the executed program's constraints against the minimal model
    (``fixpoint`` when the caller maintains it; it holds the seeded
    ``adom`` facts too): rule bodies are positive, so a constraint firing
    there fires in every model.
    """
    if plan.tier == TIER_REWRITE:
        return not any(
            _disjunct_satisfiable(disjunct, instance)
            for disjunct in plan.unfolding.constraint_disjuncts
        )
    fixpoint = _minimal_model(plan, instance, fixpoint)
    return not any(
        join_exists(constraint, fixpoint)
        for constraint in _constraint_plans(plan, fixpoint)
    )


def decide_candidates(
    plan: QueryPlan,
    instance: Instance,
    candidates: Sequence[tuple],
    fixpoint: Model | None = None,
) -> dict[tuple, bool]:
    """Per-candidate verdicts of a SAT-free plan, the no-model rule included."""
    fixpoint = _minimal_model(plan, instance, fixpoint)
    if not plan_consistent(plan, instance, fixpoint):
        return vacuous_decisions(instance, candidates)
    if plan.tier == TIER_REWRITE:
        return {
            candidate: _candidate_certain(plan.unfolding, instance, candidate)
            for candidate in candidates
        }
    answers = fixpoint_goal_answers(plan, instance, fixpoint)
    return {candidate: candidate in answers for candidate in candidates}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def execute_plan(plan: QueryPlan, instance: Instance) -> frozenset[tuple]:
    """Certain answers via the plan's tier, statelessly.

    Tier 0 joins the unfolded UCQ against the instance's indexes; tier 1
    materializes a fresh fixpoint; tier 2 grounds from scratch.  Nothing
    outside the call is touched, so this is safe against *any* instance —
    in particular a serving snapshot older than the live session.
    """
    if plan.tier == TIER_REWRITE:
        return ucq_certain_answers(plan, instance)
    if plan.skips_sat:
        return fixpoint_certain_answers(plan, instance)
    return ground_program(plan.program, instance).certain_answers()


class PlannedMddlogEngine:
    """A complete certain-answer engine over a compiled MDDlog program.

    Wraps a Theorem 3.3 compilation (or any DDlog program) behind the
    planner: certain answers are computed by the cheapest sound tier.
    Unlike the bounded counter-model engine this is complete — the
    compiled program *is* the query (Theorem 3.3), and every tier computes
    its certain answers exactly.
    """

    def __init__(self, program, policy=None) -> None:
        self.program = program
        self.plan = plan_program(program, policy)

    def certain_answers(self, instance: Instance) -> frozenset[tuple]:
        return execute_plan(self.plan, instance)

    def is_certain(self, instance: Instance, answer: Sequence = ()) -> bool:
        answer = tuple(answer)
        if self.plan.skips_sat:
            return decide_candidates(self.plan, instance, [answer])[answer]
        return ground_program(self.program, instance).holds(answer)
