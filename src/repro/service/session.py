"""Compiled OBDA serving sessions.

An :class:`ObdaSession` is the unit of deployment of the serving layer: a
*workload* of ontology-mediated queries is compiled once — DL ontology plus
UCQ into MDDlog through the Theorem 3.3 translation
(:func:`repro.omq.certain.compile_to_mddlog`), or any disjunctive datalog
program used directly — and the session then answers every query against a
single mutable data instance that evolves fact-by-fact.

Each compiled query is routed by the tiered planner
(:mod:`repro.planner`) to persistent evaluation state matching its
:class:`~repro.planner.QueryPlan`:

* tier 0 (nonrecursive disjunction-free) needs *no* state at all: the goal
  and constraints are unfolded into UCQs once, and every query is a join
  against the live instance indexes (:class:`_UcqState`);
* tier 1 (recursive disjunction-free) keeps a materialized least fixpoint
  maintained by semi-naive insertion and DRed deletion
  (:class:`repro.service.delta.IncrementalFixpoint`), with constraints
  checked against the minimal model at query time;
* tier 2 (genuinely disjunctive) keeps a live CDCL solver fed by
  support-guarded delta grounding
  (:class:`repro.service.delta.DeltaGrounder`): insertions push only the
  newly justified clauses, deletions retract the facts' guard assumptions,
  and :func:`~repro.engine.grounder.certain_goal_atoms` decides the
  candidates on the warm solver, with all learned clauses intact.

Answers after every update are identical to a from-scratch recomputation
over the current instance (the streaming test-suite cross-validates this on
randomized update streams).

Sessions accept a :class:`~repro.planner.PlanPolicy` carrying every
planning knob; with ``adaptive=`` enabled the session live-re-plans: an
:class:`~repro.planner.AdaptiveController` per query watches the rolling
read/insert/delete mix, and when the predicted cost crosses the policy's
hysteresis gates the serving state is rebuilt on the cheaper tier from the
current frozen instance — warm join-plan caches transplanted — without
dropping an update or an answer (``docs/adaptive.md``).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..analysis import vet_program
from ..core.instance import Fact, Instance
from ..datalog.ddlog import DisjunctiveDatalogProgram
from ..engine.grounder import certain_goal_atoms
from ..engine.sat import ClauseSolver
from ..obs import telemetry as _telemetry
from ..omq.query import OntologyMediatedQuery
from ..planner import (
    TIER_FIXPOINT,
    TIER_REWRITE,
    QueryPlan,
    decide_candidates,
    execute_plan,
    fixpoint_certain_answers,
    plan_consistent,
    plan_program,
    ucq_certain_answers,
    vacuous_decisions,
)
from ..planner.adaptive import AdaptiveController, candidate_plans
from ..planner.execute import fixpoint_program
from ..planner.policy import PlanPolicy
from .delta import DeltaGrounder, IncrementalFixpoint, fact_guard
from .explain import EXPLAIN_SCHEMA

DEFAULT_QUERY = "q"


def resolve_query(names, name: str | None, owner: str = "session") -> str:
    """The query ``name`` picks among ``names``; ``None`` picks the only one."""
    if name is None:
        if len(names) == 1:
            return next(iter(names))
        raise ValueError(f"{owner} serves {sorted(names)}; pass a query name")
    if name not in names:
        raise KeyError(f"unknown query {name!r}; {owner} serves {sorted(names)}")
    return name


def _compile(entry) -> DisjunctiveDatalogProgram:
    if isinstance(entry, DisjunctiveDatalogProgram):
        return entry
    if isinstance(entry, OntologyMediatedQuery):
        from ..omq.certain import compile_to_mddlog

        return compile_to_mddlog(entry)
    raise TypeError(
        f"workload entries must be OMQs or DDlog programs, got {entry!r}"
    )


class _State:
    """One query's serving state: answers from the warm state of its tier."""

    plan: QueryPlan

    @property
    def program(self) -> DisjunctiveDatalogProgram:
        return self.plan.program

    def is_certain(self, instance: Instance, answer: tuple) -> bool:
        return self.decide_batch(instance, [answer])[answer]


class _SatState(_State):
    """Tier 2: guarded ground program + persistent CDCL solver for one query.

    ``_consistent`` keeps the last assumption-free verdict (a screening
    solve or a consistency check) until the next insert or delete.
    """

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        self.grounder = DeltaGrounder(self.program)
        self.solver = ClauseSolver()
        for negative, positive in self.grounder.bootstrap_clauses():
            self.solver.add_clause(negative, positive)
        self._consistent: bool | None = None

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        self._consistent = None
        clauses = self.grounder.insert(old, delta, new)
        for negative, positive in clauses:
            self.solver.add_clause(negative, positive)
        for fact in delta:
            self.solver.assume(fact_guard(fact))
        return len(clauses)

    def delete(self, removed: Iterable[Fact]) -> None:
        self._consistent = None
        for fact in removed:
            self.solver.retract_assumption(fact_guard(fact))

    def certain_answers(self, instance: Instance) -> frozenset[tuple]:
        domain = sorted(instance.active_domain, key=repr)
        candidates = list(itertools.product(domain, repeat=self.program.arity))
        decided = self.decide_batch(instance, candidates)
        return frozenset(c for c, certain in decided.items() if certain)

    def is_consistent(self, instance: Instance) -> bool:
        if self._consistent is None:
            self._consistent = self.solver.solve()
        return self._consistent

    def decide_batch(
        self, instance: Instance, candidates: Sequence[tuple]
    ) -> dict[tuple, bool]:
        goal = self.program.goal_relation
        adom = instance.active_domain
        # Candidates outside the active domain are never answers.
        atoms = [
            (goal, candidate)
            for candidate in candidates
            if all(value in adom for value in candidate)
        ]
        certain = certain_goal_atoms(self.solver, atoms)
        self._consistent = certain is not None
        if certain is None:
            # No model extends the data at all: every tuple over the active
            # domain is vacuously certain.
            return vacuous_decisions(instance, candidates)
        return {candidate: (goal, candidate) in certain for candidate in candidates}


class _SatFreeState(_State):
    """Tiers 0 and 1: the planner's SAT-free executor answers every query.

    ``model`` is the tier-1 materialization it reads (none on tier 0).
    """

    model: Instance | None = None

    def is_consistent(self, instance: Instance) -> bool:
        return plan_consistent(self.plan, instance, self.model)

    def decide_batch(
        self, instance: Instance, candidates: Sequence[tuple]
    ) -> dict[tuple, bool]:
        return decide_candidates(self.plan, instance, candidates, self.model)


class _UcqState(_SatFreeState):
    """Tier 0: stateless UCQ evaluation against the live instance indexes.

    Nothing is maintained under updates — the unfolded goal and constraint
    UCQs are joined against the session's current instance on every query,
    which is exactly the FO-rewritability promise of the paper's Table 1
    examples made operational.
    """

    def __init__(self, plan: QueryPlan) -> None:
        assert plan.unfolding is not None
        self.plan = plan

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        return 0  # nothing to maintain

    def delete(self, removed: Iterable[Fact]) -> None:
        pass  # nothing to maintain

    def certain_answers(self, instance: Instance) -> frozenset[tuple]:
        return ucq_certain_answers(self.plan, instance)


class _FixpointState(_SatFreeState):
    """Tier 1: materialized incremental fixpoint for a disjunction-free query.

    The planner's executor answers from the maintained minimal model:
    constraints are checked against it at query time, and a firing one
    makes every tuple over the active domain vacuously certain (the same
    convention as the SAT tier).
    """

    def __init__(self, plan: QueryPlan, instance: Instance | None = None) -> None:
        self.plan = plan
        self.fixpoint = IncrementalFixpoint(fixpoint_program(plan), instance=instance)

    @property
    def model(self) -> Instance:
        return self.fixpoint.fixpoint

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        self.fixpoint.insert(delta)
        return 0

    def delete(self, removed: Iterable[Fact]) -> None:
        self.fixpoint.delete(removed)

    def certain_answers(self, instance: Instance) -> frozenset[tuple]:
        return fixpoint_certain_answers(self.plan, instance, self.model)


class SessionSnapshot:
    """A versioned read-only view of a session at one commit point.

    ``Instance`` is immutable and sessions swap in *new* instances on
    every epoch, so a snapshot is just a pinned reference: it never
    changes under the reader no matter how many flushes advance the live
    session.  Reads take the warm path (the session's own tier state)
    while the session still serves the pinned instance; once the session
    has moved on, answers are recomputed statelessly against the pinned
    instance via :func:`~repro.planner.execute_plan` and memoized, so
    concurrent readers of a superseded version pay the recompute once.
    """

    def __init__(
        self,
        session,
        version: int,
        instance: Instance,
        plans: Mapping[str, QueryPlan],
    ) -> None:
        self.version = version
        self.instance = instance
        self._session = session
        self._plans = dict(plans)
        self._answers: dict[str, frozenset[tuple]] = {}

    @property
    def query_names(self) -> tuple[str, ...]:
        return tuple(self._plans)

    @property
    def is_current(self) -> bool:
        """Does the live session still serve exactly this instance?"""
        session = self._session
        return session is not None and session.instance is self.instance

    def plan(self, name: str | None = None) -> QueryPlan:
        return self._plans[resolve_query(self._plans, name, "snapshot")]

    def certain_answers(self, name: str | None = None) -> frozenset[tuple]:
        """Certain answers of the (named) query at this snapshot's version."""
        resolved = resolve_query(self._plans, name, "snapshot")
        answers = self._answers.get(resolved)
        if answers is not None:
            return answers
        if self.is_current:
            answers = self._session.certain_answers(resolved)
        else:
            tel = _telemetry.ACTIVE
            if tel is not None:
                tel.count("session.snapshot_recomputes")
            answers = execute_plan(self._plans[resolved], self.instance)
        self._answers[resolved] = answers
        return answers

    def is_certain(self, answer: Sequence = (), name: str | None = None) -> bool:
        """Membership in :meth:`certain_answers` (memoized per query)."""
        return tuple(answer) in self.certain_answers(name)

    def answer_all(self) -> dict[str, frozenset[tuple]]:
        return {name: self.certain_answers(name) for name in self._plans}


#: Ring-buffer capacity for the per-event history kept by a session; the
#: cumulative totals are unbounded, so nothing is lost to the bound except
#: old per-event detail.
DEFAULT_EVENT_WINDOW = 256


@dataclass
class SessionStats:
    """Counters describing the work a session has done so far.

    Two layers: *cumulative* totals (plain ints/floats plus the per-op
    ``totals`` table, never truncated) and a fixed-size ring buffer of the
    most recent per-event records (``events``, newest last) — so stats stay
    O(window) on unbounded streams.  Every insert/delete epoch and every
    query is one event carrying its measured wall-clock ``seconds`` (the
    timing is always on: two ``perf_counter`` calls per event).

    :meth:`rollup` folds both layers into the ``obda-session-rollup/v1``
    schema — the observed read/insert/delete mix and cost per event that
    workload-adaptive re-planning consumes (see ``docs/observability.md``).
    """

    epoch: int = 0
    facts_inserted: int = 0
    facts_deleted: int = 0
    clauses_pushed: int = 0
    queries_answered: int = 0
    window: int = DEFAULT_EVENT_WINDOW
    events: deque = field(default=None, repr=False)
    totals: dict = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.events = deque(maxlen=self.window)
        self.totals = {
            op: {"count": 0, "facts": 0, "clauses": 0, "seconds": 0.0}
            for op in ("insert", "delete", "query")
        }

    def record_event(
        self,
        op: str,
        *,
        facts: int = 0,
        clauses: int = 0,
        seconds: float = 0.0,
        **extra,
    ) -> dict:
        """Fold one insert/delete/query event into totals and the ring."""
        totals = self.totals[op]
        totals["count"] += 1
        totals["facts"] += facts
        totals["clauses"] += clauses
        totals["seconds"] += seconds
        event = {
            "epoch": self.epoch,
            "op": op,
            "facts": facts,
            "clauses": clauses,
            "seconds": seconds,
        }
        if extra:
            event.update(extra)
        self.events.append(event)
        return event

    @property
    def epochs(self) -> list[dict]:
        """The update epochs (inserts and deletes) still in the ring buffer."""
        return [event for event in self.events if event["op"] != "query"]

    def rollup(self) -> dict:
        """The ``obda-session-rollup/v1`` mix-and-cost summary.

        This is the API contract the adaptive re-planner consumes:
        ``mix`` gives the observed read/insert/delete event fractions over
        the whole stream, ``ops`` the cumulative per-op cost (count, facts,
        clauses, total and mean seconds), and ``window`` the same shape
        restricted to the ring buffer — the *recent* mix a re-planner
        should weight over the historical one.
        """
        ops: dict[str, dict] = {}
        total_events = 0
        for op, totals in self.totals.items():
            count = totals["count"]
            total_events += count
            ops[op] = {
                "count": count,
                "facts": totals["facts"],
                "clauses": totals["clauses"],
                "total_s": totals["seconds"],
                "mean_s": totals["seconds"] / count if count else 0.0,
            }
        mix = {
            op: (info["count"] / total_events if total_events else 0.0)
            for op, info in ops.items()
        }
        recent = {op: {"count": 0, "total_s": 0.0} for op in self.totals}
        for event in self.events:
            bucket = recent[event["op"]]
            bucket["count"] += 1
            bucket["total_s"] += event["seconds"]
        for bucket in recent.values():
            bucket["mean_s"] = (
                bucket["total_s"] / bucket["count"] if bucket["count"] else 0.0
            )
        return {
            "schema": "obda-session-rollup/v1",
            "epoch": self.epoch,
            "events": total_events,
            "mix": mix,
            "ops": ops,
            "window": {
                "capacity": self.events.maxlen,
                "size": len(self.events),
                "recent": recent,
            },
        }


class ObdaSession:
    """A compiled OMQ workload served against a streaming data instance.

    ``workload`` is a single OMQ / DDlog program or a mapping from query
    names to them; OMQs are compiled to MDDlog once, at session start, and
    each compiled program is routed by the planner to its serving tier.
    ``insert_facts`` / ``delete_facts`` advance the *epoch*, updating every
    query's persistent state; ``certain_answers`` / ``answer_batch`` /
    ``is_certain`` answer from the warm state without regrounding.

    Every planning knob arrives as one frozen
    :class:`~repro.planner.PlanPolicy` (``policy=``): ``tier`` pins every
    query to one planner tier (2 is always sound) — the cross-validation
    and benchmarking knob behind the planner-vs-forced-tier suites;
    forcing bypasses the semantic stage *and pins the session* (adaptive
    re-planning is disabled, with the rationale recorded in
    :meth:`explain`).  ``semantic`` / ``semantic_budget`` control the
    semantic rewritability stage (:mod:`repro.planner.semantic`) for
    syntactic tier-2 programs: by default a compiled-but-rewritable query
    is served by the constructed rewriting on tier 0/1.  ``adaptive``
    (``True`` or an :class:`~repro.planner.AdaptivePolicy`) turns on live
    re-planning between the sound tiers as the observed mix shifts.

    ``check`` (policy field) runs the static analyzer
    (:mod:`repro.analysis`) over every compiled program before any solver
    state is built: ``"warn"`` (the default) surfaces
    error/warning-severity diagnostics as Python warnings, ``"strict"``
    raises :class:`repro.analysis.ProgramAnalysisError` on errors,
    ``"off"`` skips the analysis.
    """

    def __init__(
        self,
        workload,
        initial_facts: Iterable[Fact] = (),
        policy: PlanPolicy | None = None,
    ) -> None:
        if policy is None:
            policy = PlanPolicy()
        self.policy = policy
        if isinstance(workload, Mapping):
            entries = dict(workload)
        else:
            entries = {DEFAULT_QUERY: workload}
        if not entries:
            raise ValueError("a session needs at least one query")
        compiled = {name: _compile(entry) for name, entry in entries.items()}
        resolved_check = policy.resolved_check("warn")
        for name, program in compiled.items():
            # Vet the whole workload before building any solver state: a
            # strict session refuses a broken program with zero grounding
            # or SAT work done.
            vet_program(program, resolved_check, label=name)
        self._instance = Instance([])
        self.stats = SessionStats()
        self._adaptive = policy.resolved_adaptive()
        self._adaptive_reason: str | None = None
        if policy.tier is not None and self._adaptive is not None:
            self._adaptive = None
            self._adaptive_reason = (
                f"tier forced to {policy.tier}: adaptive re-planning disabled"
            )
        self._controllers: dict[str, AdaptiveController] = {}
        #: Warm per-tier join-plan caches harvested from retired states,
        #: keyed query name -> tier; transplanted on swap-back so a
        #: returning tier does not recompile what it already knew.
        self._warm: dict[str, dict[int, object]] = {name: {} for name in compiled}
        self._states: dict[str, _SatState | _FixpointState | _UcqState] = {}
        for name, program in compiled.items():
            plan = plan_program(program, policy.planning_view())
            if self._adaptive is not None:
                candidates = candidate_plans(program, plan)
                if len(candidates) > 1:
                    self._controllers[name] = AdaptiveController(
                        name, plan, self._adaptive, candidates
                    )
            self._states[name] = self._build_state(plan)
        self._query_stats: dict[str, dict] = {
            name: {"queries_answered": 0, "total_s": 0.0, "last_s": None}
            for name in self._states
        }
        initial = list(initial_facts)
        if initial:
            self.insert_facts(initial)

    # -- introspection ---------------------------------------------------------

    @property
    def instance(self) -> Instance:
        """The current data instance."""
        return self._instance

    @property
    def query_names(self) -> tuple[str, ...]:
        return tuple(self._states)

    def program(self, name: str | None = None) -> DisjunctiveDatalogProgram:
        return self._state(name).program

    def plan(self, name: str | None = None) -> QueryPlan:
        """The planner's routing decision for the (named) query."""
        return self._state(name).plan

    def explain(self) -> dict:
        """The versioned ``obda-explain/v2`` report for the whole session.

        Top-level shape: ``{"schema", "queries", "adaptive"}``.  Each
        query's entry under ``"queries"`` is its static
        :meth:`QueryPlan.describe` dict extended with a ``"live"`` section:
        the per-query serving counters (queries answered, last/total/mean
        query latency) and the session's :meth:`SessionStats.rollup` — the
        observed read/insert/delete mix and cost per event.  The
        ``"adaptive"`` block carries every re-plan decision taken so far
        (``"replans"``, query-tagged and event-ordered), the per-query
        controller state, and — when adaptivity was requested but the
        session is pinned — the ``"reason"`` it stayed off.  The shape is
        validated by :func:`repro.service.explain.validate_explain`.
        """
        rollup = self.stats.rollup()
        queries: dict[str, dict] = {}
        for name, state in self._states.items():
            info = dict(state.plan.describe())
            counters = dict(self._query_stats[name])
            answered = counters["queries_answered"]
            counters["mean_s"] = counters["total_s"] / answered if answered else 0.0
            counters["rollup"] = rollup
            info["live"] = counters
            queries[name] = info
        adaptive: dict = {"enabled": bool(self._controllers)}
        if self._adaptive_reason is not None:
            adaptive["reason"] = self._adaptive_reason
        per_query: dict[str, dict] = {}
        replans: list[dict] = []
        for name in self._states:
            controller = self._controllers.get(name)
            if controller is None:
                per_query[name] = {"enabled": False}
                continue
            per_query[name] = controller.describe()
            for record in controller.history:
                tagged = dict(record)
                tagged["query"] = name
                replans.append(tagged)
        replans.sort(key=lambda record: record["event"])
        adaptive["queries"] = per_query
        adaptive["replans"] = replans
        return {"schema": EXPLAIN_SCHEMA, "queries": queries, "adaptive": adaptive}

    def _state(self, name: str | None) -> "_SatState | _FixpointState | _UcqState":
        return self._states[resolve_query(self._states, name)]

    # -- serving-state lifecycle ----------------------------------------------

    def _build_state(
        self, plan: QueryPlan, warm=None
    ) -> "_SatState | _FixpointState | _UcqState":
        """Fresh serving state for a plan, loaded from the current instance.

        ``warm`` is a per-tier join-plan cache harvested by
        :meth:`_harvest_warm` from a retired state of the *same* plan
        object; transplanting it means a swap-back recompiles nothing (the
        caches are identity-guarded on the session's shared interner, so a
        stale transplant degrades to a recompile, never to wrong plans).
        """
        if plan.tier == TIER_REWRITE:
            return _UcqState(plan)
        if plan.tier == TIER_FIXPOINT:
            state = _FixpointState(plan, instance=self._instance)
            if warm is not None:
                state.fixpoint._rederive_plans = warm[0]
                state.fixpoint._rederive_interner = warm[1]
            return state
        state = _SatState(plan)
        if warm is not None:
            state.grounder.adopt_warm_plans(warm)
        facts = sorted(self._instance.facts, key=str)
        if facts:
            state.insert(Instance([]), Instance(facts), self._instance)
        return state

    def _harvest_warm(self, name: str, state) -> None:
        """Bank a retiring state's compiled join plans under its tier."""
        if isinstance(state, _SatState):
            self._warm[name][state.plan.tier] = state.grounder.warm_plans()
        elif isinstance(state, _FixpointState):
            fixpoint = state.fixpoint
            if fixpoint._rederive_plans is not None:
                self._warm[name][state.plan.tier] = (
                    fixpoint._rederive_plans,
                    fixpoint._rederive_interner,
                )

    def _maybe_replan(self) -> None:
        """Let every adaptive controller react to the event just recorded.

        A controller that proposes a swap gets it executed immediately:
        the old state's warm caches are banked, a fresh state for the
        target tier is built from the current frozen instance, and the
        swap is atomic from any caller's view — ``self._states[name]`` is
        rebound once, after the new state is fully loaded.
        """
        for name, controller in self._controllers.items():
            decision = controller.propose(self.stats, self._instance)
            if decision is None:
                continue
            start = _telemetry.now()
            self._harvest_warm(name, self._states[name])
            self._states[name] = self._build_state(
                decision.plan, warm=self._warm[name].get(decision.plan.tier)
            )
            swap_s = _telemetry.now() - start
            controller.commit(decision, swap_s)
            tel = _telemetry.ACTIVE
            if tel is not None:
                record = controller.history[-1]
                tel.count("adaptive.replans")
                tel.record("adaptive.swap_s", swap_s)
                tel.event(
                    "adaptive.replan",
                    query=name,
                    epoch=record["epoch"],
                    from_tier=record["from_tier"],
                    to_tier=record["to_tier"],
                    swap_s=swap_s,
                    **{
                        f"mix_{op}": share
                        for op, share in record["trigger_mix"].items()
                    },
                )

    def _record_query(self, name: str, seconds: float) -> None:
        self.stats.queries_answered += 1
        self.stats.record_event("query", seconds=seconds, query=name)
        live = self._query_stats[name]
        live["queries_answered"] += 1
        live["total_s"] += seconds
        live["last_s"] = seconds
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("session.queries")
            tel.record("session.query_s", seconds)
        self._maybe_replan()

    # -- updates ---------------------------------------------------------------

    def insert_facts(self, facts: Iterable[Fact]) -> int:
        """Insert facts; returns how many were new.  One epoch.

        Facts already present — and duplicates within the batch — are
        skipped, so adversarial streams (re-inserts, repeated batch
        entries) neither advance the epoch spuriously nor skew the stats.
        """
        added: list[Fact] = []
        seen: set[Fact] = set()
        for fact in facts:
            if fact not in self._instance.facts and fact not in seen:
                seen.add(fact)
                added.append(fact)
        if not added:
            return 0
        start = _telemetry.now()
        with _telemetry.maybe_span(
            "session.insert", epoch=self.stats.epoch + 1, facts=len(added)
        ) as span:
            old = self._instance
            delta = Instance(added)
            new = old.with_facts(added)
            pushed = 0
            for state in self._states.values():
                pushed += state.insert(old, delta, new)
            self._instance = new
            span.set(clauses=pushed)
        seconds = _telemetry.now() - start
        self.stats.epoch += 1
        self.stats.facts_inserted += len(added)
        self.stats.clauses_pushed += pushed
        self.stats.record_event(
            "insert", facts=len(added), clauses=pushed, seconds=seconds
        )
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("session.inserts")
            tel.count("session.facts_inserted", len(added))
            tel.count("session.clauses_pushed", pushed)
            tel.record("session.insert_s", seconds)
        self._maybe_replan()
        return len(added)

    def delete_facts(self, facts: Iterable[Fact]) -> int:
        """Delete facts; returns how many were present.  One epoch.

        Deleting a fact that was never inserted (or deleting one twice,
        within a batch or across epochs) is a clean no-op: unknown facts
        are filtered here, and the solver layer's ``retract_assumption``
        ignores guards that are not registered.
        """
        removed: list[Fact] = []
        seen: set[Fact] = set()
        for fact in facts:
            if fact in self._instance.facts and fact not in seen:
                seen.add(fact)
                removed.append(fact)
        if not removed:
            return 0
        start = _telemetry.now()
        with _telemetry.maybe_span(
            "session.delete", epoch=self.stats.epoch + 1, facts=len(removed)
        ):
            for state in self._states.values():
                state.delete(removed)
            self._instance = self._instance.without_facts(removed)
        seconds = _telemetry.now() - start
        self.stats.epoch += 1
        self.stats.facts_deleted += len(removed)
        self.stats.record_event("delete", facts=len(removed), seconds=seconds)
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("session.deletes")
            tel.count("session.facts_deleted", len(removed))
            tel.record("session.delete_s", seconds)
        self._maybe_replan()
        return len(removed)

    # -- queries ---------------------------------------------------------------

    def is_consistent(self, name: str | None = None) -> bool:
        """Does any model extend the current data for the (named) query?

        ``False`` means every tuple over the active domain is vacuously
        certain.  SAT-backed queries ask the warm solver; the SAT-free
        tiers check their (unfolded) constraints against the current
        instance or the materialized minimal model.
        """
        return self._state(name).is_consistent(self._instance)

    def _query(self, name: str | None, kind: str, ask, **attributes):
        """Ask the (named) query's warm state once, timed and recorded."""
        resolved = resolve_query(self._states, name)
        start = _telemetry.now()
        with _telemetry.maybe_span(
            "session.query", query=resolved, kind=kind, **attributes
        ):
            result = ask(self._states[resolved])
        self._record_query(resolved, _telemetry.now() - start)
        return result

    def certain_answers(self, name: str | None = None) -> frozenset[tuple]:
        """The certain answers of the (named) query on the current instance."""
        return self._query(
            name, "certain_answers", lambda state: state.certain_answers(self._instance)
        )

    def is_certain(self, answer: Sequence = (), name: str | None = None) -> bool:
        """Does the tuple belong to the certain answers right now?"""
        answer = tuple(answer)
        return self._query(
            name, "is_certain", lambda state: state.is_certain(self._instance, answer)
        )

    def answer_batch(
        self,
        candidates: Iterable[Sequence],
        name: str | None = None,
    ) -> dict[tuple, bool]:
        """Decide a batch of candidate tuples in one pass over the warm state."""
        batch = [tuple(candidate) for candidate in candidates]
        return self._query(
            name,
            "answer_batch",
            lambda state: state.decide_batch(self._instance, batch),
            batch=len(batch),
        )

    def answer_all(self) -> dict[str, frozenset[tuple]]:
        """Certain answers of every query in the workload."""
        return {name: self.certain_answers(name) for name in self._states}

    def snapshot(self, version: int | None = None) -> SessionSnapshot:
        """A read-only view pinned to the current instance.

        ``version`` defaults to the session epoch; callers that manage
        their own commit counter (the serving frontend's group-commit
        version) pass it explicitly.  The snapshot stays answerable — and
        immutable — after any number of later updates.
        """
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("session.snapshots")
        return SessionSnapshot(
            self,
            self.stats.epoch if version is None else version,
            self._instance,
            {name: state.plan for name, state in self._states.items()},
        )

    # -- maintenance -----------------------------------------------------------

    def compact(self) -> None:
        """Rebuild every query's state from the current instance.

        A long stream accumulates clauses for retracted epochs; compaction
        regrounds from the live facts only, resetting solver and guard
        state (the streaming equivalent of a VACUUM).
        """
        with _telemetry.maybe_span(
            "session.compact", facts=len(self._instance.facts)
        ):
            rebuilt: dict[str, _SatState | _FixpointState | _UcqState] = {}
            for name, state in self._states.items():
                self._harvest_warm(name, state)
                rebuilt[name] = self._build_state(
                    state.plan, warm=self._warm[name].get(state.plan.tier)
                )
            self._states = rebuilt
