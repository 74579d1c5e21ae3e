"""Workload-adaptive re-planning: the cost model and swap controller.

The planner picks a tier once per compiled program, but the *right* tier
depends on the stream being served: the semantic canonical-datalog tier
wins read-heavy serving by an order of magnitude and loses delete-heavy
churn by another (``benchmarks/results/SEMANTIC_ROUTING.json`` records
both directions).  This module closes the loop:

* :func:`candidate_plans` enumerates every *sound* tier for a compiled
  program — the planner's natural (possibly semantic) plan plus each
  forceable tier — so a controller always swaps between plans that were
  proven to compute identical certain answers;
* :class:`TierCostModel` prices one serving event per (tier, op ∈
  read/insert/delete).  Prices start from :class:`~repro.planner.plan
  .CostEstimate` statics (:func:`static_rates`) and are *calibrated*
  against the observed per-op mean seconds of
  :meth:`repro.service.session.SessionStats.rollup` — the
  ``obda-session-rollup/v1`` contract built for exactly this consumer:
  once a tier has served an op its observed mean replaces the static, and
  a scale factor fitted on the observed (tier, op) pairs converts the
  remaining statics into comparable predicted seconds;
* :class:`AdaptiveController` watches the rolling mix over the last
  ``mix_window`` events and proposes a swap when the predicted per-event
  cost of the current tier exceeds the best candidate's by the policy's
  ``cost_gap`` — with a ``min_dwell`` epoch floor between swaps and a
  ``warmup`` before the first, so the session never flaps
  (:class:`~repro.planner.policy.AdaptivePolicy` holds the knobs).

The controller only *decides*; the hot state swap itself —
``_SatState``/``_FixpointState``/``_UcqState`` rebuilt from the current
frozen instance with warm join-plan caches transplanted — lives in
:meth:`repro.service.session.ObdaSession`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..core.instance import Instance
from .plan import (
    TIER_FIXPOINT,
    TIER_NAMES,
    TIER_REWRITE,
    QueryPlan,
    estimate_cost,
    plan_for_tier,
)
from .policy import AdaptivePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.session import SessionStats

#: The serving ops the model prices; ``query`` is the "read" of the
#: read/insert/delete mix (the op names match ``SessionStats`` events).
OPS = ("query", "insert", "delete")


def candidate_plans(program, natural: QueryPlan) -> dict[int, QueryPlan]:
    """Every sound tier's plan for a program, keyed by tier.

    ``natural`` (the planner's own — possibly semantic — choice) claims
    its tier; the remaining tiers are its :attr:`~repro.planner.plan
    .QueryPlan.sound_tiers`, forced through :func:`plan_for_tier`, so
    swapping between the returned plans can never change answers.
    """
    candidates = {natural.tier: natural}
    for tier in natural.sound_tiers:
        if tier not in candidates:
            candidates[tier] = plan_for_tier(program, tier)
    return candidates


@dataclass(frozen=True)
class TierRates:
    """Static per-op work scores (unitless) for one tier's plan."""

    read: float
    insert: float
    delete: float

    def get(self, op: str) -> float:
        if op == "query":
            return self.read
        return self.insert if op == "insert" else self.delete


def static_rates(plan: QueryPlan, instance: Instance) -> TierRates:
    """Price one read/insert/delete on a tier from the cost estimate.

    The asymmetry between tiers *is* the model:

    * tier 0 pays its join cost per read and nothing per update
      (stateless);
    * tier 1 reads from the warm materialization (a goal-relation scan,
      ~domain-sized), pays a semi-naive round per insert, and a DRed
      over-delete/re-derive — bounded by the whole IDB — per delete;
    * tier 2 pays the grounded work score per read (|adom|^arity
      candidate decisions against the solver), delta grounding per
      insert, and an O(1) guard retraction per delete.
    """
    cost = estimate_cost(plan, instance)
    if plan.tier == TIER_REWRITE:
        return TierRates(read=cost.join_cost + 1.0, insert=1.0, delete=1.0)
    if plan.tier == TIER_FIXPOINT:
        return TierRates(
            read=cost.domain_size + 1.0,
            insert=math.sqrt(max(cost.fixpoint_bound, 0.0)) + 1.0,
            delete=cost.fixpoint_bound + 1.0,
        )
    return TierRates(
        read=cost.tier2_work_score + 1.0,
        insert=cost.ground_clauses + 1.0,
        delete=2.0,
    )


class TierCostModel:
    """Predicted seconds-per-event for every candidate tier under a mix.

    Statics come from :func:`static_rates`; observations are per-(tier,
    op) mean seconds attributed by the controller from the session's
    rollup deltas.  ``predict`` prefers an observed mean and falls back
    to ``static x scale``, where ``scale`` is the geometric mean of
    observed/static ratios over all calibrated (tier, op) pairs — with no
    observations at all the scale is 1.0 and the comparison is purely
    static, which is still consistent across tiers.
    """

    def __init__(self, candidates: Mapping[int, QueryPlan]) -> None:
        self.candidates = dict(candidates)
        self._observed: dict[tuple[int, str], list[float]] = {}
        self._static_cache: dict[tuple[int, int], TierRates] = {}
        self._obs_generation = 0
        self._scale_cache: tuple[int, int, float] | None = None

    def observe(self, tier: int, op: str, count: int, seconds: float) -> None:
        """Fold ``count`` events totalling ``seconds`` into (tier, op)."""
        if count <= 0:
            return
        bucket = self._observed.setdefault((tier, op), [0.0, 0.0])
        bucket[0] += count
        bucket[1] += seconds
        self._obs_generation += 1

    def observed_mean(self, tier: int, op: str) -> float | None:
        bucket = self._observed.get((tier, op))
        if bucket is None or bucket[0] <= 0:
            return None
        return bucket[1] / bucket[0]

    def _statics(self, tier: int, instance: Instance) -> TierRates:
        # Keyed by domain size: fine-grained enough for trigger decisions,
        # coarse enough not to re-walk the rules on every event.
        key = (tier, len(instance.active_domain))
        rates = self._static_cache.get(key)
        if rates is None:
            rates = static_rates(self.candidates[tier], instance)
            self._static_cache[key] = rates
        return rates

    def _scale(self, instance: Instance) -> float:
        """Seconds-per-static-work-unit fitted on the calibrated pairs."""
        key = (self._obs_generation, len(instance.active_domain))
        if self._scale_cache is not None and self._scale_cache[:2] == key:
            return self._scale_cache[2]
        log_sum, pairs = 0.0, 0
        for (tier, op), (count, seconds) in list(self._observed.items()):
            if count <= 0 or seconds <= 0.0:
                continue
            static = self._statics(tier, instance).get(op)
            if static <= 0.0:
                continue
            log_sum += math.log((seconds / count) / static)
            pairs += 1
        scale = math.exp(log_sum / pairs) if pairs else 1.0
        self._scale_cache = (*key, scale)
        return scale

    def predict(
        self, tier: int, mix: Mapping[str, float], instance: Instance
    ) -> float:
        """Expected cost of one event on ``tier`` under the given mix."""
        statics = self._statics(tier, instance)
        scale = self._scale(instance)
        cost = 0.0
        for op in OPS:
            weight = mix.get(op, 0.0)
            if weight <= 0.0:
                continue
            observed = self.observed_mean(tier, op)
            per_event = observed if observed is not None else statics.get(op) * scale
            cost += weight * per_event
        return cost


@dataclass
class ReplanDecision:
    """One proposed swap: the target plan plus the explainable trigger."""

    plan: QueryPlan
    record: dict = field(default_factory=dict)


class AdaptiveController:
    """Per-query re-planning state machine driven by the session stats.

    The owning session calls :meth:`propose` after every recorded event;
    the controller calibrates the cost model from the rollup delta since
    its last look (attributed to the tier that served those events),
    applies the hysteresis gates, and either returns a
    :class:`ReplanDecision` or ``None``.  The session performs the swap
    and confirms it with :meth:`commit`.
    """

    def __init__(
        self,
        name: str,
        plan: QueryPlan,
        policy: AdaptivePolicy,
        candidates: Mapping[int, QueryPlan],
    ) -> None:
        self.name = name
        self.plan = plan
        self.policy = policy
        self.model = TierCostModel(candidates)
        self.history: list[dict] = []
        self.suppressed = {"dwell": 0, "gap": 0, "cap": 0}
        self._baseline: dict[str, tuple[int, float]] = {
            op: (0, 0.0) for op in OPS
        }
        self._events_seen = 0
        self._events_at_swap = 0
        self._last_evaluated = 0
        self._stride = 1

    @property
    def tier(self) -> int:
        return self.plan.tier

    def _calibrate(self, stats: "SessionStats") -> int:
        """Attribute the per-op count/seconds delta since the last look to
        the current tier; returns the total events seen so far.

        Reads the cumulative ``stats.totals`` table directly — the same
        observed means that ``SessionStats.rollup()`` folds into the
        ``obda-session-rollup/v1`` export, without building the rollup
        document on the hot path.
        """
        total = 0
        for op in OPS:
            entry = stats.totals[op]
            count, seconds = entry["count"], entry["seconds"]
            total += count
            seen_count, seen_seconds = self._baseline[op]
            self.model.observe(
                self.tier, op, count - seen_count, seconds - seen_seconds
            )
            self._baseline[op] = (count, seconds)
        self._events_seen = total
        return total

    def _recent_mix(self, stats: "SessionStats") -> dict[str, float]:
        window = list(stats.events)[-self.policy.mix_window :]
        if not window:
            return {}
        mix: dict[str, float] = {op: 0.0 for op in OPS}
        for event in window:
            mix[event["op"]] += 1.0
        return {op: count / len(window) for op, count in mix.items()}

    def propose(
        self, stats: "SessionStats", instance: Instance
    ) -> ReplanDecision | None:
        """Calibrate, then decide whether the current tier should change.

        Runs after *every* recorded event, so the common no-decision path
        must cost next to nothing: the gates read only the cumulative op
        counters, and the full evaluation (rollup calibration + per-tier
        cost prediction) runs on an exponential-backoff stride — reset to
        every event around a swap, doubling up to twice ``mix_window``
        while the verdict is "stay".  The mix cannot materially change
        faster than the window refills, so the backoff delays a genuine
        flip by at most two windows of events.
        """
        total = sum(stats.totals[op]["count"] for op in OPS)
        if total < self.policy.warmup:
            return None
        if total - self._events_at_swap < self.policy.min_dwell:
            self.suppressed["dwell"] += 1
            return None
        if (
            self.policy.max_replans is not None
            and len(self.history) >= self.policy.max_replans
        ):
            self.suppressed["cap"] += 1
            return None
        if total - self._last_evaluated < self._stride:
            return None
        self._last_evaluated = total
        total = self._calibrate(stats)
        mix = self._recent_mix(stats)
        if not mix:
            return None
        costs = {
            tier: self.model.predict(tier, mix, instance)
            for tier in self.model.candidates
        }
        best = min(costs, key=lambda tier: (costs[tier], tier))
        if best == self.tier:
            self._stride = min(self._stride * 2, 2 * self.policy.mix_window)
            return None
        current_cost = costs[self.tier]
        if current_cost < self.policy.cost_gap * costs[best]:
            self.suppressed["gap"] += 1
            self._stride = min(self._stride * 2, 2 * self.policy.mix_window)
            return None
        self._stride = 1
        return ReplanDecision(
            plan=self.model.candidates[best],
            record={
                "event": total,
                "epoch": stats.epoch,
                "from_tier": self.tier,
                "to_tier": best,
                "trigger_mix": {op: round(mix.get(op, 0.0), 4) for op in OPS},
                "predicted_cost": {
                    TIER_NAMES[tier]: cost for tier, cost in sorted(costs.items())
                },
            },
        )

    def commit(self, decision: ReplanDecision, swap_s: float) -> None:
        """The session swapped state; record it and restart the dwell."""
        self.plan = decision.plan
        record = dict(decision.record)
        record["swap_s"] = swap_s
        self.history.append(record)
        self._events_at_swap = self._events_seen

    def describe(self) -> dict:
        """The JSON-able ``adaptive`` block of ``explain()`` for one query."""
        return {
            "enabled": True,
            "tier": self.tier,
            "tier_name": self.plan.tier_name,
            "candidates": sorted(self.model.candidates),
            "policy": {
                "mix_window": self.policy.mix_window,
                "min_dwell": self.policy.min_dwell,
                "cost_gap": self.policy.cost_gap,
                "warmup": self.policy.warmup,
                "max_replans": self.policy.max_replans,
            },
            "replans": len(self.history),
            "history": [dict(record) for record in self.history],
            "last_trigger": (
                dict(self.history[-1]["trigger_mix"]) if self.history else None
            ),
            "suppressed": dict(self.suppressed),
        }
