"""One frozen policy object for every planner-facing knob.

:class:`PlanPolicy` is the single way to configure planning: every public
entry point — :class:`~repro.service.session.ObdaSession`,
:class:`~repro.service.shards.ShardedObdaSession`,
:func:`~repro.datalog.evaluation.evaluate`,
:func:`~repro.planner.plan.plan_program`,
:func:`~repro.planner.plan.plan_workload`,
:func:`~repro.obda.applications.serve_omq_workload` and
:func:`~repro.obda.applications.plan_omq_workload` — takes it as
``policy=`` and has no other planner keyword.  One nested knob refines it:
:class:`AdaptivePolicy` (live re-planning of serving sessions, see
:mod:`repro.planner.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .semantic import SemanticBudget


@dataclass(frozen=True)
class AdaptivePolicy:
    """Hysteresis knobs for live re-planning of serving sessions.

    A session with an adaptive policy watches its rolling read/insert/
    delete mix (``SessionStats``) and re-plans a query onto a cheaper tier
    when the observed mix crosses a breakeven — see
    :mod:`repro.planner.adaptive`.  The knobs exist so the controller
    *never flaps*:

    * ``mix_window`` — how many of the most recent events form the trigger
      mix (bounded by the stats ring buffer, 256);
    * ``min_dwell`` — events that must pass on the current tier (since
      session start or the last swap) before another swap is considered;
    * ``cost_gap`` — the predicted cost of the current tier must exceed
      the best candidate's by this factor, so near-ties never trigger;
    * ``warmup`` — events before the first decision (the model has no
      observations yet);
    * ``max_replans`` — optional hard cap on swaps per query (``None`` =
      unlimited).
    """

    mix_window: int = 24
    min_dwell: int = 16
    cost_gap: float = 1.8
    warmup: int = 8
    max_replans: int | None = None

    def __post_init__(self) -> None:
        if self.mix_window < 1:
            raise ValueError("mix_window must be at least 1")
        if self.min_dwell < 0:
            raise ValueError("min_dwell must be non-negative")
        if self.cost_gap < 1.0:
            raise ValueError("cost_gap below 1.0 would invite flapping")


#: The policy ``adaptive=True`` resolves to.
DEFAULT_ADAPTIVE = AdaptivePolicy()


@dataclass(frozen=True)
class PlanPolicy:
    """Every planner/serving knob in one frozen, reusable object.

    All fields default to ``None`` — "use the entry point's default" — so
    ``PlanPolicy()`` is exactly the historical default behavior
    everywhere.  Fields:

    * ``tier`` — pin one planner tier; forcing bypasses the semantic
      stage and **pins** the session: adaptive re-planning is disabled
      with a rationale in ``explain()``.
    * ``semantic`` / ``semantic_budget`` — the semantic rewritability
      stage (:mod:`repro.planner.semantic`) and its budget.
    * ``check`` — static-analyzer mode (``"off"`` / ``"warn"`` /
      ``"strict"``); ``None`` means the entry point's default (sessions
      ``"warn"``, bare planning ``"off"``).
    * ``adaptive`` — ``True`` / an :class:`AdaptivePolicy` to enable live
      re-planning in serving sessions; ``None`` / ``False`` disables it.
    """

    tier: int | None = None
    semantic: bool | None = None
    semantic_budget: "SemanticBudget | None" = None
    check: str | None = None
    adaptive: "AdaptivePolicy | bool | None" = None

    def resolved_adaptive(self) -> AdaptivePolicy | None:
        """The effective adaptive policy, or ``None`` when disabled."""
        if self.adaptive is None or self.adaptive is False:
            return None
        if self.adaptive is True:
            return DEFAULT_ADAPTIVE
        return self.adaptive

    def resolved_check(self, default: str) -> str:
        return self.check if self.check is not None else default

    def planning_view(self) -> "PlanPolicy":
        """The policy as :func:`plan_program` should see it from a session.

        Sessions vet programs themselves (with their own ``"warn"``
        default), so the check is stripped before planning to avoid
        vetting the same program twice.
        """
        if self.check is None:
            return self
        return replace(self, check=None)
