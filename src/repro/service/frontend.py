"""The multi-tenant asyncio serving frontend over compiled OBDA sessions.

A :class:`Frontend` multiplexes many *tenants* — independent callers, each
with their own workload and service tier — over shared
:class:`~repro.service.session.ObdaSession` /
:class:`~repro.service.shards.ShardedObdaSession` state on one asyncio
event loop.  Four mechanisms make that safe and cheap:

* **Cross-tenant program sharing.**  Tenant registration compiles the
  workload and interns every program through an LRU'd
  :class:`~repro.planner.PlanCache`: structurally identical programs (up
  to variable renaming and rule order) resolve to one representative
  object, so tenants share plans, ground caches, *and* the warm serving
  session built for that program set — the paper's compile-once promise
  taken across users.  Eviction under a tight capacity clears the
  representative's attribute-cached artifacts; re-registration re-plans
  from scratch with identical answers.
* **Group-commit writes.**  ``insert``/``delete`` requests enqueue into a
  per-session-group buffer and block on a commit future; a flusher task
  seals the batch when it reaches ``max_batch`` ops or the oldest op ages
  past ``max_delay_s``, coalesces the ops in arrival order to their net
  per-fact effect, and applies the whole batch as one
  ``delete_facts`` + ``insert_facts`` pair — one maintenance epoch for
  the batch instead of one per request.  A batch is **all-or-nothing**:
  any failure mid-apply rolls the instance back and fails every waiter
  with a :class:`FrontendWriteFailed` carrying the rationale.  A waiter
  cancelled (or timed out) before its batch seals withdraws the op.
* **Snapshot reads.**  Every read pins a versioned
  :class:`~repro.service.session.SessionSnapshot` *before* its first
  await; the frozen immutable ``Instance`` underneath never changes, so
  readers observe exactly the group-commit version they were admitted at
  even while flushes advance the session — they never block on (or
  observe half of) DRed maintenance.
* **Admission control.**  Requests are admitted against a queue-depth
  budget (in-flight reads plus buffered writes).  Past the *degrade*
  limit, tier-2 tenants shed first: their reads fall back to the last
  served answers (marked ``degraded``), their writes are rejected; past
  ``max_pending`` everything is rejected.  Every rejection raises
  :class:`FrontendRejected` with a rationale, and the shed counters are
  surfaced through :meth:`Frontend.explain` (the ``frontend`` block of
  ``obda-explain/v2``) and ``tel.*`` counters/histograms.

The serial correctness story is the one the concurrency test harness
checks answer-for-answer: replaying a group's :meth:`~Frontend.commit_log`
through :func:`replay_commit_log` on a fresh serial session must reproduce
every non-degraded read's answers at its version.  See ``docs/frontend.md``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..core.instance import Fact
from ..datalog.ddlog import DisjunctiveDatalogProgram
from ..obs import telemetry as _telemetry
from ..obs.telemetry import Reservoir
from ..planner import PlanCache, PlanPolicy, plan_program
from .session import DEFAULT_QUERY, ObdaSession, SessionSnapshot, _compile, resolve_query

__all__ = [
    "FaultInjector",
    "Frontend",
    "FrontendClosed",
    "FrontendConfig",
    "FrontendError",
    "FrontendRejected",
    "FrontendWriteFailed",
    "InjectedFault",
    "ReadResult",
    "replay_commit_log",
]


class FrontendError(RuntimeError):
    """Base class of every frontend-raised serving error."""


class FrontendRejected(FrontendError):
    """A request shed by admission control; carries the rationale."""

    def __init__(self, tenant: str, rationale: str) -> None:
        super().__init__(f"request from tenant {tenant!r} rejected: {rationale}")
        self.tenant = tenant
        self.rationale = rationale


class FrontendWriteFailed(FrontendError):
    """A group-commit batch aborted; the whole batch was rolled back."""


class FrontendClosed(FrontendError):
    """The frontend no longer accepts requests."""


class InjectedFault(RuntimeError):
    """The failure :class:`FaultInjector` raises at its hook points."""


@dataclass
class FaultInjector:
    """Deterministic fault hooks for the concurrency test harness.

    ``fail_flushes`` names 1-based flush ordinals (per frontend, in flush
    order) to abort *mid-apply* — after the batch's deletes landed, before
    its inserts — the worst spot for all-or-nothing semantics.
    ``query_delay_s`` widens every read's single await point so tests can
    deterministically interleave flushes, cancellations, and timeouts with
    in-flight reads.
    """

    fail_flushes: set[int] = field(default_factory=set)
    query_delay_s: float = 0.0
    injected: int = 0

    def on_flush(self, ordinal: int) -> None:
        if ordinal in self.fail_flushes:
            self.injected += 1
            raise InjectedFault(f"injected fault mid-apply in flush {ordinal}")


@dataclass(frozen=True)
class FrontendConfig:
    """The serving knobs of a :class:`Frontend`.

    ``max_batch``/``max_delay_s`` bound a group-commit window (ops and
    age); ``max_pending`` is the hard admission budget over in-flight
    reads plus buffered writes, ``degrade_limit`` the earlier threshold at
    which tier-2 tenants shed (default: 3/4 of ``max_pending``);
    ``latency_window`` sizes the per-tenant p50/p99 reservoirs;
    ``plan_cache_capacity`` bounds the cross-tenant program cache.
    """

    max_batch: int = 32
    max_delay_s: float = 0.005
    max_pending: int = 256
    degrade_limit: int | None = None
    latency_window: int = 512
    plan_cache_capacity: int = 128

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {self.max_delay_s}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.degrade_limit is not None and not (
            0 < self.degrade_limit <= self.max_pending
        ):
            raise ValueError(
                f"degrade_limit must be in (0, max_pending], got "
                f"{self.degrade_limit}"
            )

    @property
    def resolved_degrade_limit(self) -> int:
        if self.degrade_limit is not None:
            return self.degrade_limit
        return max(1, (self.max_pending * 3) // 4)


@dataclass(frozen=True)
class ReadResult:
    """One served read: the answers plus the version they are pinned to.

    ``version`` is the group-commit version (count of successful flushes
    of the tenant's session group) the answers are exact at.  ``stale``
    marks a read whose pinned version was superseded by a flush before the
    answers were computed — the answers are still exact *at that version*.
    ``degraded`` marks a load-shed read served from the last cached
    answers instead of a fresh snapshot.
    """

    answers: frozenset
    version: int
    tenant: str
    query: str
    degraded: bool = False
    stale: bool = False
    elapsed_s: float = 0.0


class _WriteOp:
    """One buffered write request awaiting its batch's commit."""

    __slots__ = ("kind", "facts", "tenant", "future", "withdrawn")

    def __init__(
        self, kind: str, facts: tuple, tenant: str, future: asyncio.Future
    ) -> None:
        self.kind = kind
        self.facts = facts
        self.tenant = tenant
        self.future = future
        self.withdrawn = False


class _Group:
    """One shared session plus its group-commit and snapshot machinery."""

    def __init__(self, index: int, key: object, session) -> None:
        self.index = index
        self.key = key
        self.session = session
        self.tenants: list[str] = []
        # -- write buffer ----------------------------------------------------
        self.pending: list[_WriteOp] = []
        self.first_enqueued_s: float | None = None
        self.wake = asyncio.Event()
        self.size_wake = asyncio.Event()
        self.flusher: asyncio.Task | None = None
        # -- commit state ----------------------------------------------------
        self.version = 0
        self.commit_log: list[dict] = []
        self.flushes = 0
        self.ops_batched = 0
        self.rollbacks = 0
        self.withdrawn = 0
        self.reasons = {"size": 0, "deadline": 0, "drain": 0}
        # -- read state ------------------------------------------------------
        self._snapshot: SessionSnapshot | None = None
        self.last_answers: dict[str, tuple[int, frozenset]] = {}
        self.snapshot_reads = 0
        self.snapshot_fresh = 0
        self.snapshot_stale = 0

    def current_snapshot(self) -> SessionSnapshot:
        """The (cached) snapshot of the group's current commit version."""
        if self._snapshot is None:
            self._snapshot = self.session.snapshot(version=self.version)
        return self._snapshot


@dataclass
class _Tenant:
    """Registration record and per-tenant serving counters."""

    name: str
    tier: int
    group: _Group
    latency: Reservoir
    queries: int = 0
    writes: int = 0
    rejected: int = 0
    degraded: int = 0
    timeouts: int = 0
    last_rejection: str | None = None

    def describe(self) -> dict:
        return {
            "tier": self.tier,
            "queries": self.queries,
            "writes": self.writes,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "timeouts": self.timeouts,
            "p50_s": self.latency.quantile(0.5),
            "p99_s": self.latency.quantile(0.99),
            "last_rejection": self.last_rejection,
        }


class Frontend:
    """An asyncio multi-tenant serving loop over shared compiled sessions.

    Construct with either a prebuilt ``session`` (any object serving the
    session API — plain or sharded) or a ``workload`` compiled into one;
    both become the *default group* that tenants registering without a
    workload attach to.  Tenants registering *with* a workload are routed
    through the :class:`~repro.planner.PlanCache`: structurally identical
    workloads land in the same group and share its warm session.

    The request API is ``await``-based: :meth:`query` serves snapshot
    reads, :meth:`insert`/:meth:`delete` enqueue group-committed writes
    and resolve to the commit version, :meth:`drain` force-flushes,
    :meth:`close` shuts the loop down.  All methods must be called from
    one event loop; the frontend is single-threaded by design (like the
    sessions underneath it).
    """

    def __init__(
        self,
        workload=None,
        session=None,
        *,
        policy: PlanPolicy | None = None,
        config: FrontendConfig | None = None,
        faults: FaultInjector | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if workload is not None and session is not None:
            raise ValueError("pass either workload= or session=, not both")
        self.config = config if config is not None else FrontendConfig()
        self.faults = faults
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(self.config.plan_cache_capacity)
        )
        self._policy = policy
        self._groups: dict[object, _Group] = {}
        self._tenants: dict[str, _Tenant] = {}
        self._default_group: _Group | None = None
        self._closed = False
        self._inflight_reads = 0
        self._latency = Reservoir(self.config.latency_window)
        self.rejected_total = 0
        self.degraded_total = 0
        self.rejected_by_tier: dict[int, int] = {}
        if workload is not None:
            session = ObdaSession(workload, policy=policy)
        if session is not None:
            self._default_group = self._add_group("__default__", session)

    # -- registration ----------------------------------------------------------

    def _add_group(self, key: object, session) -> _Group:
        group = _Group(len(self._groups), key, session)
        self._groups[key] = group
        return group

    def register_tenant(
        self, tenant: str, workload=None, tier: int = 1
    ) -> None:
        """Admit a tenant; compile and intern its workload (if any).

        Without a ``workload`` the tenant attaches to the default group.
        With one, each compiled program is interned through the plan
        cache and planned — structurally identical workloads hit the
        planner's per-program plan cache and share one serving session.
        ``tier`` is the tenant's service class: tier-2 tenants are the
        first shed under load.
        """
        if self._closed:
            raise FrontendClosed("frontend is closed")
        if tenant in self._tenants:
            raise ValueError(f"tenant {tenant!r} is already registered")
        if tier not in (0, 1, 2):
            raise ValueError(f"tier must be 0, 1, or 2, got {tier}")
        if workload is None:
            group = self._default_group
            if group is None:
                raise ValueError(
                    "no default session: construct the Frontend with a "
                    "workload/session or register tenants with workloads"
                )
        else:
            if isinstance(workload, Mapping):
                entries = dict(workload)
            else:
                entries = {DEFAULT_QUERY: workload}
            compiled = {
                name: self.plan_cache.intern(_compile(entry))
                for name, entry in entries.items()
            }
            policy = self._policy
            for program in compiled.values():
                # Plan at registration time: a shared representative hits
                # the per-program plan cache here, which is what makes
                # cross-tenant sharing observable in the planner counters.
                plan_program(
                    program, policy.planning_view() if policy is not None else None
                )
            key = tuple(
                sorted((name, id(program)) for name, program in compiled.items())
            )
            group = self._groups.get(key)
            if group is None:
                group = self._add_group(
                    key, ObdaSession(compiled, policy=policy)
                )
        group.tenants.append(tenant)
        self._tenants[tenant] = _Tenant(
            name=tenant,
            tier=tier,
            group=group,
            latency=Reservoir(self.config.latency_window),
        )

    # -- introspection ---------------------------------------------------------

    @property
    def tenant_count(self) -> int:
        return len(self._tenants)

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def queue_depth(self) -> int:
        """In-flight reads plus buffered writes — the admission figure."""
        return self._inflight_reads + sum(
            len(group.pending) for group in self._groups.values()
        )

    def _require_tenant(self, tenant: str) -> _Tenant:
        record = self._tenants.get(tenant)
        if record is None:
            raise KeyError(f"unknown tenant {tenant!r}; register_tenant first")
        return record

    def _resolve_group(self, tenant: str | None) -> _Group:
        if tenant is not None:
            return self._require_tenant(tenant).group
        if len(self._groups) == 1:
            return next(iter(self._groups.values()))
        raise ValueError(
            f"frontend serves {len(self._groups)} session groups; "
            "pass a tenant to pick one"
        )

    def session(self, tenant: str | None = None):
        """The shared session of the (tenant's) group."""
        return self._resolve_group(tenant).session

    def version(self, tenant: str | None = None) -> int:
        """The group-commit version (successful flushes) of the group."""
        return self._resolve_group(tenant).version

    def commit_log(self, tenant: str | None = None) -> tuple[dict, ...]:
        """The group's committed batches, in commit order.

        Each record carries ``version``, the applied ``inserts`` and
        ``deletes`` (net, in application order), the flush ``reason``, the
        op count, and the session epoch after the batch — everything
        :func:`replay_commit_log` needs to rebuild a serial twin.
        """
        return tuple(
            dict(entry) for entry in self._resolve_group(tenant).commit_log
        )

    def programs(
        self, tenant: str | None = None
    ) -> dict[str, DisjunctiveDatalogProgram]:
        session = self._resolve_group(tenant).session
        return {name: session.program(name) for name in session.query_names}

    def explain(self, tenant: str | None = None) -> dict:
        """The group's ``obda-explain/v2`` report plus the ``frontend`` block.

        The session report is extended with per-tenant traffic/latency
        records, the global admission shed counters (with the last
        rejection rationale per tenant), the group's batching counters,
        and its snapshot-read freshness — the shape
        :func:`repro.service.explain.validate_explain` checks when a
        ``frontend`` key is present.
        """
        group = self._resolve_group(tenant)
        report = group.session.explain()
        mean_batch = group.ops_batched / group.flushes if group.flushes else 0.0
        report["frontend"] = {
            "tenants": {
                name: record.describe()
                for name, record in sorted(self._tenants.items())
            },
            "admission": {
                "max_pending": self.config.max_pending,
                "degrade_limit": self.config.resolved_degrade_limit,
                "queue_depth": self.queue_depth(),
                "rejected": self.rejected_total,
                "degraded": self.degraded_total,
                "by_tier": dict(sorted(self.rejected_by_tier.items())),
            },
            "batching": {
                "max_batch": self.config.max_batch,
                "max_delay_s": self.config.max_delay_s,
                "flushes": group.flushes,
                "ops_batched": group.ops_batched,
                "mean_batch": mean_batch,
                "rollbacks": group.rollbacks,
                "withdrawn": group.withdrawn,
                "reasons": dict(group.reasons),
            },
            "snapshots": {
                "reads": group.snapshot_reads,
                "fresh": group.snapshot_fresh,
                "stale": group.snapshot_stale,
                "version": group.version,
            },
        }
        return report

    def describe(self) -> dict:
        """Frontend-wide counters (tenants, groups, cache, admission)."""
        return {
            "tenants": self.tenant_count,
            "groups": self.group_count,
            "queue_depth": self.queue_depth(),
            "rejected": self.rejected_total,
            "degraded": self.degraded_total,
            "plan_cache": self.plan_cache.describe(),
            "latency": self._latency.describe(),
        }

    # -- admission -------------------------------------------------------------

    def _reject(self, record: _Tenant, rationale: str) -> None:
        record.rejected += 1
        record.last_rejection = rationale
        self.rejected_total += 1
        self.rejected_by_tier[record.tier] = (
            self.rejected_by_tier.get(record.tier, 0) + 1
        )
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("frontend.rejected")
        raise FrontendRejected(record.name, rationale)

    def _admit(self, record: _Tenant, kind: str) -> str:
        """Admission verdict: ``"serve"``, ``"degrade"``, or an exception."""
        if self._closed:
            raise FrontendClosed("frontend is closed")
        depth = self.queue_depth()
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.record("frontend.queue_depth", depth)
        if depth >= self.config.max_pending:
            self._reject(
                record,
                f"queue depth {depth} >= max_pending "
                f"{self.config.max_pending}",
            )
        limit = self.config.resolved_degrade_limit
        if record.tier >= 2 and depth >= limit:
            if kind == "write":
                self._reject(
                    record,
                    f"tier-2 write shed: queue depth {depth} >= "
                    f"degrade limit {limit}",
                )
            return "degrade"
        return "serve"

    # -- reads -----------------------------------------------------------------

    async def query(
        self,
        tenant: str,
        name: str | None = None,
        timeout: float | None = None,
    ) -> ReadResult:
        """Serve one snapshot read for the tenant.

        The snapshot is pinned at admission (before the first await), so
        the answers are exact at the returned ``version`` no matter how
        many flushes land while the read is in flight.  ``timeout`` bounds
        the wall-clock wait; expiry raises ``TimeoutError`` and counts
        against the tenant.
        """
        record = self._require_tenant(tenant)
        verdict = self._admit(record, "read")
        if timeout is None:
            return await self._serve_read(record, name, verdict)
        try:
            return await asyncio.wait_for(
                self._serve_read(record, name, verdict), timeout
            )
        except TimeoutError:
            record.timeouts += 1
            raise

    async def _serve_read(
        self, record: _Tenant, name: str | None, verdict: str
    ) -> ReadResult:
        group = record.group
        resolved = resolve_query(group.session.query_names, name)
        start = _telemetry.now()
        self._inflight_reads += 1
        try:
            if verdict == "degrade":
                cached = group.last_answers.get(resolved)
                if cached is not None:
                    version, answers = cached
                    record.degraded += 1
                    self.degraded_total += 1
                    tel = _telemetry.ACTIVE
                    if tel is not None:
                        tel.count("frontend.degraded")
                    await asyncio.sleep(0)
                    return ReadResult(
                        answers=answers,
                        version=version,
                        tenant=record.name,
                        query=resolved,
                        degraded=True,
                        stale=version < group.version,
                        elapsed_s=_telemetry.now() - start,
                    )
                # Nothing cached to degrade to: fall through and serve
                # fresh (sheds nothing, but never blanks a paying read).
            snapshot = group.current_snapshot()
            faults = self.faults
            delay = faults.query_delay_s if faults is not None else 0.0
            # The read's single yield point: real requests interleave here.
            await asyncio.sleep(delay)
            answers = snapshot.certain_answers(resolved)
            stale = snapshot.version < group.version
            group.snapshot_reads += 1
            if stale:
                group.snapshot_stale += 1
            else:
                group.snapshot_fresh += 1
                group.last_answers[resolved] = (snapshot.version, answers)
            record.queries += 1
            elapsed = _telemetry.now() - start
            record.latency.observe(elapsed)
            self._latency.observe(elapsed)
            tel = _telemetry.ACTIVE
            if tel is not None:
                tel.count("frontend.queries")
                tel.record("frontend.query_s", elapsed)
            return ReadResult(
                answers=answers,
                version=snapshot.version,
                tenant=record.name,
                query=resolved,
                stale=stale,
                elapsed_s=elapsed,
            )
        finally:
            self._inflight_reads -= 1

    # -- writes ----------------------------------------------------------------

    async def insert(
        self,
        tenant: str,
        facts: Iterable[Fact],
        timeout: float | None = None,
    ) -> int:
        """Enqueue an insert into the tenant group's next batch.

        Resolves to the group-commit version the batch committed as.
        Raises :class:`FrontendWriteFailed` when the batch aborted (all
        its ops rolled back), :class:`FrontendRejected` when shed at
        admission.  Cancellation or timeout before the batch seals
        withdraws the op cleanly.
        """
        return await self._write(tenant, "insert", facts, timeout)

    async def delete(
        self,
        tenant: str,
        facts: Iterable[Fact],
        timeout: float | None = None,
    ) -> int:
        """Enqueue a delete into the tenant group's next batch."""
        return await self._write(tenant, "delete", facts, timeout)

    async def _write(
        self,
        tenant: str,
        kind: str,
        facts: Iterable[Fact],
        timeout: float | None,
    ) -> int:
        record = self._require_tenant(tenant)
        self._admit(record, "write")
        group = record.group
        op = _WriteOp(
            kind,
            tuple(facts),
            record.name,
            asyncio.get_running_loop().create_future(),
        )
        if not group.pending:
            group.first_enqueued_s = _telemetry.now()
        group.pending.append(op)
        record.writes += 1
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("frontend.writes")
        self._ensure_flusher(group)
        group.wake.set()
        if len(group.pending) >= self.config.max_batch:
            group.size_wake.set()
        try:
            if timeout is None:
                return await op.future
            return await asyncio.wait_for(op.future, timeout)
        except TimeoutError:
            # The op may still be in the unsealed buffer — withdraw it.
            # (If the batch sealed in the same tick, the commit happened;
            # the caller must treat a timeout as "outcome unknown".)
            op.withdrawn = True
            record.timeouts += 1
            raise
        except asyncio.CancelledError:
            op.withdrawn = True
            raise

    def _ensure_flusher(self, group: _Group) -> None:
        if group.flusher is None or group.flusher.done():
            # The wake events bind to the loop that first awaits them, and
            # only the flusher ever awaits them — so a fresh flusher gets
            # fresh events.  This keeps a frontend usable across
            # successive ``asyncio.run`` scopes (each run tears down the
            # previous flusher task with its loop; ops stranded by a dead
            # loop carry cancelled futures and are withdrawn at flush).
            group.wake = asyncio.Event()
            group.size_wake = asyncio.Event()
            group.flusher = asyncio.get_running_loop().create_task(
                self._flush_loop(group)
            )

    async def _flush_loop(self, group: _Group) -> None:
        """The group's flusher: seal batches on size or deadline."""
        config = self.config
        while True:
            if not group.pending:
                group.wake.clear()
                if self._closed:
                    return
                await group.wake.wait()
                continue
            deadline = (group.first_enqueued_s or 0.0) + config.max_delay_s
            while len(group.pending) < config.max_batch:
                remaining = deadline - _telemetry.now()
                if remaining <= 0:
                    break
                group.size_wake.clear()
                try:
                    await asyncio.wait_for(group.size_wake.wait(), remaining)
                except TimeoutError:
                    break
            if not group.pending:
                continue  # drained (or fully withdrawn) while we waited
            reason = (
                "size"
                if len(group.pending) >= config.max_batch
                else "deadline"
            )
            self._flush(group, reason)

    def _flush(self, group: _Group, reason: str) -> None:
        """Seal and apply one batch.  Synchronous — atomic on the loop.

        Ops are coalesced in arrival order to their net per-fact effect
        (an insert-then-delete of the same fact cancels out, and vice
        versa), then applied as one ``delete_facts`` + ``insert_facts``
        pair.  Any failure mid-apply restores the pre-batch instance and
        fails every waiter; on success every waiter resolves to the new
        group-commit version.
        """
        ops = group.pending
        if not ops:
            return
        group.pending = []
        group.first_enqueued_s = None
        group.size_wake.clear()
        # A cancelled waiter's future is cancelled *immediately*, but its
        # ``except CancelledError`` handler (which sets ``withdrawn``) only
        # runs on the next loop tick — so a flush in the cancelling tick
        # must also treat cancelled-future ops as withdrawn.
        batch = [
            op for op in ops if not (op.withdrawn or op.future.cancelled())
        ]
        withdrawn = len(ops) - len(batch)
        tel = _telemetry.ACTIVE
        if withdrawn:
            group.withdrawn += withdrawn
            if tel is not None:
                tel.count("frontend.withdrawn", withdrawn)
        if not batch:
            return
        ins: dict[Fact, None] = {}
        dels: dict[Fact, None] = {}
        for op in batch:
            if op.kind == "insert":
                for fact in op.facts:
                    if fact in dels:
                        del dels[fact]
                    else:
                        ins[fact] = None
            else:
                for fact in op.facts:
                    if fact in ins:
                        del ins[fact]
                    else:
                        dels[fact] = None
        session = group.session
        ordinal = group.flushes + group.rollbacks + 1
        start = _telemetry.now()
        deleted: tuple[Fact, ...] = ()
        with _telemetry.maybe_span(
            "frontend.flush", group=group.index, ops=len(batch), reason=reason
        ):
            try:
                live = session.instance.facts
                deleted = tuple(fact for fact in dels if fact in live)
                if deleted:
                    session.delete_facts(deleted)
                faults = self.faults
                if faults is not None:
                    faults.on_flush(ordinal)
                live = session.instance.facts
                inserted = tuple(fact for fact in ins if fact not in live)
                if inserted:
                    session.insert_facts(inserted)
            except Exception as error:
                # All-or-nothing: restore the pre-batch instance (the only
                # mutation so far was the delete phase) and fail everyone.
                if deleted:
                    session.insert_facts(deleted)
                group.rollbacks += 1
                if tel is not None:
                    tel.count("frontend.rollbacks")
                failure = FrontendWriteFailed(
                    f"group-commit batch {ordinal} ({len(batch)} op(s)) "
                    f"aborted and rolled back: {error}"
                )
                for op in batch:
                    if not op.future.done():
                        op.future.set_exception(failure)
                return
        group.version += 1
        group._snapshot = None
        group.flushes += 1
        group.ops_batched += len(batch)
        group.reasons[reason] += 1
        group.commit_log.append(
            {
                "version": group.version,
                "reason": reason,
                "ops": len(batch),
                "inserts": inserted,
                "deletes": deleted,
                "epoch": session.stats.epoch,
            }
        )
        if tel is not None:
            tel.count("frontend.flushes")
            tel.record("frontend.batch_size", len(batch))
            tel.record("frontend.flush_s", _telemetry.now() - start)
        for op in batch:
            if not op.future.done():
                op.future.set_result(group.version)

    # -- lifecycle -------------------------------------------------------------

    async def drain(self) -> None:
        """Force-flush every group's buffered writes now."""
        for group in self._groups.values():
            if group.pending:
                self._flush(group, "drain")
        await asyncio.sleep(0)

    async def close(self) -> None:
        """Flush outstanding writes and stop every flusher task."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        tasks = [
            group.flusher
            for group in self._groups.values()
            if group.flusher is not None and not group.flusher.done()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


def replay_commit_log(
    programs: Mapping[str, DisjunctiveDatalogProgram],
    commit_log: Sequence[Mapping],
    versions: Iterable[int] | None = None,
    policy: PlanPolicy | None = None,
) -> dict[int, dict[str, frozenset]]:
    """Answers of a *serial twin* replaying committed batches in order.

    Builds a fresh single-caller :class:`ObdaSession` over the same
    compiled programs and applies every commit-log batch exactly as the
    frontend did (deletes, then inserts).  Returns the certain answers of
    every query at each requested group-commit version (all versions,
    0..len(log), when ``versions`` is None) — the reference the
    concurrency harness cross-validates every concurrent read against.
    """
    twin = ObdaSession(dict(programs), policy=policy)
    wanted = None if versions is None else set(versions)
    answers: dict[int, dict[str, frozenset]] = {}
    if wanted is None or 0 in wanted:
        answers[0] = twin.answer_all()
    for entry in commit_log:
        if entry["deletes"]:
            twin.delete_facts(entry["deletes"])
        if entry["inserts"]:
            twin.insert_facts(entry["inserts"])
        version = entry["version"]
        if wanted is None or version in wanted:
            answers[version] = twin.answer_all()
    return answers
