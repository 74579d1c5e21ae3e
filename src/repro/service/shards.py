"""Sharded OBDA serving: consistent-hash partitioned compiled sessions.

A :class:`ShardedObdaSession` serves the same API as a single
:class:`~repro.service.session.ObdaSession` — ``insert_facts`` /
``delete_facts`` / ``certain_answers`` / ``answer_batch`` — but partitions
the EDB fact stream across ``shards`` independent per-shard sessions and
merges their certain answers.  Each shard holds the *same* compiled
workload (programs are compiled once and shared) over a *disjoint* slice of
the data, so grounding, delta maintenance and candidate decisions all run
against instances a fraction of the global size.  On one core that makes
queries cheaper (each solve propagates one shard's slice), while routing
and component migrations make updates dearer.
``benchmarks/bench_parallel_scaling.py`` times the Table 1 stream at one,
two and four in-process shards, checks that every count yields the same
answers, and, when run timed, requires four shards to beat one by its
``REQUIRED_SPEEDUP`` gate; the measured ratio varies from run to run, so
a single timed run does not settle whether sharding wins on one core.

**Routing.**  Certain answers only merge correctly when facts that share a
constant land on the same shard (their rule instantiations join).  The
router therefore consistent-hashes *connected components* of the data, not
individual facts: a union-find over constants tracks components, a fresh
component is placed by a stable content hash of its first constant, and
when an incoming fact links components living on different shards the
smaller component's facts migrate (delete + re-insert) to the larger's
shard.  The union-find deliberately never splits on deletion — colocation
is only ever over-approximated, which is always safe.  Facts with no
constants (nullary relations) belong to every component and are broadcast
to all shards.

**Merge semantics** (see :func:`shardability_violation` for why these are
exactly the certain answers of the union instance):

* if some shard is inconsistent (no model extends its data), the union
  instance has no model either, and *every* tuple over the global active
  domain is vacuously certain;
* otherwise the global certain answers are the union of the per-shard
  certain answers — a candidate whose constants span shards is never
  certain, because the product of per-shard counter-models is a global
  counter-model.

The product-model argument requires the compiled programs to be
*shardable*: every rule body connected, no constants in rules, and no
nullary IDB relation other than ``goal`` (a shared nullary atom or
constant would let clauses grounded on different shards interact).  The
session validates this at construction time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from ..analysis import (
    ProgramAnalysisError,
    shardability_diagnostics,
    vet_program,
)
from ..core.instance import Fact, Instance
from ..datalog.ddlog import DisjunctiveDatalogProgram
from ..obs import telemetry as _telemetry
from ..planner.execute import vacuous_answers, vacuous_decisions
from ..planner.policy import PlanPolicy
from .explain import EXPLAIN_SCHEMA
from .session import DEFAULT_QUERY, ObdaSession, SessionSnapshot, _compile

__all__ = [
    "ShardedObdaSession",
    "ShardedStats",
    "is_shardable",
    "shardability_violation",
]


def shardability_violation(program: DisjunctiveDatalogProgram) -> str | None:
    """Why per-shard evaluation would *not* merge to the global answers.

    Returns ``None`` when the program is shardable: certain answers over a
    disjoint union of instances decompose into per-component evaluation.
    The three conditions each close one coupling channel between shards:

    * a **disconnected rule body** (``MD101``) grounds with variables
      bound in different components, so a clause can relate facts two
      shards never see together;
    * a **constant in a rule** (``MD102``) names the same element from
      every shard's grounding, whether or not the element's facts live
      there;
    * a **nullary IDB relation** (``MD103``, other than ``goal``, which
      never occurs in bodies) is a single shared propositional atom that
      clauses from different shards both constrain.

    The conditions are produced by the static analyzer
    (:func:`repro.analysis.shardability_diagnostics`), so a lint run
    predicts this function's verdict code for code and message for
    message.
    """
    for diagnostic in shardability_diagnostics(program):
        return f"[{diagnostic.code}] {diagnostic.message}"
    return None


def is_shardable(program: DisjunctiveDatalogProgram) -> bool:
    """Can this program's certain answers be served shard-locally?"""
    return shardability_violation(program) is None


def _consistent_shard(constant, shards: int) -> int:
    """A stable (run-independent) shard for a fresh component's constant.

    ``repr`` keyed through blake2b, never the salted built-in ``hash`` —
    the placement of a component must survive process restarts so a
    replayed stream lands every fact on the same shard.
    """
    digest = hashlib.blake2b(repr(constant).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


@dataclass
class ShardedStats:
    """Counters describing the routed traffic of a sharded session."""

    epoch: int = 0
    facts_inserted: int = 0
    facts_deleted: int = 0
    facts_migrated: int = 0
    broadcasts: int = 0


class ShardedObdaSession:
    """A compiled OMQ workload served by consistent-hash-partitioned shards.

    Mirrors the :class:`ObdaSession` API; answers after every update equal
    a single session (or a from-scratch recomputation) over the union of
    the shard instances — the randomized sharded cross-validation suite
    pins this down for every shard count, including streams with
    deletions.
    """

    def __init__(
        self,
        workload,
        shards: int = 2,
        initial_facts: Iterable[Fact] = (),
        policy: PlanPolicy | None = None,
    ) -> None:
        if policy is None:
            policy = PlanPolicy()
        self.policy = policy
        if shards < 1:
            raise ValueError("need at least one shard")
        if isinstance(workload, Mapping):
            entries = dict(workload)
        else:
            entries = {DEFAULT_QUERY: workload}
        # Compile once; shards share the compiled program objects — and,
        # through the per-program plan cache, one semantic analysis.
        compiled = {name: _compile(entry) for name, entry in entries.items()}
        resolved_check = policy.resolved_check("warn")
        for name, program in compiled.items():
            vet_program(program, resolved_check, label=name)
        for name, program in compiled.items():
            # Shardability is enforced regardless of ``check``: serving an
            # unshardable program would return *wrong* answers, not just
            # suspicious ones.  Raised from the analyzer's diagnostics, so
            # the runtime error carries the same MD1xx code and message a
            # lint run reports.
            diagnostics = tuple(shardability_diagnostics(program))
            if diagnostics:
                first = diagnostics[0]
                raise ProgramAnalysisError(
                    name,
                    diagnostics,
                    message=f"query {name!r} cannot be sharded: "
                    f"[{first.code}] {first.message}",
                )
        self.shard_count = shards
        # check="off": the workload was already vetted once above; every
        # other policy field — tier, semantic, adaptive — passes straight
        # through to the per-shard sessions, which share the compiled
        # program objects.
        self._shard_policy = replace(policy, check="off")
        self._sessions = [
            ObdaSession(compiled, policy=self._shard_policy)
            for _ in range(shards)
        ]
        # Routing state: union-find over constants; per-component fact sets
        # and shard placements; per-fact shard for deletion.
        self._parent: dict = {}
        self._root_facts: dict = {}
        self._root_shard: dict = {}
        self._fact_shard: dict[Fact, int] = {}
        self._broadcast: set[Fact] = set()
        self._instance_cache: Instance | None = Instance([])
        self.stats = ShardedStats()
        initial = list(initial_facts)
        if initial:
            self.insert_facts(initial)

    # -- introspection ---------------------------------------------------------

    @property
    def query_names(self) -> tuple[str, ...]:
        return self._sessions[0].query_names

    def program(self, name: str | None = None) -> DisjunctiveDatalogProgram:
        return self._sessions[0].program(name)

    def plan(self, name: str | None = None):
        """The planner's routing decision for the (named) query.

        Shards share the compiled program objects, so the (cached) plan is
        the same on every shard: sharding multiplies whatever tier the
        planner picked, it never changes it.
        """
        return self._sessions[0].plan(name)

    def explain(self) -> dict:
        """The ``obda-explain/v2`` report with per-shard counters merged in.

        Shards share the compiled programs, so the static plan explanation
        is identical on every shard.  Each entry under ``"queries"``
        additionally carries:

        * ``"live"`` — the per-query counters aggregated across shards,
          including the cross-shard ``obda-session-rollup/v1`` mix-and-cost
          rollup (same schema as a single :class:`ObdaSession`);
        * ``"shards"`` — one record per shard (facts held, clauses pushed,
          epoch, queries answered, last-epoch latency) so shard skew is
          visible without attaching a profiler;
        * ``"shard_skew"`` — the max/mean fact-count ratio over shards
          (1.0 = perfectly balanced).

        The top-level ``"adaptive"`` block folds the shard sessions'
        controllers together: every re-plan record gains a ``"shard"`` tag
        (shards see different slices of the stream, so they may swap at
        different times — or not at all), and ``adaptive["queries"]``
        keeps the per-shard controller state under ``"per_shard"``.
        """
        per_shard = [session.explain() for session in self._sessions]
        shard_live: list[dict] = []
        for index, session in enumerate(self._sessions):
            stats = session.stats
            epochs = stats.epochs
            shard_live.append(
                {
                    "shard": index,
                    "facts": len(session.instance),
                    "clauses_pushed": stats.clauses_pushed,
                    "epoch": stats.epoch,
                    "queries_answered": stats.queries_answered,
                    "last_epoch_s": epochs[-1]["seconds"] if epochs else None,
                }
            )
        facts = [entry["facts"] for entry in shard_live]
        mean_facts = sum(facts) / len(facts)
        skew = {
            "facts_max": max(facts),
            "facts_mean": mean_facts,
            "facts_ratio": (max(facts) / mean_facts) if mean_facts else 1.0,
        }
        rollup = self._merged_rollup()
        queries = per_shard[0]["queries"]
        for name, info in queries.items():
            lives = [shard["queries"][name]["live"] for shard in per_shard]
            answered = sum(live["queries_answered"] for live in lives)
            total_s = sum(live["total_s"] for live in lives)
            last = [live["last_s"] for live in lives if live["last_s"] is not None]
            info["live"] = {
                "queries_answered": answered,
                "total_s": total_s,
                "mean_s": total_s / answered if answered else 0.0,
                # the slowest shard bounds the merged answer's latency
                "last_s": max(last) if last else None,
                "rollup": rollup,
            }
            info["shards"] = shard_live
            info["shard_skew"] = skew
        adaptive: dict = {
            "enabled": any(shard["adaptive"]["enabled"] for shard in per_shard)
        }
        reason = per_shard[0]["adaptive"].get("reason")
        if reason is not None:
            adaptive["reason"] = reason
        replans: list[dict] = []
        for index, shard in enumerate(per_shard):
            for record in shard["adaptive"]["replans"]:
                tagged = dict(record)
                tagged["shard"] = index
                replans.append(tagged)
        replans.sort(key=lambda record: (record["epoch"], record["event"]))
        adaptive["replans"] = replans
        adaptive["queries"] = {
            name: {
                "enabled": any(
                    shard["adaptive"]["queries"][name]["enabled"]
                    for shard in per_shard
                ),
                "replans": sum(
                    shard["adaptive"]["queries"][name].get("replans", 0)
                    for shard in per_shard
                ),
                "per_shard": [
                    shard["adaptive"]["queries"][name] for shard in per_shard
                ],
            }
            for name in queries
        }
        return {"schema": EXPLAIN_SCHEMA, "queries": queries, "adaptive": adaptive}

    def _merged_rollup(self) -> dict:
        """The shards' stats folded into one ``obda-session-rollup/v1``."""
        ops = {
            op: {"count": 0, "facts": 0, "clauses": 0, "total_s": 0.0}
            for op in ("insert", "delete", "query")
        }
        recent = {op: {"count": 0, "total_s": 0.0} for op in ops}
        window_size = 0
        capacity = 0
        for session in self._sessions:
            for op, totals in session.stats.totals.items():
                merged = ops[op]
                merged["count"] += totals["count"]
                merged["facts"] += totals["facts"]
                merged["clauses"] += totals["clauses"]
                merged["total_s"] += totals["seconds"]
            events = session.stats.events
            window_size += len(events)
            capacity += events.maxlen
            for event in events:
                bucket = recent[event["op"]]
                bucket["count"] += 1
                bucket["total_s"] += event["seconds"]
        total_events = 0
        for merged in ops.values():
            total_events += merged["count"]
            merged["mean_s"] = (
                merged["total_s"] / merged["count"] if merged["count"] else 0.0
            )
        for bucket in recent.values():
            bucket["mean_s"] = (
                bucket["total_s"] / bucket["count"] if bucket["count"] else 0.0
            )
        return {
            "schema": "obda-session-rollup/v1",
            "epoch": self.stats.epoch,
            "events": total_events,
            "mix": {
                op: (merged["count"] / total_events if total_events else 0.0)
                for op, merged in ops.items()
            },
            "ops": ops,
            "window": {
                "capacity": capacity,
                "size": window_size,
                "recent": recent,
            },
        }

    @property
    def instance(self) -> Instance:
        """The union of the shard instances (the logical global instance).

        Merged in the interned code space: the largest shard donates its
        interner and columnar stores, every other shard contributes its
        int rows plus a one-shot code-translation dictionary
        (:meth:`Instance.merge`) — constants are never re-hashed fact by
        fact.  Broadcast facts already live on every shard, so the merge
        alone covers them; they are passed as extras only for the
        zero-shard-content edge case.
        """
        if self._instance_cache is None:
            self._instance_cache = Instance.merge(
                [session.instance for session in self._sessions],
                extra_facts=sorted(self._broadcast, key=str),
            )
        return self._instance_cache

    def shard_of(self, fact: Fact) -> int | None:
        """Which shard currently holds the fact (None when it is not live;
        broadcast facts report shard 0)."""
        if fact in self._broadcast:
            return 0
        return self._fact_shard.get(fact)

    def shard_sizes(self) -> list[int]:
        return [len(session.instance) for session in self._sessions]

    # -- routing ---------------------------------------------------------------

    def _find(self, constant):
        parent = self._parent
        root = constant
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    def _union_constants(self, fact: Fact, displaced: list[Fact]):
        """Union the fact's constants into one component; returns its root.

        When two components on different shards merge, the larger one (by
        fact count) keeps its shard and the smaller component's facts are
        appended to ``displaced`` — the caller migrates exactly those once
        the whole batch has been routed, so an insert costs O(delta +
        displaced), never a rescan of settled components.
        """
        constants = list(dict.fromkeys(fact.arguments))
        for constant in constants:
            if constant not in self._parent:
                self._parent[constant] = constant
                self._root_facts[constant] = set()
                self._root_shard[constant] = _consistent_shard(
                    constant, self.shard_count
                )
        root = self._find(constants[0])
        for constant in constants[1:]:
            other = self._find(constant)
            if other == root:
                continue
            if len(self._root_facts[other]) > len(self._root_facts[root]):
                root, other = other, root
            if self._root_shard[other] != self._root_shard[root]:
                displaced.extend(self._root_facts[other])
            self._parent[other] = root
            self._root_facts[root] |= self._root_facts.pop(other)
            del self._root_shard[other]
        return root

    # -- updates ---------------------------------------------------------------

    def insert_facts(self, facts: Iterable[Fact]) -> int:
        """Insert facts, routing each to its component's shard.  One epoch.

        Returns how many facts were new.  Components linked by the batch
        are merged first; facts already live on a shard that lost its
        component's placement migrate before the new facts land.
        """
        fresh: list[Fact] = []
        seen: set[Fact] = set()
        for fact in facts:
            if (
                fact in seen
                or fact in self._fact_shard
                or fact in self._broadcast
            ):
                continue
            seen.add(fact)
            fresh.append(fact)
        if not fresh:
            return 0
        migrated_before = self.stats.facts_migrated
        with _telemetry.maybe_span(
            "shards.insert", facts=len(fresh), epoch=self.stats.epoch + 1
        ) as span:
            broadcast = [fact for fact in fresh if not fact.arguments]
            regular = [fact for fact in fresh if fact.arguments]
            displaced: list[Fact] = []
            for fact in regular:
                self._root_facts[self._union_constants(fact, displaced)].add(
                    fact
                )
            deletes: dict[int, list[Fact]] = {}
            inserts: dict[int, list[Fact]] = {}
            routed: set[Fact] = set()
            # Route the batch's new facts plus facts of components whose
            # placement just changed; cascading merges within the batch
            # resolve to each fact's final root here.
            for fact in regular + displaced:
                if fact in routed:
                    continue
                routed.add(fact)
                shard = self._root_shard[self._find(fact.arguments[0])]
                current = self._fact_shard.get(fact)
                if current == shard:
                    continue
                if current is not None:  # migrate a previously routed fact
                    deletes.setdefault(current, []).append(fact)
                    self.stats.facts_migrated += 1
                inserts.setdefault(shard, []).append(fact)
                self._fact_shard[fact] = shard
            for shard, batch in deletes.items():
                self._sessions[shard].delete_facts(batch)
            for shard, batch in inserts.items():
                self._sessions[shard].insert_facts(batch)
            if broadcast:
                self._broadcast.update(broadcast)
                self.stats.broadcasts += len(broadcast)
                for session in self._sessions:
                    session.insert_facts(broadcast)
            span.set(
                migrated=self.stats.facts_migrated - migrated_before,
                broadcast=len(broadcast),
            )
        self.stats.epoch += 1
        self.stats.facts_inserted += len(fresh)
        self._instance_cache = None
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("shards.inserts")
            tel.count(
                "shards.facts_migrated",
                self.stats.facts_migrated - migrated_before,
            )
            sizes = self.shard_sizes()
            mean_size = sum(sizes) / len(sizes)
            if mean_size:
                tel.record("shards.facts_skew", max(sizes) / mean_size)
        return len(fresh)

    def delete_facts(self, facts: Iterable[Fact]) -> int:
        """Delete facts from their shards; unknown facts are a clean no-op.

        Components are *not* re-split — colocation stays over-approximated,
        which never affects answers (``compact`` rebuilds placements).
        """
        removals: dict[int, list[Fact]] = {}
        broadcast: list[Fact] = []
        removed = 0
        for fact in facts:
            if fact in self._broadcast:
                self._broadcast.discard(fact)
                broadcast.append(fact)
                removed += 1
                continue
            shard = self._fact_shard.pop(fact, None)
            if shard is None:
                continue  # never inserted, or already deleted
            self._root_facts[self._find(fact.arguments[0])].discard(fact)
            removals.setdefault(shard, []).append(fact)
            removed += 1
        if not removed:
            return 0
        with _telemetry.maybe_span(
            "shards.delete", facts=removed, epoch=self.stats.epoch + 1
        ):
            for shard, batch in removals.items():
                self._sessions[shard].delete_facts(batch)
            if broadcast:
                for session in self._sessions:
                    session.delete_facts(broadcast)
        self.stats.epoch += 1
        self.stats.facts_deleted += removed
        self._instance_cache = None
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("shards.deletes")
        return removed

    def compact(self) -> None:
        """Rebuild every shard from scratch and re-place all components.

        Long streams accumulate retracted-epoch clauses inside the shard
        sessions and merged-but-since-disconnected components inside the
        router; compaction replays the live facts through a fresh routing
        state.
        """
        facts = sorted(self.instance.facts, key=str)
        self._sessions = [
            ObdaSession(
                {name: session.program(name) for name in session.query_names},
                policy=self._shard_policy,
            )
            for session in self._sessions
        ]
        self._parent.clear()
        self._root_facts.clear()
        self._root_shard.clear()
        self._fact_shard.clear()
        self._broadcast.clear()
        self._instance_cache = Instance([])
        stats = self.stats
        self.stats = ShardedStats()  # the replay is maintenance, not traffic
        if facts:
            self.insert_facts(facts)
        self.stats = stats

    # -- queries ---------------------------------------------------------------

    def _vacuous(self, name: str | None) -> bool:
        """No model extends some shard's data — everything is certain.

        Ask it after the shards answer: tier-2 shards reuse that verdict.
        """
        return any(
            not session.is_consistent(name) for session in self._sessions
        )

    def certain_answers(self, name: str | None = None) -> frozenset[tuple]:
        """The certain answers of the (named) query on the union instance."""
        merged: set[tuple] = set()
        for session in self._sessions:
            merged |= session.certain_answers(name)
        if self._vacuous(name):
            return vacuous_answers(self.instance, self.program(name).arity)
        return frozenset(merged)

    def answer_batch(
        self,
        candidates: Iterable[Sequence],
        name: str | None = None,
    ) -> dict[tuple, bool]:
        """Decide a batch of candidate tuples against the warm shard states.

        Each candidate is routed to the shard owning all its constants; a
        candidate whose constants span shards (or include unknown
        constants) is never certain unless some shard is inconsistent.
        """
        batch = [tuple(candidate) for candidate in candidates]
        decided: dict[tuple, bool] = {}
        routed: dict[int, list[tuple]] = {}
        for candidate in batch:
            if not candidate:
                # Boolean query: goal() is certain iff certain on some shard.
                decided[candidate] = any(
                    session.is_certain(candidate, name)
                    for session in self._sessions
                )
                continue
            shards = set()
            for value in candidate:
                if value not in self._parent:
                    shards.add(None)
                    break
                shards.add(self._root_shard[self._find(value)])
            if len(shards) == 1 and None not in shards:
                routed.setdefault(next(iter(shards)), []).append(candidate)
            else:
                decided[candidate] = False
        for shard, group in routed.items():
            decided.update(self._sessions[shard].answer_batch(group, name))
        if self._vacuous(name):
            return vacuous_decisions(self.instance, batch)
        return decided

    def is_certain(self, answer: Sequence = (), name: str | None = None) -> bool:
        """Does the tuple belong to the certain answers right now?"""
        answer = tuple(answer)
        return self.answer_batch([answer], name)[answer]

    def answer_all(self) -> dict[str, frozenset[tuple]]:
        """Certain answers of every query in the workload."""
        return {name: self.certain_answers(name) for name in self.query_names}

    def snapshot(self, version: int | None = None) -> SessionSnapshot:
        """A read-only view pinned to the current merged union instance.

        Mirrors :meth:`ObdaSession.snapshot`.  The pinned instance is the
        (cached) union of the shard instances; while the shards have not
        advanced, reads take the warm merged path, afterwards they
        recompute statelessly against the pinned union.
        """
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("session.snapshots")
        return SessionSnapshot(
            self,
            self.stats.epoch if version is None else version,
            self.instance,
            {name: self.plan(name) for name in self.query_names},
        )
