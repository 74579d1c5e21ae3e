"""The OBDA serving layer: compiled sessions over streaming ABox updates.

``repro.service`` turns the one-shot pipeline (translate an OMQ to
disjunctive datalog, ground, solve) into a *server*: a workload of queries
is compiled once into an :class:`ObdaSession`, and certain answers are then
maintained incrementally while facts are inserted and deleted — delta
grounding into a persistent CDCL solver with assumption-guarded retraction
for disjunctive programs, semi-naive/DRed fixpoint maintenance for plain
datalog.  See ``examples/streaming_obda.py`` for a tour and
``benchmarks/bench_service_streaming.py`` for the speedup over from-scratch
recomputation.
"""

from .delta import DeltaGrounder, IncrementalFixpoint, adom_guard, fact_guard
from .explain import EXPLAIN_SCHEMA, validate_explain
from .frontend import (
    FaultInjector,
    Frontend,
    FrontendClosed,
    FrontendConfig,
    FrontendError,
    FrontendRejected,
    FrontendWriteFailed,
    ReadResult,
    replay_commit_log,
)
from .session import ObdaSession, SessionSnapshot, SessionStats
from .shards import (
    ShardedObdaSession,
    ShardedStats,
    is_shardable,
    shardability_violation,
)
from .workload import (
    StreamEvent,
    StreamReport,
    deletes,
    from_scratch_answers,
    from_scratch_stream_cost,
    graph_universe,
    inserts,
    medical_universe,
    random_stream,
    replay,
)

__all__ = [
    "DeltaGrounder",
    "EXPLAIN_SCHEMA",
    "FaultInjector",
    "Frontend",
    "FrontendClosed",
    "FrontendConfig",
    "FrontendError",
    "FrontendRejected",
    "FrontendWriteFailed",
    "IncrementalFixpoint",
    "ObdaSession",
    "ReadResult",
    "SessionSnapshot",
    "SessionStats",
    "ShardedObdaSession",
    "ShardedStats",
    "StreamEvent",
    "StreamReport",
    "adom_guard",
    "deletes",
    "fact_guard",
    "from_scratch_answers",
    "from_scratch_stream_cost",
    "graph_universe",
    "inserts",
    "is_shardable",
    "medical_universe",
    "random_stream",
    "replay",
    "replay_commit_log",
    "shardability_violation",
    "validate_explain",
]
