"""E-PAR — Sharded certain-answer serving scaling curve.

The Theorem 3.3 reduction makes candidate tuples independently decidable
against one ground program, and connected, constant-free programs never
join facts across data components.  `ShardedObdaSession` exploits both:
the Table 1 medical workload is consistent-hash-partitioned across 1/2/4
per-shard sessions and driven through a churn-and-query serving stream
(bulk load, then delete / re-insert epochs with certain-answer queries
after every update), with every shard in one process.  Sharding makes
the queries cheaper (each solve propagates one shard's slice) and the
updates dearer (routing and component migrations).

Acceptance: every shard count yields identical certain answers at every
epoch (the curve test cross-validates the answer streams, not just the
timings).  A timed run (without ``--benchmark-disable``) additionally
requires 4-shard serving to finish the stream ``REQUIRED_SPEEDUP`` times
faster than one shard.  The measured ratio spreads widely from run to
run on a small host, to either side of the gate, so one timed run is a
sample, not a verdict.
"""

import time

import pytest

from repro.omq.certain import compile_to_mddlog
from repro.service import ObdaSession, ShardedObdaSession, medical_universe
from repro.workloads.medical import example_2_1_omq

REQUIRED_SPEEDUP = 1.5
SHARD_COUNTS = (1, 2, 4)

_shard_runs: dict[int, tuple[float, list]] = {}
_compiled = {}
_timing_asserted = {"enabled": True}


def _medical_program():
    if "q1" not in _compiled:
        _compiled["q1"] = compile_to_mddlog(example_2_1_omq())
    return _compiled["q1"]


def _universe():
    return medical_universe(patients=16, generations=8)


def _serve_stream(shards: int, epochs: int = 10) -> tuple[float, list]:
    """Bulk-load the workload, then churn-and-query; returns (s, answers)."""
    program = _medical_program()
    universe = _universe()
    if shards > 1:
        session = ShardedObdaSession({"q1": program}, shards=shards)
    else:
        session = ObdaSession({"q1": program})
    victims = sorted(universe, key=str)
    started = time.perf_counter()
    session.insert_facts(universe)
    answers = [session.certain_answers("q1")]
    for epoch in range(epochs):
        offset = 3 * epoch % len(victims)
        batch = victims[offset : offset + 2]
        session.delete_facts(batch)
        answers.append(session.certain_answers("q1"))
        session.insert_facts(batch)
        answers.append(session.certain_answers("q1"))
    return time.perf_counter() - started, answers


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_serving_scaling(benchmark, shards):
    # CI's smoke run passes --benchmark-disable: the stream still executes
    # (and the curve test still checks answer equivalence), but wall-clock
    # assertions are reserved for real, timed benchmark runs on an
    # otherwise idle machine.
    if not getattr(benchmark, "enabled", True):
        _timing_asserted["enabled"] = False

    def run():
        elapsed, answers = _serve_stream(shards)
        _shard_runs[shards] = (elapsed, answers)
        return answers

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_sharded_scaling_curve_and_equivalence():
    """Identical answers at every shard count; timed runs also gate the
    4-shard speedup at ``REQUIRED_SPEEDUP``."""
    if set(SHARD_COUNTS) - set(_shard_runs):
        pytest.skip("scaling runs did not execute")
    base_time, base_answers = _shard_runs[1]
    curve = {}
    for shards in SHARD_COUNTS:
        elapsed, answers = _shard_runs[shards]
        assert answers == base_answers, f"{shards}-shard answers diverge"
        curve[shards] = base_time / elapsed
    print(
        "\n[E-PAR] sharded serving stream: "
        + ", ".join(
            f"{shards} shards {_shard_runs[shards][0]:.2f}s "
            f"({curve[shards]:.2f}x)"
            for shards in SHARD_COUNTS
        )
    )
    if _timing_asserted["enabled"]:
        assert curve[4] >= REQUIRED_SPEEDUP, (
            f"4-shard serving only {curve[4]:.2f}x over 1-shard "
            f"(required {REQUIRED_SPEEDUP}x)"
        )
