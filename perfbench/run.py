"""Repository benchmark: Table 1 one-shot, Table 1 serving, frontend rewritings.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oneshot-table1 --seed 1 --seconds 30 --trace 0

Each run starts ``WORKERS`` worker processes one after another, each with
its own ``PYTHONHASHSEED`` from a fixed set, assigned by the workload seed
(set iteration order steers the solver and the type searches, so an
unpinned hash seed alone moves the amount of work done).  Every worker sets
up from a cold process and measures for its share of ``--seconds``; their
latency samples are pooled, and ``setup_s`` is the median of their set-up
times.  With
``--trace 1`` one worker runs the traced protocol of ``worker.py`` and the
metrics are the per-layer figures.

Every workload reports the same end-to-end metrics, over the operations
its user waits for: an *answer* returns certain answers, an *update*
changes what is served (``README.md`` says what each is per workload).
Every time is reported at a reference host speed (``hostspeed.py``): set-up
and closed-loop latencies are scaled by a probe read around them, and the
open loop's schedule is paced to the host's speed.

The last line of output is the result object; the line before it records
the run: hash seeds, the host-speed probe read before and after the run
(to tell a slow host from slow code), per-worker raw and scaled set-up,
scale factors, routing and sample counts, the workload's figures under
their own names, and, when traced, each per-layer figure next to the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from hostspeed import probe_s
from layers import percentile

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
#: Worker processes per untraced run.  Each has its own hash order and
#: names, which move the cost of a unit by a quarter or more (one Example
#: 2.1 answer takes from 0.7 to 1.7 s depending on the hash order), so the
#: closed loops get as many workers as their units allow: one one-shot pass
#: takes about 3 s and one serving stream about 6 s.  Each open-loop worker
#: runs two 5 s windows.
WORKERS = {"oneshot-table1": 10, "serve-table1": 5, "frontend-rewritings": 3}
WORKLOADS = tuple(WORKERS)
TIME_LIMIT_S = 170.0

#: Every end-to-end metric with its unit, reported on every workload.
METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answer_mean_ms": "ms",
    "answer_tail_ms": "ms",
    "update_mean_ms": "ms",
    "update_tail_ms": "ms",
}
#: The tail quantile of each workload's (answers, updates), taken per
#: window: the slowest of a one-shot pass's three answers (Example 2.1) and
#: three compiles, p90 of a stream's 100 queries and 58 or so inserts, p99 of
#: an open-loop window's 1,200 reads and p95 of its 300 writes.
TAIL = {
    "oneshot-table1": (1.0, 1.0),
    "serve-table1": (0.9, 0.9),
    "frontend-rewritings": (0.99, 0.95),
}
#: Workloads whose tails are the median over windows, not the mean.  A
#: closed-loop window is an independent draw of names and hash order, and a
#: run averages over those draws; an open-loop window's tail is decided by
#: its few worst stalls, and one window's stall episode must not decide
#: the run's.
MEDIAN_TAILS = {"frontend-rewritings"}


def hash_seed(workload: str, seed: int, index: int) -> int:
    """The ``PYTHONHASHSEED`` of worker ``index``.

    Every run of a workload uses the same set of hash seeds, one per worker,
    and the run seed assigns them to workers.  The hash seed alone moves one
    Example 2.1 answer from 0.7 to 1.7 s (the individuals' names move it by
    5%), so ten fresh hash seeds per run spread the one-shot answer metrics
    by 16-21% of their median from seed to seed; a fixed set keeps every run
    on the same hash orders, as a comparison between revisions needs.
    """
    slot = (seed + index) % WORKERS[workload]
    digest = hashlib.blake2b(f"{workload}:{slot}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def pool(windows: list[dict]) -> dict:
    pooled: dict[str, list] = {}
    for window in windows:
        for name, values in window.items():
            pooled.setdefault(name, []).extend(values)
    return pooled


def end_to_end(workload: str, windows: list[dict], results: list) -> dict:
    """The end-to-end metrics of one run.

    Central latency is a mean: the one-shot mix spans three queries a
    median would reduce to one.  A tail is taken per window at the
    workload's ``TAIL`` quantile, then combined over the run's windows.
    """
    samples = pool(windows)
    combine = statistics.median if workload in MEDIAN_TAILS else statistics.fmean
    answer_q, update_q = TAIL[workload]

    def tail(name: str, q: float) -> float:
        return combine(percentile(window[name], q) for window in windows)

    return {
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results),
        "answer_mean_ms": statistics.fmean(samples["answer_ms"]),
        "answer_tail_ms": tail("answer_ms", answer_q),
        "update_mean_ms": statistics.fmean(samples["update_ms"]),
        "update_tail_ms": tail("update_ms", update_q),
    }


def named_figures(workload: str, samples: dict) -> dict:
    """The workload's figures under the names its users know them by.

    Recorded beside the result, not bounded: the one-shot per-query
    medians, the stream's event rate and the generator's lateness have no
    counterpart on the other workloads.
    """
    answers, updates = samples["answer_ms"], samples["update_ms"]
    if workload == "oneshot-table1":
        figures = {
            f"answer_{query}_ms": (statistics.median(samples[f"answer_{query}_ms"]), "ms")
            for query in ("ex21", "q1", "q2")
        }
        figures["compile_ms"] = (statistics.median(updates), "ms")
    elif workload == "serve-table1":
        figures = {
            "query_p50_ms": (percentile(answers, 0.5), "ms"),
            "query_p90_ms": (percentile(answers, 0.9), "ms"),
            "insert_p50_ms": (percentile(updates, 0.5), "ms"),
            "delete_p50_ms": (percentile(samples["delete_ms"], 0.5), "ms"),
            "events_per_s": (sum(samples["events"]) / sum(samples["stream_s"]), "1/s"),
        }
    else:
        figures = {
            "read_p50_ms": (percentile(answers, 0.5), "ms"),
            "read_p99_ms": (percentile(answers, 0.99), "ms"),
            "write_p50_ms": (percentile(updates, 0.5), "ms"),
            "write_p99_ms": (percentile(updates, 0.99), "ms"),
            "generator_late_p99_ms": (percentile(samples["late_ms"], 0.99), "ms"),
        }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def run_worker(args, index: int, seconds: float, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(args.workload, args.seed, index))
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--index", str(index),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
    ]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker {index} exited with code {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["hash_seed"] = int(env["PYTHONHASHSEED"])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    before = probe_s()
    workers = WORKERS[args.workload]
    count = 1 if args.trace else workers
    try:
        results = [
            run_worker(args, index, args.seconds / workers, deadline) for index in range(count)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    after = probe_s()

    windows = [window for result in results for window in result["windows"]]
    samples = pool(windows)
    routing_errors = [error for result in results for error in result["routing_errors"]]
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "probe_s": {"before": before, "after": after},
        "samples": {name: len(values) for name, values in samples.items()},
        "failed_share": failed / attempted,
        "figures": named_figures(args.workload, samples),
        "workers": [
            {
                "windows": len(result["windows"]),
                **{
                    key: result.get(key)
                    for key in ("hash_seed", "setup_s", "setup_raw_s", "peak_rss_mb",
                                "attempted", "failed", "tiers", "routing_errors", "info")
                },
            }
            for result in results
        ],
    }
    correct = failed == 0 and not routing_errors
    if args.trace:
        figures = results[0]["layers"]
        problems = layers.attribution_problems(
            args.workload, figures, results[0]["calls"], results[0]["run_calls"]
        )
        correct = correct and not problems
        info["attribution_problems"] = problems
        info["layers"] = layers.report(args.workload, figures)
        metrics = {
            name: {"value": figures[name], "unit": unit}
            for name, unit in layers.PER_LAYER_UNITS.items()
        }
    else:
        values = end_to_end(args.workload, windows, results)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
    info["wall_s"] = time.monotonic() - started
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
