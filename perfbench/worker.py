"""One benchmark worker process: set-up, measured units, output checks.

Started by ``run.py`` with ``PYTHONHASHSEED`` pinned and ``src`` on
``PYTHONPATH``; prints one JSON object as its last line of output.

Untraced (``--trace 0``): set up, then run whole units of a closed-loop
workload until the next one would overrun ``--seconds`` (at least one
unit), or split ``--seconds`` into the open loop's windows, then check every
recorded output.  Each unit's latency samples are returned as one window,
so ``run.py`` can take tails per window.

Traced (``--trace 1``): set up under the tracer, then run three units from
the same random state — untraced, traced, untraced — so the tracing
overhead is the traced unit's busy time over the mean of the two untraced
ones.  Per-layer figures cover the traced set-up and the traced unit: a
fixed amount of work, comparable across revisions.
"""

from __future__ import annotations

import time

import hostspeed

#: Read before anything else, so that set-up is scaled like every other
#: closed-loop time (``hostspeed.py`` imports only the standard library).
START_PROBE_S = hostspeed.probe_s()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.obs import telemetry  # noqa: E402

cpu = time.process_time


def settle() -> None:
    """Freeze the heap set-up built, as a long-running server does once warm.

    The cyclic collector's full passes then scan only what the measured
    operations allocate.  Without this, 20-35 ms full collections over the
    frontend's tenant heap land at random in a measured window and decide
    the p99 tails.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(workload, seconds: float) -> dict:
    workload.setup()
    setup_raw_s = time.perf_counter() - STARTED
    probe = statistics.fmean((START_PROBE_S, hostspeed.probe_s()))
    setup_s = setup_raw_s * hostspeed.REFERENCE_PROBE_S / probe
    settle()
    units = []
    started = time.perf_counter()
    while True:
        units.append(workload.unit(seconds / workload.windows))
        if len(units) == 1:
            # Read after one unit, not at the end: how many units a worker
            # fits in depends on the host's speed, and a later unit can
            # allocate its results while the previous ones are still held.
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - started
        if workload.open_loop:
            if len(units) == workload.windows:
                break
        elif elapsed * (len(units) + 1) / len(units) > seconds:
            break
    return {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "peak_rss_mb": rss, "windows": units}


class _Traced:
    """The tracer plus the ``repro.obs`` recorder, switched on together."""

    def __init__(self) -> None:
        self.tracer = layers.Tracer()
        self.recorder = telemetry.Telemetry()

    def __enter__(self):
        self.tracer.install()
        telemetry.install(self.recorder)
        self.busy = cpu()
        return self

    def __exit__(self, *exc) -> None:
        self.busy = cpu() - self.busy
        telemetry.uninstall()
        self.tracer.uninstall()


def traced_run(workload, seconds: float) -> dict:
    traced = _Traced()
    tracer = traced.tracer

    def count_rules(_busy, program) -> None:
        tracer.counts["translations.rules"] += len(program.rules)

    def charge_read(busy: float, _answers) -> None:
        request = workloads.CURRENT_READ.get()
        if request is not None:
            request.eval_s += busy

    tracer.observers["alc_ucq_to_mddlog"].append(count_rules)
    tracer.observers["SessionSnapshot.certain_answers"].append(charge_read)

    with traced:
        workload.setup()
    settle()
    setup_busy = traced.busy
    setup_calls = dict(tracer.calls)
    checkpoint = workload.checkpoint()

    def unit() -> tuple[dict, float]:
        workload.rewind(checkpoint)
        busy = cpu()
        samples = workload.unit(seconds)
        return samples, cpu() - busy

    first, first_busy = unit()
    with traced:
        middle, _ = unit()
    last, last_busy = unit()

    busy = setup_busy + traced.busy
    run_calls = {name: count - setup_calls.get(name, 0) for name, count in tracer.calls.items()}
    figures = layer_figures(traced, middle, busy)
    figures["tracing.overhead_share"] = traced.busy / statistics.fmean((first_busy, last_busy)) - 1
    return {
        "windows": [first, middle, last],
        "layers": figures,
        "calls": dict(tracer.calls),
        "run_calls": run_calls,
    }


def read_tail_split(reads: list) -> dict:
    """Mean queue wait, stall and evaluation of the reads at or above p99.

    Each read is ``[latency, wait, eval]`` in seconds: wait runs from the
    due time to the request task's first step, evaluation is the read's own
    snapshot evaluation, and the stall is the rest — time the read spent
    suspended while flushes and other requests held the event loop.
    """
    split = {"wait": 0.0, "stall": 0.0, "eval": 0.0}
    if not reads:
        return split
    cutoff = layers.percentile([latency for latency, _w, _e in reads], 0.99)
    tail = [read for read in reads if read[0] >= cutoff]
    for latency, wait, evaluation in tail:
        split["wait"] += wait
        split["eval"] += evaluation
        split["stall"] += latency - wait - evaluation
    return {part: total / len(tail) * 1e3 for part, total in split.items()}


def layer_figures(traced: _Traced, samples: dict, busy: float) -> dict:
    tracer, counter = traced.tracer, traced.recorder.counter
    figures = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) for layer in layers.LAYERS}
    attributed = tracer.attributed_s()
    figures["unattributed.self_s"] = busy - attributed
    figures["attribution.coverage"] = attributed / busy
    figures["translations.rules"] = tracer.counts["translations.rules"]
    figures["dl.compatible_calls"] = tracer.calls.get("TypeSystem.compatible", 0)
    figures["datalog.calls"] = tracer.calls.get("DatalogProgram.least_fixpoint", 0)
    figures["service.delta.clauses"] = counter("delta.clauses_emitted")
    overdeleted = counter("dred.overdeleted")
    figures["service.delta.rederived_share"] = (
        counter("dred.rederived") / overdeleted if overdeleted else 0.0
    )
    plans = counter("join.plans_executed")
    figures["engine.joins.plans"] = plans
    figures["engine.joins.rows_per_plan"] = counter("join.rows_in") / plans if plans else 0.0
    solves = counter("sat.solve_calls")
    candidates = sum(samples.get("candidates", ()))
    figures["engine.sat.solves"] = solves
    figures["engine.sat.decisions"] = counter("sat.decisions")
    figures["engine.sat.solves_per_candidate"] = solves / candidates if candidates else 0.0
    batch = traced.recorder.histograms.get("frontend.batch_size")
    figures["service.frontend.batch_ops"] = batch.mean if batch is not None else 0.0
    late = samples.get("late_ms")
    figures["service.frontend.generator_late_ms"] = (
        layers.percentile(late, 0.99) if late else 0.0
    )
    split = read_tail_split(samples.get("read_parts", []))
    figures.update({f"service.frontend.read_{part}_ms": ms for part, ms in split.items()})
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.index)
    if args.trace:
        result = traced_run(workload, args.seconds)
    else:
        result = untraced_run(workload, args.seconds)
    wrong = workload.verify()
    result.update(
        attempted=workload.attempted,
        failed=workload.failed + wrong,
        tiers=workload.tiers,
        routing_errors=workload.routing_errors,
        info=workload.info,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
