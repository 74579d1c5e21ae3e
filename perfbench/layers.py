"""Outside-in layer attribution for the benchmark's traced runs.

The library emits spans only at its service, planner and engine layers, so
the traced run does not rely on them.  Instead :class:`Tracer` wraps each
layer's public entry points from here, keeps a call stack, and charges every
wrapped call its *self* time: the busy time of the call minus the busy time
of the wrapped calls nested inside it.  Time spent outside every wrapped
call is reported as unattributed.  Counters the library already exports
through :mod:`repro.obs` (join plans, solver decisions, DRed counts) are read
from a :class:`repro.obs.telemetry.Telemetry` recorder installed beside the
wrappers.

Busy time is process CPU time (``time.process_time``): the benchmark process
is single-threaded, so CPU time is what a layer costs the one thread, and it
does not charge a layer for the host descheduling the process.

A function imported by name into another module (``execute_join``,
``plan_program``, ``vet_program`` ...) is patched in every ``repro`` module
that holds it, so no caller reaches the unwrapped original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import types
from collections import defaultdict

clock = time.process_time


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (the convention of ``repro.obs``)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


#: (layer, module, attribute) for every wrapped boundary.  An attribute
#: ``Class.method`` is patched on the class; a bare name is patched in every
#: ``repro`` module that imported it.
BOUNDARIES = (
    ("translations", "repro.translations.alc_ucq_mddlog", "alc_ucq_to_mddlog"),
    ("dl", "repro.dl.reasoner", "TypeSystem.__init__"),
    ("dl", "repro.dl.reasoner", "TypeSystem.all_types"),
    ("dl", "repro.dl.reasoner", "TypeSystem.compatible"),
    ("dl", "repro.dl.reasoner", "TypeSystem.good_types"),
    ("dl", "repro.dl.reasoner", "AboxTypeAssignment.__init__"),
    ("dl", "repro.dl.reasoner", "AboxTypeAssignment.assignments"),
    ("dl", "repro.dl.reasoner", "AboxTypeAssignment.exists"),
    ("omq.forest", "repro.omq.forest", "ForestEngine.__init__"),
    ("omq.forest", "repro.omq.forest", "ForestEngine.certain_answers"),
    ("omq.atomic", "repro.omq.atomic", "AtomicEngine.__init__"),
    ("omq.atomic", "repro.omq.atomic", "AtomicEngine.certain_answers"),
    ("core.homomorphism", "repro.core.homomorphism", "HomomorphismSearch.__init__"),
    ("core.homomorphism", "repro.core.homomorphism", "HomomorphismSearch.solve"),
    ("core.homomorphism", "repro.core.homomorphism", "HomomorphismSearch.all"),
    ("analysis", "repro.analysis.checks", "vet_program"),
    ("planner.plan", "repro.planner.plan", "plan_program"),
    ("planner.plan", "repro.planner.plan", "PlanCache.intern"),
    ("planner.tier0", "repro.planner.execute", "ucq_certain_answers"),
    ("service.delta.grounder", "repro.service.delta", "DeltaGrounder.__init__"),
    ("service.delta.grounder", "repro.service.delta", "DeltaGrounder.insert"),
    ("service.delta.fixpoint", "repro.service.delta", "IncrementalFixpoint.__init__"),
    ("service.delta.fixpoint", "repro.service.delta", "IncrementalFixpoint.insert"),
    ("service.delta.fixpoint", "repro.service.delta", "IncrementalFixpoint.delete"),
    ("datalog", "repro.datalog.plain", "DatalogProgram.least_fixpoint"),
    ("engine.joins", "repro.engine.joins", "execute_join"),
    ("engine.joins", "repro.engine.joins", "join_exists"),
    ("engine.sat", "repro.engine.sat", "ClauseSolver.solve"),
    ("engine.sat", "repro.engine.sat", "ClauseSolver.add_clause"),
    ("service.session", "repro.service.session", "ObdaSession.__init__"),
    ("service.session", "repro.service.session", "ObdaSession.insert_facts"),
    ("service.session", "repro.service.session", "ObdaSession.delete_facts"),
    ("service.session", "repro.service.session", "ObdaSession.certain_answers"),
    ("service.session", "repro.service.session", "SessionSnapshot.certain_answers"),
    ("service.frontend", "repro.service.frontend", "Frontend.register_tenant"),
    ("service.frontend", "repro.service.frontend", "Frontend.query"),
    ("service.frontend", "repro.service.frontend", "Frontend.insert"),
    ("service.frontend", "repro.service.frontend", "Frontend.delete"),
    ("service.frontend", "repro.service.frontend", "Frontend.drain"),
    # The group-commit flusher task and its synchronous flush: the frontend
    # runs them itself, not on behalf of any one request.
    ("service.frontend", "repro.service.frontend", "Frontend._flush_loop"),
    ("service.frontend", "repro.service.frontend", "Frontend._flush"),
    # One event-loop iteration: every task step nests inside it, so its self
    # time is the loop's own scheduling plus the load generator's steps.
    ("asyncio", "asyncio.base_events", "BaseEventLoop._run_once"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _module, _attr in BOUNDARIES))

#: Every per-layer figure of a traced run, with its unit.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "translations.rules": "count",
    "dl.compatible_calls": "count",
    "service.delta.clauses": "count",
    "service.delta.rederived_share": "share",
    "datalog.calls": "count",
    "engine.joins.plans": "count",
    "engine.joins.rows_per_plan": "rows",
    "engine.sat.solves": "count",
    "engine.sat.decisions": "count",
    "engine.sat.solves_per_candidate": "ratio",
    "service.frontend.read_wait_ms": "ms",
    "service.frontend.read_stall_ms": "ms",
    "service.frontend.read_eval_ms": "ms",
    "service.frontend.batch_ops": "ops",
    "service.frontend.generator_late_ms": "ms",
    "unattributed.self_s": "s",
    "attribution.coverage": "share",
    "tracing.overhead_share": "share",
}

_UPDATES = ["update_mean_ms", "update_tail_ms"]
_SAT = {"serve-table1": ["answer_mean_ms", "answer_tail_ms"]}
_FIXPOINT = {"frontend-rewritings": [*_UPDATES, "answer_tail_ms"]}
_GROUNDER = {"serve-table1": _UPDATES}
_READ_TAIL = {"frontend-rewritings": ["answer_tail_ms"]}
_DL = {
    "oneshot-table1": ["answer_mean_ms", "answer_tail_ms", *_UPDATES],
    "serve-table1": ["setup_s"],
}
_JOINS = {"serve-table1": _UPDATES, "frontend-rewritings": ["update_tail_ms"]}
#: The one-shot tail is each pass's slowest answer, Example 2.1 on the
#: forest engine; q1 and q2 (atomic engine) move only the mean.
_ATOMIC = {"oneshot-table1": ["answer_mean_ms"]}

#: The end-to-end metric(s) each per-layer figure should move, by workload.
MOVES = {
    "translations.self_s": {"oneshot-table1": _UPDATES, "serve-table1": ["setup_s"]},
    "translations.rules": {
        "oneshot-table1": _UPDATES,
        "serve-table1": ["setup_s", "update_mean_ms"],
    },
    "dl.self_s": _DL,
    "dl.compatible_calls": _DL,
    "omq.forest.self_s": {"oneshot-table1": ["answer_mean_ms", "answer_tail_ms"]},
    "omq.atomic.self_s": _ATOMIC,
    "core.homomorphism.self_s": _ATOMIC,
    "analysis.self_s": {"serve-table1": ["setup_s"]},
    "planner.plan.self_s": {"serve-table1": ["setup_s"], "frontend-rewritings": ["setup_s"]},
    "planner.tier0.self_s": {"frontend-rewritings": ["answer_mean_ms"]},
    "service.delta.grounder.self_s": _GROUNDER,
    "service.delta.clauses": _GROUNDER,
    "service.delta.fixpoint.self_s": _FIXPOINT,
    "service.delta.rederived_share": _FIXPOINT,
    "datalog.self_s": _READ_TAIL,
    "datalog.calls": _READ_TAIL,
    "engine.joins.self_s": _JOINS,
    "engine.joins.plans": _JOINS,
    "engine.joins.rows_per_plan": _JOINS,
    "engine.sat.self_s": _SAT,
    "engine.sat.solves": _SAT,
    "engine.sat.decisions": _SAT,
    "engine.sat.solves_per_candidate": _SAT,
    "service.session.self_s": {
        "serve-table1": ["answer_mean_ms", "update_mean_ms"],
        "frontend-rewritings": ["answer_mean_ms"],
    },
    "service.frontend.self_s": {"frontend-rewritings": ["setup_s", "answer_mean_ms"]},
    "asyncio.self_s": {"frontend-rewritings": ["answer_mean_ms", "update_mean_ms"]},
    "service.frontend.read_wait_ms": _READ_TAIL,
    "service.frontend.read_stall_ms": _READ_TAIL,
    "service.frontend.read_eval_ms": _READ_TAIL,
    "service.frontend.batch_ops": {"frontend-rewritings": ["answer_tail_ms", "update_tail_ms"]},
}

#: Boundaries each workload is meant to load: every one must fire in the
#: traced run (set-up included).
EXPECTED_CALLS = {
    "oneshot-table1": (
        "alc_ucq_to_mddlog",
        "TypeSystem.__init__",
        "TypeSystem.all_types",
        "TypeSystem.compatible",
        "TypeSystem.good_types",
        "AboxTypeAssignment.__init__",
        "AboxTypeAssignment.exists",
        "ForestEngine.certain_answers",
        "AtomicEngine.certain_answers",
        "HomomorphismSearch.solve",
    ),
    "serve-table1": (
        "alc_ucq_to_mddlog",
        "vet_program",
        "plan_program",
        "DeltaGrounder.__init__",
        "DeltaGrounder.insert",
        "IncrementalFixpoint.insert",
        "IncrementalFixpoint.delete",
        "DatalogProgram.least_fixpoint",
        "execute_join",
        "ClauseSolver.solve",
        "ClauseSolver.add_clause",
        "ObdaSession.insert_facts",
        "ObdaSession.delete_facts",
        "ObdaSession.certain_answers",
    ),
    "frontend-rewritings": (
        "Frontend.register_tenant",
        "PlanCache.intern",
        "plan_program",
        "ucq_certain_answers",
        "IncrementalFixpoint.insert",
        "IncrementalFixpoint.delete",
        "DatalogProgram.least_fixpoint",
        "execute_join",
        "ObdaSession.insert_facts",
        "ObdaSession.delete_facts",
        "SessionSnapshot.certain_answers",
        "Frontend.query",
        "Frontend.insert",
        "Frontend.delete",
    ),
}

#: (layer, phase) pairs that must read zero calls: the bypasses.  Phase
#: "all" includes set-up; "run" is the traced unit only.
BYPASSES = {
    "oneshot-table1": (("engine.sat", "all"),),
    "serve-table1": (("dl", "run"),),
    "frontend-rewritings": (("engine.sat", "all"), ("dl", "run")),
}

MIN_COVERAGE = 0.90


def _calls_in(layer: str, calls: dict) -> int:
    return sum(
        calls.get(attribute, 0) for name, _module, attribute in BOUNDARIES if name == layer
    )


def attribution_problems(workload: str, figures: dict, calls: dict, run_calls: dict) -> list:
    """Why a traced run's attribution cannot be trusted (empty when sound)."""
    problems = []
    coverage = figures["attribution.coverage"]
    if coverage < MIN_COVERAGE:
        problems.append(f"named layers cover {coverage:.1%} of busy time (< {MIN_COVERAGE:.0%})")
    problems.extend(
        f"{attribute} never fired"
        for attribute in EXPECTED_CALLS[workload]
        if not calls.get(attribute)
    )
    for layer, phase in BYPASSES[workload]:
        count = _calls_in(layer, calls if phase == "all" else run_calls)
        if count:
            where = "" if phase == "all" else " after set-up"
            problems.append(f"{layer} made {count} calls{where}, expected none")
    return problems


def report(workload: str, figures: dict) -> list:
    """Each per-layer figure next to the end-to-end metric it should move."""
    return [
        {
            "metric": name,
            "value": figures[name],
            "unit": unit,
            "moves": MOVES.get(name, {}).get(workload, []),
        }
        for name, unit in PER_LAYER_UNITS.items()
    ]


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Self-time attribution over the wrapped boundaries.

    ``self_s[layer]`` accumulates self busy seconds and ``calls[attribute]``
    counts calls per boundary.  ``observers[attribute]`` callbacks receive
    ``(busy_s, result)`` after each call of a synchronous boundary;
    ``counts`` holds what they tally.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.observers: dict[str, list] = defaultdict(list)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, layer: str, frame: list[float], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed

    def _wrap_function(self, layer: str, attribute: str, fn):
        calls = self.calls
        observers = self.observers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[attribute] += 1
            frame = self._enter()
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                self._leave(layer, frame, elapsed)
                for observer in observers.get(attribute, ()):
                    observer(elapsed, result)

        return wrapper

    def _wrap_generator(self, layer: str, attribute: str, fn):
        # Each resumption is one stack frame: the consumer's work between
        # two items belongs to the consumer, not to the generator's layer.
        calls = self.calls

        def timed(inner):
            try:
                while True:
                    frame = self._enter()
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(layer, frame, clock() - start)
                    yield item
            finally:
                inner.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[attribute] += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    def _wrap_coroutine(self, layer: str, attribute: str, fn):
        # Charged until the coroutine completes, not when it is created; each
        # step (one resumption up to its next suspension) is one stack frame,
        # so the layer is charged only while it holds the loop.
        calls = self.calls

        @types.coroutine
        def stepped(coroutine):
            value, error = None, None
            while True:
                frame = self._enter()
                start = clock()
                try:
                    if error is None:
                        suspended = coroutine.send(value)
                    else:
                        suspended = coroutine.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._leave(layer, frame, clock() - start)
                try:
                    value, error = (yield suspended), None
                except BaseException as raised:  # delivered to the coroutine
                    value, error = None, raised

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            calls[attribute] += 1
            return await stepped(fn(*args, **kwargs))

        return wrapper

    def _wrap(self, layer: str, attribute: str, fn):
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(layer, attribute, fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, attribute, fn)
        return self._wrap_function(layer, attribute, fn)

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary (the ``repro`` modules must be imported)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import every boundary module first: some are imported lazily by
        # the library, and a module loaded only after the scan below would
        # keep the unwrapped originals.
        owners = [importlib.import_module(module) for _layer, module, _attr in BOUNDARIES]
        modules = _repro_modules()
        for (layer, _module, attribute), module in zip(BOUNDARIES, owners):
            if "." in attribute:
                owner_name, name = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._patch(owner, name, self._wrap(layer, attribute, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, attribute, original)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, "__dict__")[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original, including copies imported while patched."""
        restore = {}
        for owner, name, original in reversed(self._patches):
            restore[id(owner.__dict__[name])] = original
            setattr(owner, name, original)
        self._patches.clear()
        for holder in _repro_modules():
            for name, value in list(vars(holder).items()):
                original = restore.get(id(value))
                if original is not None and value is not original:
                    setattr(holder, name, original)

    def attributed_s(self) -> float:
        return sum(self.self_s.values())
