"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of each simulator layer from the
outside (class attributes and module functions are swapped for timing
wrappers while it is installed, and restored afterwards), so the
program itself carries no tracing code and untraced runs execute
exactly the shipped functions.

Every call through a wrapped entry point records one span
``(name, start, end, parent, operation)`` into flat in-memory arrays;
:meth:`Tracer.write` dumps them once at the end of the run.  Per-name
call counts, total time and self time (span time minus the time its
direct child spans cover) are accumulated on the fly, separately for
each phase of the run (set-up, traced operations).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class PhaseStats:
    """Call counts, total and self time per span name within one phase."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Free-form counters filled by ``after`` hooks.
        self.counters: Dict[str, float] = {}
        #: ``Machine.backend_stats()`` of every finished session.
        self.backend_stats: List[Dict[str, int]] = []
        #: Simulated seconds each finished session's machine ran.
        self.machine_s: float = 0.0

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value


class Tracer:
    """Records spans around wrapped entry points while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        #: Operation id stamped on new spans (-1 set-up, -2 restart).
        self.op = -1
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.phases: Dict[str, PhaseStats] = {}
        self.phase = self.begin_phase("setup")

    def begin_phase(self, name: str) -> PhaseStats:
        """Start accumulating aggregates under ``name``."""
        self.phase = self.phases.setdefault(name, PhaseStats())
        return self.phase

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self.names)
            self.names.append(name)
            self._name_ids[name] = ident
        return ident

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[PhaseStats, tuple, object], None]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` recording spans named ``name``.

        ``after(phase, args, result)`` runs once the span has closed, so
        its own cost lands in the caller's span, not in ``name``'s.
        """
        tracer = self
        ident = self._name_id(name)
        stack = self._stack
        names_a, start_a = self.span_name, self.span_start
        end_a, parent_a, op_a = self.span_end, self.span_parent, self.span_op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start_a)
            frame = [index, 0.0]
            names_a.append(ident)
            parent_a.append(int(stack[-1][0]) if stack else -1)
            op_a.append(tracer.op)
            end_a.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            start_a.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end_a[index] = t1
                spent = t1 - t0
                if stack:
                    stack[-1][1] += spent
                phase = tracer.phase
                phase.calls[name] = phase.calls.get(name, 0) + 1
                phase.total[name] = phase.total.get(name, 0.0) + spent
                phase.self_s[name] = (
                    phase.self_s.get(name, 0.0) + spent - frame[1]
                )
            if after is not None:
                after(tracer.phase, args, result)
            return result

        return traced

    def patch_method(self, cls: type, attr: str, name: str,
                     after=None) -> None:
        """Replace ``cls.attr`` by a traced wrapper until uninstall."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def patch_function(self, module, attr: str, name: str,
                       after=None) -> None:
        """Replace a module function everywhere it is bound by name.

        Modules that imported the function with ``from ... import``
        (the benchmark's own among them) hold their own reference, so
        every loaded module whose attribute is the same object gets the
        wrapper too.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, prefix: Path) -> None:
        """Write the spans as flat binary columns plus a JSON index.

        ``<prefix>.json`` names the columns and span names;
        ``<prefix>.<column>.bin`` holds each column in native byte order
        (``i`` = int32, ``d`` = float64), one entry per span.
        """
        prefix.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.span_name, "start": self.span_start,
            "end": self.span_end, "parent": self.span_parent,
            "op": self.span_op,
        }
        for column, values in columns.items():
            with open("%s.%s.bin" % (prefix, column), "wb") as handle:
                values.tofile(handle)
        index = {
            "spans": self.span_count,
            "names": self.names,
            "columns": {c: v.typecode for c, v in columns.items()},
            "byteorder": sys.byteorder,
            "op_ids": {"-1": "set-up", "-2": "restart",
                       ">=0": "traced operation index"},
        }
        Path("%s.json" % prefix).write_text(json.dumps(index, indent=1))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see perfbench/README.md)."""
    from repro.cluster.control import (
        FailoverDispatcher,
        FleetController,
        HeartbeatMonitor,
    )
    from repro.cluster.dispatch import Cluster
    from repro.core.coarse import CoarseGrainController
    from repro.core.fine import FineGrainController
    from repro.core.predictor import CompletionTimePredictor
    from repro.core.runtime import DirigentRuntime
    from repro.experiments import harness, parallel, transport
    from repro.experiments.diskcache import DiskCache
    from repro.experiments.harness import PolicySession
    from repro.sim import spanplan
    from repro.sim.batch import BatchEngine
    from repro.sim.spanplan import SpanPlan, SpanPlanner

    def session_done(phase: PhaseStats, args: tuple, result) -> None:
        machine = args[0].machine
        stats = machine.backend_stats()
        if stats is not None:
            phase.backend_stats.append(stats)
        phase.machine_s += machine.now()

    def run_ticks_args(phase: PhaseStats, args: tuple, result) -> None:
        phase.add("run_ticks_ticks", args[1])

    def cache_get(phase: PhaseStats, args: tuple, result) -> None:
        phase.add("diskcache_hits", 1 if result[0] else 0)

    def preloaded(phase: PhaseStats, args: tuple, result) -> None:
        phase.add("kernels_preloaded", result)

    t = tracer
    # sim.spanplan / sim.perf: span kernels and their planner.
    t.patch_method(SpanPlan, "run", "spanplan.run")
    t.patch_method(SpanPlanner, "plan_for_span", "spanplan.plan_for_span")
    t.patch_function(spanplan, "preload_kernels", "spanplan.preload_kernels",
                     preloaded)
    # sim.batch: the event-horizon engine.
    t.patch_method(BatchEngine, "run_ticks", "batch.run_ticks",
                   run_ticks_args)
    # core: the Dirigent runtime.
    t.patch_method(CompletionTimePredictor, "observe", "predictor.observe")
    t.patch_method(CompletionTimePredictor, "predict", "predictor.predict")
    t.patch_method(FineGrainController, "decide", "fine.decide")
    t.patch_method(CoarseGrainController, "on_execution",
                   "coarse.on_execution")
    t.patch_method(DirigentRuntime, "on_fg_completion",
                   "runtime.on_fg_completion")
    t.patch_method(DirigentRuntime, "_on_wakeup", "runtime.wakeup")
    # experiments.harness / experiments.diskcache: sessions and caches.
    t.patch_method(PolicySession, "advance", "harness.advance")
    t.patch_method(PolicySession, "tick", "harness.tick")
    t.patch_method(PolicySession, "result", "harness.result", session_done)
    t.patch_function(harness, "measure_baseline", "harness.measure_baseline")
    t.patch_function(harness, "get_profile", "harness.get_profile")
    t.patch_function(harness, "find_static_partition",
                     "harness.find_static_partition")
    t.patch_method(DiskCache, "get", "diskcache.get", cache_get)
    t.patch_method(DiskCache, "put", "diskcache.put")
    # experiments.parallel: the parent side of a sweep (workers are
    # forked untraced; see child.py).
    t.patch_function(parallel, "run_grid", "parallel.run_grid")
    t.patch_function(transport, "decode_pack", "parallel.decode_pack")
    # cluster / faults.fleet: the fleet control plane.
    t.patch_method(Cluster, "run", "cluster.run")
    t.patch_method(FleetController, "run", "control.run")
    t.patch_method(HeartbeatMonitor, "beat", "control.beat")
    t.patch_method(FailoverDispatcher, "try_place", "control.try_place")
