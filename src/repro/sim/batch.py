"""Run-to-next-event batch execution engine for the simulated machine.

The scalar kernel (:meth:`repro.sim.machine.Machine.tick`) pays full
Python dispatch — gather, fixed point, counter writes, timer and
governor checks — for every tick, even across long stretches where
nothing discrete happens.  This module amortizes that overhead the way
batching amortizes per-step cost in inference engines: it computes an
**event horizon** — the earliest tick at which the machine's trajectory
can deviate from straight-line execution — and advances all ticks up to
that horizon as one *span*.

The horizon is the minimum of:

(a) the timer wheel's next deadline (:meth:`TimerWheel.next_deadline`),
    since firing callbacks can pause/resume processes, change DVFS
    grades, repartition the cache, or charge runtime overhead;
(b) the governor's next pending DVFS transition
    (:meth:`FrequencyGovernor.next_transition_tick`), since an applied
    grade changes every subsequent tick's frequency inputs;
(c) each running process's estimated ticks to its next phase boundary
    (``(phase_end - progress) / (ips * tick_s)``), since crossing one
    swaps the per-phase model inputs; and
(d) each FG task's estimated ticks to completion, since completions
    dispatch listeners (prediction bookkeeping, BG rotation) that may
    mutate arbitrary machine state.

Estimates (c) and (d) use the previous tick's progress rates, which
drift as cache occupancy and bandwidth contention evolve, so they bound
the span *heuristically*; correctness never depends on them.

**Two tiers.**  Each span runs on one of two backends:

1. a compiled kernel (:class:`repro.sim.spanplan.SpanPlan`), generated
   for the span's shape and bit-identical to the scalar reference.
   Every compiled tick re-checks, before mutating anything, that each
   process is still inside its gathered phase window, and handles FG
   completions with exactly the scalar kernel's logic, exiting the span
   whenever an event actually occurs.  Spans carrying stolen overhead
   time stay compiled: the stolen kernel variants peel the first tick.
2. :meth:`Machine.tick`, tick by tick, for the shapes the planner does
   not cover — an idle machine (no running process), overlapping cache
   masks, or a substituted jitter RNG.  This tier *is* the scalar
   reference, so it is bit-identical by construction.

Equivalence is enforced by ``tests/sim/test_batch_equivalence.py`` and
``tests/sim/test_spanplan.py``.

Backend selection is environment-driven: ``REPRO_SIM_BACKEND=scalar``
pins the reference per-tick loop, ``batch`` (the default) enables this
engine.  :class:`repro.sim.machine.Machine` also accepts an explicit
``backend=`` argument.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.config import ENV_BACKEND, env_backend
from repro.sim.process import STATE_RUNNING
from repro.sim.spanplan import SpanPlanner, SpanStats

#: Reference per-tick loop (bit-exact baseline pinned by
#: ``tests/sim/test_machine_perf_equivalence.py``).
BACKEND_SCALAR = "scalar"

#: Run-to-next-event batch engine (this module).
BACKEND_BATCH = "batch"

#: Multi-cell structure-of-arrays backend (:mod:`repro.sim.vector`).
#: A single machine under this backend advances through its batch
#: engine (bit-identical); the fused cell-axis kernels engage when a
#: :class:`repro.sim.vector.MultiCell` drives many machines at once.
BACKEND_VECTOR = "vector"

#: All recognized backends.
BACKENDS = (BACKEND_SCALAR, BACKEND_BATCH, BACKEND_VECTOR)

# ENV_BACKEND (re-exported from repro.sim.config) selects the backend.

#: Backend used when neither the environment nor the caller chooses.
DEFAULT_BACKEND = BACKEND_BATCH


def resolve_backend(override: Optional[str] = None) -> str:
    """Resolve the active simulation backend name.

    Precedence: the explicit ``override`` argument, then the
    ``REPRO_SIM_BACKEND`` environment variable, then
    :data:`DEFAULT_BACKEND`.

    Raises:
        ConfigurationError: if the requested backend is unknown.
    """
    name = override or env_backend() or DEFAULT_BACKEND
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ConfigurationError(
            "unknown simulation backend %r (expected one of %s)"
            % (name, ", ".join(BACKENDS))
        )
    return name


class BatchEngine:
    """Advances a :class:`~repro.sim.machine.Machine` span-by-span.

    The engine is a friend of the machine: it reads the same hoisted
    hot-path state (``_stolen_s``, ``_ips_prev``, ...) the scalar kernel
    uses, plus the public event peeks added for it
    (``timers.next_deadline()``, ``governor.next_transition_tick()``,
    ``clock.tick``).
    """

    def __init__(self, machine) -> None:
        self._m = machine
        #: Fast-path observability counters (see SpanStats).
        self.stats = SpanStats()
        self._planner = SpanPlanner(machine, self.stats)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_ticks(self, ticks: int) -> None:
        """Advance the machine by exactly ``ticks`` ticks."""
        m = self._m
        remaining = ticks
        while remaining > 0:
            horizon = self._horizon(remaining)
            if horizon < 1:
                # An event is due at the current tick (timer or DVFS
                # apply): run the start-of-tick preamble by itself, then
                # re-plan.  The tick itself stays on the span path.
                m.dispatch_events()
                horizon = self._horizon(remaining)
            if horizon >= 1:
                executed = self._dispatch_span(horizon)
                if executed:
                    remaining -= executed
                    continue
            # No span progress (an in-span guard tripped immediately, or
            # a timer callback scheduled work for this same tick): the
            # scalar kernel handles it — it is the semantic reference.
            m.tick()
            remaining -= 1

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------

    def _horizon(self, budget: int) -> int:
        """Ticks that can run before the next discrete event (estimate).

        Components (a) and (b) — timer deadlines and DVFS transitions —
        are exact; (c) and (d) — phase boundaries and FG completions —
        extrapolate the previous tick's progress rates and are verified
        tick-by-tick inside the span.
        """
        m = self._m
        now = m.clock.tick
        horizon = budget
        deadline = m.timers.next_deadline()
        if deadline is not None and deadline - now < horizon:
            horizon = deadline - now
        transition = m.governor.next_transition_tick()
        if transition is not None and transition - now < horizon:
            horizon = transition - now
        if horizon <= 1:
            return horizon
        dt = m.config.tick_s
        ips_prev = m._ips_prev
        for proc in m._procs_by_core:
            if proc is None or proc.state != STATE_RUNNING:
                continue
            step = ips_prev[proc.core] * dt
            if step <= 0.0:
                continue  # no rate estimate yet; the span guard covers it
            progress = proc.progress
            if proc.is_fg:
                if proc._phase_index != len(proc._spec.phases) - 1:
                    ticks_to_boundary = int(
                        (proc._phase_end - progress) / step
                    ) + 1
                    if ticks_to_boundary < horizon:
                        horizon = ticks_to_boundary
                to_target = proc._target_total - progress
                if to_target > 0:
                    ticks_to_completion = int(to_target / step) + 1
                    if ticks_to_completion < horizon:
                        horizon = ticks_to_completion
            else:
                # BG phase windows cover the *wrapped* offset; a phase
                # spanning the whole program never produces an event.
                total = proc._total
                if proc._phase_start > 0.0 or proc._phase_end < total:
                    offset = progress % total if progress >= total else progress
                    ticks_to_boundary = int(
                        (proc._phase_end - offset) / step
                    ) + 1
                    if ticks_to_boundary < horizon:
                        horizon = ticks_to_boundary
        return horizon

    # ------------------------------------------------------------------
    # Span dispatch
    # ------------------------------------------------------------------

    def _dispatch_span(self, span: int) -> int:
        """Run a span on a compiled kernel, else on ``Machine.tick``.

        Returns the ticks executed.  A compiled kernel may stop early
        (including at 0) when a phase boundary arrives sooner than
        estimated or an FG execution completes; the caller then runs
        the event tick on the scalar kernel.  Shapes without a plan run
        the whole span on the scalar kernel, which is the reference.
        """
        stats = self.stats
        stats.spans += 1
        m = self._m
        plan = self._planner.plan_for_span()
        if plan is not None:
            stats.compiled_spans += 1
            # Overhead is only charged during callbacks, which never
            # run mid-span, so exactly the span's first tick carries
            # stolen time: the stolen kernel variants peel that tick
            # and charge it scalar-style.
            return plan.run(span, any(m._stolen_s))
        tick = m.tick
        for _ in range(span):
            tick()
        return span
