"""One benchmark process: set-up, restart, or the measured main run.

Started by ``perfbench/run.py`` as a fresh interpreter with its own
``REPRO_CACHE_DIR``.  It prints ``READY`` on its standard output the
moment its prerequisites are in place (the parent times set-up and
restart up to that line) and writes everything it measured as JSON to
the ``--out`` file.

Roles:

* ``setup``: imports, kernel generation, the workload's prerequisites
  and one warm-up operation per distinct mix or scenario; then exits.
* ``restart``: on a cache directory a ``setup`` run filled, reloads the
  prerequisites (kernels through ``spanplan.preload_kernels()``,
  profiles and deadlines from the disk cache, the worker pool).
* ``main``: set-up as above, then the timed phase, then (with
  ``--trace 1``) the same number of rounds again with tracing on, then
  the scalar correctness gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate
import tracing
from layers import percentile
from workloads import Workload, make_workload, op_seed

perf_counter = time.perf_counter

#: Calibration samples taken right after READY (and, in the main run,
#: after the timed phase too).
CALIBRATION_SAMPLES = 10

#: Share of the timed phase spent on calibration samples: before each
#: operation, samples run for this share of the previous operation's
#: time (at least one), so they follow the host's speed through the phase.
CALIBRATION_DUTY = 0.05

#: An operation's host time is scaled by the median of the calibration
#: samples taken from this many seconds before it starts until this many
#: seconds after it ends: the host's speed moves within seconds.
CALIBRATION_WINDOW_S = 2.0


def _ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def _tree_bytes(root: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def _stop_pool() -> None:
    """Retire the sweep pool and wait for every worker to exit."""
    from repro.experiments.parallel import shutdown_pool

    shutdown_pool()
    for child in multiprocessing.active_children():
        child.join(60)


def _setup(workload: Workload) -> None:
    from repro.sim.spanplan import preload_kernels

    preload_kernels()
    workload.prepare()
    workload.warmup()


def _run_phase(workload: Workload, phase: str, min_rounds: int,
               seconds: float, tracer: Optional[tracing.Tracer] = None,
               loop_times: Optional[List[Tuple[float, float]]] = None):
    """Run ``min_rounds`` rounds, then more while they fit in ``seconds``.

    A further round starts only if, at the mean round time so far, it
    would end within half a round of ``seconds``, so that a phase of
    long rounds overruns ``seconds`` about as often as it falls short.
    Returns the ops, each ``(desc, seed, result or None, host seconds,
    start time)``.  An operation that raises is recorded with a None
    result and its traceback goes to standard error.  With
    ``loop_times``, stamped calibration samples are appended before each
    operation (see ``CALIBRATION_DUTY``).
    """
    ops = []
    start = perf_counter()
    rounds = 0
    while (rounds < min_rounds or (perf_counter() - start) * (rounds + 0.5)
           <= seconds * rounds):
        for desc in workload.round_ops():
            if loop_times is not None:
                budget = CALIBRATION_DUTY * (ops[-1][3] if ops else 0.0)
                loop_times.extend(calibrate.stamped_samples(budget))
            seed = op_seed(workload.seed, phase, len(ops))
            if tracer is not None:
                tracer.op = len(ops)
            t0 = perf_counter()
            try:
                result = workload.run(desc, seed)
            except Exception:  # counted in the run's failures
                traceback.print_exc()
                result = None
            ops.append((desc, seed, result, perf_counter() - t0, t0))
        rounds += 1
    return ops


def _sim_summary(workload: Workload, ops) -> Dict[str, object]:
    """Simulated metrics and digest over the first ``min_rounds`` rounds."""
    prefix = ops[:workload.min_rounds * len(workload.round_ops())]
    rel: List[float] = []
    met = 0.0
    total = 0
    bg: List[float] = []
    digest = hashlib.sha256()
    for desc, seed, result, *_ in prefix:
        if result is None:
            continue
        sim = workload.sim(desc, result)
        rel.extend(sim.rel_times)
        met += sim.met
        total += sim.total
        bg.append(sim.bg_ips)
        digest.update(("%d|" % seed).encode())
        digest.update(workload.fingerprint(result).encode("utf-8"))
    return {
        "fg_deadline_met": met / total if total else 0.0,
        "fg_time_p95_rel": percentile(rel, 95),
        "fg_executions": len(rel),
        "beyond_p95": sum(1 for r in rel if r > percentile(rel, 95)),
        "bg_gips": sum(bg) / len(bg) / 1e9 if bg else 0.0,
        "digest": digest.hexdigest(),
        "ops": len(prefix),
    }


def _host_figures(workload: Workload, ops,
                  times: Sequence[float]) -> Tuple[float, float]:
    """``(op_s_gmean, sim_s_per_s)`` of ``ops`` taking ``times`` seconds.

    Both are geometric means over the operations: of host seconds, and of
    simulated seconds per host second.  A phase holds whole rounds, so
    every kind of operation (a fleet scenario, say) counts alike however
    much it costs.  Failed operations are left out (both read 0.0 if
    every operation failed).
    """
    logs_spent: List[float] = []
    logs_rate: List[float] = []
    for (desc, _, result, *_), host in zip(ops, times):
        if result is None:
            continue
        logs_spent.append(math.log(host))
        logs_rate.append(math.log(workload.sim(desc, result).elapsed_s / host))
    if not logs_spent:
        return 0.0, 0.0
    return (math.exp(statistics.fmean(logs_spent)),
            math.exp(statistics.fmean(logs_rate)))


def _reference_times(ops, loop_times: Sequence[Tuple[float, float]]
                     ) -> List[float]:
    """Each operation's host time in reference seconds.

    The scale is the median of the calibration samples within
    ``CALIBRATION_WINDOW_S`` of the operation (the samples just before
    and just after it at least).
    """
    times = []
    for *_, host, start in ops:
        window = [dt for t, dt in loop_times
                  if start - CALIBRATION_WINDOW_S <= t
                  <= start + host + CALIBRATION_WINDOW_S]
        times.append(host * calibrate.factor(window))
    return times


def _host_summary(workload: Workload, ops,
                  loop_times: Optional[Sequence[Tuple[float, float]]] = None
                  ) -> Dict[str, object]:
    """Host-time figures of a phase, in reference seconds too if calibrated."""
    failed = 0
    for desc, _, result, *_ in ops:
        if result is None:
            failed += 1
        else:
            failed += workload.sim(desc, result).failed_cells
    summary: Dict[str, object] = {
        "attempted": len(ops),
        "failed": failed,
        "ops_s": sum(op[3] for op in ops),
    }
    summary["op_s_gmean"], summary["sim_s_per_s"] = _host_figures(
        workload, ops, [op[3] for op in ops])
    if loop_times is not None:
        summary["op_s_gmean_ref"], summary["sim_s_per_s_ref"] = _host_figures(
            workload, ops, _reference_times(ops, loop_times))
        summary["loop_s_p50"] = statistics.median(dt for _, dt in loop_times)
    return summary


def _gate(workload: Workload, ops) -> Dict[str, object]:
    """Re-run one sampled operation of the fixed prefix on scalar."""
    prefix = ops[:workload.min_rounds * len(workload.round_ops())]
    desc, seed, result, *_ = prefix[workload.seed % len(prefix)]
    if result is None:
        return {"ok": False, "detail": "sampled operation failed"}
    mismatch = workload.gate(desc, seed, result)
    return {"ok": mismatch is None, "detail": mismatch or "identical",
            "seed": seed, "op": str(getattr(desc, "name", desc))}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (reaped) worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "restart", "main"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="path prefix for the traced run's spans")
    args = parser.parse_args(argv)

    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    workload = make_workload(args.workload, args.seed, args.workers)
    out: Dict[str, object] = {"role": args.role, "workload": args.workload}

    try:
        if args.role == "restart":
            if tracer is not None:
                tracer.op = -2
                tracer.begin_phase("restart")
            from repro.sim.spanplan import preload_kernels

            preload_kernels()
            workload.restart()
            _ready()
            out["calibration"] = calibrate.samples(CALIBRATION_SAMPLES)
            if tracer is not None:
                tracer.uninstall()
                out["restart_phase"] = _phase_dict(tracer.phases["restart"])
                out["sweep_counters"] = _sweep_counters()
            return _finish(out, args.out)

        bytes_before = _tree_bytes(cache_dir)
        _setup(workload)
        out["setup_put_bytes"] = _tree_bytes(cache_dir) - bytes_before
        if tracer is not None:
            tracer.uninstall()
            out["setup_phase"] = _phase_dict(tracer.phases["setup"])
            if workload.uses_pool:
                # The set-up pool was forked with the wrappers in place;
                # respawn it untraced so sweep workers stay untraced.
                _stop_pool()
                workload.restart()
        _ready()
        loop_times = [stamped for _ in range(CALIBRATION_SAMPLES)
                      for stamped in calibrate.stamped_samples(0.0)]
        out["calibration"] = [seconds for _, seconds in loop_times]
        if args.role == "setup":
            return _finish(out, args.out)

        ops = _run_phase(workload, "timed", workload.min_rounds,
                         args.seconds, loop_times=loop_times)
        for _ in range(CALIBRATION_SAMPLES):
            loop_times.extend(calibrate.stamped_samples(0.0))
        out["timed"] = _host_summary(workload, ops, loop_times)
        out["sim"] = _sim_summary(workload, ops)
        if tracer is not None:
            from repro.sim.perf import solver_table_stats

            rounds = len(ops) // len(workload.round_ops())
            before = _tree_bytes(cache_dir)
            tables_before = solver_table_stats()
            tracer.begin_phase("traced")
            tracing.install(tracer)
            traced_ops = _run_phase(
                workload, "traced", rounds, 0.0, tracer)
            tracer.uninstall()
            tables_after = solver_table_stats()
            out["traced"] = _host_summary(workload, traced_ops)
            out["traced"]["put_bytes"] = _tree_bytes(cache_dir) - before
            out["traced"]["solver_tables"] = {
                k: tables_after[k] - tables_before[k] for k in tables_after}
            out["traced_phase"] = _phase_dict(tracer.phases["traced"])
            out["traced_results"] = _result_counters(workload, traced_ops)
            if args.spans:
                tracer.write(Path(args.spans))
            out["spans"] = tracer.span_count
        out["gate"] = _gate(workload, ops)
    finally:
        _stop_pool()
    out["peak_rss_mb"] = _peak_rss_mb()
    return _finish(out, args.out)


def _finish(out: Dict[str, object], path: str) -> int:
    Path(path).write_text(json.dumps(out))
    return 0


def _phase_dict(phase: tracing.PhaseStats) -> Dict[str, object]:
    keys = ("spans", "compiled_spans", "generic_spans", "compiled_ticks",
            "stationary_ticks", "memo_hits", "memo_misses", "plan_builds",
            "plan_reuses", "kernels_compiled", "rho_iterations")
    backend = {k: sum(s.get(k, 0) for s in phase.backend_stats)
               for k in keys}
    return {
        "calls": phase.calls, "total": phase.total, "self": phase.self_s,
        "counters": phase.counters, "backend": backend,
        "machine_s": phase.machine_s,
    }


def _sweep_counters() -> Dict[str, float]:
    from repro.experiments.parallel import last_sweep

    sweep = last_sweep()
    if sweep is None:
        return {}
    return {"kernels_preloaded": sweep.kernels_preloaded,
            "kernel_disk_hits": sweep.kernel_disk_hits}


def _result_counters(workload: Workload, ops) -> Dict[str, object]:
    """Layer counters carried by the traced operations' results."""
    from repro.cluster.dispatch import ClusterResult
    from repro.experiments.harness import RunResult
    from repro.experiments.parallel import SweepResult

    errors: List[float] = []
    repartitions = 0
    sweep = {"busy_s": 0.0, "capacity_s": 0.0, "prepare_s": 0.0,
             "ipc_bytes": 0, "steals": 0, "packs_split": 0,
             "pack_count": 0, "retried": 0, "failed": 0}
    fleet = {"failovers": 0, "retries": 0, "stranded": 0, "injected": 0,
             "ttd_s": [], "ttr_s": []}

    def run_counters(result: RunResult) -> None:
        nonlocal repartitions
        for log in result.prediction_logs:
            errors.extend(record.relative_error for record in log)
        history = result.partition_history
        repartitions += sum(
            1 for a, b in zip(history, history[1:]) if a != b)

    for _, _, result, *_ in ops:
        if isinstance(result, RunResult):
            run_counters(result)
        elif isinstance(result, SweepResult):
            sweep["busy_s"] += (sum(result.cell_timings.values())
                                + sum(result.prepare_timings.values()))
            sweep["capacity_s"] += result.workers * result.elapsed_s
            sweep["prepare_s"] += sum(result.prepare_timings.values())
            sweep["ipc_bytes"] += result.ipc_bytes
            sweep["steals"] += result.steals
            sweep["packs_split"] += result.packs_split
            sweep["pack_count"] += len(result.pack_sizes)
            sweep["retried"] += result.retried
            sweep["failed"] += result.failed
        elif isinstance(result, ClusterResult):
            for node in result.node_results.values():
                run_counters(node)
            fleet["failovers"] += result.failovers
            fleet["retries"] += result.failover_retries
            fleet["stranded"] += result.stranded_executions
            if result.fleet_report is not None:
                fleet["injected"] += result.fleet_report.total_injected
            fleet["ttd_s"].extend(result.time_to_detection_s)
            fleet["ttr_s"].extend(result.time_to_recovery_s)
    return {"prediction_errors": errors, "repartitions": repartitions,
            "sweep": sweep, "fleet": fleet}


if __name__ == "__main__":
    sys.exit(main())
