"""Per-layer metrics of the traced run, computed from the child reports.

Scopes (see ``perfbench/predictions.json`` for what each should move):

* ``.../op`` units: the traced phase, divided by its operation count;
* set-up metrics: the main process's set-up (``spanplan.kernels_compiled``,
  ``harness.baseline_s``/``profile_s``/``partition_s``,
  ``diskcache.put_s``/``put_bytes``);
* restart metrics: the traced restart process
  (``spanplan.preload_s``, ``diskcache.get_s``/``hit_ratio``,
  ``parallel.kernels_preloaded``/``kernel_disk_hits``);
* ratios are taken over the traced phase, 0.0 when nothing was counted.

Sweep workers run untraced; the ``parallel.*`` metrics come from the
``SweepResult`` counters the sweeps return.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Core entry points reported as ``<name>_calls`` and ``<name>_s``.
CORE_SPANS = (
    "predictor.observe",
    "predictor.predict",
    "fine.decide",
    "coarse.on_execution",
    "runtime.on_fg_completion",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(main: Dict, restart: Dict) -> Dict[str, float]:
    """Every per-layer metric, by name."""
    traced = main["traced"]
    phase = main["traced_phase"]
    setup = main["setup_phase"]
    rphase = restart["restart_phase"]
    n = traced["attempted"]
    calls, total, self_s = phase["calls"], phase["total"], phase["self"]
    backend, counters = phase["backend"], phase["counters"]
    results = main["traced_results"]
    sweep, fleet = results["sweep"], results["fleet"]
    tables = traced["solver_tables"]

    def per_op(value: float) -> float:
        return value / n

    m: Dict[str, float] = {}
    # sim.spanplan / sim.perf
    m["spanplan.run_s"] = per_op(self_s.get("spanplan.run", 0.0))
    m["spanplan.plan_s"] = per_op(total.get("spanplan.plan_for_span", 0.0))
    m["spanplan.plan_reuse_ratio"] = _ratio(
        backend["plan_reuses"], backend["plan_builds"] + backend["plan_reuses"])
    m["spanplan.ticks_per_span"] = _ratio(
        backend["compiled_ticks"], backend["compiled_spans"])
    m["spanplan.stationary_share"] = _ratio(
        backend["stationary_ticks"], backend["compiled_ticks"])
    m["spanplan.rho_iters_per_tick"] = _ratio(
        backend["rho_iterations"], backend["compiled_ticks"])
    hits = tables["penalty_hits"] + tables["output_hits"]
    m["perf.table_hit_ratio"] = _ratio(
        hits, hits + tables["penalty_builds"] + tables["output_builds"])
    m["perf.memo_hit_ratio"] = _ratio(
        backend["memo_hits"], backend["memo_hits"] + backend["memo_misses"])
    m["spanplan.kernels_compiled"] = (
        setup["counters"].get("kernels_preloaded", 0)
        + setup["backend"]["kernels_compiled"])
    m["spanplan.preload_s"] = rphase["total"].get(
        "spanplan.preload_kernels", 0.0)
    m["spanplan.generic_spans"] = per_op(backend["generic_spans"])
    # sim.batch
    m["batch.self_s"] = per_op(self_s.get("batch.run_ticks", 0.0))
    m["batch.spans_per_sim_s"] = _ratio(backend["spans"], phase["machine_s"])
    m["batch.scalar_ticks"] = per_op(
        counters.get("run_ticks_ticks", 0) - backend["compiled_ticks"])
    # core
    for name in CORE_SPANS:
        m[name + "_calls"] = per_op(calls.get(name, 0))
        m[name + "_s"] = per_op(total.get(name, 0.0))
    m["runtime.wakeup_s"] = per_op(self_s.get("runtime.wakeup", 0.0))
    errors = results["prediction_errors"]
    m["predictor.err_p50"] = percentile(errors, 50)
    m["predictor.err_p95"] = percentile(errors, 95)
    m["coarse.repartitions"] = per_op(results["repartitions"])
    # experiments.harness / experiments.diskcache
    m["harness.advance_self_s"] = per_op(self_s.get("harness.advance", 0.0))
    m["harness.tick_calls"] = per_op(calls.get("harness.tick", 0))
    m["harness.tick_s"] = per_op(total.get("harness.tick", 0.0))
    stotal = setup["total"]
    m["harness.baseline_s"] = stotal.get("harness.measure_baseline", 0.0)
    m["harness.profile_s"] = stotal.get("harness.get_profile", 0.0)
    m["harness.partition_s"] = stotal.get(
        "harness.find_static_partition", 0.0)
    m["diskcache.get_s"] = rphase["total"].get("diskcache.get", 0.0)
    m["diskcache.hit_ratio"] = _ratio(
        rphase["counters"].get("diskcache_hits", 0),
        rphase["calls"].get("diskcache.get", 0))
    m["diskcache.put_s"] = stotal.get("diskcache.put", 0.0)
    m["diskcache.put_bytes"] = main["setup_put_bytes"]
    m["diskcache.op_put_bytes"] = per_op(traced["put_bytes"])
    # experiments.parallel
    m["parallel.worker_util"] = _ratio(sweep["busy_s"], sweep["capacity_s"])
    m["parallel.prepare_s"] = per_op(sweep["prepare_s"])
    m["parallel.run_grid_self_s"] = per_op(self_s.get("parallel.run_grid", 0.0))
    m["parallel.decode_s"] = per_op(total.get("parallel.decode_pack", 0.0))
    for name in ("ipc_bytes", "steals", "packs_split", "pack_count",
                 "retried", "failed"):
        m["parallel." + name] = per_op(sweep[name])
    sweep_restart = restart.get("sweep_counters", {})
    m["parallel.kernels_preloaded"] = sweep_restart.get(
        "kernels_preloaded", 0)
    m["parallel.kernel_disk_hits"] = sweep_restart.get("kernel_disk_hits", 0)
    # cluster / faults.fleet
    m["control.self_s"] = per_op(
        self_s.get("control.run", 0.0) + self_s.get("cluster.run", 0.0))
    m["control.beats"] = per_op(calls.get("control.beat", 0))
    m["control.place_success_ratio"] = _ratio(
        fleet["failovers"], calls.get("control.try_place", 0))
    m["cluster.failovers"] = per_op(fleet["failovers"])
    m["cluster.retries"] = per_op(fleet["retries"])
    m["cluster.stranded"] = per_op(fleet["stranded"])
    m["cluster.ttd_ms_p50"] = 1000.0 * percentile(fleet["ttd_s"], 50)
    m["cluster.ttr_ms_p50"] = 1000.0 * percentile(fleet["ttr_s"], 50)
    m["faults.injected"] = per_op(fleet["injected"])
    # tracing overhead: traced minus untraced host time per operation
    untraced = main["timed"]
    traced_op = traced["ops_s"] / n
    untraced_op = untraced["ops_s"] / untraced["attempted"]
    m["trace.overhead_s"] = traced_op - untraced_op
    m["trace.overhead_ratio"] = _ratio(traced_op - untraced_op, untraced_op)
    m["trace.spans"] = per_op(main["spans"])
    return m
