"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-chaos --seed 1 \\
        --seconds 27 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the host block, sample counts and the digest of the
run's simulated results.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones.

Every process runs from source (``src/``) with a fresh
``REPRO_CACHE_DIR`` of its own under ``.perfbench_runs/`` and with every
other ``REPRO_*`` variable removed from its environment, so the default
backend runs and nothing is read from ``.repro_cache/`` or an earlier
run.  The run directory is deleted at the end; traced runs keep their
spans under ``.perfbench_runs/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-grid", "fleet-chaos")

#: Fresh interpreters timed for ``setup_s`` (the last one continues into
#: the timed phase) and for ``restart_s``; see ``_reference_s``.
SETUP_RUNS = 3
RESTART_RUNS = 9

#: Calibration samples taken right before each child starts.
CALIBRATION_SAMPLES = 10

#: Wall-clock cap on one child process.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A child process failed; the run reports no result."""


def _child_env(cache_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing, so dict and set layouts repeat between runs.
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(role: str, args: argparse.Namespace, cache_dir: Path,
           out: Path, workers: int, spans: Optional[Path] = None,
           trace: Optional[int] = None) -> Tuple[float, Dict]:
    """Run one child; returns (seconds until READY, its JSON report).

    The report's ``calibration`` holds the loop samples taken here right
    before the child starts and those the child took right after READY,
    so they bracket the time until READY.
    """
    before = calibrate.samples(CALIBRATION_SAMPLES)
    cmd = [
        sys.executable, str(HERE / "child.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace if trace is None else trace),
        "--workers", str(workers), "--out", str(out),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    # Its own session, so the watchdog can kill the child together with
    # any sweep workers it forked (they hold its stdout open too).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            env=_child_env(cache_dir), cwd=str(ROOT),
                            start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc,))
    watchdog.start()
    ready: Optional[float] = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == b"READY":
                ready = time.perf_counter() - start
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError("%s child exited with code %s" % (role, code))
    report = json.loads(out.read_text())
    report["calibration"] = before + report["calibration"]
    return ready, report


def _host_block(workers: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "backend": "default (REPRO_SIM_BACKEND unset)",
        "workers": workers,
    }


def _reference_s(runs: List[Tuple[float, Dict]]) -> float:
    """Time to READY, each scaled by its own bracketing samples.

    The host's speed can change between one restart and the next, so
    each process gets its own factor.  The mean of all but the fastest
    and the slowest process (for three processes, the median) damps both
    the noise of each factor's few samples and a process caught by a
    stall.
    """
    scaled = sorted(ready * calibrate.factor(report["calibration"])
                    for ready, report in runs)
    return statistics.fmean(scaled[1:-1])


def _end_to_end(setups: List[Tuple[float, Dict]],
                restarts: List[Tuple[float, Dict]],
                main: Dict) -> Dict[str, float]:
    """The end-to-end metrics; host times in reference seconds.

    Each host time is scaled by calibration samples taken next to it:
    set-up and restart times by the samples around those processes, an
    operation's host time by those within a few seconds of it (see
    ``child.py``).  The host's speed moves within seconds, so a factor
    for the whole run would not fit any one of them.
    """
    timed, sim = main["timed"], main["sim"]
    attempted = timed["attempted"]
    return {
        "setup_s": _reference_s(setups),
        "restart_s": _reference_s(restarts),
        "sim_s_per_s": timed["sim_s_per_s_ref"],
        "op_s_gmean": timed["op_s_gmean_ref"],
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": (attempted - timed["failed"]) / attempted,
        "fg_deadline_met": sim["fg_deadline_met"],
        "fg_time_p95_rel": sim["fg_time_p95_rel"],
        "bg_gips": sim["bg_gips"],
    }


def run(args: argparse.Namespace) -> Tuple[Dict, Dict[str, float], List[str]]:
    """Execute the workload; returns (main report, metrics, info lines)."""
    workers = max(1, min(2, os.cpu_count() or 1))
    runs_root = ROOT / ".perfbench_runs"
    run_dir = runs_root / ("%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    info = ["host %s" % json.dumps(_host_block(workers))]
    try:
        # Restarts read a directory that only set-up filled: its contents
        # are fixed by the seed, while a main run's also depend on how
        # many operations the host managed in the timed phase.
        setup_cache = run_dir / "cache0"
        setups = [_spawn("setup", args, setup_cache, run_dir / "setup0.json",
                         workers, trace=0)]
        if args.trace:
            spans = runs_root / "traces" / ("%s-s%d" % (
                args.workload, args.seed))
            _, main = _spawn("main", args, run_dir / "cache-main",
                             run_dir / "main.json", workers, spans=spans)
            _, restart = _spawn("restart", args, setup_cache,
                                run_dir / "restart.json", workers)
            from layers import layer_metrics

            metrics = layer_metrics(main, restart)
            info.append("spans %d written to %s.*" % (main["spans"], spans))
        else:
            for index in range(1, SETUP_RUNS - 1):
                cache = run_dir / ("cache%d" % index)
                setups.append(_spawn("setup", args, cache, run_dir / (
                    "setup%d.json" % index), workers))
            main_run = _spawn("main", args, run_dir / "cache-main",
                              run_dir / "main.json", workers)
            setups.append(main_run)
            main = main_run[1]
            restarts = [
                _spawn("restart", args, setup_cache,
                       run_dir / ("restart%d.json" % index), workers)
                for index in range(RESTART_RUNS)
            ]
            metrics = _end_to_end(setups, restarts, main)
            info.append("raw setup_s samples %s" % _fmt(
                [ready for ready, _ in setups]))
            info.append("raw restart_s samples %s" % _fmt(
                [ready for ready, _ in restarts]))
            info.append("raw op_s_gmean %.4f, raw sim_s_per_s %.3f" % (
                main["timed"]["op_s_gmean"], main["timed"]["sim_s_per_s"]))
            info.append("calibration loop median %.2f ms in the timed phase "
                        "(reference %.2f ms)" % (
                            1e3 * main["timed"]["loop_s_p50"],
                            1e3 * calibrate.REFERENCE_S))
        timed, sim = main["timed"], main["sim"]
        info.append("op_s_gmean over %d operations (%d in the fixed "
                    "prefix)" % (timed["attempted"], sim["ops"]))
        info.append("simulated metrics over the first %d operations: %d FG "
                    "executions, %d beyond the p95" % (
                        sim["ops"], sim["fg_executions"], sim["beyond_p95"]))
        info.append("digest %s" % sim["digest"])
        gate = main["gate"]
        info.append("scalar gate on %s seed %s: %s" % (
            gate.get("op"), gate.get("seed"), gate["detail"]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return main, metrics, info


def _fmt(values: List[float]) -> str:
    return "[%s]" % ", ".join("%.3f" % v for v in values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        main_report, metrics, info = run(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for line in info:
        print(line)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    timed = main_report["timed"]
    correct = bool(main_report["gate"]["ok"])
    print(json.dumps({
        "correct": correct,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
