"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

The end-to-end tests run ``sweep-grid`` three times at its minimum
length, about two minutes in all.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402  (needs the paths above)
import workloads  # noqa: E402
from workloads import FLEET_NODES, PHASES, op_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=300,
    )


def _run(workload: str, seed: int, trace: int):
    proc = _bench("--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def baseline_runs():
    """Two untraced runs and one traced run of sweep-grid at seed 3."""
    return [_run("sweep-grid", 3, 0), _run("sweep-grid", 3, 0),
            _run("sweep-grid", 3, 1)]


def test_every_metric_printed_with_its_unit(baseline_runs):
    for (_, result), kind in zip(baseline_runs, ("end_to_end", "end_to_end",
                                                 "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(baseline_runs):
    for _, result in baseline_runs[:2]:
        for name, value in result["metrics"].items():
            assert value["value"] > 0, name


def test_predictions_cover_every_per_layer_metric():
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert set(predictions["per_layer"]) == {
        m["name"] for m in SPEC["per_layer"]}
    assert set(predictions["workloads"]) == {
        w["name"] for w in SPEC["workloads"]}
    names = {m["name"] for m in SPEC["end_to_end"]} | {"none"}
    for entry in predictions["per_layer"].values():
        assert set(entry["moves"]) <= names
        assert set(entry["on"]) <= set(predictions["workloads"])


def test_simulated_metrics_and_digest_repeat_at_a_seed(baseline_runs):
    (lines_a, a), (lines_b, b) = baseline_runs[:2]
    for name in ("fg_deadline_met", "fg_time_p95_rel", "bg_gips"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    digest_a = [line for line in lines_a if line.startswith("digest ")]
    digest_b = [line for line in lines_b if line.startswith("digest ")]
    assert digest_a == digest_b and len(digest_a) == 1
    # Tracing wraps entry points from outside: simulated results match.
    traced_digest = [line for line in baseline_runs[2][0]
                     if line.startswith("digest ")]
    assert traced_digest == digest_a


def test_operation_seeds_never_repeat_or_overlap_the_warmup():
    for workload_seed in (0, 1, 7, 99_999, 123_456):
        seen = set()
        for phase in PHASES:
            for index in range(2000):
                base = op_seed(workload_seed, phase, index)
                # A fleet operation also uses base + node for its nodes.
                for node in range(FLEET_NODES):
                    assert base + node not in seen
                    seen.add(base + node)


def test_op_seed_rejects_indexes_past_its_block():
    with pytest.raises(ValueError):
        op_seed(1, "timed", 10**6)


def test_scalar_gate_catches_a_doctored_result(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    workload = workloads.SweepWorkload(5, 1)
    workload.mixes = workload.mixes[1:]  # fluidanimate: the cheapest
    seed = op_seed(5, "timed", 0)
    result = workload.run("grid", seed)
    assert workload.gate("grid", seed, result) is None
    # The cell the gate re-runs, with one simulated figure changed.
    key = sorted(result.results)[workload.seed % len(result.results)]
    cell = result.results[key]
    doctored = dataclasses.replace(result, results={
        **result.results,
        key: dataclasses.replace(cell, bg_instr=cell.bg_instr + 1.0),
    })
    assert workload.gate("grid", seed, doctored) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep-grid", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_seconds_scale_with_the_calibration_loop():
    assert calibrate.factor([calibrate.REFERENCE_S]) == 1.0
    slow = [2 * calibrate.REFERENCE_S] * 3
    assert calibrate.factor(slow) == 0.5
    assert calibrate.sample() > 0
    assert len(calibrate.stamped_samples(0.0)) == 1
    assert len(calibrate.stamped_samples(5 * calibrate.sample())) >= 2


def test_process_times_are_scaled_one_by_one_and_trimmed():
    import run

    ref = calibrate.REFERENCE_S
    runs = [(1.0, {"calibration": [2 * ref]}),   # 0.5 reference s
            (2.0, {"calibration": [ref]}),       # 2.0
            (4.0, {"calibration": [ref / 2]}),   # 8.0
            (2.5, {"calibration": [ref]})]       # 2.5
    assert run._reference_s(runs) == pytest.approx(2.25)
    assert run._reference_s(runs[:3]) == pytest.approx(2.0)


def test_host_summary_scales_each_operation_by_nearby_samples():
    import child

    class Stub(workloads.Workload):
        def sim(self, desc, result):
            return workloads.OpSim([], 0, 0, result, 0.0)

    # A round of a cheap and a dear kind, twice: each kind counts alike.
    ops = [("a", 0, 10.0, 0.5, 0.0), ("b", 16, 80.0, 8.0, 1.0),
           ("a", 32, 10.0, 0.5, 12.0), ("b", 48, 80.0, 8.0, 13.0)]
    # The host ran at half the reference speed until t = 10, then at the
    # reference speed; each operation is scaled by the samples near it.
    loop_times = [(t, (2 if t < 10 else 1) * calibrate.REFERENCE_S)
                  for t in range(-1, 23)]
    summary = child._host_summary(Stub(0, 1), ops, loop_times)
    assert summary["op_s_gmean"] == pytest.approx(2.0)
    assert summary["sim_s_per_s"] == pytest.approx(10.0 * 2 ** 0.5)
    assert summary["op_s_gmean_ref"] == pytest.approx(2.0 ** 0.5)
    assert summary["sim_s_per_s_ref"] == pytest.approx(20.0)
    assert summary["attempted"] == 4 and summary["failed"] == 0
