"""The benchmark's workloads: operations, set-up, results and the gate.

Every workload drives the public APIs of ``repro.experiments``,
``repro.cluster`` and ``repro.core``.  A workload runs its operations in
*rounds*: one round is one sweep (``sweep-grid``) or one fleet per
catalog scenario (``fleet-chaos``).  Seeds come from :func:`op_seed` and
never repeat within a run.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cluster import Cluster
from repro.core.policies import BASELINE, PAPER_POLICIES
from repro.experiments.chaos import DEFAULT_FLEET_MIX, build_fleet
from repro.experiments.harness import (
    RunResult,
    deadlines_for,
    find_static_partition,
    get_profile,
    run_policy,
)
from repro.experiments.mixes import mix_by_name
from repro.experiments.parallel import SweepResult, run_grid
from repro.faults import fleet_scenario

#: Measured FG executions per task and per operation, and the warm-up
#: executions each run discards first (as the fleet chaos suite does).
EXECUTIONS = 8
WARMUP = 3

SWEEP_MIXES = ("ferret rs", "fluidanimate lbm+soplex")
FLEET_SCENARIOS = ("none", "node-crash", "fleet-chaos")
FLEET_NODES = 3
#: Fleets tick every session one simulator tick at a time, so their
#: operations run fewer executions to keep a fleet near two seconds.
FLEET_EXECUTIONS = 6
FLEET_WARMUP = 2

#: Seed ranges: each phase owns a disjoint block of ``PHASE_SPAN``
#: seeds per workload seed, and operations are ``SEED_STRIDE`` apart so
#: a fleet's per-node seeds (``seed + node``) never collide either.
PHASES = ("warmup", "timed", "traced")
PHASE_SPAN = 1_000_000
SEED_STRIDE = 16


def op_seed(workload_seed: int, phase: str, index: int) -> int:
    """Seed of operation ``index`` of ``phase`` in a run at ``workload_seed``."""
    if not 0 <= index < PHASE_SPAN // SEED_STRIDE:
        raise ValueError("operation index %d out of range" % index)
    block = (workload_seed % 100_000) * len(PHASES) + PHASES.index(phase)
    return block * PHASE_SPAN + index * SEED_STRIDE


@dataclass
class OpSim:
    """Simulated outcome of one operation, reduced to the metric inputs.

    Attributes:
        rel_times: FG execution time / its task's deadline, per measured
            execution.
        met: FG executions that met their deadline (fleet: attainment
            times the fleet's execution target, stranded counted missed).
        total: FG executions the operation was asked for.
        elapsed_s: Simulated seconds measured, over all machines.
        bg_ips: Simulated BG instructions per simulated second.
        failed_cells: Sweep cells reported in ``SweepResult.failed``.
    """

    rel_times: List[float]
    met: float
    total: int
    elapsed_s: float
    bg_ips: float
    failed_cells: int = 0


def _run_sim(results: Sequence[RunResult]) -> Tuple[List[float], int, int, float]:
    rel: List[float] = []
    met = total = 0
    elapsed = 0.0
    for result in results:
        for deadline, durations in zip(result.deadlines_s, result.durations_s):
            for duration in durations:
                rel.append(duration / deadline)
                total += 1
                met += duration <= deadline
        elapsed += result.elapsed_s
    return rel, met, total, elapsed


def _with_backend(backend: str, fn: Callable[[], object]) -> object:
    """Call ``fn`` with ``REPRO_SIM_BACKEND`` set, restoring it after."""
    previous = os.environ.get("REPRO_SIM_BACKEND")
    os.environ["REPRO_SIM_BACKEND"] = backend
    try:
        return fn()
    finally:
        if previous is None:
            del os.environ["REPRO_SIM_BACKEND"]
        else:
            os.environ["REPRO_SIM_BACKEND"] = previous


class Workload:
    """Base class: one named traffic shape."""

    name = ""
    #: Rounds every run completes; the simulated metrics and the digest
    #: cover exactly these, so they repeat at a fixed seed.
    min_rounds = 1
    uses_pool = False

    def __init__(self, seed: int, workers: int) -> None:
        self.seed = seed
        self.workers = workers

    def round_ops(self) -> Sequence[object]:
        """Operation descriptors of one round."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Prerequisites of the timed phase (profiles, deadlines, pool)."""

    def restart(self) -> None:
        """Re-establish the prerequisites from a filled cache directory."""
        self.prepare()

    def warmup(self) -> None:
        """One untimed operation per descriptor, on warm-up seeds."""
        for index, desc in enumerate(self.round_ops()):
            self.run(desc, op_seed(self.seed, "warmup", index))

    def run(self, desc: object, seed: int) -> object:
        """Run one operation; returns its result object."""
        raise NotImplementedError

    def sim(self, desc: object, result: object) -> OpSim:
        """The simulated metric inputs of one result."""
        raise NotImplementedError

    def fingerprint(self, result: object) -> str:
        """Deterministic text form of a result, for the run digest."""
        return repr(result)

    def gate(self, desc: object, seed: int, result: object) -> Optional[str]:
        """Re-run an operation on the scalar reference backend.

        Returns None when the scalar result is identical, else a
        description of the mismatch.
        """
        raise NotImplementedError


class SweepWorkload(Workload):
    """``run_grid`` over the paper's policy set, one fresh seed a sweep."""

    name = "sweep-grid"
    uses_pool = True

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.mixes = [mix_by_name(name) for name in SWEEP_MIXES]
        # 2 mixes x 5 policies x 8 executions: 80 FG executions a sweep.
        self.min_rounds = 3

    def round_ops(self) -> Sequence[object]:
        return ("grid",)

    def restart(self) -> None:
        # Re-running the warm-up sweep spawns (and warms) the worker
        # pool and serves every cell from the result cache: the cost a
        # repeated ``repro figure`` pays before its first new cell.
        self.warmup()

    def run(self, desc: object, seed: int) -> SweepResult:
        return run_grid(
            self.mixes, PAPER_POLICIES, executions=EXECUTIONS,
            warmup=WARMUP, seeds=[seed], workers=self.workers,
        )

    def sim(self, desc: object, result: object) -> OpSim:
        cells = [result.results[key] for key in sorted(result.results)]
        rel, met, total, elapsed = _run_sim(cells)
        total += result.failed * EXECUTIONS
        bg = sum(c.bg_instr_per_s for c in cells) / max(1, len(cells))
        return OpSim(rel, met, total, elapsed, bg, result.failed)

    def fingerprint(self, result: object) -> str:
        return repr(sorted(result.results.items()))

    def gate(self, desc, seed, result) -> Optional[str]:
        # One cell of the sweep, chosen by the seed, re-run serially on
        # the scalar backend with the sweep's own prerequisites.
        keys = sorted(result.results)
        key = keys[self.seed % len(keys)]
        cell = result.results[key]
        mix = mix_by_name(key[0])
        policy = next(p for p in PAPER_POLICIES if p.name == key[1])
        ways = (
            find_static_partition(mix, seed=seed)
            if policy.static_partition else None
        )
        deadlines = None if policy == BASELINE else cell.deadlines_s
        scalar = _with_backend("scalar", lambda: run_policy(
            mix, policy, deadlines_s=deadlines, executions=EXECUTIONS,
            warmup=WARMUP, seed=seed, static_fg_ways=ways,
        ))
        if scalar != cell:
            return "sweep cell %r differs on scalar" % (key,)
        return None


class FleetWorkload(Workload):
    """Fresh Dirigent fleets under the fleet chaos catalog scenarios."""

    name = "fleet-chaos"

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.mix = mix_by_name(DEFAULT_FLEET_MIX)
        # 3 nodes x 6 executions x 3 scenarios: 54 FG executions a
        # round, fewer where a fault strands some of them.  A round takes
        # 5-10 s, so these two fit a run on a slow host too.
        self.min_rounds = 2

    def round_ops(self) -> Sequence[object]:
        return FLEET_SCENARIOS

    def prepare(self) -> None:
        get_profile(self.mix.fg_name)

    def warmup(self) -> None:
        # One fleet, under the scenario that mixes every fault kind: the
        # scenarios share their mix, nodes and kernels, and two more
        # fleets would add a fifth to every set-up process.
        self.run(FLEET_SCENARIOS[-1], op_seed(self.seed, "warmup", 0))

    def restart(self) -> None:
        # The warm-up fleet's Baseline deadlines, read back from disk.
        self.prepare()
        base = op_seed(self.seed, "warmup", 0)
        for node in range(FLEET_NODES):
            deadlines_for(self.mix, executions=FLEET_EXECUTIONS,
                          warmup=FLEET_WARMUP, seed=base + node)

    def run(self, desc: object, seed: int):
        nodes = build_fleet(FLEET_NODES, executions=FLEET_EXECUTIONS,
                            warmup=FLEET_WARMUP, seed=seed)
        # Every fleet meets its scenario's catalog fault schedule; only
        # the nodes' seeds are fresh.  A fleet's attainment and cost hinge
        # on when its faults strike, so per-operation schedules made both
        # move with the seed and with how many rounds the host managed.
        return Cluster(nodes).run(fault_plan=fleet_scenario(desc))

    def sim(self, desc: object, result: object) -> OpSim:
        rel, _, _, elapsed = _run_sim(list(result.node_results.values()))
        total = FLEET_NODES * self.mix.fg_count * FLEET_EXECUTIONS
        return OpSim(rel, result.fg_success_ratio * total, total, elapsed,
                     result.total_bg_instr_per_s)

    def gate(self, desc, seed, result) -> Optional[str]:
        scalar = _with_backend("scalar", lambda: self.run(desc, seed))
        if signature_digest(scalar) != signature_digest(result):
            return "fleet %r seed %d: event signature differs on scalar" % (
                desc, seed)
        if scalar != result:
            return "fleet %r seed %d: ClusterResult differs on scalar" % (
                desc, seed)
        return None


def signature_digest(result) -> str:
    """Digest of a fleet run's control-plane event signature."""
    report = result.fleet_report
    signature = report.event_signature if report is not None else ()
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()


WORKLOADS = {
    workload.name: workload
    for workload in (SweepWorkload, FleetWorkload)
}


def make_workload(name: str, seed: int, workers: int) -> Workload:
    """The workload called ``name``."""
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (name, ", ".join(WORKLOADS)))
    return WORKLOADS[name](seed, workers)

