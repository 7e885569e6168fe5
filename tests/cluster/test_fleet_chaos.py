"""Fleet chaos acceptance: self-healing QoS, determinism, kill switch.

The headline pins: under node-crash and partition scenarios the
failover-enabled control plane holds >= 90% fleet-wide FG deadline
attainment while the no-failover baseline is demonstrably worse, and
the fleet ``event_signature`` is identical across the scalar, batch,
and vector backends.
"""

import pytest

from repro.cluster import Cluster, ClusterNode, ControlPlaneConfig
from repro.core.policies import DIRIGENT
from repro.experiments.harness import clear_caches
from repro.experiments.mixes import mix_by_name
from repro.faults import NodeFaultPlan, NodeFaultSpec
from repro.sim.batch import ENV_BACKEND

EXECS = 10
WARMUP = 3
FLEET = 6
SEED = 0


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def build_fleet(num_nodes=FLEET, executions=EXECS, warmup=WARMUP, seed=SEED):
    mix = mix_by_name("raytrace rs")
    return [
        ClusterNode("n%d" % i, mix, DIRIGENT, executions=executions,
                    warmup=warmup, seed=seed + i)
        for i in range(num_nodes)
    ]


CRASH_PLAN = NodeFaultPlan(
    scenario="pinned-crash", seed=SEED,
    overrides=(
        NodeFaultSpec(node="n1", kind="crash", onset_s=0.5),
        NodeFaultSpec(node="n4", kind="crash", onset_s=1.0),
    ),
)

#: The failover-enabled control plane the self-healing tests pin.
HEALED = ControlPlaneConfig(failover=True)


@pytest.fixture(scope="module")
def healed_crash_run():
    """The failover-enabled CRASH_PLAN run, run once for the module."""
    return Cluster(build_fleet()).run(fault_plan=CRASH_PLAN, control=HEALED)


PARTITION_PLAN = NodeFaultPlan(
    scenario="pinned-partition", seed=SEED,
    overrides=(
        NodeFaultSpec(node="n2", kind="partition", onset_s=0.5),
    ),
)


class TestSelfHealingQoS:
    """Failover buys >= 90% attainment; without it the fleet is worse."""

    @pytest.mark.parametrize(
        "plan", [CRASH_PLAN, PARTITION_PLAN],
        ids=["node-crash", "partition"],
    )
    def test_failover_beats_no_failover(self, plan, request):
        if plan is CRASH_PLAN:
            healed = request.getfixturevalue("healed_crash_run")
        else:
            healed = Cluster(build_fleet()).run(
                fault_plan=plan, control=HEALED,
            )
        unhealed = Cluster(build_fleet()).run(
            fault_plan=plan,
            control=ControlPlaneConfig(failover=False),
        )
        assert healed.fg_success_ratio >= 0.9
        assert healed.failovers == len(plan.overrides)
        assert healed.stranded_executions == 0
        # No failover: every faulted node's undelivered executions count
        # as missed, so the fleet is demonstrably worse.
        assert unhealed.fg_success_ratio < healed.fg_success_ratio
        assert unhealed.failovers == 0
        lost = len(plan.overrides) * EXECS
        assert unhealed.fg_success_ratio <= 1.0 - lost / (FLEET * EXECS)

    def test_detection_and_recovery_latencies_reported(self, request):
        cfg = ControlPlaneConfig.from_env()
        if cfg == HEALED:
            # A run without an explicit config resolves to this one.
            result = request.getfixturevalue("healed_crash_run")
        else:
            result = Cluster(build_fleet()).run(fault_plan=CRASH_PLAN)
        assert len(result.time_to_detection_s) == 2
        assert len(result.time_to_recovery_s) == 2
        for ttd, ttr in zip(
            result.time_to_detection_s, result.time_to_recovery_s
        ):
            assert cfg.dead_timeout_s <= ttd < cfg.dead_timeout_s + 0.2
            assert ttr >= ttd
        assert result.node_health["n1"] == "dead"
        assert result.node_health["n0"] == "alive"
        # Replacement sessions appear as home@host entries.
        assert any("@" in label for label in result.node_results)

    def test_failover_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_FAILOVER", "0")
        result = Cluster(build_fleet()).run(fault_plan=CRASH_PLAN)
        assert result.fleet_report is not None
        assert not result.fleet_report.failover_enabled
        assert result.failovers == 0
        assert result.stranded_executions > 0


class TestQuarantine:
    def test_flapping_node_quarantined(self):
        plan = NodeFaultPlan(
            scenario="pinned-flap", seed=SEED,
            overrides=(
                NodeFaultSpec(node="n1", kind="flap", onset_s=0.5,
                              down_s=0.5, up_s=0.5, cycles=2),
            ),
        )
        result = Cluster(build_fleet(num_nodes=4)).run(fault_plan=plan)
        report = result.fleet_report
        assert report.quarantines >= 1
        kinds = {event[2] for event in report.event_signature}
        assert "quarantine" in kinds
        assert "node-recovered" in kinds
        # The flapper ends the run alive again.
        assert result.node_health["n1"] == "alive"


MIXED_PLAN = NodeFaultPlan(
    scenario="pinned-mixed", seed=SEED,
    overrides=(
        NodeFaultSpec(node="n0", kind="crash", onset_s=0.6),
        NodeFaultSpec(node="n2", kind="flap", onset_s=0.5,
                      down_s=0.5, up_s=0.5, cycles=2),
    ),
)


def _small_fleet_run(vectorized=False):
    cluster = Cluster(
        build_fleet(num_nodes=4, executions=6, warmup=2),
        vectorized=vectorized,
    )
    return cluster.run(fault_plan=MIXED_PLAN)


@pytest.fixture(scope="module")
def serial_small_run():
    """One serial ``_small_fleet_run``, shared by the determinism tests."""
    return _small_fleet_run(vectorized=False)


@pytest.fixture(scope="module")
def vector_small_run():
    """One vectorized ``_small_fleet_run``."""
    return _small_fleet_run(vectorized=True)


class TestDeterminism:
    def test_repeat_runs_identical(self, serial_small_run):
        first = serial_small_run
        second = _small_fleet_run()
        assert first.fleet_report.event_signature == \
            second.fleet_report.event_signature
        assert first.node_results == second.node_results
        assert first.fg_success_ratio == second.fg_success_ratio

    def test_serial_vs_vectorized_bit_identical(
        self, serial_small_run, vector_small_run
    ):
        serial = serial_small_run
        vector = vector_small_run
        assert serial.fleet_report.event_signature == \
            vector.fleet_report.event_signature
        assert serial.node_results == vector.node_results
        assert serial.fg_success_ratio == vector.fg_success_ratio
        assert serial.health_timelines == vector.health_timelines

    def test_signature_identical_across_backends(self, monkeypatch):
        signatures = {}
        outcomes = {}
        for backend, vectorized in (
            ("scalar", False), ("batch", False), ("batch", True),
        ):
            monkeypatch.setenv(ENV_BACKEND, backend)
            clear_caches()
            label = "vector" if vectorized else backend
            result = _small_fleet_run(vectorized=vectorized)
            signatures[label] = result.fleet_report.event_signature
            outcomes[label] = (
                result.fg_success_ratio,
                result.failovers,
                result.stranded_executions,
            )
        assert signatures["scalar"] == signatures["batch"]
        assert signatures["batch"] == signatures["vector"]
        assert outcomes["scalar"] == outcomes["batch"] == outcomes["vector"]
