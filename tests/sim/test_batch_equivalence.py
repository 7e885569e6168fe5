"""Scalar/batch backend equivalence.

The batch engine (:mod:`repro.sim.batch`) must be indistinguishable
from the scalar reference kernel: bit-identical counters, execution
records, cache occupancy, and policy decisions when OS-jitter sigma is
0, and within rel 1e-9 with jitter on (in practice the RNG streams
align draw-for-draw, so even jittered runs match exactly; the tests
assert the guaranteed tolerance).
"""

from __future__ import annotations

import pytest

from repro.core.policies import DIRIGENT
from repro.errors import ConfigurationError
from repro.experiments.harness import clear_caches, run_policy
from repro.experiments.mixes import mix_by_name
from repro.sim.batch import (
    BACKEND_BATCH,
    BACKEND_SCALAR,
    DEFAULT_BACKEND,
    ENV_BACKEND,
    resolve_backend,
)
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from tests.conftest import make_bg, make_fg


def _records_of(machine):
    records = []
    machine.add_completion_listener(
        lambda proc, record: records.append(
            (
                proc.pid,
                record.index,
                record.start_s,
                record.end_s,
                record.instructions,
                record.llc_misses,
            )
        )
    )
    return records


def _pair(config, populate):
    """Two identical machines, one per backend, plus their record logs."""
    machines = []
    logs = []
    for backend in (BACKEND_SCALAR, BACKEND_BATCH):
        machine = Machine(config, backend=backend)
        logs.append(_records_of(machine))
        populate(machine)
        machines.append(machine)
    return machines, logs


def _spawn_mixed(machine):
    machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
    for core in range(1, machine.config.num_cores):
        machine.spawn(make_bg(heavy=core % 2 == 0), core=core, nice=5)


def _assert_counters_equal(scalar, batch, rel=0.0):
    for core in range(scalar.config.num_cores):
        a = scalar.read_counters(core)
        b = batch.read_counters(core)
        for field in ("instructions", "cycles", "llc_accesses", "llc_misses"):
            if rel == 0.0:
                assert getattr(a, field) == getattr(b, field)
            else:
                assert getattr(a, field) == pytest.approx(
                    getattr(b, field), rel=rel
                )


class TestResolveBackend:
    def test_default_is_batch(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend() == DEFAULT_BACKEND == BACKEND_BATCH

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "scalar")
        assert resolve_backend() == BACKEND_SCALAR

    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "scalar")
        assert resolve_backend("batch") == BACKEND_BATCH

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("vectorized")

    def test_machine_records_backend(self):
        assert Machine(MachineConfig(), backend="scalar").backend == "scalar"
        assert Machine(MachineConfig(), backend="batch").backend == "batch"


class TestNoiseFreeBitEquivalence:
    """sigma = 0: every observable must match bit-for-bit."""

    def test_single_fg_counters_and_records(self):
        config = MachineConfig(seed=42, os_jitter_sigma=0.0)
        (scalar, batch), (log_s, log_b) = _pair(
            config, lambda m: m.spawn(make_fg(input_noise=0.05), core=0)
        )
        scalar.run_ticks(20_000)
        batch.run_ticks(20_000)
        assert scalar.clock.tick == batch.clock.tick == 20_000
        _assert_counters_equal(scalar, batch)
        assert log_s and log_s == log_b
        assert scalar.rho == batch.rho

    def test_contended_mix_counters_records_occupancy(self):
        config = MachineConfig(seed=7, os_jitter_sigma=0.0)
        (scalar, batch), (log_s, log_b) = _pair(config, _spawn_mixed)
        scalar.run_ticks(20_000)
        batch.run_ticks(20_000)
        _assert_counters_equal(scalar, batch)
        assert log_s and log_s == log_b
        for core in range(config.num_cores):
            assert scalar.cache.effective_ways(core) == pytest.approx(
                batch.cache.effective_ways(core), rel=0, abs=0
            )

    def test_chunked_driving_matches_one_shot(self):
        config = MachineConfig(seed=11, os_jitter_sigma=0.0)
        (one_shot, chunked), (log_a, log_b) = _pair(config, _spawn_mixed)
        one_shot.backend = "batch"  # both batch; drive patterns differ
        one_shot.run_ticks(15_000)
        remaining = 15_000
        for chunk in (1, 7, 93, 2048):
            chunked.run_ticks(chunk)
            remaining -= chunk
        chunked.run_ticks(remaining)
        assert one_shot.clock.tick == chunked.clock.tick
        _assert_counters_equal(one_shot, chunked)
        assert log_a == log_b


class TestJitteredEquivalence:
    """sigma > 0: rel <= 1e-9 guaranteed (streams align, so exact)."""

    def test_contended_mix_with_jitter(self):
        config = MachineConfig(seed=3)  # default sigma = 0.015
        (scalar, batch), (log_s, log_b) = _pair(config, _spawn_mixed)
        scalar.run_ticks(20_000)
        batch.run_ticks(20_000)
        _assert_counters_equal(scalar, batch, rel=1e-9)
        assert len(log_s) == len(log_b)
        for rec_s, rec_b in zip(log_s, log_b):
            assert rec_s[:2] == rec_b[:2]  # pid, index
            for a, b in zip(rec_s[2:], rec_b[2:]):
                assert a == pytest.approx(b, rel=1e-9)


class TestEventEquivalence:
    """Timers, DVFS transitions, pauses, and partitions across backends."""

    def _run_with_events(self, backend):
        config = MachineConfig(seed=13, timer_jitter_prob=0.5)
        machine = Machine(config, backend=backend)
        log = _records_of(machine)
        _spawn_mixed(machine)
        trace = []

        def periodic():
            tick = machine.clock.tick
            trace.append((tick, machine.read_counters(0).instructions))
            # Exercise every event source the horizon must respect.
            bg_proc = machine.process_on_core(1)
            if machine.is_paused(bg_proc.pid):
                machine.resume(bg_proc.pid)
            else:
                machine.pause(bg_proc.pid)
            machine.step_frequency(2, -1 if tick % 20 else 1)
            if tick % 1000 < 500:
                machine.set_fg_partition([0], 12)
            else:
                machine.clear_partitions()
            machine.charge_overhead(0, 2e-4)
            machine.schedule_wakeup(7.3e-3, periodic)

        machine.schedule_wakeup(7.3e-3, periodic)
        machine.run_ticks(8_000)
        return machine, log, trace

    def test_event_stream_identical(self):
        scalar, log_s, trace_s = self._run_with_events(BACKEND_SCALAR)
        batch, log_b, trace_b = self._run_with_events(BACKEND_BATCH)
        assert trace_s == trace_b  # same fire ticks, same observed counters
        assert log_s == log_b
        _assert_counters_equal(scalar, batch)
        for core in range(scalar.config.num_cores):
            assert scalar.governor.grade(core) == batch.governor.grade(core)

    def test_energy_model_identical(self):
        from repro.sim.energy import EnergyModel

        totals = []
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            config = MachineConfig(seed=5, os_jitter_sigma=0.0)
            machine = Machine(config, backend=backend)
            machine.attach_energy_model(EnergyModel(config.num_cores))
            _spawn_mixed(machine)
            machine.run_ticks(10_000)
            totals.append(
                (machine.energy.system_joules, machine.energy.elapsed_s)
            )
        assert totals[0] == totals[1]


class TestIdleShapeEquivalence:
    """Zero running lanes: no compiled plan, so spans run on Machine.tick.

    An empty machine and one whose processes are all paused both leave
    the span planner nothing to compile.  Energy accounting and a timer
    callback that moves DVFS grades keep the idle ticks observable.
    """

    def _run_idle(self, backend, populate):
        from repro.sim.energy import EnergyModel

        config = MachineConfig(seed=21)
        machine = Machine(config, backend=backend)
        machine.attach_energy_model(EnergyModel(config.num_cores))
        populate(machine)
        before = machine.backend_stats()
        trace = []

        def periodic():
            tick = machine.clock.tick
            trace.append((tick, machine.energy.system_joules))
            machine.step_frequency(tick % config.num_cores,
                                   -1 if tick % 2 else 1)
            machine.schedule_wakeup(4.1e-3, periodic)

        machine.schedule_wakeup(4.1e-3, periodic)
        machine.run_ticks(3_000)
        return machine, trace, before

    def _assert_idle_identical(self, populate):
        scalar, trace_s, _ = self._run_idle(BACKEND_SCALAR, populate)
        batch, trace_b, before = self._run_idle(BACKEND_BATCH, populate)
        assert trace_s == trace_b
        assert len(trace_s) > 100  # the callback fired throughout
        assert scalar.clock.tick == batch.clock.tick
        assert scalar.rho == batch.rho
        _assert_counters_equal(scalar, batch)
        for core in range(scalar.config.num_cores):
            assert scalar.cache.effective_ways(core) == \
                batch.cache.effective_ways(core)
            assert scalar.governor.grade(core) == batch.governor.grade(core)
        assert (scalar.energy.system_joules, scalar.energy.elapsed_s) == (
            batch.energy.system_joules, batch.energy.elapsed_s
        )
        # Every idle-phase span ran on the scalar tier.
        after = batch.backend_stats()
        assert after["spans"] > before["spans"]
        assert after["compiled_spans"] == before["compiled_spans"]

    def test_empty_machine_identical(self):
        self._assert_idle_identical(lambda machine: None)

    def test_all_paused_machine_identical(self):
        def populate(machine):
            _spawn_mixed(machine)
            # Run first so the cache holds occupancy that then decays
            # under inertia while every process sits paused.
            machine.run_ticks(200)
            for proc in machine.processes:
                machine.pause(proc.pid)

        self._assert_idle_identical(populate)


class TestPolicyDecisionEquivalence:
    """The full Dirigent stack must decide identically on both backends."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    def test_dirigent_run_identical(self, monkeypatch):
        results = {}
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            monkeypatch.setenv(ENV_BACKEND, backend)
            clear_caches()
            results[backend] = run_policy(
                mix_by_name("ferret rs"), DIRIGENT, executions=4, warmup=1
            )
        scalar, batch = results[BACKEND_SCALAR], results[BACKEND_BATCH]
        assert scalar.durations_s == batch.durations_s
        assert scalar.deadlines_s == batch.deadlines_s
        assert scalar.bg_grade_histogram == batch.bg_grade_histogram
        assert scalar.partition_history == batch.partition_history
        assert scalar.fg_instr == batch.fg_instr
        assert scalar.bg_instr == batch.bg_instr
        assert scalar.elapsed_s == batch.elapsed_s


class TestFaultedEquivalence:
    """Fault injection is seeded at the OSAL layer, above the backend
    split, so a faulted run must stay bit-identical across backends:
    same injected event stream, same degradation decisions, same
    measured durations."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    @pytest.mark.parametrize("scenario_name",
                             ["sensor-degraded", "full-chaos"])
    def test_faulted_dirigent_run_identical(
        self, monkeypatch, scenario_name
    ):
        from repro.faults import scenario

        results = {}
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            monkeypatch.setenv(ENV_BACKEND, backend)
            clear_caches()
            results[backend] = run_policy(
                mix_by_name("ferret rs"), DIRIGENT, executions=4, warmup=1,
                fault_plan=scenario(scenario_name, seed=21),
            )
        scalar, batch = results[BACKEND_SCALAR], results[BACKEND_BATCH]
        assert scalar.durations_s == batch.durations_s
        assert scalar.deadlines_s == batch.deadlines_s
        assert scalar.bg_grade_histogram == batch.bg_grade_histogram
        assert scalar.partition_history == batch.partition_history
        assert scalar.elapsed_s == batch.elapsed_s
        rep_s, rep_b = scalar.fault_report, batch.fault_report
        assert rep_s is not None and rep_b is not None
        assert rep_s.event_signature  # faults actually fired
        assert rep_s.event_signature == rep_b.event_signature
        assert rep_s.injected == rep_b.injected
        assert rep_s.rejected_samples == rep_b.rejected_samples
        assert rep_s.suspect_samples == rep_b.suspect_samples
        assert rep_s.degraded_entries == rep_b.degraded_entries
        assert rep_s.safe_entries == rep_b.safe_entries
        assert rep_s.degraded_time_s == rep_b.degraded_time_s
        assert rep_s.actuations_retried == rep_b.actuations_retried
        assert rep_s.actuations_failed == rep_b.actuations_failed
