"""Span-compiled kernel path (:mod:`repro.sim.spanplan`).

The compiled path is a pure performance layer: every test here pins
either an observability contract (counters, plan reuse, kernel cache)
or bit-exactness against the scalar reference under conditions that
specifically stress the compiled kernels — stolen overhead time,
shapes that run on ``Machine.tick`` instead, idle-core occupancy drift,
and the exact float memoization.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import spanplan
from repro.sim.batch import BACKEND_BATCH, BACKEND_SCALAR
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from tests.conftest import make_bg, make_fg


def _machine(backend, *, sigma=0.015, tau=0.15, seed=9, cores_used=None):
    config = MachineConfig(
        seed=seed, os_jitter_sigma=sigma, cache_inertia_tau_s=tau,
        timer_jitter_prob=0.0,
    )
    machine = Machine(config, backend=backend)
    used = cores_used or range(config.num_cores)
    for core in used:
        if core == 0:
            machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
        else:
            machine.spawn(make_bg(heavy=core % 2 == 0), core=core, nice=5)
    machine.settle_cache()
    return machine


def _counters(machine):
    return [
        machine.read_counters(core)
        for core in range(machine.config.num_cores)
    ]


def _assert_identical(scalar, batch):
    assert scalar.clock.tick == batch.clock.tick
    assert scalar.rho == batch.rho
    for a, b in zip(_counters(scalar), _counters(batch)):
        assert (a.instructions, a.cycles, a.llc_accesses, a.llc_misses) == (
            b.instructions, b.cycles, b.llc_accesses, b.llc_misses
        )
    for core in range(scalar.config.num_cores):
        assert scalar.cache.effective_ways(core) == batch.cache.effective_ways(
            core
        )


class TestStatsSurface:
    def test_batch_machine_reports_fast_path_counters(self):
        machine = _machine(BACKEND_BATCH)
        machine.run_ticks(2_000)
        stats = machine.backend_stats()
        assert stats is not None
        assert stats["spans"] > 0
        assert stats["compiled_spans"] > 0
        assert stats["compiled_ticks"] > 0
        assert stats["plan_builds"] >= 1
        assert set(stats) == set(spanplan.SpanStats().as_dict())

    def test_scalar_machine_reports_none(self):
        machine = _machine(BACKEND_SCALAR)
        machine.run_ticks(100)
        assert machine.backend_stats() is None

    def test_plan_reuse_dominates_chunked_driving(self):
        machine = _machine(BACKEND_BATCH, sigma=0.0)
        for _ in range(50):
            machine.run_ticks(40)
        stats = machine.backend_stats()
        assert stats["plan_reuses"] > stats["plan_builds"]

    def test_kernel_code_cache_shared_across_machines(self):
        first = _machine(BACKEND_BATCH, seed=1)
        first.run_ticks(200)
        assert len(spanplan._KERNEL_CODE_CACHE) >= 1
        cached = len(spanplan._KERNEL_CODE_CACHE)
        # An identically-shaped machine reuses the cached code objects
        # (the shape is structural, so even the seed does not matter).
        second = _machine(BACKEND_BATCH, seed=1)
        second.run_ticks(200)
        assert second.backend_stats()["kernels_compiled"] == 0
        assert len(spanplan._KERNEL_CODE_CACHE) == cached


class TestMemoization:
    def test_sigma0_spans_hit_the_fixed_point_memo(self):
        # A lone FG with snap-to-target occupancy revisits the same
        # exact (rho, mpki) points across spans — the memo's sweet spot.
        machine = _machine(
            BACKEND_BATCH, sigma=0.0, tau=0.0, cores_used=(0,)
        )
        for _ in range(40):
            machine.run_ticks(100)
        stats = machine.backend_stats()
        assert stats["memo_misses"] > 0
        assert stats["memo_hits"] > 0
        assert stats["stationary_ticks"] > 0

    def test_jittered_spans_bypass_the_memo(self):
        machine = _machine(BACKEND_BATCH, sigma=0.015)
        machine.run_ticks(2_000)
        stats = machine.backend_stats()
        assert stats["memo_hits"] == 0
        assert stats["memo_misses"] == 0

    def test_evaluate_memo_counters(self):
        from repro.sim.memory import MemorySystem
        from repro.sim.perf import (
            PerfInput,
            clear_solver_tables,
            solve_tick,
            solver_table_stats,
        )

        clear_solver_tables()
        memory = MemorySystem(MachineConfig())
        inputs = [PerfInput(2.0, 0.8, 3.0, 1.0)]
        first, _ = solve_tick(inputs, memory)
        before = solver_table_stats()
        again, _ = solve_tick(inputs, memory)
        after = solver_table_stats()
        assert after["output_hits"] > before["output_hits"]
        assert first[0] == again[0]
        clear_solver_tables()
        assert solver_table_stats() == dict.fromkeys(after, 0)


class TestEquivalenceUnderStress:
    def test_stolen_overhead_time_bit_identical(self):
        scalar = _machine(BACKEND_SCALAR)
        batch = _machine(BACKEND_BATCH)
        for step in (3, 1, 7, 100, 900):
            for machine in (scalar, batch):
                machine.charge_overhead(0, 2e-5)
                machine.charge_overhead(2, 5e-5)
                machine.run_ticks(step)
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        # Stolen ticks stay compiled: no span fell back to Machine.tick.
        assert stats["compiled_spans"] == stats["spans"]

    def test_idle_core_occupancy_drift_matches(self):
        # Only 3 of the cores run; with cache inertia the idle cores'
        # occupancy decays asymptotically and the stationary fast path
        # must not enter while it still moves (regression guard).
        scalar = _machine(BACKEND_SCALAR, sigma=0.0, cores_used=(0, 2, 4))
        batch = _machine(BACKEND_BATCH, sigma=0.0, cores_used=(0, 2, 4))
        scalar.run_ticks(30_000)
        batch.run_ticks(30_000)
        _assert_identical(scalar, batch)

    def test_overlapping_partitions_fall_back_generically(self):
        # Overlapping masks have no compiled plan; the span falls back to
        # the generic tier, Machine.tick.
        def shape(machine):
            machine.cache.set_mask(0, 0x0FF0)
            machine.cache.set_mask(1, 0x00FF)

        scalar = _machine(BACKEND_SCALAR)
        batch = _machine(BACKEND_BATCH)
        shape(scalar)
        shape(batch)
        scalar.run_ticks(3_000)
        batch.run_ticks(3_000)
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        assert stats["compiled_spans"] < stats["spans"]

    def test_non_standard_rng_falls_back_generically(self):
        # A substituted jitter RNG has no compiled plan either: every
        # span runs on Machine.tick.
        class LoudRandom(random.Random):
            pass

        def swap(machine):
            machine._jitter_rngs[0] = LoudRandom(123)

        scalar = _machine(BACKEND_SCALAR)
        batch = _machine(BACKEND_BATCH)
        swap(scalar)
        swap(batch)
        scalar.run_ticks(2_000)
        batch.run_ticks(2_000)
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        assert stats["spans"] > 0
        assert stats["compiled_spans"] == 0


class TestPropertyEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        sigma=st.sampled_from([0.0, 0.01, 0.02]),
        tau=st.sampled_from([0.0, 0.15]),
        seed=st.integers(min_value=0, max_value=2**16),
        chunks=st.lists(
            st.integers(min_value=1, max_value=700), min_size=1, max_size=5
        ),
        overhead=st.booleans(),
    )
    def test_scalar_batch_bit_identical(
        self, sigma, tau, seed, chunks, overhead
    ):
        scalar = _machine(BACKEND_SCALAR, sigma=sigma, tau=tau, seed=seed)
        batch = _machine(BACKEND_BATCH, sigma=sigma, tau=tau, seed=seed)
        for index, chunk in enumerate(chunks):
            for machine in (scalar, batch):
                if overhead and index % 2 == 0:
                    machine.charge_overhead(0, 1.5e-5)
                machine.run_ticks(chunk)
        _assert_identical(scalar, batch)
