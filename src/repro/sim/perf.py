"""Analytic per-tick performance model.

For each running process the model combines three effects the paper's
mechanisms act on:

* **Frequency**: compute-bound work scales with core frequency, while the
  memory-stall component of CPI is frequency-invariant in wall time (the
  miss penalty in *cycles* grows with frequency), so memory-bound phases
  benefit less from DVFS — exactly why throttling streaming BG tasks is
  cheap and speeding up FG tasks has diminishing returns.
* **Cache allocation**: the phase's miss curve evaluated at the process's
  effective LLC ways yields its MPKI.
* **Bandwidth contention**: all misses share the memory system; the loaded
  penalty couples every core's progress rate.

Demand and latency are mutually dependent (faster cores emit more misses,
raising the penalty, slowing everyone), so the tick solves a small fixed
point over the aggregate utilization ``rho``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.memory import MemorySystem

#: Fixed-point iterations over the aggregate utilization ``rho``.  Shared
#: with the inlined hot loop in :meth:`repro.sim.machine.Machine.tick` so
#: the two implementations cannot drift apart.
FIXED_POINT_ITERATIONS = 3

#: Per-kilo-instruction scale applied to MPKI/APKI terms.  Multiplication
#: by this constant (rather than division by 1000.0) is the canonical
#: form; the machine's inline loop uses the same constant so both paths
#: round identically.
MPKI_SCALE = 1e-3


@dataclass(frozen=True)
class PerfInput:
    """Per-process inputs to one tick of the performance model.

    Attributes:
        freq_ghz: Effective core frequency.
        base_cpi: Phase compute CPI (no misses).
        mpki: Misses per kilo-instruction at the current allocation.
        mem_sensitivity: Phase multiplier on the loaded penalty.
        jitter: Multiplicative OS-noise factor on the progress rate.
    """

    freq_ghz: float
    base_cpi: float
    mpki: float
    mem_sensitivity: float
    jitter: float = 1.0


@dataclass(frozen=True)
class PerfOutput:
    """Per-process results of one tick of the performance model.

    Attributes:
        ips: Instructions retired per second.
        miss_rate: LLC misses per second.
        cpi: Effective cycles per instruction.
        cycles_per_s: Busy cycles per second (the core frequency in Hz).
    """

    ips: float
    miss_rate: float
    cpi: float
    cycles_per_s: float


def solve_tick(
    inputs: Sequence[PerfInput],
    memory: MemorySystem,
    rho_hint: float = 0.0,
    iterations: int = FIXED_POINT_ITERATIONS,
    refine_final: bool = True,
) -> Tuple[List[PerfOutput], float]:
    """Solve one tick's coupled progress rates.

    Args:
        inputs: Model inputs for every *running* process.
        memory: The shared memory system (provides the penalty curve).
        rho_hint: Starting utilization guess, typically last tick's value;
            the fixed point converges in 2-3 iterations from a warm start.
        iterations: Fixed-point iterations to run.
        refine_final: Re-evaluate the outputs once more at the converged
            utilization so outputs and rho agree exactly.  The machine's
            inline hot loop skips this refinement as a deliberate economy;
            pass False to reproduce its results bit-for-bit.

    Returns:
        Per-process outputs (aligned with ``inputs``) and the final
        utilization ``rho``.
    """
    if iterations < 1:
        raise SimulationError("iterations must be >= 1")
    rho = max(0.0, rho_hint)
    outputs: List[PerfOutput] = []
    converged = False
    for _ in range(iterations):
        penalty_ns = _penalty_memo(memory, rho)
        outputs = [_evaluate_memo(entry, penalty_ns) for entry in inputs]
        total_miss_rate = sum(out.miss_rate for out in outputs)
        new_rho = memory.utilization_for(total_miss_rate)
        if new_rho == rho:
            # The update left rho bit-unchanged, so every remaining
            # iteration — and the final refinement — would re-derive the
            # exact same penalty and outputs.  Skipping them is an
            # identity, not an approximation; warm-started callers (the
            # hint is last tick's converged rho) exit here on the first
            # iteration when nothing moved.
            converged = True
            break
        rho = new_rho
    if refine_final and not converged:
        # Final evaluation at the converged utilization so outputs and
        # rho agree.
        penalty_ns = _penalty_memo(memory, rho)
        outputs = [_evaluate_memo(entry, penalty_ns) for entry in inputs]
    return outputs, rho


#: Exact-input memo over :func:`_evaluate`.  The function is pure and its
#: inputs are plain floats, so a hit returns a bit-identical (and shared,
#: frozen) PerfOutput; keys are the exact float tuple, never a rounded or
#: hashed approximation.  No simulation path calls :func:`solve_tick`
#: (the machine inlines the fixed point); the memo serves the model
#: tests, which re-solve the same points.  Bounded so long test sweeps
#: cannot hoard memory.
_EVAL_MEMO: Dict[Tuple[float, ...], PerfOutput] = {}
_EVAL_MEMO_MAX = 4096
_eval_memo_hits = 0
_eval_memo_misses = 0


def _evaluate_memo(entry: PerfInput, penalty_ns: float) -> PerfOutput:
    global _eval_memo_hits, _eval_memo_misses
    key = (
        entry.freq_ghz, entry.base_cpi, entry.mpki,
        entry.mem_sensitivity, entry.jitter, penalty_ns,
    )
    out = _EVAL_MEMO.get(key)
    if out is not None:
        _eval_memo_hits += 1
        return out
    _eval_memo_misses += 1
    out = _evaluate(entry, penalty_ns)
    if len(_EVAL_MEMO) >= _EVAL_MEMO_MAX:
        _EVAL_MEMO.clear()
    _EVAL_MEMO[key] = out
    return out


#: Exact-key table over :meth:`MemorySystem.penalty_ns`.  The penalty is a
#: pure function of the curve constants and the (clamped) utilization, and
#: warm-started solves revisit the same handful of rho values, so a hit
#: returns the bit-identical float without re-running the queueing curve.
_PENALTY_TABLE: Dict[Tuple[float, float, float, float], float] = {}
_PENALTY_TABLE_MAX = 4096
_penalty_hits = 0
_penalty_builds = 0


def _penalty_memo(memory: MemorySystem, rho: float) -> float:
    global _penalty_hits, _penalty_builds
    key = (memory.base_latency_ns, memory.contention_scale, memory.rho_cap, rho)
    pen = _PENALTY_TABLE.get(key)
    if pen is not None:
        _penalty_hits += 1
        return pen
    _penalty_builds += 1
    pen = memory.penalty_ns(rho)
    if len(_PENALTY_TABLE) >= _PENALTY_TABLE_MAX:
        _PENALTY_TABLE.clear()
    _PENALTY_TABLE[key] = pen
    return pen


def solver_table_stats() -> Dict[str, int]:
    """Hit/build counters across the solver's exact tables.

    ``output_*`` counts the PerfOutput memo; ``penalty_*`` counts the
    loaded-penalty table.  A *build* is a direct evaluation that
    populated an entry, a *hit* an exact-key lookup that skipped it.
    """
    return {
        "penalty_hits": _penalty_hits,
        "penalty_builds": _penalty_builds,
        "penalty_entries": len(_PENALTY_TABLE),
        "output_hits": _eval_memo_hits,
        "output_builds": _eval_memo_misses,
        "output_entries": len(_EVAL_MEMO),
    }


def clear_solver_tables() -> None:
    """Drop every solver table and reset counters (test isolation)."""
    global _penalty_hits, _penalty_builds
    global _eval_memo_hits, _eval_memo_misses
    _PENALTY_TABLE.clear()
    _penalty_hits = 0
    _penalty_builds = 0
    _EVAL_MEMO.clear()
    _eval_memo_hits = 0
    _eval_memo_misses = 0


def _evaluate(entry: PerfInput, penalty_ns: float) -> PerfOutput:
    stall_cycles = (
        entry.mpki * MPKI_SCALE
        * penalty_ns
        * entry.mem_sensitivity
        * entry.freq_ghz  # ns -> cycles at freq_ghz GHz
    )
    cpi = entry.base_cpi + stall_cycles
    ips = entry.freq_ghz * 1e9 / cpi * entry.jitter
    return PerfOutput(
        ips=ips,
        miss_rate=ips * entry.mpki * MPKI_SCALE,
        cpi=cpi,
        cycles_per_s=entry.freq_ghz * 1e9 * entry.jitter,
    )
