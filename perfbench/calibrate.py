"""Host-speed calibration for the host-time metrics.

The benchmark's hosts are shared: over minutes, the same code runs up to
1.9x slower or faster as neighbours come and go, and by 10-30% from one
few-second stretch to the next (measured on a 2-CPU cloud VM with no PMU
and near-zero steal time, so neither CPU time nor cycle counts escape
it).  The benchmark therefore times a fixed pure-Python loop, which
shares no code with the program, right next to each host time it
reports.  Host times are reported in *reference seconds*: raw seconds
scaled by ``REFERENCE_S`` over the median of the nearby loop times, i.e.
what the work would have taken on a host where the loop takes
``REFERENCE_S``.  A change to the program moves them; a change in the
host's speed mostly does not.

Of the loops tried, a plain integer loop tracked the simulator best:
through one slow spell its time rose 1.8x as the operations' did, while
a float/attribute loop built like the span kernels rose 2.3x; over
5-10 s stretches of one process's operations it cut their spread from
0.09 to 0.06, against 0.08-0.09 for a pointer-chasing or a dict loop.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

#: Loop time that defines a reference second (about the loop's time on
#: an idle 2-CPU host of the kind the benchmark was tuned on).
REFERENCE_S = 0.010

#: Loop trip count; sized so one sample takes about ``REFERENCE_S``.
STEPS = 150_000


def _loop(steps: int) -> int:
    total = 0
    for i in range(steps):
        total += i * i % 7
    return total


def sample() -> float:
    """Seconds one calibration loop takes now."""
    start = time.perf_counter()
    _loop(STEPS)
    return time.perf_counter() - start


def samples(count: int) -> List[float]:
    """``count`` consecutive samples."""
    return [sample() for _ in range(count)]


def stamped_samples(budget_s: float) -> List[Tuple[float, float]]:
    """``(start time, seconds)`` samples for about ``budget_s`` seconds.

    At least one sample is taken.
    """
    start = time.perf_counter()
    taken = []
    while not taken or time.perf_counter() - start < budget_s:
        taken.append((time.perf_counter(), sample()))
    return taken


def factor(loop_times: Sequence[float]) -> float:
    """Multiplier from host seconds to reference seconds."""
    return REFERENCE_S / statistics.median(loop_times)
