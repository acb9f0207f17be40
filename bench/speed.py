"""Host speed reference used to normalise the benchmark's wall-clock times.

On the shared 2-vCPU host the benchmark was built on, each CPU flips
between a fast state and slower states up to about 1.7x slower, on time
scales from under a second to minutes, so raw op times of one workload
spread by 30-40% between runs. Two measures keep the run-to-run spread of
the normalised times to a few percent:

- a fixed reference kernel of ordinary interpreter work (small frozen
  dataclasses, ``Fraction`` arithmetic, float math, string formatting, a
  dict and a sort), timed right next to the measured work on the same CPU,
  slows in step with it; a time multiplied by ``NOMINAL_S / kernel time``
  reads as the time at the kernel's nominal speed. A tight integer loop
  tracked the program less well: the program slows about as that loop's
  time to the power 1.4, so slow runs still read about 10% slow;
- the process keeps itself on whichever allowed CPU runs the kernel fastest
  (``move_to_fastest_cpu``), so less of a run falls in a slow state.

The program under test never runs the kernel, so a change to the program
cannot move the reference.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

NOMINAL_S = 106e-6  # the kernel's time between ops on a fast CPU of the reference host
_ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def kernel_time() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    points = [_Point(k * 0.5, k * 0.25) for k in range(60)]
    acc = sum(p.x * p.y for p in points)
    damage = Fraction(0)
    for _ in range(12):
        damage = min(damage + Fraction(1000, 1234567), Fraction(1))
        acc += math.sqrt((1.0 - float(damage)) ** 0.2)
    table = {f"{k * 1.37:.6g}": (k, acc) for k in range(50)}
    sorted(table)
    return time.perf_counter() - start


def reference(samples: int = 7) -> float:
    """Median kernel time over a few back-to-back passes."""
    return statistics.median(kernel_time() for _ in range(samples))


def move_to_fastest_cpu() -> float:
    """Pin this process to the allowed CPU where the kernel now runs fastest.

    Returns one kernel time measured there, to bracket the next measurement.
    """
    timings = []
    for cpu in _ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((reference(3), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})
    return kernel_time()


def factor(before: float, after: float) -> float:
    """Scale turning a time measured between two kernel timings into nominal time."""
    return NOMINAL_S / (0.5 * (before + after))
