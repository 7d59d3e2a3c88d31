"""Machine-speed calibration: one frozen kernel, timed around every rep.

The container's speed drifts by tens of percent over minutes (the same
code and seed has read 1.7M and 2.5M events/s an hour apart, with CPU
time tracking wall time to 1.5%, so it is the core that changes speed,
not contention).  Every wall-clock sample is therefore multiplied by
``reference_ms / mean(kernel before, kernel after)``; the reference is the
``calibration_ref_ms`` constant below, so a scaled number reads as "on
the reference machine".

FROZEN: later PRs must not edit :func:`kernel` or the reference — every
scaled number in every results file is in units of this function.  The
mix mirrors what the live path spends its time in: interpreter dispatch
with dict stores (event loop, server glue) and ``np.lexsort`` on fixed
arrays (the local sort, the largest single stage of ``flat-firehose``).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["CALIBRATION_REF_MS", "kernel", "measure_ms", "speed_factor"]

#: What :func:`measure_ms` read on the machine the first baseline was
#: taken on.  A constant of the benchmark, never re-measured.
CALIBRATION_REF_MS = 80.0

_N_SORT = 60_000
_N_LOOP = 150_000
_RNG = np.random.default_rng(20250928)
_VALUES = _RNG.normal(40.0, 6.0, size=_N_SORT)
_STAMPS = _RNG.integers(0, 1000, size=_N_SORT)
_SEQS = np.arange(_N_SORT, dtype=np.uint32)


def kernel() -> int:
    """The fixed unit of work; returns a checksum so nothing is elided."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(_N_LOOP):
        table[i & 1023] = acc
        acc = (acc + i * 7) & 0xFFFFFF
    checksum = acc + len(table)
    for _ in range(6):
        order = np.lexsort((_SEQS, _STAMPS, _VALUES))
        checksum += int(order[0])
    return checksum


def measure_ms(repeats: int = 2) -> float:
    """Best of ``repeats`` kernel timings, in milliseconds.

    The minimum, not the median: the kernel is short enough that one
    scheduler preemption doubles a sample, and the fastest pass is the
    one that saw the machine's actual speed.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Multiplier that converts a wall-clock sample to reference speed."""
    return CALIBRATION_REF_MS / ((before_ms + after_ms) / 2.0)
