"""Machine-speed calibration for the end-to-end timings.

The CPU this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes. Each timing is scaled by a fixed reference task timed
next to it, a task that shares no code with the package, so package changes
move the timing but not the reference, while machine drift moves both.

Set-up probes are scaled by the numpy import floor, `python3 -c "import
numpy"`, timed before and after each probe: a probe t with floor f is
reported as t * IMPORT_FLOOR_S / f.

Jobs are scaled by two fixed kernels timed between jobs. One churns small
Python objects, tiny numpy arrays and float formatting (like a sweep); the
other runs vector numpy work on 2e5-element arrays (like a dense level sum).
A job time t measured while the kernels take c seconds (geometric mean of
the two) is reported as t * REFERENCE_S / c. Both scalings give seconds on
the machine at its reference speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Geometric-mean kernel time and numpy import floor on a 2-core Intel Xeon
# at its typical speed.
REFERENCE_S = 0.012
IMPORT_FLOOR_S = 0.2


@dataclass(frozen=True)
class _Point:
    a: float
    b: float


def _objects() -> int:
    table = {}
    base = np.arange(64.0)
    for i in range(1500):
        weights = np.exp(-base * ((i % 7) + 1) / 64.0)
        table[_Point(i * 0.5, i * 0.25)] = float(np.sum(weights * base) / np.sum(weights))
    return len("\n".join(",".join(f"{v:.17g}" for v in (p.a, p.b, c)) for p, c in table.items()))


def _vectors() -> float:
    n = np.arange(1, 200001, dtype=float)
    total = 0.0
    for alpha in (1.1, 1.5, 1.9):
        e = n**alpha
        total += float(np.cumsum(np.exp(-e / e[-1]))[-1])
    return total


def _best_of(kernel, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def speed_factor(repeats: int = 3) -> float:
    """REFERENCE_S over the current kernel time; multiply wall times by it."""
    return REFERENCE_S / math.sqrt(_best_of(_objects, repeats) * _best_of(_vectors, repeats))
