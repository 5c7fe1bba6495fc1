"""A fixed reference kernel that measures how fast the machine runs right now.

The machine the benchmark was built on is shared: the speed one process
gets changes by up to a factor of two, in phases lasting from under a second
to several minutes, whatever the program does. The kernel does the toy
model's own kind of work at the workload's hidden width: a batch of 32 rows
through 60 ``tanh(a @ W)`` steps, plus Python dict and loop work. It shares
no code with fedlorasim, so a change to the package cannot change its time.
Timing it right before and right after a step and scaling the step's time
by the mean of the two factors ``REFERENCE_S[width] / kernel time`` gives
the step's time at the reference speed.

The kernel has the workload's width because contention slows code unevenly.
A 32-wide kernel tracked the 16-wide, Python-bound ``deep-knapsack`` rounds
closely, but over-corrected the BLAS-bound 128-wide ``wide-train`` rounds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The kernel's uncontended time, by width: the 1st percentile of several
#: thousand calls on the machine of bench/BASELINE.json.
REFERENCE_S = {16: 4.6e-4, 32: 5.1e-4, 128: 1.89e-3}


class SpeedProbe:
    def __init__(self, width: int):
        if width not in REFERENCE_S:
            raise ValueError(f"no reference time for width {width}; known: {sorted(REFERENCE_S)}")
        self.reference_s = REFERENCE_S[width]
        rng = np.random.default_rng(12345)
        self._w = rng.normal(0.0, 1.0 / np.sqrt(width), (width, width))
        self._x = rng.normal(0.0, 1.0, (32, width))

    def _kernel(self) -> float:
        a = self._x
        for _ in range(60):
            a = np.tanh(a @ self._w)
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return float(a[0, 0]) + counts[0]

    def factor(self, repeats: int = 3) -> float:
        """Reference time over the kernel's median time now; < 1 on a slow machine."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return self.reference_s / statistics.median(times)
