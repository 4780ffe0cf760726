"""Machine-speed reference: a fixed BLAS computation timed throughout a run.

On a shared 2-core Xeon the machine's speed moves between levels up to
1.8x apart every 10-30 s (see NOTES.md). A run times this reference
before each pass and between cells, at most every INTERVAL_S, and scales
each pass's times by NOMINAL_S over the median reference time taken during
that pass. The program under test never runs this code, so a change to
the program moves the scaled times as much as the raw ones, while a slow
spell of the machine slows the pass and the reference alike and cancels.
"""
from __future__ import annotations

import statistics
import time

# Median reference time over the runs the bounds were set from.
NOMINAL_S = 0.0136
INTERVAL_S = 0.25


def scale(samples) -> float:
    """Factor that takes times measured alongside `samples` to reference speed."""
    return NOMINAL_S / statistics.median(samples)


class SpeedSampler:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._eigh = np.linalg.eigh
        self._a = rng.standard_normal((256, 256))
        self._s = self._a @ self._a.T
        self.samples = []       # reference seconds
        self.spent_s = 0.0      # wall time spent sampling, to take out of pass times
        self._last = float("-inf")

    def sample(self):
        start = time.perf_counter()
        self._eigh(self._s)
        for _ in range(8):
            self._a @ self._a
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += end - start
        self._last = end

    def maybe_sample(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
