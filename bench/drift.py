"""Correction of operation times for the machine's speed drift.

The benchmark shares a small machine with other tenants.  Its speed drifts
by tens of percent over seconds to minutes, and a run of twenty seconds
inherits whatever the machine did meanwhile.  So every run also times a
fixed unit of benchmark-owned work, the yardstick, between operations, for
about 3% of the wall time.  The yardstick uses no spingate code: numpy 4x4
eigendecompositions, small complex products and float formatting, the same
mix of interpreter and small-array work as the operations.

A corrected time is the raw time scaled by REFERENCE_S over the run's
mean yardstick time: the time the operation would have taken on this
machine at its reference speed.  The yardstick never changes between
commits, so the correction cancels the machine's drift and nothing of the
code under test.  Raw times stay in the run record.

The machine flips between a fast and a slow state, in spells of tens of
milliseconds.  An operation that lasts longer spans many spells, and its
time moves with the run's share of slow time, as the run's mean yardstick
does.  An operation of a few milliseconds sits inside one spell, so its
times are bimodal and their median jumps with that share; such a workload
is corrected operation by operation instead, by the mean of the yardstick
samples taken right before and right after each operation.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: yardstick time on the reference machine (2-vCPU Xeon sandbox, Python
#: 3.11, numpy 2.4, one BLAS thread) in its fast state
REFERENCE_S = 4.5e-4

_eigh = np.linalg.eigh  # bound before any tracing wraps numpy.linalg.eigh
_B = np.array([[820.0, 0.1, 0.5, 0.0], [0.1, 800.0, 0.0, 0.5],
               [0.5, 0.0, 0.0, 0.1], [0.0, 0.5, 0.1, 0.0]])


def yardstick() -> float:
    """Seconds taken by one fixed unit of work."""
    t0 = perf_counter()
    text = []
    for k in range(24):
        lam, v = _eigh(_B + k)
        u = (v * np.exp(0.5j * lam * (31.4 + k))) @ v.T
        text.append(",".join(f"{x:.16e}" for x in (u[2, 3].real, u[2, 3].imag, lam[0])))
    return perf_counter() - t0


#: seconds between yardstick samplings, at least
EVERY_S = 0.05
#: share of the wall time since the previous sampling that a sampling spends
SHARE = 0.03
#: yardstick samples in the smallest sampling
BURST = 3


class DriftMeter:
    """Yardstick samples taken between operations during one run.

    Each sampling spends about SHARE of the wall time since the previous
    one, so samples cover the run evenly in time whether operations last
    milliseconds or a second.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last: float | None = None

    def sample(self) -> None:
        """Take BURST samples now."""
        self._take(BURST)

    def tick(self) -> None:
        """Sample the yardstick if EVERY_S has passed since the last sample."""
        gap = EVERY_S if self._last is None else perf_counter() - self._last
        if gap >= EVERY_S:
            self._take(max(BURST, min(200, int(SHARE * gap / REFERENCE_S))))

    def _take(self, count: int) -> None:
        self.samples.extend(yardstick() for _ in range(count))
        self._last = perf_counter()

    def factor(self) -> float:
        """REFERENCE_S over the run's mean yardstick time, 5% trimmed at each end.

        One factor per run: single samples are bimodal, while the run's
        mean moves in proportion to the share of time spent slow, as the
        times of long operations do.  Trimming drops rare stalls.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 20
        return REFERENCE_S / statistics.fmean(ordered[cut: len(ordered) - cut])
