"""Machine-speed reference for wall-clock timings on a shared host.

On the 2-vCPU sandbox this benchmark was defined on, a fixed numpy kernel
runs about 1.4x slower whenever a neighbour loads the host core under a
vCPU. The slow phases last from one second to minutes, come and go
independently on the two vCPUs, and leave CPU time equal to wall time
(steal time stays near zero), so neither CPU time nor a probe on the
other vCPU can see them. The benchmark therefore samples a fixed
reference kernel in the measured thread itself, at step boundaries (at
most every INTERVAL_S) and before each evaluated case, and scales each
measured interval by
NOMINAL_MS / (the reference's duration nearby). The scaled times are
wall-clock times at the speed where the reference takes NOMINAL_MS, its
uncontended duration on that sandbox. Sampling time is subtracted from
the intervals that contain it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_MS = 2.0
INTERVAL_S = 0.1
# Samples around a point that set its speed factor: the median of the
# nearest few is robust to one disturbed sample.
NEAREST = 2


class SpeedProbe:
    """Reference samples, as start and end times, and the speed factors
    and scaled intervals derived from them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # An im2col-sized matmul, a relu and a reduction: the operation mix
        # of a conv stage on a 32x32 map with 8 input and 16 output channels.
        self._w = rng.random((16, 72), dtype=np.float32)
        self._x = rng.random((72, 1024), dtype=np.float32)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(40):
            y = self._w @ self._x
            np.maximum(y, 0.0, out=y)
            y.mean()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def sampled_s(self, t0: float, t1: float) -> float:
        """Seconds spent sampling inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_MS over the median reference duration of the NEAREST
        samples on each side of [t0, t1] and any inside it."""
        lo = max(0, bisect.bisect_left(self.starts, t0) - NEAREST)
        hi = bisect.bisect_right(self.ends, t1) + NEAREST
        durations = [(e - s) * 1000.0 for s, e in
                     zip(self.starts[lo:hi], self.ends[lo:hi])]
        return NOMINAL_MS / statistics.median(durations)

    def scaled_s(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] at nominal speed: sampling time is left
        out, and each stretch between samples is scaled by its own
        factor."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        total, a = 0.0, t0
        for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]):
            total += (s - a) * self.factor(a, s)
            a = e
        return total + (t1 - a) * self.factor(a, t1)
