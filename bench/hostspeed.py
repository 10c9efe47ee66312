"""Host-speed normalisation of the end-to-end timings.

The 2-vCPU shared host the baseline was taken on runs the same code at
speeds up to 1.6x apart, in phases that last from seconds to many minutes.
Process CPU time moves with wall time there, so the slowdown is the
processor's own speed, not time stolen by the hypervisor, and no amount of
work in one run averages it out.

Every untraced run therefore times a fixed reference kernel between its
items, and the benchmark runs on one CPU (see ``pin_to_one_cpu`` in
run.py), because the two vCPUs change speed independently. The kernel uses
no recistkit code: a dictionary loop for the interpreter and a chain of
elementwise numpy operations on a 192x192 grid, the two kinds of work the
workloads do. An item that took ``t`` seconds is reported as
``t * REFERENCE_S / r``, where ``r`` is the mean kernel time of the samples
taken just before and just after it. A change to recistkit moves ``t`` and
not ``r``, so it shows in full; a change in the host's speed moves both.
The speed changes within a second, so the nearest samples track it better
than a median over a wider window.

``REFERENCE_S`` is the kernel's median time on the baseline host. It only
sets the scale, so that normalised figures read close to wall time there;
it must never change, or every figure moves with it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.0045
# kernel runs in one sample taken next to a long interval, such as a
# subprocess call, so that a single short run does not set its scale
LONG_SAMPLE = 5

_GRID = np.linspace(0.0, 1.0, 192 * 192, dtype=np.float32).reshape(192, 192)


def reference() -> float:
    """The fixed kernel; returns a value so that no step can be skipped."""
    counts: dict[int, int] = {}
    for j in range(20000):
        counts[j & 255] = counts.get(j & 255, 0) + j
    plane = _GRID
    for _ in range(30):
        plane = np.maximum(plane * 0.5, np.exp(-plane)) + _GRID
    return sum(counts.values()) + float(plane.sum())


class HostSpeed:
    """Reference-kernel times, and the scale they give at any moment."""

    def __init__(self) -> None:
        self.midpoints: list[float] = []
        self.seconds: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time ``repeats`` back-to-back kernel runs as one sample."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            reference()
        t1 = time.perf_counter()
        self.midpoints.append((t0 + t1) / 2)
        self.seconds.append((t1 - t0) / repeats)

    def scale_at(self, moment: float) -> float:
        """REFERENCE_S over the mean of the samples just before and after
        ``moment``."""
        i = bisect.bisect(self.midpoints, moment)
        near = self.seconds[max(0, i - 1): i + 1]
        return REFERENCE_S * len(near) / sum(near)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval ``t0``..``t1`` in reference-host seconds."""
        return (t1 - t0) * self.scale_at((t0 + t1) / 2)

    def summary(self) -> dict:
        """What the record keeps: sample count and the kernel's median time."""
        if not self.seconds:
            return {"samples": 0}
        return {"samples": len(self.seconds),
                "reference_ms_p50": 1000 * statistics.median(self.seconds)}
