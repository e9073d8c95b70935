"""Host-speed reference for the benchmark's timings.

The benchmark runs on a share of a larger machine whose speed drifts: on a
2-vCPU Xeon VM the same stdlib Fraction loop took 34 ms in one three-second
stretch and 63 ms in another, and user CPU time moved with wall time, so the
process is not waiting but running slower.  No hardware counters are
exposed there.  So every stretch of timed work is bracketed by a short
reference burst, a fixed loop of stdlib ``fractions`` arithmetic that runs
no logalg code, and its times (wall and CPU) are scaled to a host on which
that burst takes REF_BURST_S:

    scaled = raw * REF_BURST_S / (mean of the bursts before and after)

A change to logalg moves the scaled times as it moves the raw ones; a
change in the host's speed moves the bursts as well and cancels.  Bursts
come at most SLICE_S of timed work apart, so short requests share a pair
and a long request gets the pair around it.  Burst time is never counted
in a request's latency or CPU time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The burst's median wall time at a calm moment on the VM above; a fixed
# constant, so that scaled times keep a familiar size.  It only sets the
# scale: any fixed value gives the same ratios between two commits.
REF_BURST_S = 0.005
SLICE_S = 0.1
_TERMS = 300
_ROUNDS = 4


def burst() -> float:
    """Wall seconds of the reference loop, with the collector paused so
    that a large heap left by the program does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            total = Fraction(0)
            for k in range(1, _TERMS):
                total += Fraction(1, k) * Fraction(k + 1, k + 2)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Bursts between the requests of a run, and the scale they give each
    request.  ``marks`` holds (index of the next request, burst seconds)."""

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []
        self._last = float("-inf")

    def mark(self, index: int, force: bool = False) -> None:
        """Run a burst before request ``index`` if SLICE_S has passed since
        the last one (or ``force``)."""
        if force or time.perf_counter() - self._last >= SLICE_S:
            self.marks.append((index, burst()))
            self._last = time.perf_counter()

    def scales(self, n: int) -> list[float]:
        """Per request, REF_BURST_S over the mean of the bursts just before
        and just after it.  Needs a mark at 0 and at n."""
        out, k = [], 0
        for i in range(n):
            while self.marks[k + 1][0] <= i:
                k += 1
            before, after = self.marks[k][1], self.marks[k + 1][1]
            out.append(2 * REF_BURST_S / (before + after))
        return out
