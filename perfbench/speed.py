"""Host-speed sampling, so that stage times can be put on one speed scale.

The benchmark runs on shared machines whose speed drifts by up to 2x over
tens of seconds and minutes, for the same pass on the same code.  The
sampler measures that speed while a pass runs: a real-time interval timer
interrupts the pass every ``PERIOD_S`` seconds, and the signal handler runs
a fixed piece of reference work (interpreter loops and small dense linear
algebra, the mix the pipeline itself runs) and records how long it took.

A stage time is then reported at the reference speed: its duration, with
the handler's own time taken out, multiplied by ``REFERENCE_S`` over the
mean sample time during the stage (during the whole pass, for a stage too
short to hold ``MIN_SAMPLES`` samples).  When the host runs at the speed at which
``REFERENCE_S`` was measured, the scaled time is the time a user sees; a
pass that does half the work reads half the time at any host speed.

The reference work never calls meshfd, so a change to the library cannot
change what a sample measures.  Its data are a few kilobytes, so the
pass's own data in the cache hardly change its time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
UNITS_PER_SAMPLE = 30
MIN_SAMPLES = 3  # fewer samples than this in a window do not set its scale
# A typical mean sample time during passes on the 2-vCPU VM where the
# benchmark was written (2.5 to 4.3 ms there; 2.0 ms back to back, with warm
# caches).  It only sets the scale: scaled times read close to the times
# measured there.
REFERENCE_S = 3.0e-3

_RNG = np.random.default_rng(20230602)
_MATRICES = [_RNG.standard_normal((18, 18)) for _ in range(4)]
_SHIFT = 18.0 * np.eye(18)
_POINTS = _RNG.random((128, 2))


def _unit(i: int) -> float:
    """One unit of reference work; the result is returned so none is skipped."""
    table: dict[int, float] = {}
    s = 0.0
    for j in range(120):
        table[j % 13] = table.get(j % 13, 0.0) + 0.5 * j
        s += 1.0001 * j
    a = _MATRICES[i % len(_MATRICES)]
    s += float(np.linalg.svd(a, compute_uv=False)[0])
    s += float(np.linalg.solve(a + _SHIFT, a[:, 0])[0])
    d = np.linalg.norm(_POINTS - _POINTS[i % len(_POINTS)], axis=1)
    return s + float(np.argpartition(d, 12)[0])


def reference_work() -> float:
    return sum(_unit(i) for i in range(UNITS_PER_SAMPLE))


class SpeedSampler:
    """Samples host speed from a SIGALRM handler while it is started.

    ``spent`` is the handler's total time, and ``clock()`` is a clock that
    stands still while the handler runs, so spans timed with it exclude
    the sampling.  Use as a context manager; leaving it stops the timer and
    restores the previous handler.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        reference_work()  # warm the code paths before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter minus the time spent sampling so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def scale_between(self, first: int, last: int) -> float | None:
        """REFERENCE_S over the mean of samples ``first:last``; None below MIN_SAMPLES."""
        taken = self.samples[first:last]
        if len(taken) < MIN_SAMPLES:
            return None
        return REFERENCE_S / statistics.fmean(taken)

    def scale(self, durations: dict, windows: dict, outer: str | None = None) -> dict:
        """Durations at the reference speed.

        Each duration is scaled by the samples taken inside its own window
        (a pair of marks), or, when that window is too short to hold
        MIN_SAMPLES of them, by those of the ``outer`` window, and failing
        that by every sample so far.
        """
        fallback = self.scale_between(0, self.mark()) or 1.0
        if outer is not None and outer in windows:
            fallback = self.scale_between(*windows[outer]) or fallback
        return {name: d * (self.scale_between(*windows[name]) or fallback)
                for name, d in durations.items()}
