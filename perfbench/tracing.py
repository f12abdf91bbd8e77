"""In-memory stage timing and spans for the benchmark's calls into meshfd.

Every pass times its stages, because the end-to-end metrics are sums of
stage times.  With tracing on, each timed call is also kept as a span
(name, start, end, parent span, pass number), and each probe adds one span
around its calls to a lower-layer function.  Spans stay in memory and are written
out with the run's report.  Nothing is traced inside the library.

With a speed sampler (see ``speed.py``), times come from its clock, which
stands still while a host-speed sample runs, so no span includes the
sampling; and each stage also keeps the window of samples taken while it
ran, from which its time is scaled to the reference speed.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager


class Recorder:
    """Stage durations of the current pass, plus every span when tracing."""

    def __init__(self, trace: bool, sampler=None):
        self.trace = trace
        self.sampler = sampler
        self.clock = sampler.clock if sampler is not None else time.perf_counter
        self.spans: list[dict] = []
        self.durations: dict[str, float] = {}
        self.windows: dict[str, tuple[int, int]] = {}  # sample marks of each stage
        self._open: list[int] = []
        self._pass: int | None = None

    def begin_pass(self, pass_id: int | None) -> None:
        self._pass = pass_id
        self.durations = {}
        self.windows = {}

    @contextmanager
    def span(self, name: str):
        sid = None
        first = self.sampler.mark() if self.sampler is not None else 0
        start = self.clock()
        if self.trace:
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append({"id": sid, "name": name, "parent": parent, "pass": self._pass,
                               "start": start, "end": None})
            self._open.append(sid)
        try:
            yield
        finally:
            end = self.clock()
            self.durations[name] = self.durations.get(name, 0.0) + (end - start)
            if self.sampler is not None:
                self.windows[name] = (self.windows.get(name, (first,))[0], self.sampler.mark())
            if sid is not None:
                self._open.pop()
                self.spans[sid]["end"] = end


def span_cost(repeats: int = 5000, rounds: int = 5) -> float:
    """Seconds that keeping one span adds to a timed stage, from empty spans.

    Each mode keeps its fastest round, so a slow moment of the machine in
    one round does not show up as tracing cost.
    """
    best = {False: float("inf"), True: float("inf")}
    for _ in range(rounds):
        for trace in best:
            rec = Recorder(trace)
            start = time.perf_counter()
            for _ in range(repeats):
                with rec.span("empty"):
                    pass
            best[trace] = min(best[trace], (time.perf_counter() - start) / repeats)
    return best[True] - best[False]


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as (percent, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    rank = n - 11  # ten samples sit above this one
    return 100.0 * (rank + 1) / n, ordered[rank]


def summarize(samples) -> dict:
    """Median, tail percentile and count of a list of samples."""
    samples = list(samples)
    out = {"median": statistics.median(samples) if samples else math.nan, "n": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out["tail_percent"], out["tail_value"] = tail
    return out
