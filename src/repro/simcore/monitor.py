"""Measurement primitives for simulation statistics.

Everything the experiment harness reports flows through these: latency
tallies, throughput counters, time-weighted queue depths, and
fixed-bucket histograms (used e.g. for the message-size-locality
figure).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple


class Counter:
    """Monotonic event counter with an optional byte/ops meaning."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Tally:
    """Streaming summary of observed samples (latencies, sizes, ...).

    Stores all samples for exact percentiles; the workloads in this
    project are bounded (at most a few hundred thousand observations)
    so exactness beats approximation here.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return math.fsum(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean; ``nan`` when no samples were observed."""
        if not self.samples:
            return math.nan
        return self.total / len(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    @property
    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(math.fsum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, q: float) -> float:
        """Exact percentile via linear interpolation; ``q`` in [0, 100].

        Returns ``nan`` when no samples were observed (an out-of-range
        ``q`` is still a caller bug and raises).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q={q} out of [0, 100]")
        if not self.samples:
            return math.nan
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = (q / 100.0) * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return data[lo]
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def merge(self, other: "Tally") -> "Tally":
        """Fold ``other``'s samples into this tally (for cross-run or
        cross-node aggregation); returns ``self`` for chaining."""
        self.samples.extend(other.samples)
        return self

    def __repr__(self) -> str:
        if not self.samples:
            return f"<Tally {self.name} empty>"
        return (
            f"<Tally {self.name} n={self.count} mean={self.mean:.3f}"
            f" min={self.minimum:.3f} max={self.maximum:.3f}>"
        )


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    Typical use: queue depth or pool occupancy.  Call ``update(now,
    value)`` whenever the signal changes; ``mean(now)`` integrates up to
    ``now``.
    """

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0):
        self.name = name
        self._value = initial
        self._last_time = start_time
        self._area = 0.0
        self._start = start_time

    @property
    def value(self) -> float:
        return self._value

    def update(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    def mean(self, now: float) -> float:
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / span


class Histogram:
    """Histogram over explicit bucket upper bounds (plus overflow).

    ``bounds`` must be strictly increasing.  A sample ``x`` lands in the
    first bucket with ``x <= bound``; larger samples land in the
    overflow bucket.
    """

    def __init__(self, bounds: Sequence[float], name: str = ""):
        bounds = list(bounds)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bound")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def bucket_of(self, value: float) -> int:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    def items(self) -> Iterable[Tuple[str, int]]:
        labels = [f"<={b:g}" for b in self.bounds] + [f">{self.bounds[-1]:g}"]
        return zip(labels, self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} total={self.total}>"
