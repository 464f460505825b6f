"""In-process metrics registry: counters, gauges, timing histograms.

Where the event stream (:mod:`repro.obs.events`) records *what happened*
in order, the registry accumulates *how much and how fast* — cache hit
counters, per-epoch loss gauges, sweep duration histograms — and renders
one text report at the end of a run.

Each process keeps its own registry.  A :func:`repro.parallel.pmap`
pool worker resets its registry before each cell and returns what the
cell recorded with its value; the coordinator folds it in with
:meth:`Metrics.merge`, in submission order.  Counter values and timer
counts therefore read the same at any worker count.  Nothing here feeds
cache keys or event payloads, so timings stay out of the determinism
contract.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.utils.tables import Table

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "TimingHistogram",
    "Metrics",
    "get_metrics",
]

#: Default latency bucket boundaries (seconds) — sub-5ms cache answers
#: through multi-second smoke executions, roughly log-spaced.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> int:
        """Add ``n`` (must be >= 0); returns the new value."""
        if n < 0:
            raise ValueError(f"counters only increase, got inc({n})")
        self.value += n
        return self.value


@dataclass
class Gauge:
    """A last-write-wins instantaneous value."""

    name: str
    value: float = math.nan

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value


class Histogram:
    """A fixed-bucket counting histogram (the Prometheus histogram model).

    Unlike :class:`TimingHistogram` (which keeps every raw sample),
    a ``Histogram`` accumulates only per-bucket counts and a running
    sum — O(1) memory however many requests pass through — and its
    bucket boundaries are fixed at creation, so cumulative-bucket
    exposition (``..._bucket{le="x"}``) and cross-scrape aggregation
    are well-defined.

    Examples
    --------
    >>> h = Histogram("lat", buckets=(0.1, 1.0))
    >>> for v in (0.05, 0.05, 0.5, 2.0):
    ...     h.observe(v)
    >>> h.count, round(h.sum, 2)
    (4, 2.6)
    >>> h.cumulative()
    [(0.1, 2), (1.0, 3), (inf, 4)]
    """

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError("the +Inf bucket is implicit; bounds must be finite")
        self.name = name
        self.buckets = bounds
        # counts[i] holds observations in (bounds[i-1], bounds[i]];
        # counts[-1] is the overflow (+Inf) bucket.
        self._counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (must be finite and >= 0)."""
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        self._counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last.

        This is exactly the ``_bucket`` series Prometheus expects:
        counts are monotonically non-decreasing and the final pair
        always equals :attr:`count`.
        """
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self._counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        The overflow bucket has no upper bound, so quantiles landing
        there report the largest finite bound (a lower bound on the
        truth — the same convention Prometheus's ``histogram_quantile``
        uses).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0.0
        lower = 0.0
        for bound, n in zip(self.buckets, self._counts):
            if n and running + n >= target:
                frac = (target - running) / n
                return lower + frac * (bound - lower)
            running += n
            lower = bound
        return self.buckets[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": [
                {"le": "+Inf" if math.isinf(bound) else bound, "count": n}
                for bound, n in self.cumulative()
            ],
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


@dataclass
class TimingHistogram:
    """Accumulated duration samples for one named timer."""

    name: str
    samples: list[float] = field(default_factory=list)

    def observe(self, seconds: float) -> None:
        """Record one duration (seconds, must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"negative duration {seconds}")
        self.samples.append(float(seconds))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total_s(self) -> float:
        return float(sum(self.samples))

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    @property
    def max_s(self) -> float:
        return max(self.samples) if self.samples else 0.0


class Metrics:
    """A named-instrument registry (create-on-first-use).

    Examples
    --------
    >>> m = Metrics()
    >>> m.counter("cache.hits").inc()
    1
    >>> m.gauge("train.loss").set(0.25)
    0.25
    >>> m.timer("sweep").observe(0.5)
    >>> sorted(m.snapshot()["counters"])
    ['cache.hits']
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, TimingHistogram] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def timer(self, name: str) -> TimingHistogram:
        if name not in self._timers:
            self._timers[name] = TimingHistogram(name)
        return self._timers[name]

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        """A fixed-bucket histogram (create-on-first-use).

        The first caller fixes the bucket boundaries; later callers may
        omit ``buckets`` or must pass the same ones — silently merging
        differently-bucketed observations would corrupt the cumulative
        series.
        """
        if name not in self._histograms:
            self._histograms[name] = Histogram(
                name, DEFAULT_BUCKETS if buckets is None else buckets
            )
        elif buckets is not None and tuple(
            float(b) for b in buckets
        ) != self._histograms[name].buckets:
            raise ValueError(
                f"histogram {name!r} already exists with buckets "
                f"{self._histograms[name].buckets}"
            )
        return self._histograms[name]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict view of every instrument (for manifests / JSONL)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "timers": {
                n: {
                    "count": t.count,
                    "total_s": t.total_s,
                    "mean_s": t.mean_s,
                    "max_s": t.max_s,
                }
                for n, t in sorted(self._timers.items())
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }

    def report(self, *, title: str = "Metrics") -> str:
        """Render every instrument as one text table (returns a string)."""
        table = Table(["instrument", "kind", "value"], title=title, decimals=4)
        for name, counter in sorted(self._counters.items()):
            table.add_row([name, "counter", counter.value])
        for name, gauge in sorted(self._gauges.items()):
            table.add_row([name, "gauge", gauge.value])
        for name, timer in sorted(self._timers.items()):
            table.add_row(
                [
                    name,
                    "timer",
                    f"n={timer.count} total={timer.total_s:.4f}s "
                    f"mean={timer.mean_s:.4f}s max={timer.max_s:.4f}s",
                ]
            )
        for name, hist in sorted(self._histograms.items()):
            table.add_row(
                [
                    name,
                    "histogram",
                    f"n={hist.count} sum={hist.sum:.4f}s "
                    f"p50={hist.quantile(0.5):.4f}s "
                    f"p95={hist.quantile(0.95):.4f}s "
                    f"p99={hist.quantile(0.99):.4f}s",
                ]
            )
        return table.render()

    def merge(self, other: "Metrics") -> None:
        """Fold another registry's instruments into this one.

        Counters add, timers and histograms pool their observations, and
        a gauge takes ``other``'s value when it has one (the later write).

        Examples
        --------
        >>> a, b = Metrics(), Metrics()
        >>> _ = a.counter("cells").inc(2)
        >>> _ = b.counter("cells").inc(3)
        >>> a.merge(b)
        >>> a.counter("cells").value
        5
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            if not math.isnan(gauge.value):
                self.gauge(name).set(gauge.value)
        for name, timer in other._timers.items():
            self.timer(name).samples.extend(timer.samples)
        for name, hist in other._histograms.items():
            mine = self.histogram(name, hist.buckets)
            mine._counts = [a + b for a, b in zip(mine._counts, hist._counts)]
            mine.sum += hist.sum
            mine.count += hist.count

    def reset(self) -> None:
        """Drop every instrument (the test suite resets between tests)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()


_global = Metrics()


def get_metrics() -> Metrics:
    """The process-wide registry every instrumented layer shares."""
    return _global
