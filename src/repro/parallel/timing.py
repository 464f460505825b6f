"""Wall-clock accounting for sweeps, reported through ``repro.perf``.

The perf lesson module's rule — never report a single timing, compare
minima — applies to sweep-level speedups too.  :func:`time_sweep` runs one
sweep configuration repeatedly and summarizes it as a
:class:`repro.perf.timers.Measurement`; :func:`compare_workers` produces
the serial-vs-parallel-vs-cached table the parallel benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.cache import ResultCache
from repro.parallel.sweep import Sweep, SweepResult
from repro.perf.timers import Measurement

__all__ = ["SweepTiming", "time_sweep", "compare_workers"]


@dataclass(frozen=True)
class SweepTiming:
    """One timed sweep configuration."""

    label: str
    workers: int | None  # as requested; ``None`` is pmap's automatic mode
    measurement: Measurement
    result: SweepResult

    @property
    def wall_s(self) -> float:
        return self.measurement.minimum

    def speedup_over(self, other: "SweepTiming") -> float:
        """How much faster this configuration is than ``other``."""
        return self.measurement.speedup_over(other.measurement)


def _summarize(label: str, samples: list[float]) -> Measurement:
    arr = np.asarray(samples)
    return Measurement(
        name=label,
        repeats=len(samples),
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if len(samples) > 1 else 0.0,
    )


def time_sweep(
    sweep: Sweep,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    repeats: int = 1,
    label: str = "",
) -> SweepTiming:
    """Run ``sweep`` ``repeats`` times and summarize its wall clock.

    The last run's records are kept so callers can check bit-identity
    between timed configurations.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    samples: list[float] = []
    result: SweepResult | None = None
    for _ in range(repeats):
        result = sweep.run(workers=workers, cache=cache)
        samples.append(result.wall_s)
    assert result is not None
    name = label or (
        f"{sweep.name}[workers={'auto' if workers is None else workers}]"
    )
    return SweepTiming(
        label=name,
        workers=workers,
        measurement=_summarize(name, samples),
        result=result,
    )


def compare_workers(
    sweep: Sweep,
    worker_counts: list[int],
    *,
    cache: ResultCache | None = None,
    repeats: int = 1,
) -> dict[int, SweepTiming]:
    """Time the same sweep at several worker counts.

    Returns a mapping ``workers -> SweepTiming``; speedups are then
    ``timings[n].speedup_over(timings[1])``.  Pass a cache to also measure
    warm re-runs (every timing after the first becomes a 100% hit run).
    """
    if not worker_counts:
        raise ValueError("worker_counts must be non-empty")
    return {
        n: time_sweep(sweep, workers=n, cache=cache, repeats=repeats)
        for n in worker_counts
    }
