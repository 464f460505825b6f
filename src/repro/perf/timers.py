"""Repeated-measurement timing with robust summary statistics.

Lesson content: never report a single timing.  :func:`measure` performs
warm-up iterations (to amortize allocator and cache effects), then repeats
the measurement and summarizes with minimum/median/mean — the *minimum* is
the least noise-contaminated estimate on an otherwise idle machine, which is
why speedup ratios here are computed from minima.  A verdict drawn from a
timing reads the best of at least :data:`MIN_VERDICT_REPEATS` interleaved
samples, each sized by :func:`loops_for` to outlast timer resolution and a
single scheduler stall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "MIN_VERDICT_REPEATS",
    "Measurement",
    "loops_for",
    "measure",
    "measure_pair",
]

#: Fewest interleaved samples a timing-derived verdict is judged on.
MIN_VERDICT_REPEATS = 5
#: Shortest timed sample :func:`loops_for` sizes a callable to.
_MIN_SAMPLE_S = 1e-3


@dataclass(frozen=True)
class Measurement:
    """Summary of repeated wall-clock timings of one callable (seconds)."""

    name: str
    repeats: int
    minimum: float
    median: float
    mean: float
    std: float

    def per_call_us(self) -> float:
        """Minimum time per call in microseconds."""
        return self.minimum * 1e6

    def speedup_over(self, other: "Measurement") -> float:
        """How much faster this measurement is than ``other`` (>1 = faster)."""
        if self.minimum <= 0:
            raise ValueError("cannot compute speedup from non-positive timing")
        return other.minimum / self.minimum


def measure(
    fn: Callable[[], object],
    *,
    name: str = "",
    repeats: int = 7,
    warmup: int = 2,
    inner_loops: int = 1,
) -> Measurement:
    """Time ``fn`` with warm-up and repetition.

    Parameters
    ----------
    fn:
        Zero-argument callable under test.
    repeats:
        Number of recorded timings (each of ``inner_loops`` calls).
    warmup:
        Unrecorded leading calls.
    inner_loops:
        Calls per recorded timing; use >1 for microsecond-scale functions so
        each sample exceeds timer resolution.
    """
    check_positive("repeats", repeats)
    check_positive("inner_loops", inner_loops)
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples = np.empty(repeats)
    for i in range(repeats):
        start = time.perf_counter()
        for _ in range(inner_loops):
            fn()
        samples[i] = (time.perf_counter() - start) / inner_loops
    return Measurement(
        name=name or getattr(fn, "__name__", "anonymous"),
        repeats=int(repeats),
        minimum=float(samples.min()),
        median=float(np.median(samples)),
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)) if repeats > 1 else 0.0,
    )


def loops_for(fn: Callable[[], object]) -> int:
    """Calls per timed sample so that one sample lasts at least 1 ms.

    Doubles the call count until one batch of calls reaches the target;
    the calibration calls double as warm-up.
    """
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - start >= _MIN_SAMPLE_S:
            return loops
        loops *= 2


def measure_pair(
    baseline: Callable[[], object],
    candidate: Callable[[], object],
    *,
    repeats: int = 7,
    warmup: int = 2,
    inner_loops: int | tuple[int, int] = 1,
) -> tuple[Measurement, Measurement, float]:
    """Measure two callables interleaved and return their speedup.

    Interleaving (A, B, A, B, ...) rather than back-to-back blocks reduces
    the chance that a frequency-scaling or background-load drift biases one
    side — a standard methodology point from the lesson module.
    ``inner_loops`` is the calls per sample, for both sides or as a
    ``(baseline, candidate)`` pair when their per-call times differ widely.

    Returns
    -------
    (baseline_measurement, candidate_measurement, speedup)
        ``speedup`` > 1 means the candidate is faster.
    """
    check_positive("repeats", repeats)
    base_loops, cand_loops = (
        inner_loops if isinstance(inner_loops, tuple) else (inner_loops,) * 2
    )
    check_positive("inner_loops", base_loops)
    check_positive("inner_loops", cand_loops)
    for _ in range(warmup):
        baseline()
        candidate()
    base = np.empty(repeats)
    cand = np.empty(repeats)
    for i in range(repeats):
        start = time.perf_counter()
        for _ in range(base_loops):
            baseline()
        base[i] = (time.perf_counter() - start) / base_loops
        start = time.perf_counter()
        for _ in range(cand_loops):
            candidate()
        cand[i] = (time.perf_counter() - start) / cand_loops

    def summarize(name: str, s: np.ndarray) -> Measurement:
        return Measurement(
            name=name,
            repeats=int(repeats),
            minimum=float(s.min()),
            median=float(np.median(s)),
            mean=float(s.mean()),
            std=float(s.std(ddof=1)) if repeats > 1 else 0.0,
        )

    m_base = summarize(getattr(baseline, "__name__", "baseline"), base)
    m_cand = summarize(getattr(candidate, "__name__", "candidate"), cand)
    return m_base, m_cand, m_cand.speedup_over(m_base)
