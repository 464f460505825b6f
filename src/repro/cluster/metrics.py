"""Schedule quality metrics.

The contention story is told by queue-wait statistics near the deadline:
mean and p95 wait, deadline misses, and total lateness.  Utilization and
makespan bound how much a staging policy "pays" for decongestion.
:func:`contention` folds a simulator run's job records once, in
:meth:`~repro.cluster.scheduler.ClusterSimulator.contention`; R1 reports
that fold, and ``repro trace`` reads it from the run's
``cluster_run_finish`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.cluster.jobs import JobRecord, JobState

__all__ = [
    "ScheduleMetrics",
    "Contention",
    "evaluate_schedule",
    "contention",
    "wait_percentiles",
    "tail_utilization",
    "fairness_spread",
]

#: The "end of program" window: the last quarter of a run's makespan.
TAIL_WINDOW_FRACTION = 0.25


@dataclass(frozen=True)
class ScheduleMetrics:
    """Aggregate statistics of one simulated schedule (times in hours)."""

    n_jobs: int
    mean_wait: float
    p95_wait: float
    max_wait: float
    missed_deadlines: int
    total_lateness: float
    makespan: float
    mean_wait_final_week: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n_jobs": self.n_jobs,
            "mean_wait": self.mean_wait,
            "p95_wait": self.p95_wait,
            "max_wait": self.max_wait,
            "missed_deadlines": self.missed_deadlines,
            "total_lateness": self.total_lateness,
            "makespan": self.makespan,
            "mean_wait_final_week": self.mean_wait_final_week,
        }


def evaluate_schedule(
    records: list[JobRecord], *, final_week_start: float | None = None
) -> ScheduleMetrics:
    """Summarize completed job records.

    Parameters
    ----------
    records:
        Output of :meth:`repro.cluster.ClusterSimulator.run`; every record
        must be COMPLETED (raises otherwise — an incomplete schedule has
        undefined waits).
    final_week_start:
        Submissions at/after this time contribute to
        ``mean_wait_final_week`` (default: 7 days before the latest
        deadline), isolating the end-of-program crunch.
    """
    if not records:
        raise ValueError("records must be non-empty")
    incomplete = [r.job.job_id for r in records if r.state is not JobState.COMPLETED]
    if incomplete:
        raise ValueError(f"jobs not completed: {incomplete}")
    waits = np.array([r.wait_time for r in records])
    ends = np.array([r.end_time for r in records])
    if final_week_start is None:
        final_week_start = max(r.job.deadline for r in records) - 7 * 24.0
    final_mask = np.array([r.job.submit_time >= final_week_start for r in records])
    final_waits = waits[final_mask]
    return ScheduleMetrics(
        n_jobs=len(records),
        mean_wait=float(waits.mean()),
        p95_wait=float(np.percentile(waits, 95)),
        max_wait=float(waits.max()),
        missed_deadlines=int(sum(r.missed_deadline for r in records)),
        total_lateness=float(sum(r.lateness for r in records)),
        makespan=float(ends.max()),
        mean_wait_final_week=float(final_waits.mean()) if final_waits.size else 0.0,
    )


def wait_percentiles(
    records: list[JobRecord], percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> dict[str, float]:
    """Queue-wait percentiles as ``{"p50": ..., "p95": ..., "p99": ...}``.

    The policy shoot-out compares disciplines on the wait *distribution*
    rather than the mean: backfilling variants trade median wait against
    tail wait, and only the percentiles expose that trade.
    """
    if not records:
        raise ValueError("records must be non-empty")
    waits = np.array([r.wait_time for r in records])
    return {
        f"p{percentile:g}": float(np.percentile(waits, percentile))
        for percentile in percentiles
    }


def _tail_busy(
    spans: Iterable[tuple[float, float, int]], makespan: float,
    window_frac: float,
) -> tuple[float, float]:
    """GPU-hours busy in the last ``window_frac`` of the makespan, and
    that window's length; ``spans`` are ``(start, end, n_gpus)``."""
    window_start = makespan * (1.0 - window_frac)
    busy = 0.0
    for start, end, n_gpus in spans:
        overlap = min(end, makespan) - max(start, window_start)
        if overlap > 0.0:
            busy += overlap * n_gpus
    return busy, makespan - window_start


def tail_utilization(
    records: list[JobRecord], n_gpus: int, *,
    window_frac: float = TAIL_WINDOW_FRACTION,
) -> float:
    """GPU utilization over the last ``window_frac`` of the makespan.

    The end-of-program window is where the paper's contention bites;
    a discipline that packs the tail well drains the crunch faster.
    """
    if not records:
        raise ValueError("records must be non-empty")
    if not 0.0 < window_frac <= 1.0:
        raise ValueError(f"window_frac must be in (0, 1], got {window_frac}")
    if n_gpus < 1:
        raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
    makespan = max(r.end_time for r in records if r.end_time is not None)
    if makespan <= 0.0:
        return 0.0
    busy, window = _tail_busy(
        [
            (r.start_time, r.end_time, r.job.n_gpus)
            for r in records
            if r.start_time is not None and r.end_time is not None
        ],
        makespan, window_frac,
    )
    return busy / (window * n_gpus)


@dataclass
class Contention:
    """Contention analytics for one simulated cluster run, in simulation
    hours: a property of the workload and policy, not of the host."""

    policy: str
    n_gpus: int
    n_jobs: int
    makespan: float
    busy_gpu_hours: float
    peak_queue_depth: int
    peak_queue_time: float
    mean_wait: float
    p95_wait: float
    tail_utilization: float  # utilization inside the final window
    # Reservation churn: how many times the scheduler revoked or pushed
    # back a held start-time promise (conservative/hybrid backfill under
    # priority reordering).  Zero for FIFO-ordered disciplines.
    n_preempts: int = 0

    @property
    def utilization(self) -> float:
        capacity = self.n_gpus * self.makespan
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_gpu_hours / capacity)

    def as_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "n_gpus": self.n_gpus,
            "n_jobs": self.n_jobs,
            "makespan": self.makespan,
            "utilization": self.utilization,
            "tail_utilization": self.tail_utilization,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_queue_time": self.peak_queue_time,
            "mean_wait": self.mean_wait,
            "p95_wait": self.p95_wait,
            "n_preempts": self.n_preempts,
        }


def contention(
    jobs: Sequence[tuple[float, float | None, float | None, int]],
    n_gpus: int, *, policy: str, n_preempts: int = 0,
) -> Contention:
    """Fold one run's ``(submit, start, end, n_gpus)`` jobs, in ``job_id``
    order, into :class:`Contention` (``start``/``end`` are ``None`` for a
    job that never started/finished).  The order fixes the float sums, so
    callers passing the same jobs get the same bits."""
    spans = [(s, e, g) for _, s, e, g in jobs if s is not None and e is not None]
    waits = [s - submit for submit, s, _, _ in jobs if s is not None]
    makespan = max((e for _, e, _ in spans), default=0.0)
    # Queue depth: submissions push, starts pop; starts sort first at
    # equal times so depth never counts a job both queued and running.
    depth = peak = 0
    peak_t = 0.0
    for t, delta in sorted([(job[0], 1) for job in jobs]
                           + [(s, -1) for _, s, _, _ in jobs if s is not None]):
        depth += delta
        if depth > peak:
            peak, peak_t = depth, t
    tail_busy, tail_span = _tail_busy(spans, makespan, TAIL_WINDOW_FRACTION)
    tail_capacity = n_gpus * tail_span
    return Contention(
        policy=policy,
        n_gpus=n_gpus,
        n_jobs=len(jobs),
        makespan=makespan,
        busy_gpu_hours=sum(g * (e - s) for s, e, g in spans),
        peak_queue_depth=peak,
        peak_queue_time=peak_t,
        mean_wait=sum(waits) / len(waits) if waits else 0.0,
        # Nearest rank: the value is one of the observed waits.
        p95_wait=(
            sorted(waits)[round(0.95 * (len(waits) - 1))] if waits else 0.0
        ),
        tail_utilization=(
            min(1.0, tail_busy / tail_capacity) if tail_capacity > 0 else 0.0
        ),
        n_preempts=n_preempts,
    )


def fairness_spread(records: list[JobRecord]) -> float:
    """Max minus min of per-project mean waits (0 = perfectly even).

    The fair-share story in one number: under FIFO a single GPU-hungry
    project can push every other project's mean wait up; a fair
    discipline keeps the spread tight.
    """
    if not records:
        raise ValueError("records must be non-empty")
    per_project: dict[str, list[float]] = {}
    for r in records:
        per_project.setdefault(r.job.project, []).append(r.wait_time)
    means = [sum(w) / len(w) for w in per_project.values()]
    return float(max(means) - min(means))
