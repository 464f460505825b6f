"""The scheduling engine: a slurm-like DES over pluggable policies.

The simulator is three layers now:

* **engine** (this module + :mod:`repro.cluster.engine` +
  :mod:`repro.cluster.calendar`) — the deterministic event queue and an
  incrementally maintained
  :class:`~repro.cluster.calendar.ReservationCalendar` of future free
  capacity, so ``earliest_fit`` queries never rescan the job list;
* **policies** (:mod:`repro.cluster.scheduling`) — FIFO, EDF, fair-share,
  EASY backfill, conservative backfill, and hybrid-k backfill behind one
  :class:`~repro.cluster.scheduling.SchedulingPolicy` protocol;
* **resources** (:mod:`repro.cluster.resources`) — a (gpus, mem)
  :class:`~repro.cluster.resources.ResourceVector` pool, gpu-only by
  default for seed bit-compatibility.

A policy is named by its registry name (``"fifo"``, ``"backfill"``,
``"conservative"``, ``"hybrid-4"``, ``"conservative-edf"``), resolved by
:func:`repro.cluster.scheduling.get_policy`, or passed as a policy
instance.

The simulator reports through :mod:`repro.obs` once per ``run``, not
once per job: ``cluster_run_finish`` carries the run's contention fold
(:meth:`ClusterSimulator.contention`, in deterministic simulation
hours), which is what ``repro trace`` shows.  The one per-job event is
the rare ``job_preempt``, a reservation revocation (conservative and
hybrid-k under non-FIFO ordering may push a held reservation later when
a higher-priority arrival displaces it).
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque

from repro import obs
from repro.cluster.calendar import ReservationCalendar
from repro.cluster.engine import EventQueue
from repro.cluster.jobs import Job, JobRecord, JobState
from repro.cluster.metrics import Contention, contention
from repro.cluster.resources import GPUPool
from repro.cluster.scheduling import SchedulingPolicy, get_policy

__all__ = ["ClusterSimulator"]

# Event priorities: completions must be processed before submissions at the
# same instant so freed GPUs are visible, and dispatch runs last.
_PRIORITY_COMPLETE = 0
_PRIORITY_SUBMIT = 1
_PRIORITY_DISPATCH = 2


class ClusterSimulator:
    """Simulate a GPU pool executing a batch workload.

    Parameters
    ----------
    n_gpus:
        Pool capacity.
    policy:
        Queue discipline: a policy registry name (``"fifo"``,
        ``"backfill"``, ``"conservative"``, ``"hybrid-4"``, ...) or a
        :class:`~repro.cluster.scheduling.SchedulingPolicy` instance.
    mem_capacity:
        Optional pool memory (GB).  ``0.0`` — the default — leaves the
        dimension untracked (gpu-only admission, the seed behaviour).

    Examples
    --------
    >>> from repro.cluster import Job
    >>> sim = ClusterSimulator(n_gpus=2)
    >>> recs = sim.run([Job(0, "p", 2, 10.0, 0.0, 100.0),
    ...                 Job(1, "q", 1, 5.0, 0.0, 100.0)])
    >>> recs[1].start_time  # had to wait for job 0 to free the pool
    10.0
    """

    def __init__(
        self,
        n_gpus: int,
        *,
        policy: SchedulingPolicy | str = "fifo",
        mem_capacity: float = 0.0,
    ) -> None:
        self.pool = GPUPool(n_gpus, mem_capacity=mem_capacity)
        self.policy = policy
        self._policy = get_policy(policy)
        self.calendar = ReservationCalendar(n_gpus, mem_capacity)
        self.queue: deque[JobRecord] = deque()
        self.events = EventQueue()
        self._records: dict[int, JobRecord] = {}
        self._dispatch_scheduled = False
        self._usage: dict[str, float] = {}  # project -> committed GPU-hours
        self._telemetry = False  # sampled per run()
        # Reservations revoked or pushed back during the last run().
        self.n_preempts = 0
        self.n_plans = 0
        self._fold: tuple[int, Contention] | None = None

    @property
    def now(self) -> float:
        """Current simulation time (the event queue is the only clock)."""
        return self.events.now

    @property
    def usage(self) -> dict[str, float]:
        """Committed GPU-hours per project (the fair-share signal)."""
        return self._usage

    @property
    def policy_name(self) -> str:
        """The resolved policy's registry name (``"backfill"`` for EASY)."""
        return self._policy.name

    def earliest_fit(self, n_gpus: int, duration: float,
                     mem: float = 0.0) -> float:
        """Earliest start at which the request fits the running commitments
        (an engine-level query; policies overlay reservations on a copy)."""
        return self.calendar.earliest_fit(n_gpus, duration, self.now, mem=mem)

    # -- event actions -------------------------------------------------

    def _submit(self, record: JobRecord) -> None:
        self.queue.append(record)
        self._request_dispatch()

    def _complete(self, record: JobRecord) -> None:
        now = self.events.now
        record.state = JobState.COMPLETED
        self.pool.release(record.job.n_gpus, now, record.job.mem)
        self.calendar.prune(now)
        self._request_dispatch()

    def _request_dispatch(self) -> None:
        # Coalesce: one dispatch pass per timestamp regardless of how many
        # submissions/completions landed there.
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.events.schedule(
                self.events.now,
                self._dispatch,
                priority=_PRIORITY_DISPATCH,
                label="dispatch",
            )

    def _start(self, record: JobRecord) -> None:
        now = self.events.now
        job = record.job
        self.pool.allocate(job.n_gpus, now, job.mem)
        self._usage[job.project] = (
            self._usage.get(job.project, 0.0) + job.n_gpus * job.duration
        )
        record.state = JobState.RUNNING
        record.start_time = now
        end = now + job.duration
        record.end_time = end  # final once COMPLETED fires
        self.calendar.add(now, end, job.n_gpus, job.mem)
        self.events.schedule(
            end,
            lambda r=record: self._complete(r),
            priority=_PRIORITY_COMPLETE,
            label=f"complete:{job.job_id}",
        )

    def _emit_preempt(self, record: JobRecord, old_start: float,
                      new_start: float | None) -> None:
        """A held reservation was revoked (pushed later or dropped)."""
        self.n_preempts += 1
        if self._telemetry:
            obs.emit(
                "job_preempt",
                {
                    "job_id": record.job.job_id,
                    "t": self.events.now,
                    "reserved_start": old_start,
                    "new_start": new_start,
                },
            )

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        policy = self._policy
        self.queue = policy.order(self.queue, self)
        # Start jobs from the head while they fit.
        queue = self.queue
        pool = self.pool
        while queue and pool.can_allocate(queue[0].job.n_gpus,
                                          queue[0].job.mem):
            self._start(queue.popleft())
        if queue:
            self.n_plans += 1
            policy.plan(self)

    # -- public API ------------------------------------------------------

    def run(self, jobs: list[Job], *, until: float | None = None) -> list[JobRecord]:
        """Execute ``jobs`` to completion and return their records.

        Records are returned in ``job_id`` order.  Raises if any job requests
        more GPUs (or memory) than the pool holds (it could never start).
        """
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job_id in workload")
        t0 = time.perf_counter()
        # Telemetry routing is sampled once per run: job_preempt payloads
        # and the contention fold are built only when a sink will get them.
        self._telemetry = obs.enabled()
        self.n_preempts = 0
        self._fold = None
        self._policy.reset()
        for job in jobs:
            if job.n_gpus > self.pool.capacity:
                raise ValueError(
                    f"job {job.job_id} requests {job.n_gpus} GPUs, "
                    f"pool has {self.pool.capacity}"
                )
            if job.mem > 0.0 and self.pool.mem_capacity > 0.0 and \
                    job.mem > self.pool.mem_capacity:
                raise ValueError(
                    f"job {job.job_id} requests {job.mem} mem, "
                    f"pool has {self.pool.mem_capacity}"
                )
            record = JobRecord(job=job)
            self._records[job.job_id] = record
            self.events.schedule(
                job.submit_time,
                lambda r=record: self._submit(r),
                priority=_PRIORITY_SUBMIT,
                label=f"submit:{job.job_id}",
            )
        self.events.run(until=until)
        if self._telemetry:
            # Simulation times are part of the deterministic payload: they
            # are a property of the workload and policy, not of the host.
            obs.emit(
                "cluster_run_finish",
                {"n_jobs": len(jobs), "makespan": self.makespan,
                 "contention": dataclasses.asdict(self.contention())},
                wall={"wall_s": time.perf_counter() - t0},
            )
        metrics = obs.get_metrics()
        metrics.counter("cluster.jobs").inc(len(jobs))
        metrics.gauge("cluster.makespan").set(self.makespan)
        return [self._records[i] for i in sorted(self._records)]

    def project_usage(self) -> dict[str, float]:
        """Committed GPU-hours per project (grows when a job starts)."""
        return dict(self._usage)

    def contention(self) -> Contention:
        """Fold the jobs submitted so far, in ``job_id`` order, into
        :class:`~repro.cluster.metrics.Contention`.

        A run cut short by ``until`` counts only the jobs whose submission
        fired, and a job still running has no end yet.  The fold is made
        once per state: until another event fires, a second call (e.g.
        after ``run`` folded for ``cluster_run_finish``) returns it again.
        """
        now, fired = self.now, self.events.events_fired
        if self._fold is None or self._fold[0] != fired:
            self._fold = (fired, contention(
                [
                    (r.job.submit_time, r.start_time,
                     r.end_time if r.state is JobState.COMPLETED else None,
                     r.job.n_gpus)
                    for _, r in sorted(self._records.items())
                    if r.job.submit_time <= now
                ],
                self.pool.capacity, policy=self.policy_name,
                n_preempts=self.n_preempts,
            ))
        return self._fold[1]

    def op_counts(self) -> dict[str, int]:
        """The engine's work since construction: the calendar's
        :attr:`~ReservationCalendar.ops`, ``plan_calls`` and
        ``events_fired``."""
        return {**dataclasses.asdict(self.calendar.ops),
                "plan_calls": self.n_plans,
                "events_fired": self.events.events_fired}

    @property
    def makespan(self) -> float:
        """Completion time of the last finished job (0 when nothing ran)."""
        ends = [
            r.end_time
            for r in self._records.values()
            if r.state is JobState.COMPLETED and r.end_time is not None
        ]
        return max(ends, default=0.0)
