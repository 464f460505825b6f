"""Discrete-event GPU-cluster simulation (the slurm/CHPC substitute).

The paper's assessment section reports that "an array of ML/AI projects
finishing at the same time resulted in GPU availability issues" and proposes
"staging GPU result collection across non-overlapping batches".  This package
reproduces that finding with a layered scheduling engine:

* **engine** — a deterministic event queue
  (:mod:`repro.cluster.engine`), a reservation calendar of future free
  capacity (:mod:`repro.cluster.calendar`), and the simulator driving
  them (:mod:`repro.cluster.scheduler`);
* **policies** — FIFO, EDF, fair-share, EASY backfill, conservative
  backfill, and hybrid-k backfill behind one pluggable
  :class:`~repro.cluster.scheduling.SchedulingPolicy` protocol and a
  name registry (:mod:`repro.cluster.scheduling`);
* **resources** — a (gpus, memory) vector pool, GPU-only by default
  (:mod:`repro.cluster.resources`);
* **workloads & studies** — the deadline-driven REU season generator,
  open-arrival synthetic mixes, submission policies, and the R1/C1
  registered experiments.
"""

from repro.cluster.calendar import ReservationCalendar
from repro.cluster.engine import EventQueue, ScheduledEvent
from repro.cluster.jobs import Job, JobRecord, JobState
from repro.cluster.metrics import (
    ScheduleMetrics,
    evaluate_schedule,
    fairness_spread,
    tail_utilization,
    wait_percentiles,
)
from repro.cluster.policies import (
    naive_deadline_submission,
    staged_batch_submission,
    uniform_submission,
)
from repro.cluster.resources import GPUPool, ResourceVector
from repro.cluster.scheduler import ClusterSimulator
from repro.cluster.scheduling import (
    SchedulingPolicy,
    available_policies,
    get_policy,
    register_policy,
)
from repro.cluster.trace import dump_trace, dumps_trace, load_trace, loads_trace
from repro.cluster.workload import (
    JOB_MIXES,
    ProjectSpec,
    default_reu_projects,
    generate_workload,
    synthetic_workload,
)

__all__ = [
    "EventQueue",
    "ScheduledEvent",
    "ReservationCalendar",
    "Job",
    "JobRecord",
    "JobState",
    "ScheduleMetrics",
    "evaluate_schedule",
    "wait_percentiles",
    "tail_utilization",
    "fairness_spread",
    "naive_deadline_submission",
    "staged_batch_submission",
    "uniform_submission",
    "GPUPool",
    "ResourceVector",
    "ClusterSimulator",
    "SchedulingPolicy",
    "get_policy",
    "register_policy",
    "available_policies",
    "dump_trace",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "ProjectSpec",
    "default_reu_projects",
    "generate_workload",
    "synthetic_workload",
    "JOB_MIXES",
]
