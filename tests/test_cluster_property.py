"""Property tests (hypothesis) for the cluster scheduler's invariants.

The DES is the substrate the staged-batch remedy and the throughput
benchmarks both lean on, so its resource accounting is pinned down over
*random* job lists, per SNIPPETS idiom: whatever the queue discipline —
including every reservation-based member of the policy registry —

* the pool's in-use GPU count never exceeds capacity and never goes
  negative (checked on every allocate/release via an instrumented pool),
  and on a memory-tracked pool the same holds for memory;
* every job runs to completion, starts no earlier than its submission,
  and holds its GPUs for exactly its duration;
* total committed GPU-hours equal the sum of each job's n_gpus x duration;
* FIFO-ordered backfilling never delays a held reservation: a promised
  start time is only ever revoked (``job_preempt``) under priority
  reordering, so none may fire when the order key is FIFO.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster import ClusterSimulator, Job
from repro.cluster.jobs import JobState
from repro.cluster.resources import GPUPool

CAPACITY = 4
MEM_CAPACITY = 64.0

# (n_gpus, duration, submit_time, deadline) with gpus <= CAPACITY.
job_tuples = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=CAPACITY),
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)

# The same shape plus a per-job memory demand <= MEM_CAPACITY.
mem_job_tuples = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=CAPACITY),
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=MEM_CAPACITY, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)

# The invariants are policy-blind, so every family member rides the same
# sweep.
POLICIES = [
    "fifo",
    "backfill",
    "edf",
    "fairshare",
    "conservative",
    "conservative-edf",
    "hybrid-1",
    "hybrid-3",
    "hybrid-2-fairshare",
]

# Reservation-holding policies whose order key is FIFO: promises must
# never move later, hence zero job_preempt events.
FIFO_ORDERED_BACKFILLERS = ["backfill", "conservative",
                            "hybrid-1", "hybrid-3"]


class InstrumentedPool(GPUPool):
    """GPUPool that records in-use levels after every transition."""

    def __init__(self, capacity, *, mem_capacity=0.0):
        super().__init__(capacity, mem_capacity=mem_capacity)
        self.levels = [0]
        self.mem_levels = [0.0]

    def allocate(self, n, now, mem=0.0):
        super().allocate(n, now, mem)
        self.levels.append(self.in_use)
        self.mem_levels.append(self.mem_in_use)

    def release(self, n, now, mem=0.0):
        super().release(n, now, mem)
        self.levels.append(self.in_use)
        self.mem_levels.append(self.mem_in_use)


def build_jobs(raw):
    return [
        Job(i, f"proj{i % 3}", gpus, dur, submit, deadline)
        for i, (gpus, dur, submit, deadline) in enumerate(raw)
    ]


def build_mem_jobs(raw):
    return [
        Job(i, f"proj{i % 3}", gpus, dur, submit, deadline, mem=mem)
        for i, (gpus, dur, submit, deadline, mem) in enumerate(raw)
    ]


def run_instrumented(jobs, policy, *, mem_capacity=0.0):
    sim = ClusterSimulator(CAPACITY, policy=policy,
                           mem_capacity=mem_capacity)
    sim.pool = InstrumentedPool(CAPACITY, mem_capacity=mem_capacity)
    records = sim.run(jobs)
    return sim, records


@pytest.mark.parametrize("policy", POLICIES)
@given(raw=job_tuples)
@settings(max_examples=40, deadline=None)
def test_property_resources_stay_within_capacity(policy, raw):
    sim, _ = run_instrumented(build_jobs(raw), policy)
    levels = np.asarray(sim.pool.levels)
    assert levels.min() >= 0
    assert levels.max() <= CAPACITY


@pytest.mark.parametrize("policy", POLICIES)
@given(raw=mem_job_tuples)
@settings(max_examples=25, deadline=None)
def test_property_memory_stays_within_capacity(policy, raw):
    """On a memory-tracked pool, neither dimension oversubscribes."""
    sim, records = run_instrumented(
        build_mem_jobs(raw), policy, mem_capacity=MEM_CAPACITY
    )
    levels = np.asarray(sim.pool.levels)
    assert levels.min() >= 0
    assert levels.max() <= CAPACITY
    mem_levels = np.asarray(sim.pool.mem_levels)
    assert mem_levels.min() >= -1e-9
    assert mem_levels.max() <= MEM_CAPACITY + 1e-9
    assert all(r.state is JobState.COMPLETED for r in records)


@pytest.mark.parametrize("policy", POLICIES)
@given(raw=job_tuples)
@settings(max_examples=40, deadline=None)
def test_property_every_job_completes_exactly_once(policy, raw):
    jobs = build_jobs(raw)
    sim, records = run_instrumented(jobs, policy)
    assert len(records) == len(jobs)
    for record in records:
        assert record.state is JobState.COMPLETED
        assert record.start_time is not None and record.end_time is not None
        assert record.start_time >= record.job.submit_time
        assert record.end_time == pytest.approx(
            record.start_time + record.job.duration
        )
    assert sim.pool.in_use == 0


@pytest.mark.parametrize("policy", POLICIES)
@given(raw=job_tuples)
@settings(max_examples=40, deadline=None)
def test_property_gpu_hours_are_conserved(policy, raw):
    jobs = build_jobs(raw)
    sim, _ = run_instrumented(jobs, policy)
    expected = sum(j.n_gpus * j.duration for j in jobs)
    horizon = max(sim.makespan, 1e-9)
    accounted = sim.pool.utilization(horizon) * CAPACITY * horizon
    assert accounted == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("policy", POLICIES)
@given(raw=job_tuples)
@settings(max_examples=25, deadline=None)
def test_property_makespan_respects_work_lower_bounds(policy, raw):
    """No schedule finishes before physics allows.

    (EASY backfill can legitimately *worsen* makespan vs FIFO — its
    reservation only protects the head-of-queue job — so the portable
    invariant is the lower bound, not a cross-policy ordering.)
    """
    jobs = build_jobs(raw)
    sim = ClusterSimulator(CAPACITY, policy=policy)
    makespan = max(r.end_time for r in sim.run(jobs))
    # A job cannot finish before it is submitted plus its duration...
    assert makespan >= max(j.submit_time + j.duration for j in jobs) - 1e-9
    # ...and the pool cannot burn GPU-hours faster than its capacity.
    earliest = min(j.submit_time for j in jobs)
    total_work = sum(j.n_gpus * j.duration for j in jobs)
    assert makespan >= earliest + total_work / CAPACITY - 1e-9


@pytest.mark.parametrize("policy", FIFO_ORDERED_BACKFILLERS)
@given(raw=job_tuples)
@settings(max_examples=25, deadline=None)
def test_property_fifo_backfill_never_delays_reservations(policy, raw):
    """Backfilled jobs never push a held reservation later under FIFO order.

    ``job_preempt`` is emitted exactly when a reservation promise moves
    later (or is dropped while the job still waits); with a FIFO order
    key nothing can overtake a reserved job, so the stream must be empty.
    """
    jobs = build_jobs(raw)
    with obs.capture_events() as events:
        sim = ClusterSimulator(CAPACITY, policy=policy)
        records = sim.run(jobs)
    assert all(r.state is JobState.COMPLETED for r in records)
    assert [e for e in events if e["kind"] == "job_preempt"] == []
