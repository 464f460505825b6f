"""The scheduling engine against a reference scheduler.

Every FIFO-ordered policy in the registry is one reservation sweep at
some depth: 0 is plain FIFO, 1 is EASY (``"backfill"``), k is
``hybrid-<k>`` and ``None`` is conservative.  :func:`reference_schedule`
is that sweep written once more, in the shape of stmobo's
``_backfill_sched(max_backfill)`` (SNIPPETS.md, snippet 3), over a plain
list of ``(start, end, gpus, mem)`` intervals instead of the engine's
event queue, pool and reservation calendar.  It follows the engine's
event rules: completions before submissions, one dispatch per
timestamp, and in each dispatch the head-start loop, then the sweep.

Hypothesis then asserts that the engine's ``(job_id, start, end)``
schedule equals the reference's on GPU-only and memory-tracked pools,
with a ``check_system`` invariant after every tick on both sides
(snippet 1).  Times, durations and memory are integers, so no float tie
can decide an outcome.  A last property pins EASY's one promise: a
waiting head job never starts later than its earliest fit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSimulator, Job
from repro.cluster.jobs import JobState
from repro.cluster.scheduling import get_policy


def reference_schedule(jobs, gpus, mem, depth):
    """``{job_id: (start, end)}`` for the sweep at ``depth`` (``None``: all).

    ``mem == 0`` leaves memory untracked, as in the engine.
    """
    def usage(intervals, t):
        live = [(g, m) for s, e, g, m in intervals if s <= t < e]
        return sum(g for g, _ in live), sum(m for _, m in live)

    def fits(intervals, start, job):
        end = start + job.duration
        for t in [start] + [s for s, *_ in intervals if start < s < end]:
            used_g, used_m = usage(intervals, t)
            if used_g + job.n_gpus > gpus or (mem and used_m + job.mem > mem):
                return False
        return True

    def earliest(intervals, now, job):
        ends = {e for _, e, *_ in intervals if e > now}
        return next(t for t in sorted({now} | ends) if fits(intervals, t, job))

    def begin(job, now, *timelines):
        schedule[job.job_id] = (now, now + job.duration)
        for timeline in timelines:
            timeline.append((now, now + job.duration, job.n_gpus, job.mem))

    def check_system(now):
        """After every tick: within capacity, and the head cannot start."""
        used_g, used_m = usage(running, now)
        assert 0 <= used_g <= gpus, f"t={now}: {used_g} GPUs in use of {gpus}"
        assert 0 <= used_m and (not mem or used_m <= mem), f"t={now}: {used_m}"
        assert not queue or not fits(running, now, queue[0]), f"t={now}"

    arrivals = sorted(jobs, key=lambda j: j.submit_time)  # stable: list order
    queue, running, schedule = [], [], {}
    while arrivals or queue:
        ends = [e for _, e, *_ in running]
        now = min([a.submit_time for a in arrivals[:1]] + ends)
        running = [iv for iv in running if iv[1] > now]  # completions first
        while arrivals and arrivals[0].submit_time == now:
            queue.append(arrivals.pop(0))
        # One dispatch: the head-start loop, then the sweep.
        while queue and fits(running, now, queue[0]):
            begin(queue.pop(0), now, running)
        if queue and depth != 0:
            plan, reserved, waiting = list(running), 0, []
            for job in queue:
                if depth is None or reserved < depth:
                    at = earliest(plan, now, job)
                    if at == now:
                        begin(job, now, running, plan)
                        continue
                    plan.append((at, at + job.duration, job.n_gpus, job.mem))
                    reserved += 1
                    waiting.append(job)
                elif fits(plan, now, job):
                    begin(job, now, running, plan)
                else:
                    waiting.append(job)
            queue = waiting
        check_system(now)
    return schedule


class CheckedSimulator(ClusterSimulator):
    """The engine with a ``check_system`` after every dispatch."""

    def _dispatch(self):
        super()._dispatch()
        running = [r.job for r in self._records.values()
                   if r.state is JobState.RUNNING]
        pool, now = self.pool, self.now
        assert pool.in_use == sum(j.n_gpus for j in running) <= pool.capacity
        assert self.calendar.available(now) == pool.available, f"t={now}"
        if pool.mem_capacity:
            assert pool.mem_in_use == sum(j.mem for j in running)
            assert pool.mem_in_use <= pool.mem_capacity
            assert self.calendar.available_mem(now) == pool.mem_available
        if self.queue:
            head = self.queue[0].job
            assert not pool.can_allocate(head.n_gpus, head.mem), f"t={now}"


@st.composite
def workloads(draw, tracked, min_jobs=1):
    """``(jobs, gpus, mem)`` with integer times, durations and memory."""
    gpus = draw(st.sampled_from([2, 4, 8]))
    mem = draw(st.integers(4, 16)) if tracked else 0
    rows = draw(st.lists(
        st.tuples(st.integers(1, gpus), st.integers(1, 20),
                  st.integers(0, 20), st.integers(0, mem)),
        min_size=min_jobs, max_size=14,
    ))
    jobs = [Job(i, f"p{i % 3}", g, float(d), float(s), 200.0, mem=float(m))
            for i, (g, d, s, m) in enumerate(rows)]
    return jobs, gpus, float(mem)


ORACLE_POLICIES = ["fifo", "backfill", "easy", "hybrid-2", "hybrid-4",
                   "conservative"]


@pytest.mark.parametrize("tracked", [False, True], ids=["gpu", "mem"])
@pytest.mark.parametrize("policy", ORACLE_POLICIES)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_engine_matches_reference_schedule(policy, tracked, data):
    jobs, gpus, mem = data.draw(workloads(tracked))
    sim = CheckedSimulator(gpus, policy=policy, mem_capacity=mem)
    engine = {r.job.job_id: (r.start_time, r.end_time) for r in sim.run(jobs)}
    depth = get_policy(policy).reserve_depth
    assert engine == reference_schedule(jobs, gpus, mem, depth)


def test_reference_easy_backfills_only_what_spares_the_head():
    # Job 0 holds 3 of 4 GPUs until t=10; job 1 (4 GPUs) is the head and
    # is reserved at 10.  Job 2 (1 GPU, ends by 10) backfills; job 3
    # (1 GPU, runs past 10) would delay the head, so it waits under EASY.
    jobs = [Job(0, "p", 3, 10.0, 0.0, 99.0), Job(1, "p", 4, 5.0, 1.0, 99.0),
            Job(2, "p", 1, 9.0, 1.0, 99.0), Job(3, "p", 1, 20.0, 1.0, 99.0)]
    assert reference_schedule(jobs, 4, 0.0, 1) == {
        0: (0.0, 10.0), 1: (10.0, 15.0), 2: (1.0, 10.0), 3: (15.0, 35.0)}
    assert reference_schedule(jobs, 4, 0.0, 0)[2] == (15.0, 24.0)


# FIFO-ordered backfillers: the head job holds a reservation, and nothing
# behind it may push that reservation later.
HEAD_PROTECTING = ["backfill", "hybrid-1", "hybrid-3", "conservative"]


@pytest.mark.parametrize("tracked", [False, True], ids=["gpu", "mem"])
@pytest.mark.parametrize("policy", HEAD_PROTECTING)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_head_never_starts_later_than_its_earliest_fit(policy, tracked, data):
    """At each plan pass the head's calendar ``earliest_fit`` is a promise:
    the job's actual start is no later than the smallest one recorded.

    Short job lists rarely queue behind a blocked head, so every draw
    holds at least ten jobs.
    """
    jobs, gpus, mem = data.draw(workloads(tracked, min_jobs=10))
    promised: dict[int, float] = {}
    resolved = get_policy(policy)
    plan = resolved.plan

    def recording_plan(sim):
        head = sim.queue[0].job
        fit = sim.earliest_fit(head.n_gpus, head.duration, head.mem)
        promised[head.job_id] = min(fit, promised.get(head.job_id, fit))
        plan(sim)

    resolved.plan = recording_plan
    records = ClusterSimulator(gpus, policy=resolved, mem_capacity=mem).run(jobs)
    for record in records:
        if record.job.job_id in promised:
            assert record.start_time <= promised[record.job.job_id], (
                f"job {record.job.job_id} promised "
                f"{promised[record.job.job_id]}, started {record.start_time}"
            )
