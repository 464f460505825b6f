"""Tests for the FIFO/backfill scheduler, workload, policies, and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterSimulator,
    Job,
    evaluate_schedule,
    generate_workload,
    naive_deadline_submission,
    staged_batch_submission,
    uniform_submission,
)
from repro.cluster.jobs import JobState
from repro.cluster.workload import POSTER_DEADLINE_H, default_reu_projects


def J(jid, gpus, dur, submit, deadline=1e9, project="p"):
    return Job(jid, project, gpus, dur, submit, deadline)


class TestFIFO:
    def test_serial_when_pool_exhausted(self):
        sim = ClusterSimulator(2)
        recs = sim.run([J(0, 2, 10.0, 0.0), J(1, 1, 5.0, 0.0)])
        assert recs[0].start_time == 0.0
        assert recs[1].start_time == 10.0

    def test_parallel_when_fits(self):
        sim = ClusterSimulator(3)
        recs = sim.run([J(0, 2, 10.0, 0.0), J(1, 1, 5.0, 0.0)])
        assert recs[1].start_time == 0.0

    def test_fifo_head_blocks_queue(self):
        # Head job needs 2 GPUs (unavailable); a 1-GPU job behind it must
        # wait under FIFO even though it would fit.
        sim = ClusterSimulator(2, policy="fifo")
        recs = sim.run(
            [J(0, 1, 10.0, 0.0), J(1, 2, 5.0, 1.0), J(2, 1, 1.0, 2.0)]
        )
        assert recs[2].start_time >= recs[1].end_time

    def test_all_jobs_complete(self):
        sim = ClusterSimulator(2)
        recs = sim.run([J(i, 1, 2.0, float(i)) for i in range(10)])
        assert all(r.state is JobState.COMPLETED for r in recs)

    def test_job_wider_than_pool_rejected(self):
        sim = ClusterSimulator(2)
        with pytest.raises(ValueError, match="requests"):
            sim.run([J(0, 3, 1.0, 0.0)])

    def test_duplicate_ids_rejected(self):
        sim = ClusterSimulator(2)
        with pytest.raises(ValueError, match="duplicate"):
            sim.run([J(0, 1, 1.0, 0.0), J(0, 1, 1.0, 0.0)])

    def test_makespan(self):
        sim = ClusterSimulator(1)
        sim.run([J(0, 1, 3.0, 0.0), J(1, 1, 4.0, 0.0)])
        assert sim.makespan == 7.0


class TestBackfill:
    def test_small_job_backfills_into_gap(self):
        # Head (job 1) needs the full pool and must wait for job 0; job 2 is
        # short enough to finish before job 0 frees the pool.
        sim = ClusterSimulator(2, policy="backfill")
        recs = sim.run(
            [J(0, 1, 10.0, 0.0), J(1, 2, 5.0, 1.0), J(2, 1, 2.0, 2.0)]
        )
        assert recs[2].start_time == 2.0  # backfilled immediately
        assert recs[1].start_time == 10.0  # head start unharmed

    def test_backfill_never_delays_head(self):
        sim_fifo = ClusterSimulator(2, policy="fifo")
        sim_bf = ClusterSimulator(2, policy="backfill")
        jobs = [
            J(0, 1, 10.0, 0.0),
            J(1, 2, 5.0, 1.0),
            J(2, 1, 9.0, 2.0),  # too long to finish before shadow time
        ]
        head_fifo = sim_fifo.run(list(jobs))[1].start_time
        head_bf = sim_bf.run(list(jobs))[1].start_time
        assert head_bf == head_fifo

    def test_backfill_reduces_mean_wait(self):
        jobs = [J(0, 3, 20.0, 0.0), J(1, 4, 10.0, 0.0)] + [
            J(i, 1, 1.0, 0.5) for i in range(2, 12)
        ]
        m_fifo = evaluate_schedule(ClusterSimulator(4).run(list(jobs)))
        m_bf = evaluate_schedule(
            ClusterSimulator(4, policy="backfill").run(list(jobs))
        )
        assert m_bf.mean_wait < m_fifo.mean_wait

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),                  # gpus
                st.floats(0.5, 20.0),               # duration
                st.floats(0.0, 50.0),               # submit
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_no_overallocation_and_completion(self, raw):
        """Backfill never over-allocates and always completes every job."""
        jobs = [
            Job(i, "p", g, d, s, 1e9) for i, (g, d, s) in enumerate(raw)
        ]
        sim = ClusterSimulator(4, policy="backfill")
        recs = sim.run(jobs)  # GPUPool raises internally on over-allocation
        assert all(r.state is JobState.COMPLETED for r in recs)
        # No job starts before submission.
        assert all(r.start_time >= r.job.submit_time - 1e-9 for r in recs)


class TestWorkloadAndPolicies:
    def test_default_projects_count(self):
        assert len(default_reu_projects()) == 11

    def test_workload_ids_unique_and_sorted(self):
        jobs = generate_workload(seed=0)
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == len(ids)
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_naive_submissions_cluster_near_deadline(self):
        projects = default_reu_projects()
        times = naive_deadline_submission(projects, seed=0)
        for spec in projects:
            for t in times[spec.name]:
                assert t >= POSTER_DEADLINE_H - spec.final_hours - 12.0 - 1e-9

    def test_staged_batches_are_separated(self):
        projects = default_reu_projects()
        times = staged_batch_submission(projects, n_batches=3, batch_gap_hours=48.0)
        finish_targets = {
            spec.name: times[spec.name][0] + spec.final_hours for spec in projects
        }
        # At least 3 distinct completion targets (one per batch).
        assert len({round(v / 48.0) for v in finish_targets.values()}) >= 3

    def test_staged_policy_is_deterministic(self):
        projects = default_reu_projects()
        assert staged_batch_submission(projects) == staged_batch_submission(projects)

    def test_uniform_within_window(self):
        projects = default_reu_projects()
        times = uniform_submission(projects, window_hours=100.0, seed=1)
        for spec in projects:
            latest = POSTER_DEADLINE_H - spec.final_hours
            for t in times[spec.name]:
                assert latest - 100.0 - 1e-9 <= t <= latest + 1e-9

    def test_policy_length_mismatch_rejected(self):
        projects = default_reu_projects()
        times = {projects[0].name: [0.0]}  # wrong count
        if projects[0].n_final != 1:
            with pytest.raises(ValueError, match="submit times"):
                generate_workload(projects, submit_times=times, seed=0)


class TestContentionFinding:
    """The headline R1 result: staging fixes the end-of-program crunch."""

    def test_staged_beats_naive_on_lateness(self):
        projects = default_reu_projects()
        naive = generate_workload(
            projects, submit_times=naive_deadline_submission(projects, seed=1), seed=42
        )
        staged = generate_workload(
            projects, submit_times=staged_batch_submission(projects), seed=42
        )
        m_naive = evaluate_schedule(
            ClusterSimulator(6, policy="backfill").run(naive)
        )
        m_staged = evaluate_schedule(
            ClusterSimulator(6, policy="backfill").run(staged)
        )
        assert m_naive.missed_deadlines > 0
        assert m_staged.missed_deadlines == 0
        assert m_staged.mean_wait_final_week < m_naive.mean_wait_final_week

    def test_metrics_require_completion(self):
        from repro.cluster.jobs import JobRecord

        rec = JobRecord(job=J(0, 1, 1.0, 0.0))
        with pytest.raises(ValueError, match="not completed"):
            evaluate_schedule([rec])

    def test_metrics_fields(self):
        sim = ClusterSimulator(2)
        recs = sim.run([J(0, 1, 2.0, 0.0, deadline=1.0)])
        m = evaluate_schedule(recs)
        assert m.missed_deadlines == 1
        assert m.total_lateness == pytest.approx(1.0)
        assert m.makespan == 2.0


class TestEDF:
    def test_earliest_deadline_runs_first(self):
        sim = ClusterSimulator(1, policy="edf")
        jobs = [
            Job(0, "late", 1, 5.0, 0.0, deadline=100.0),
            Job(1, "urgent", 1, 5.0, 0.1, deadline=10.0),
            Job(2, "mid", 1, 5.0, 0.2, deadline=50.0),
        ]
        recs = sim.run(jobs)
        # Job 0 starts immediately (pool free); 1 then preempts the queue
        # order over 2 by deadline.
        assert recs[1].start_time < recs[2].start_time

    def test_edf_reduces_lateness_vs_fifo(self):
        # A long lenient-deadline job submitted just before several urgent ones.
        jobs = [Job(0, "lenient", 2, 30.0, 0.0, deadline=500.0)] + [
            Job(i, f"urgent{i}", 1, 5.0, 0.1 + i * 0.01, deadline=12.0 + 5 * i)
            for i in range(1, 6)
        ]
        fifo = evaluate_schedule(
            ClusterSimulator(2, policy="fifo").run(list(jobs))
        )
        edf = evaluate_schedule(
            ClusterSimulator(2, policy="edf").run(list(jobs))
        )
        assert edf.total_lateness <= fifo.total_lateness

    def test_stable_among_equal_deadlines(self):
        sim = ClusterSimulator(1, policy="edf")
        jobs = [
            Job(0, "a", 1, 1.0, 0.0, deadline=10.0),
            Job(1, "b", 1, 1.0, 0.1, deadline=10.0),
            Job(2, "c", 1, 1.0, 0.2, deadline=10.0),
        ]
        recs = sim.run(jobs)
        starts = [r.start_time for r in recs]
        assert starts == sorted(starts)

    def test_edf_alone_does_not_fix_the_crunch(self):
        """Deadline-aware scheduling cannot conjure capacity (A2 extended)."""
        projects = default_reu_projects()
        times = naive_deadline_submission(projects, seed=1)
        jobs = generate_workload(projects, submit_times=times, seed=42)
        m = evaluate_schedule(
            ClusterSimulator(6, policy="edf").run(jobs)
        )
        assert m.missed_deadlines > 0


class TestFairShare:
    def test_light_user_cuts_ahead_of_heavy_backlog(self):
        sim = ClusterSimulator(1, policy="fairshare")
        jobs = (
            [Job(0, "heavy", 1, 10.0, 0.0, 1e9)]
            + [Job(i, "heavy", 1, 10.0, 0.1, 1e9) for i in (1, 2)]
            + [Job(3, "light", 1, 1.0, 0.2, 1e9)]
        )
        recs = sim.run(jobs)
        # After heavy's first job commits 10 GPU-hours, the light project's
        # job outranks heavy's remaining backlog.
        assert recs[3].start_time < recs[1].start_time or recs[3].start_time < recs[2].start_time

    def test_usage_accounting(self):
        sim = ClusterSimulator(2, policy="fairshare")
        sim.run([Job(0, "a", 2, 3.0, 0.0, 1e9), Job(1, "b", 1, 2.0, 0.0, 1e9)])
        usage = sim.project_usage()
        assert usage["a"] == pytest.approx(6.0)
        assert usage["b"] == pytest.approx(2.0)

    def test_fairshare_narrows_wait_disparity(self):
        """Per-project max wait spread shrinks vs FIFO under a hog."""
        def workload():
            jobs = [Job(i, "hog", 2, 8.0, 0.0 + i * 0.01, 1e9) for i in range(5)]
            jobs += [
                Job(10 + i, f"small{i}", 1, 1.0, 0.5, 1e9) for i in range(4)
            ]
            return jobs

        def max_wait_by_project(policy):
            sim = ClusterSimulator(2, policy=policy)
            recs = sim.run(workload())
            waits: dict[str, float] = {}
            for r in recs:
                waits[r.job.project] = max(waits.get(r.job.project, 0.0), r.wait_time)
            smalls = [v for k, v in waits.items() if k.startswith("small")]
            return max(smalls)

        assert max_wait_by_project("fairshare") < max_wait_by_project(
            "fifo"
        )

    def test_all_jobs_still_complete(self):
        sim = ClusterSimulator(3, policy="fairshare")
        recs = sim.run([Job(i, f"p{i % 3}", 1 + i % 2, 2.0, float(i), 1e9) for i in range(12)])
        assert all(r.state is JobState.COMPLETED for r in recs)


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        from repro.cluster import dump_trace, load_trace

        jobs = generate_workload(seed=0)
        path = dump_trace(jobs, tmp_path / "season.trace", comment="season 2023")
        restored = load_trace(path)
        assert restored == sorted(jobs, key=lambda j: j.job_id)

    def test_float_precision_exact(self):
        from repro.cluster import dumps_trace, loads_trace

        job = Job(0, "p", 1, 1.0 / 3.0, 2.0 / 7.0, 1e9)
        (restored,) = loads_trace(dumps_trace([job]))
        assert restored.duration == job.duration  # repr round-trips floats
        assert restored.submit_time == job.submit_time

    def test_replay_reproduces_schedule(self):
        from repro.cluster import dumps_trace, loads_trace

        jobs = generate_workload(seed=3)
        replayed = loads_trace(dumps_trace(jobs))
        a = evaluate_schedule(
            ClusterSimulator(6, policy="backfill").run(list(jobs))
        )
        b = evaluate_schedule(
            ClusterSimulator(6, policy="backfill").run(replayed)
        )
        assert a.mean_wait == b.mean_wait
        assert a.makespan == b.makespan

    def test_comments_preserved_ignored(self):
        from repro.cluster import dumps_trace, loads_trace

        text = dumps_trace([Job(0, "p", 1, 1.0, 0.0, 10.0)], comment="two\nlines")
        assert "; two" in text and "; lines" in text
        assert len(loads_trace(text)) == 1

    def test_missing_header_rejected(self):
        from repro.cluster import loads_trace

        with pytest.raises(ValueError, match="header"):
            loads_trace("0 p 1 1.0 0.0 10.0\n")

    def test_malformed_line_rejected(self):
        from repro.cluster import dumps_trace, loads_trace

        text = dumps_trace([Job(0, "p", 1, 1.0, 0.0, 10.0)]) + "1 q 2\n"
        with pytest.raises(ValueError, match="fields"):
            loads_trace(text)

    def test_whitespace_project_rejected(self):
        from repro.cluster import dumps_trace

        with pytest.raises(ValueError, match="whitespace"):
            dumps_trace([Job(0, "bad name", 1, 1.0, 0.0, 10.0)])

    def test_mem_field_round_trips(self):
        from repro.cluster import dumps_trace, loads_trace

        jobs = [
            Job(0, "gpu_only", 1, 1.0, 0.0, 10.0),
            Job(1, "hbm", 2, 3.5, 1.25, 20.0, mem=80.5),
        ]
        text = dumps_trace(jobs)
        # GPU-only lines keep the v1 shape (6 fields); memory adds a 7th.
        lines = [l for l in text.splitlines() if not l.startswith(";")]
        assert len(lines[0].split()) == 6
        assert len(lines[1].split()) == 7
        restored = loads_trace(text)
        assert restored == jobs


class TestPolicyRegistry:
    def test_policy_instances_are_accepted(self):
        from repro.cluster.scheduling import HybridBackfill

        sim = ClusterSimulator(2, policy=HybridBackfill(2, key="edf"))
        assert sim.policy_name == "hybrid-2-edf"
        recs = sim.run([J(0, 2, 5.0, 0.0), J(1, 1, 1.0, 0.0)])
        assert all(r.state is JobState.COMPLETED for r in recs)

    def test_parameterized_names(self):
        from repro.cluster import get_policy

        assert get_policy("hybrid-7").reserve_depth == 7
        assert get_policy("conservative-edf").reserve_depth is None
        assert get_policy("hybrid-2-fairshare").name == "hybrid-2-fairshare"

    def test_unknown_policy_lists_registry(self):
        with pytest.raises(KeyError, match="backfill"):
            ClusterSimulator(2, policy="wishful-thinking")

    def test_register_policy_rejects_duplicates(self):
        from repro.cluster import register_policy

        with pytest.raises(ValueError, match="already registered"):
            register_policy("fifo", lambda: None)

    def test_available_policies_cover_the_family(self):
        from repro.cluster import available_policies

        names = available_policies()
        for expected in ("fifo", "edf", "fairshare", "backfill", "easy",
                         "conservative", "hybrid-2", "hybrid-4"):
            assert expected in names


class TestReservationPolicies:
    def test_conservative_backfills_around_all_reservations(self):
        # Pool 4: job0 fills it; job1 (3 GPUs) is reserved at t=10; job2
        # (1 GPU, 5h) is reserved beside job1 over [10, 15).  Job3
        # (1 GPU, 30h) must plan around *both* reservations: the single
        # free GPU only opens at t=15 when job2's slot ends.
        jobs = [
            J(0, 4, 10.0, 0.0),
            J(1, 3, 10.0, 1.0),
            J(2, 1, 5.0, 2.0),
            J(3, 1, 30.0, 3.0),
        ]
        recs = ClusterSimulator(4, policy="conservative").run(jobs)
        assert recs[1].start_time == 10.0  # reservation honoured
        assert recs[2].start_time == 10.0  # planned beside it
        assert recs[3].start_time == 15.0  # around both reservations

    def test_hybrid_k_matches_conservative_when_k_covers_queue(self):
        jobs = [J(i, (i % 4) + 1, 5.0 + i, float(i)) for i in range(8)]
        conservative = ClusterSimulator(4, policy="conservative").run(jobs)
        hybrid = ClusterSimulator(4, policy="hybrid-8").run(jobs)
        assert [(r.start_time, r.end_time) for r in conservative] == [
            (r.start_time, r.end_time) for r in hybrid
        ]

    def test_preempt_event_on_reservation_displacement(self):
        from repro import obs

        jobs = [
            J(0, 4, 10.0, 0.0, deadline=1000.0),
            J(1, 4, 10.0, 1.0, deadline=900.0),
            J(2, 4, 10.0, 2.0, deadline=100.0),  # tighter, overtakes job1
        ]
        with obs.capture_events() as events:
            recs = ClusterSimulator(4, policy="conservative-edf").run(jobs)
        preempts = [e for e in events if e["kind"] == "job_preempt"]
        assert len(preempts) == 1
        assert preempts[0]["payload"]["job_id"] == 1
        assert preempts[0]["payload"]["reserved_start"] == 10.0
        assert preempts[0]["payload"]["new_start"] == 20.0
        assert recs[2].start_time == 10.0
        assert recs[1].start_time == 20.0

    def test_trace_reader_counts_preempt_churn(self):
        from repro import obs
        from repro.obs.trace import TraceReader

        jobs = [
            J(0, 4, 10.0, 0.0, deadline=1000.0),
            J(1, 4, 10.0, 1.0, deadline=900.0),
            J(2, 4, 10.0, 2.0, deadline=100.0),
        ]
        with obs.capture_events() as events:
            ClusterSimulator(4, policy="conservative-edf").run(jobs)
        (run,) = TraceReader.from_records(events).cluster_runs()
        assert run.n_preempts == 1
        assert run.policy == "conservative-edf"
        assert run.as_dict()["n_preempts"] == 1

    def test_fifo_ordered_policies_emit_no_preempts(self):
        from repro import obs

        jobs = [J(i, (i % 4) + 1, 4.0, float(i)) for i in range(10)]
        for policy in ("backfill", "conservative", "hybrid-2"):
            with obs.capture_events() as events:
                ClusterSimulator(4, policy=policy).run(jobs)
            assert [e for e in events if e["kind"] == "job_preempt"] == []


class TestMemoryAwareScheduling:
    def test_memory_blocks_admission_on_tracked_pool(self):
        # Both jobs fit on GPUs; memory serializes them.
        jobs = [
            Job(0, "a", 1, 10.0, 0.0, 1e9, mem=70.0),
            Job(1, "b", 1, 10.0, 0.0, 1e9, mem=70.0),
        ]
        recs = ClusterSimulator(4, policy="fifo", mem_capacity=100.0).run(jobs)
        assert recs[0].start_time == 0.0
        assert recs[1].start_time == 10.0

    def test_memory_ignored_on_untracked_pool(self):
        jobs = [
            Job(0, "a", 1, 10.0, 0.0, 1e9, mem=70.0),
            Job(1, "b", 1, 10.0, 0.0, 1e9, mem=70.0),
        ]
        recs = ClusterSimulator(4, policy="fifo").run(jobs)
        assert recs[0].start_time == 0.0
        assert recs[1].start_time == 0.0

    def test_oversized_memory_request_rejected(self):
        sim = ClusterSimulator(4, mem_capacity=100.0)
        with pytest.raises(ValueError, match="mem"):
            sim.run([Job(0, "a", 1, 1.0, 0.0, 1e9, mem=200.0)])

    def test_backfill_respects_memory_reservations(self):
        # GPU-wise job2 could backfill; memory-wise it cannot.
        jobs = [
            Job(0, "a", 4, 10.0, 0.0, 1e9, mem=20.0),
            Job(1, "b", 4, 10.0, 1.0, 1e9, mem=90.0),
            Job(2, "c", 1, 50.0, 2.0, 1e9, mem=90.0),
        ]
        recs = ClusterSimulator(
            4, policy="conservative", mem_capacity=100.0
        ).run(jobs)
        assert recs[1].start_time == 10.0
        assert recs[2].start_time == 20.0

    def test_negative_mem_rejected(self):
        with pytest.raises(ValueError, match="mem"):
            Job(0, "a", 1, 1.0, 0.0, 1e9, mem=-1.0)

    @pytest.mark.parametrize(
        "policy",
        ["fifo", "edf", "fairshare", "backfill", "conservative",
         "conservative-edf", "hybrid-1", "hybrid-3"],
    )
    def test_full_capacity_mem_job_survives_float_residue(self, policy):
        # Hypothesis-found regression: releasing fractional-mem jobs in a
        # different order than they were allocated leaves ~1e-15 residue
        # in the pool's running mem sum, and an exact-comparison admission
        # check then wedges a mem == capacity job in PENDING forever.
        jobs = [Job(i, f"p{i % 3}", 1, 1.0, 0.0, 1e9, mem=m)
                for i, m in enumerate(
                    [0.0, 0.0, 0.0, 0.0,
                     1.5359187949929982, 64.0, 32.64530191099035])]
        recs = ClusterSimulator(4, policy=policy, mem_capacity=64.0).run(jobs)
        assert all(r.state is JobState.COMPLETED for r in recs)


class TestSyntheticWorkload:
    def test_deterministic_and_sorted(self):
        from repro.cluster import synthetic_workload

        a = synthetic_workload(200, 8, mix="mixed", seed=7)
        b = synthetic_workload(200, 8, mix="mixed", seed=7)
        assert a == b
        assert all(
            a[i].submit_time <= a[i + 1].submit_time for i in range(len(a) - 1)
        )
        assert [j.job_id for j in a] == list(range(200))

    def test_gpu_counts_capped_at_pool(self):
        from repro.cluster import synthetic_workload

        jobs = synthetic_workload(100, 2, mix="llm_heavy", seed=0)
        assert max(j.n_gpus for j in jobs) <= 2

    def test_mixes_shape_the_stream(self):
        from repro.cluster import synthetic_workload

        llm = synthetic_workload(400, 8, mix="llm_heavy", seed=3)
        mixed = synthetic_workload(400, 8, mix="mixed", seed=3)
        mean = lambda js: sum(j.duration * j.n_gpus for j in js) / len(js)
        assert mean(llm) > mean(mixed)

    def test_unknown_mix_rejected(self):
        from repro.cluster import synthetic_workload

        with pytest.raises(KeyError, match="llm_heavy"):
            synthetic_workload(10, 4, mix="nope")

    def test_unstable_load_rejected(self):
        from repro.cluster import synthetic_workload

        with pytest.raises(ValueError, match="load"):
            synthetic_workload(10, 4, load=1.5)


class TestEngineScaling:
    def test_calendar_is_pruned_as_time_advances(self):
        from repro.cluster import synthetic_workload

        sim = ClusterSimulator(8)
        sim.run(synthetic_workload(500, 8, seed=11))
        # The calendar holds the future profile only: once the season is
        # over it collapses to a handful of breakpoints, not O(jobs).
        assert len(sim.calendar) < 20

    def test_earliest_fit_query_against_running_jobs(self):
        sim = ClusterSimulator(4)
        sim.run([J(0, 4, 10.0, 0.0)], until=1.0)
        assert sim.earliest_fit(1, 5.0) == 10.0
