"""repro.obs.trace — loading, span analytics, utilization, attribution."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.exp.cli import main
from repro.obs.trace import (
    TraceError,
    TraceReader,
    render_critical_path,
    render_summary,
    render_utilization,
)
from repro.parallel import pmap


def ev(kind, seq, payload=None, wall=None, schema=obs.SCHEMA_VERSION):
    """One synthetic event record in the on-disk shape."""
    return {
        "schema": schema,
        "seq": seq,
        "kind": kind,
        "ts": 0.0,
        "payload": payload or {},
        "wall": wall or {},
    }


def span_pair(seq, path, dur_s, depth=None, **payload):
    """A span_start/span_end pair for a hand-built tree (two events)."""
    name = path.rsplit("/", 1)[-1]
    depth = path.count("/") if depth is None else depth
    base = {"span": name, "path": path, "depth": depth, **payload}
    return [
        ev("span_start", seq, base),
        ev("span_end", seq + 1, base, {"dur_s": dur_s}),
    ]


def trace_cell(config, seed):
    """Module-level pmap cell (picklable) with a deterministic value."""
    return config * 100 + seed % 11


class TestLoading:
    def write(self, tmp_path, lines):
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_load_from_file_and_from_run_dir(self, tmp_path):
        self.write(tmp_path, [json.dumps(ev("alpha", 0))])
        from_dir = TraceReader.load(tmp_path)
        from_file = TraceReader.load(tmp_path / "events.jsonl")
        assert len(from_dir) == len(from_file) == 1
        assert from_dir.events[0]["kind"] == "alpha"

    def test_missing_stream_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="no event stream"):
            TraceReader.load(tmp_path)

    def test_truncated_final_line_is_dropped_and_flagged(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(ev("alpha", 0))])
        with path.open("a") as fh:
            fh.write('{"schema": 1, "seq": 1, "kind": "be')  # torn record
        reader = TraceReader.load(path)
        assert reader.truncated is True
        assert [e["kind"] for e in reader.events] == ["alpha"]

    def test_corrupt_interior_line_is_a_hard_error(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"schema": 1, "seq": 0, "kind": "br', json.dumps(ev("ok", 1))],
        )
        with pytest.raises(TraceError, match="corrupt event record on line 1"):
            TraceReader.load(path)

    def test_wrong_schema_version_is_a_clear_error(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(ev("alpha", 0, schema=99))])
        with pytest.raises(TraceError, match="schema 99"):
            TraceReader.load(path)
        with pytest.raises(TraceError, match=f"schema {obs.SCHEMA_VERSION}"):
            TraceReader.load(path)

    def test_records_are_restored_to_seq_order(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps(ev("second", 1)), json.dumps(ev("first", 0))],
        )
        reader = TraceReader.load(path)
        assert [e["kind"] for e in reader.events] == ["first", "second"]

    def test_kinds_counts(self):
        reader = TraceReader.from_records(
            [ev("a", 0), ev("b", 1), ev("a", 2)]
        )
        assert reader.kinds() == {"a": 2, "b": 1}


class TestSpanAnalytics:
    def known_tree(self):
        """root(10) -> heavy(7) -> leaf(6); root -> light(2)."""
        events = []
        events.append(ev("span_start", 0, {"span": "root", "path": "root", "depth": 0}))
        events.append(ev("span_start", 1, {"span": "heavy", "path": "root/heavy", "depth": 1}))
        events.append(ev("span_start", 2, {"span": "leaf", "path": "root/heavy/leaf", "depth": 2}))
        events.append(ev("span_end", 3, {"span": "leaf", "path": "root/heavy/leaf", "depth": 2}, {"dur_s": 6.0}))
        events.append(ev("span_end", 4, {"span": "heavy", "path": "root/heavy", "depth": 1}, {"dur_s": 7.0}))
        events += span_pair(5, "root/light", 2.0, depth=1)
        events.append(ev("span_end", 7, {"span": "root", "path": "root", "depth": 0}, {"dur_s": 10.0}))
        return events

    def test_span_tree_shape_and_self_time(self):
        (root,) = TraceReader.from_records(self.known_tree()).span_tree()
        assert root.path == "root" and root.dur_s == 10.0
        assert [c.path for c in root.children] == ["root/heavy", "root/light"]
        assert root.self_s == pytest.approx(10.0 - 7.0 - 2.0)
        heavy = root.children[0]
        assert heavy.children[0].path == "root/heavy/leaf"
        assert heavy.self_s == pytest.approx(1.0)

    def test_critical_path_follows_the_heaviest_child(self):
        hops = TraceReader.from_records(self.known_tree()).critical_path()
        assert [h["path"] for h in hops] == [
            "root", "root/heavy", "root/heavy/leaf",
        ]
        assert [h["dur_s"] for h in hops] == [10.0, 7.0, 6.0]
        assert hops[0]["fraction"] == pytest.approx(1.0)
        assert hops[2]["fraction"] == pytest.approx(0.6)

    def test_unclosed_span_reports_children_sum(self):
        events = self.known_tree()[:-1]  # root never ends (truncated run)
        (root,) = TraceReader.from_records(events).span_tree()
        assert root.dur_s is None
        assert root.total_s == pytest.approx(9.0)  # heavy + light

    def test_no_spans_means_empty_critical_path(self):
        reader = TraceReader.from_records([ev("run_start", 0)])
        assert reader.critical_path() == []
        assert "no spans" in render_critical_path(reader)

    def test_real_spans_round_trip_through_capture(self):
        with obs.capture_events() as events:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        hops = TraceReader.from_records(events).critical_path()
        assert [h["path"] for h in hops] == ["outer", "outer/inner"]


class TestPmapUtilization:
    def synthetic_call(self):
        """Four cells on two workers: durations 1, 1, 1, 10 (a straggler)."""
        events = [ev("pmap_start", 0, {"fn": "m.f", "n_cells": 4,
                                       "seeded": True, "cached": False})]
        durs = {0: 1.0, 1: 1.0, 2: 1.0, 3: 10.0}
        pids = {0: 11, 1: 12, 2: 11, 3: 12}
        seq = 1
        for i in range(4):
            events.append(ev("cell_start", seq, {"index": i, "seed": i})); seq += 1
            events.append(ev("cell_finish", seq, {"index": i},
                             {"dur_s": durs[i], "pid": pids[i]})); seq += 1
        events.append(ev(
            "pmap_finish", seq,
            {"fn": "m.f", "n_cells": 4, "n_executed": 4, "n_cache_hits": 0},
            {"wall_s": 11.0, "workers": 2, "mode": "pool", "fallback": None},
        ))
        return events

    def test_busy_utilization_and_per_worker_slices(self):
        (call,) = TraceReader.from_records(self.synthetic_call()).pmap_calls()
        assert call.busy_s == pytest.approx(13.0)
        assert call.utilization == pytest.approx(13.0 / 22.0)
        slices = {w.worker: w for w in call.worker_slices}
        assert slices["11"].cells == 2 and slices["11"].busy_s == pytest.approx(2.0)
        assert slices["12"].busy_s == pytest.approx(11.0)
        assert slices["11"].idle_fraction(call.wall_s) == pytest.approx(
            1 - 2.0 / 11.0
        )

    def test_straggler_detection_against_the_median(self):
        (call,) = TraceReader.from_records(self.synthetic_call()).pmap_calls()
        (straggler,) = call.stragglers()
        assert straggler["index"] == 3
        assert straggler["ratio"] == pytest.approx(10.0)
        assert call.median_cell_s == pytest.approx(1.0)

    def test_workers_1_vs_4_utilization_invariant(self):
        """Worker count changes attribution, never the accounted work."""
        with obs.capture_events() as serial_events:
            pmap(trace_cell, [1, 2, 3, 4], 0, workers=1)
        with obs.capture_events() as parallel_events:
            pmap(trace_cell, [1, 2, 3, 4], 0, workers=4)
        (serial,) = TraceReader.from_records(serial_events).pmap_calls()
        (parallel,) = TraceReader.from_records(parallel_events).pmap_calls()
        for call in (serial, parallel):
            assert call.n_cells == 4
            assert sum(w.cells for w in call.worker_slices) == 4
            assert sum(w.busy_s for w in call.worker_slices) == pytest.approx(
                call.busy_s
            )
            assert 0.0 < call.utilization <= 1.0
        # The serial run executes in exactly one process.
        assert len(serial.worker_slices) == 1

    def test_render_utilization_mentions_workers(self):
        reader = TraceReader.from_records(self.synthetic_call())
        text = render_utilization(reader)
        assert "pmap utilization" in text and "per-worker timeline" in text


class TestClusterContention:
    def test_simulated_run_analytics(self):
        from repro.cluster import Job
        from repro.cluster.scheduler import ClusterSimulator

        jobs = [
            Job(0, "p", 1, 10.0, 0.0, 100.0),
            Job(1, "q", 1, 5.0, 0.0, 100.0),
        ]
        with obs.capture_events() as events:
            ClusterSimulator(n_gpus=1).run(jobs)
        (run,) = TraceReader.from_records(events).cluster_runs()
        assert run.n_jobs == 2 and run.n_gpus == 1
        assert run.makespan == pytest.approx(15.0)
        assert run.busy_gpu_hours == pytest.approx(15.0)
        assert run.utilization == pytest.approx(1.0)
        assert run.mean_wait == pytest.approx(5.0)  # waits 0 and 10
        assert run.peak_queue_depth == 1  # job 1 queued while job 0 runs
        assert run.tail_utilization == pytest.approx(1.0)

    def test_traced_policy_run_matches_schedule_metrics(self):
        from repro.cluster.policies import naive_deadline_submission
        from repro.cluster.study import run_policy_traced
        from repro.cluster.workload import default_reu_projects

        projects = default_reu_projects()
        times = naive_deadline_submission(projects, seed=1)
        metrics, contention = run_policy_traced(times, 6, projects=projects)
        assert contention is not None
        assert contention.n_jobs == metrics.n_jobs
        assert contention.makespan == pytest.approx(metrics.makespan)
        assert contention.mean_wait == pytest.approx(metrics.mean_wait)
        # The end-of-program crunch: the tail window is the busy one.
        assert contention.tail_utilization > contention.utilization

    @pytest.mark.parametrize("policy", ["backfill", "conservative-edf"])
    def test_trace_view_equals_the_record_fold_exactly(self, policy):
        # R1 folds the simulator's records; `repro trace` folds the same
        # jobs rebuilt from events.  Both must give the same bits.
        from repro.cluster.metrics import contention
        from repro.cluster.scheduler import ClusterSimulator
        from repro.cluster.workload import synthetic_workload

        sim = ClusterSimulator(8, policy=policy)
        with obs.capture_events() as events:
            records = sim.run(synthetic_workload(300, 8, mix="mixed", seed=3))
        from_records = contention(
            [(r.job.submit_time, r.start_time, r.end_time, r.job.n_gpus)
             for r in records],
            8, policy=sim.policy_name, n_preempts=sim.n_preempts,
        )
        assert from_records == TraceReader.from_records(events).cluster_runs()[0]
        if policy == "conservative-edf":
            assert from_records.n_preempts > 0


class TestClusterRunRecord:
    """The simulator reports once per run, not once per job."""

    def test_a_truncated_run_counts_submitted_jobs_and_completed_work(self):
        from repro.cluster.jobs import JobState
        from repro.cluster.scheduler import ClusterSimulator
        from repro.cluster.workload import synthetic_workload

        jobs = synthetic_workload(300, 8, mix="mixed", seed=3)
        until = sorted(job.submit_time for job in jobs)[150]
        with obs.capture_events() as events:
            records = ClusterSimulator(8, policy="backfill").run(
                jobs, until=until
            )
        (run,) = TraceReader.from_records(events).cluster_runs()
        completed = [r for r in records if r.state is JobState.COMPLETED]
        running = [r for r in records if r.state is JobState.RUNNING]
        assert completed and running
        assert run.n_jobs == sum(job.submit_time <= until for job in jobs)
        assert run.n_jobs < len(jobs)
        assert run.busy_gpu_hours == pytest.approx(
            sum(r.job.n_gpus * (r.end_time - r.start_time) for r in completed)
        )
        assert run.makespan == max(r.end_time for r in completed)

    @pytest.mark.parametrize("policy, fifo_ordered", [
        ("fifo", True), ("backfill", True), ("conservative-edf", False),
    ])
    def test_one_record_per_run(self, policy, fifo_ordered):
        from repro.cluster.scheduler import ClusterSimulator
        from repro.cluster.workload import synthetic_workload

        sim = ClusterSimulator(8, policy=policy)
        with obs.capture_events() as events:
            sim.run(synthetic_workload(300, 8, mix="mixed", seed=3))
        kinds = [e["kind"] for e in events]
        assert kinds.count("cluster_run_finish") == 1
        assert set(kinds) <= {"cluster_run_finish", "job_preempt"}
        if fifo_ordered:
            assert "job_preempt" not in kinds


class TestCacheAttribution:
    def test_counts_bucketed_by_experiment_frame(self):
        events = [
            ev("cache_miss", 0, {"index": 0, "key": "k0"}),
            ev("experiment_start", 1, {"experiment": "E1"}),
            ev("cache_miss", 2, {"index": 0, "key": "k1"}),
            ev("cache_store", 3, {"index": 0, "key": "k1"}),
            ev("experiment_finish", 4, {"experiment": "E1"}),
            ev("experiment_start", 5, {"experiment": "E2"}),
            ev("cache_hit", 6, {"index": 0, "key": "k1"}),
            ev("cache_hit", 7, {"index": 1, "key": "k2"}),
            ev("experiment_finish", 8, {"experiment": "E2"}),
        ]
        attribution = {
            a.scope: a
            for a in TraceReader.from_records(events).cache_attribution()
        }
        assert attribution["(run)"].misses == 1
        assert attribution["E1"].misses == 1 and attribution["E1"].stores == 1
        assert attribution["E2"].hits == 2
        assert attribution["E2"].hit_rate == pytest.approx(1.0)
        assert attribution["E1"].hit_rate == pytest.approx(0.0)


class TestTraceCLI:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "T1", "--smoke", "--no-cache",
                     "--out", str(out)]) == 0
        return out

    def test_summary_and_sections(self, run_dir, capsys):
        capsys.readouterr()
        assert main(["trace", str(run_dir),
                     "--utilization", "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "critical path" in out
        assert "T1" in out

    def test_json_document_has_the_advertised_sections(self, run_dir, tmp_path):
        json_out = tmp_path / "trace.json"
        assert main(["trace", str(run_dir), "--json", str(json_out)]) == 0
        doc = json.loads(json_out.read_text())
        assert {"critical_path", "pmap", "cluster", "cache",
                "experiments"} <= set(doc)
        assert doc["experiments"]["T1"]["wall_s"] > 0
        assert [h["path"] for h in doc["critical_path"]][:1] == ["T1"]

    def test_trace_agrees_with_results_json_timings(self, run_dir):
        reader = TraceReader.load(run_dir)
        results = json.loads((run_dir / "results.json").read_text())
        trace_timings = {
            exp: info["wall_s"]
            for exp, info in reader.experiment_timings().items()
        }
        assert trace_timings == results["timings"]
        (record,) = results["experiments"]
        assert record["wall_s"] == record["seconds"]

    def test_run_dir_carries_prometheus_metrics(self, run_dir):
        text = (run_dir / "metrics.prom").read_text()
        assert "# TYPE repro_span_T1_seconds summary" in text
        # Every sample line carries the run's identity labels.
        assert 'repro_span_T1_seconds_count{run_id="run",tier="smoke"} 1' in text

    def test_unreadable_stream_exits_2(self, tmp_path, capsys):
        (tmp_path / "events.jsonl").write_text(
            json.dumps(ev("alpha", 0, schema=99)) + "\n"
        )
        assert main(["trace", str(tmp_path)]) == 2
        assert "schema 99" in capsys.readouterr().err


def test_render_summary_lists_cache_attribution(tmp_path):
    events = [
        ev("experiment_start", 0, {"experiment": "E1"}),
        ev("cache_hit", 1, {"index": 0, "key": "k"}),
        ev("experiment_finish", 2, {"experiment": "E1"},
           {"dur_s": 1.5}),
    ]
    text = render_summary(TraceReader.from_records(events))
    assert "cache attribution" in text
    assert "E1" in text
