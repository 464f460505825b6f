"""repro.obs.resources + repro.obs.watch: sampling, attribution, live view."""

import io
import json
import os
import time

import pytest

from repro import obs
from repro.obs.events import EventLog
from repro.obs.resources import (
    DEFAULT_INTERVAL_S,
    SAMPLE_KIND,
    ResourceSampler,
    forget_worker_pids,
    note_worker_pids,
    procfs_available,
    resolve_sample_interval,
    sample_processes,
    strip_samples,
    worker_pids,
)
from repro.obs.trace import TraceReader, render_utilization
from repro.obs.watch import EventFollower, WatchState, render_frame, watch_run


def ev(kind, seq, payload=None, wall=None):
    return {
        "schema": obs.SCHEMA_VERSION,
        "seq": seq,
        "kind": kind,
        "ts": 0.0,
        "payload": payload or {},
        "wall": wall or {},
    }


def sample_ev(seq, pid, rss, cpu, role="coordinator"):
    return ev(SAMPLE_KIND, seq, wall={
        "pid": pid, "role": role, "source": "procfs",
        "rss_bytes": rss, "cpu_s": cpu, "interval_s": 0.25,
    })


class TestSamplingPrimitives:
    def test_coordinator_sample_has_positive_rss_and_cpu(self):
        (own,) = [s for s in sample_processes() if s["role"] == "coordinator"]
        assert own["pid"] == os.getpid()
        assert own["rss_bytes"] > 0
        assert own["cpu_s"] >= 0

    @pytest.mark.skipif(not procfs_available(), reason="needs /proc")
    def test_procfs_observes_an_arbitrary_pid(self):
        samples = sample_processes(extra_pids=[1])
        roles = {s["pid"]: s for s in samples}
        assert roles[1]["role"] == "worker"
        assert roles[1]["source"] == "procfs"
        assert roles[1]["rss_bytes"] >= 0

    def test_rusage_fallback_aggregates_workers_into_children(self):
        samples = sample_processes(extra_pids=[1], use_procfs=False)
        by_role = {s["role"]: s for s in samples}
        assert by_role["coordinator"]["source"] == "rusage"
        assert by_role["coordinator"]["rss_bytes"] > 0
        # Per-pid visibility is impossible without procfs: all workers
        # collapse into one aggregated RUSAGE_CHILDREN sample.
        assert by_role["children"]["pid"] == -1

    def test_vanished_pid_is_skipped_not_an_error(self):
        # A pid that cannot exist (beyond pid_max) mimics a worker that
        # exited between roster read and sample.
        samples = sample_processes(extra_pids=[2 ** 30])
        assert all(s["pid"] != 2 ** 30 for s in samples)

    def test_worker_pid_roster_round_trip(self):
        note_worker_pids([11, 12])
        try:
            assert set(worker_pids()) >= {11, 12}
        finally:
            forget_worker_pids([11, 12])
        assert not set(worker_pids()) & {11, 12}

    def test_strip_samples_drops_only_sample_records(self):
        records = [ev("run_start", 0), sample_ev(1, 1, 1.0, 0.0), ev("run_finish", 2)]
        assert [r["kind"] for r in strip_samples(records)] == [
            "run_start", "run_finish",
        ]


class TestResolveInterval:
    def test_explicit_values(self):
        assert resolve_sample_interval(0.5) == 0.5
        assert resolve_sample_interval(0) == 0.0
        assert resolve_sample_interval(-1) == 0.0

    def test_env_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_SAMPLE", raising=False)
        assert resolve_sample_interval() == 0.0

    @pytest.mark.parametrize("raw,expected", [
        ("", 0.0),
        ("0", 0.0),
        ("0.1", 0.1),
        ("1", DEFAULT_INTERVAL_S),  # bare "on"
        ("yes", DEFAULT_INTERVAL_S),
    ])
    def test_env_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_OBS_SAMPLE", raw)
        assert resolve_sample_interval() == expected


class TestResourceSampler:
    def test_emits_samples_into_the_given_log(self):
        log = EventLog()
        with ResourceSampler(interval_s=60, log=log):
            pass
        assert log.records, "start/stop ticks must sample even a short run"
        for record in log.records:
            assert record["kind"] == SAMPLE_KIND
            assert record["payload"] == {}  # determinism: data rides in wall
            wall = record["wall"]
            assert wall["interval_s"] == 60
            assert {"pid", "role", "source", "rss_bytes", "cpu_s"} <= set(wall)

    def test_periodic_ticks_fire(self):
        log = EventLog()
        sampler = ResourceSampler(interval_s=0.01, log=log)
        sampler.start()
        deadline = time.monotonic() + 2.0
        while sampler.n_ticks < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        sampler.stop()
        assert sampler.n_ticks >= 3

    def test_updates_the_peak_rss_gauge(self):
        log = EventLog()
        with ResourceSampler(interval_s=60, log=log):
            pass
        gauge = obs.get_metrics().gauge("resources.peak_rss_bytes")
        assert gauge.value > 0

    def test_no_active_logger_means_inert(self, monkeypatch):
        monkeypatch.setattr("repro.obs.events.get_logger", lambda: None)
        sampler = ResourceSampler(interval_s=60)
        sampler.start()
        sampler.stop()
        assert sampler.n_ticks == 0 or sampler._log is None

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval_s"):
            ResourceSampler(interval_s=0)

    def test_keeps_sampling_while_obs_is_quiet(self):
        log = EventLog()
        sampler = ResourceSampler(interval_s=60, log=log)
        with obs.quiet():
            with sampler:
                pass
        assert log.records  # direct log reference bypasses quiet()


class TestTraceAttribution:
    def records(self):
        return [
            ev("run_start", 0),
            sample_ev(1, 100, 50.0, 1.0),
            ev("span_start", 2, {"span": "E1", "path": "E1", "depth": 0}),
            sample_ev(3, 100, 80.0, 2.5),
            sample_ev(4, 200, 40.0, 0.5, role="worker"),
            ev("span_end", 5, {"span": "E1", "path": "E1", "depth": 0},
               {"dur_s": 1.0}),
            sample_ev(6, 100, 60.0, 3.0),
            ev("run_finish", 7),
        ]

    def test_resource_usage_per_pid(self):
        reader = TraceReader.from_records(self.records())
        coordinator, worker = reader.resource_usage()
        assert (coordinator.pid, coordinator.role) == ("100", "coordinator")
        assert coordinator.n_samples == 3
        assert coordinator.peak_rss_bytes == 80.0
        assert coordinator.cpu_s == pytest.approx(2.0)  # 3.0 - 1.0
        assert (worker.pid, worker.role) == ("200", "worker")
        assert worker.peak_rss_bytes == 40.0

    def test_span_resources_attribute_to_innermost_open_span(self):
        spans = TraceReader.from_records(self.records()).span_resources()
        # Worker samples never count toward a span.
        assert spans["E1"] == {"n_samples": 1, "peak_rss_bytes": 80.0}
        assert spans["(run)"]["n_samples"] == 2

    def test_summary_and_render_carry_the_resource_section(self):
        reader = TraceReader.from_records(self.records())
        summary = reader.summary()
        assert summary["resources"]["per_pid"][0]["role"] == "coordinator"
        assert "E1" in summary["resources"]["per_span"]
        rendered = render_utilization(reader)
        assert "resource usage (sampled)" in rendered
        assert "peak RSS by span" in rendered
        assert "worker" in rendered

    def test_sampled_smoke_run_end_to_end(self, tmp_path):
        from repro.api import RunRequest, execute_request

        execute_request(
            RunRequest(ids=("P1",), smoke=True, cache=False, sample_resources=60.0),
            out_dir=tmp_path / "run",
        )
        reader = TraceReader.load(tmp_path / "run")
        assert reader.kinds().get(SAMPLE_KIND, 0) >= 2
        (usage, *_) = reader.resource_usage()
        assert usage.role == "coordinator"
        assert usage.peak_rss_bytes > 0
        # The determinism contract survives: stripping samples restores
        # the unsampled stream's kind sequence.
        bare = execute_request(RunRequest(ids=("P1",), smoke=True, cache=False),
                               out_dir=tmp_path / "bare")
        stripped = strip_samples(reader.events)
        bare_reader = TraceReader.load(tmp_path / "bare")
        assert [r["kind"] for r in stripped] == [
            r["kind"] for r in bare_reader.events
        ]
        assert bare.all_passed


class TestWatch:
    def test_follower_buffers_partial_trailing_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        follower = EventFollower(tmp_path)  # dir resolves to events.jsonl
        assert follower.poll() == []  # missing file is not an error

        whole = json.dumps(ev("run_start", 0))
        torn = json.dumps(ev("experiment_start", 1, {"experiment": "E1"}))
        path.write_text(whole + "\n" + torn[:10])
        assert [r["kind"] for r in follower.poll()] == ["run_start"]
        with open(path, "a") as fh:
            fh.write(torn[10:] + "\n")
        assert [r["kind"] for r in follower.poll()] == ["experiment_start"]
        assert follower.n_corrupt == 0

    def test_follower_counts_corrupt_complete_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"bad json\n' + json.dumps(ev("run_finish", 0)) + "\n")
        follower = EventFollower(path)
        assert [r["kind"] for r in follower.poll()] == ["run_finish"]
        assert follower.n_corrupt == 1

    def test_state_folds_the_run_lifecycle(self):
        state = WatchState()
        state.update([
            ev("run_start", 0, {"experiments": ["E1", "E2"], "smoke": True}),
            ev("experiment_start", 1, {"experiment": "E1"}),
            ev("pmap_start", 2, {"fn": "m.cell", "n_cells": 4}),
            ev("cell_finish", 3), ev("cell_finish", 4),
            ev("cache_hit", 5), ev("cache_miss", 6),
            sample_ev(7, 100, 80.0, 1.0),
        ])
        assert state.started and not state.finished
        assert state.experiments["E1"]["status"] == "running"
        assert state.experiments["E2"]["status"] == "pending"
        assert state.pmap == {"fn": "m.cell", "n_cells": 4, "done": 2}
        assert (state.cache_hits, state.cache_misses) == (1, 1)
        assert state.resources["100"]["peak_rss_bytes"] == 80.0

        state.update([
            ev("pmap_finish", 8),
            ev("experiment_finish", 9, {"experiment": "E1", "passed": True},
               {"dur_s": 1.0}),
            ev("run_finish", 10),
        ])
        assert state.finished
        assert state.pmap is None
        assert state.experiments["E1"] == {
            "status": "done", "passed": True, "wall_s": 1.0,
        }

        frame = render_frame(state, source="x")
        assert "run finished" in frame
        assert "1/2" in frame  # E2 never ran
        assert "coordinator" in frame

    def test_watch_run_once_on_a_finished_run(self, tmp_path, capsys):
        from repro.api import RunRequest, execute_request

        execute_request(RunRequest(ids=("P1",), smoke=True, cache=False),
                        out_dir=tmp_path / "run")
        stream = io.StringIO()
        assert watch_run(tmp_path / "run", once=True, stream=stream) == 0
        frame = stream.getvalue()
        assert "run finished" in frame
        assert "P1" in frame

    def test_watch_run_times_out_with_exit_2_when_nothing_arrives(self, tmp_path):
        stream = io.StringIO()
        code = watch_run(tmp_path / "never", interval_s=0.01, timeout_s=0.05,
                         stream=stream)
        assert code == 2
