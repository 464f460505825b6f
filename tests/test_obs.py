"""Tests for repro.obs — events, spans, metrics, and the determinism contract."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.parallel import pmap
from repro.parallel.cache import ResultCache


def obs_cell(config, seed):
    """Module-level pmap cell (picklable) that emits an interior event.

    The interior emit must be muted identically on the serial and the
    worker paths, or the two streams would diverge.
    """
    obs.emit("cell_interior", {"config": config})
    return config * 10 + seed % 7


def sweep_cell(x, seed):
    """Module-level Sweep cell (called as fn(**config, seed=seed))."""
    return x * 10 + seed


class TestEventLog:
    def test_schema_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path)
        log.emit("alpha", payload={"x": 1, "arr": np.arange(2)})
        log.emit("beta", wall={"dur_s": 0.5})
        records = obs.read_events(path)
        assert [r["kind"] for r in records] == ["alpha", "beta"]
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["schema"] == obs.SCHEMA_VERSION for r in records)
        assert records[0]["payload"] == {"x": 1, "arr": [0, 1]}
        assert records[1]["wall"] == {"dur_s": 0.5}
        assert all(isinstance(r["ts"], float) for r in records)

    def test_appends_are_one_line_per_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path)
        for i in range(5):
            log.emit("tick", payload={"i": i})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["kind"] == "tick" for line in lines)

    def test_short_write_raises_naming_the_path(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        with pytest.raises(OSError, match="events.jsonl"):
            log.emit("torn")
        log.close()

    def test_read_events_drops_a_torn_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path)
        log.emit("alpha")
        log.emit("beta")
        log.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "gam')
        assert [r["kind"] for r in obs.read_events(path)] == ["alpha", "beta"]

    def test_read_events_rejects_interior_corruption(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "alpha"}\nnot json\n{"kind": "beta"}\n')
        with pytest.raises(obs.TraceError, match="line 2"):
            obs.read_events(path)

    def test_strip_volatile_keeps_deterministic_half(self):
        log = obs.EventLog()
        record = log.emit("k", payload={"a": 1}, wall={"dur_s": 2.0})
        stripped = obs.strip_volatile(record)
        assert set(stripped) == {"schema", "seq", "kind", "payload"}

    def test_env_dir_routes_global_emits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        obs.emit("routed", {"ok": True})
        records = obs.read_events(tmp_path / "events.jsonl")
        assert any(r["kind"] == "routed" for r in records)

    def test_disable_wins_over_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
        assert obs.emit("silenced") is None
        assert not (tmp_path / "events.jsonl").exists()

    def test_capture_restores_previous_logger(self):
        with obs.capture_events() as outer:
            obs.emit("one")
            with obs.capture_events() as inner:
                obs.emit("two")
            obs.emit("three")
        assert [e["kind"] for e in outer] == ["one", "three"]
        assert [e["kind"] for e in inner] == ["two"]

    def test_quiet_suppresses_emits(self):
        with obs.capture_events() as events:
            with obs.quiet():
                obs.emit("muted")
            obs.emit("audible")
        assert [e["kind"] for e in events] == ["audible"]


class TestSpans:
    def test_nesting_paths_and_pairing(self):
        with obs.capture_events() as events:
            with obs.span("outer", cells=2) as outer_path:
                assert obs.current_span_path() == "outer"
                with obs.span("inner") as inner_path:
                    assert obs.current_span_path() == "outer/inner"
        assert outer_path == "outer" and inner_path == "outer/inner"
        kinds = [(e["kind"], e["payload"]["path"]) for e in events]
        assert kinds == [
            ("span_start", "outer"),
            ("span_start", "outer/inner"),
            ("span_end", "outer/inner"),
            ("span_end", "outer"),
        ]
        ends = [e for e in events if e["kind"] == "span_end"]
        assert all(e["wall"]["dur_s"] >= 0 for e in ends)
        # Payload carries only deterministic values; timing rides in wall.
        assert events[0]["payload"]["cells"] == 2
        assert "dur_s" not in events[0]["payload"]

    def test_span_feeds_timer_metric(self):
        with obs.capture_events():
            with obs.span("timed"):
                pass
        assert obs.get_metrics().timer("span.timed").count == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            with obs.span(""):
                pass


class TestMetrics:
    def test_counter_gauge_timer(self):
        m = obs.Metrics()
        assert m.counter("c").inc(2) == 2
        with pytest.raises(ValueError):
            m.counter("c").inc(-1)
        m.gauge("g").set(1.5)
        m.timer("t").observe(0.25)
        snap = m.snapshot()
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert snap["timers"]["t"]["count"] == 1
        report = m.report()
        assert isinstance(report, str) and "counter" in report

    def test_global_registry_reset_between_tests_a(self):
        obs.get_metrics().counter("leak.check").inc()
        assert obs.get_metrics().counter("leak.check").value == 1

    def test_global_registry_reset_between_tests_b(self):
        # Runs after _a in file order; the autouse fixture must have wiped it.
        assert obs.get_metrics().counter("leak.check").value == 0


class TestEventSequenceDeterminism:
    """The acceptance criterion: worker count never changes the event stream."""

    def canonical(self, events):
        return [
            json.dumps(obs.strip_volatile(e), sort_keys=True) for e in events
        ]

    def test_pmap_workers_1_vs_4_identical_sequences(self):
        with obs.capture_events() as serial_events:
            serial = pmap(obs_cell, [1, 2, 3], 0, workers=1)
        with obs.capture_events() as parallel_events:
            parallel = pmap(obs_cell, [1, 2, 3], 0, workers=4)
        assert parallel == serial
        assert self.canonical(parallel_events) == self.canonical(serial_events)
        kinds = [e["kind"] for e in serial_events]
        assert kinds[0] == "pmap_start" and kinds[-1] == "pmap_finish"
        assert kinds.count("cell_start") == 3 and kinds.count("cell_finish") == 3
        # Interior emits from the cell are muted on both paths.
        assert "cell_interior" not in kinds
        # Worker count only ever appears in the volatile wall section.
        for record in serial_events + parallel_events:
            assert "workers" not in record["payload"]

    def test_cached_rerun_changes_payload_kinds_deterministically(self, tmp_path):
        cache = ResultCache(tmp_path)
        with obs.capture_events() as cold:
            pmap(obs_cell, [1, 2], 0, cache=cache)
        with obs.capture_events() as warm_serial:
            pmap(obs_cell, [1, 2], 0, workers=1, cache=cache)
        with obs.capture_events() as warm_parallel:
            pmap(obs_cell, [1, 2], 0, workers=4, cache=cache)
        assert [e["kind"] for e in cold].count("cache_miss") == 2
        assert [e["kind"] for e in warm_serial].count("cache_hit") == 2
        assert self.canonical(warm_parallel) == self.canonical(warm_serial)

    def test_sweep_span_wraps_pmap_events(self):
        from repro.parallel import Sweep

        sweep = Sweep(sweep_cell, configs=[{"x": 1}, {"x": 2}], seeds=[0], name="demo")
        with obs.capture_events() as events:
            sweep.run()
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "span_start" and kinds[-1] == "sweep_finish"
        assert "pmap_start" in kinds and "pmap_finish" in kinds


class TestPrometheusExport:
    def test_label_value_escaping_per_exposition_format(self):
        from repro.obs.prometheus import escape_label_value

        # Backslash must be escaped first, or the escapes introduced for
        # newline/quote would themselves be doubled.
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("two\nlines") == "two\\nlines"
        assert escape_label_value('\\n"') == '\\\\n\\"'

    def test_rendered_labels_survive_hostile_values(self):
        from repro.obs.metrics import Metrics
        from repro.obs.prometheus import render_prometheus

        metrics = Metrics()
        metrics.counter("cache.hits").inc(2)
        text = render_prometheus(
            metrics, labels={"run_id": 'run "a"\nb\\c', "tier": "smoke"}
        )
        line = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert line == (
            'repro_cache_hits_total'
            '{run_id="run \\"a\\"\\nb\\\\c",tier="smoke"} 2'
        )
        # Escaped output stays a single exposition line per sample.
        assert "\n\n" not in text

    def test_labels_attach_to_every_sample_kind(self):
        from repro.obs.metrics import Metrics
        from repro.obs.prometheus import render_prometheus

        metrics = Metrics()
        metrics.counter("c").inc()
        metrics.gauge("g").set(1.5)
        metrics.timer("t").observe(0.5)
        text = render_prometheus(metrics, labels={"run_id": "r1"})
        samples = [l for l in text.splitlines() if not l.startswith("#")]
        assert samples and all('{run_id="r1"}' in l for l in samples)
