"""repro.obs.baseline — the store, the comparison logic, the CLI gate."""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.exp import registry
from repro.exp.cli import main
from repro.exp.registry import Experiment
from repro.exp.result import Block, ExpResult
from repro.obs.baseline import (
    BaselineStore,
    median,
)


class TestMedian:
    def test_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])


class TestStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "b.json"
        store = BaselineStore(path)
        store.record("smoke", "T1", [0.3, 0.1, 0.2])
        store.save()
        loaded = BaselineStore.load(path)
        entry = loaded.get("smoke", "T1")
        assert entry.median_s == 0.2
        assert entry.samples == (0.3, 0.1, 0.2)
        assert loaded.tiers() == ["smoke"]

    def test_missing_file_loads_empty(self, tmp_path):
        store = BaselineStore.load(tmp_path / "none.json")
        assert not store.exists
        assert store.entries("smoke") == {}

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema": 99, "tiers": {}}))
        with pytest.raises(ValueError, match="schema 99"):
            BaselineStore.load(path)

    def test_tiers_are_independent(self, tmp_path):
        store = BaselineStore(tmp_path / "b.json")
        store.record("smoke", "T1", [0.1])
        store.record("default", "T1", [1.0])
        assert store.get("smoke", "T1").median_s == 0.1
        assert store.get("default", "T1").median_s == 1.0


class TestCompare:
    def store_with(self, tmp_path, baseline_s):
        store = BaselineStore(tmp_path / "b.json")
        store.record("smoke", "T1", [baseline_s])
        return store

    def test_within_threshold_is_ok(self, tmp_path):
        store = self.store_with(tmp_path, 1.0)
        report = store.compare("smoke", {"T1": [1.1]}, threshold=0.25)
        (c,) = report.comparisons
        assert c.status == "ok" and report.passed

    def test_regression_needs_relative_and_absolute_excess(self, tmp_path):
        store = self.store_with(tmp_path, 1.0)
        report = store.compare(
            "smoke", {"T1": [1.5]}, threshold=0.25, min_delta_s=0.05
        )
        (c,) = report.comparisons
        assert c.status == "regression"
        assert c.ratio == pytest.approx(1.5)
        assert not report.passed
        assert report.regressions == [c]

    def test_tiny_absolute_deltas_never_regress(self, tmp_path):
        # 10x slower but only 9ms worse: interpreter noise, not a regression.
        store = self.store_with(tmp_path, 0.001)
        report = store.compare(
            "smoke", {"T1": [0.010]}, threshold=0.25, min_delta_s=0.05
        )
        assert report.comparisons[0].status == "ok"

    def test_improvement_beyond_threshold_is_flagged(self, tmp_path):
        store = self.store_with(tmp_path, 1.0)
        report = store.compare("smoke", {"T1": [0.5]}, threshold=0.25)
        assert report.comparisons[0].status == "improved"
        assert report.passed  # faster is never a failure

    def test_median_of_k_shrugs_off_one_outlier(self, tmp_path):
        store = self.store_with(tmp_path, 1.0)
        report = store.compare("smoke", {"T1": [1.0, 9.0, 1.02]})
        assert report.comparisons[0].status == "ok"

    def test_new_and_missing_statuses(self, tmp_path):
        store = self.store_with(tmp_path, 1.0)
        report = store.compare("smoke", {"E5": [0.2]})
        statuses = {c.experiment: c.status for c in report.comparisons}
        assert statuses == {"E5": "new", "T1": "missing"}
        assert report.passed  # neither blocks the gate
        assert [c.experiment for c in report.new] == ["E5"]

    def test_report_document_and_table(self, tmp_path):
        store = self.store_with(tmp_path, 1.0)
        report = store.compare("smoke", {"T1": [2.0]})
        doc = report.as_dict()
        assert doc["passed"] is False and doc["n_regressions"] == 1
        assert doc["comparisons"][0]["status"] == "regression"
        table = report.to_table()
        assert "perf baseline gate" in table and "regression" in table


class _TimedExperiment(Experiment):
    """A registered fake whose run takes a controllable amount of time."""

    title = "timed fake"
    paper_claim = "runs in a controllable time"
    DEFAULT = {"x": 1}
    delay_s = 0.0

    def _run(self, config, *, workers, cache):
        if self.delay_s:
            time.sleep(self.delay_s)
        result = ExpResult(self.id, config)
        result.add("block", Block(values={"x": config["x"]}))
        return result


def _install_timed(monkeypatch, exp_id="ZZTIMED", delay_s=0.0):
    registry.load_all()
    exp = _TimedExperiment()
    exp.id = exp_id
    exp.delay_s = delay_s
    monkeypatch.setitem(registry._REGISTRY, exp_id, exp)
    return exp


class TestBenchCLI:
    def test_requires_exactly_one_mode(self, tmp_path, capsys):
        assert main(["bench", "T1", "--smoke"]) == 2
        assert main(["bench", "T1", "--smoke",
                     "--record", str(tmp_path / "a.json"),
                     "--against", str(tmp_path / "a.json")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_record_then_pass_unchanged(self, monkeypatch, tmp_path, capsys):
        _install_timed(monkeypatch)
        baseline = tmp_path / "BENCH_baselines.json"
        assert main(["bench", "ZZTIMED", "--no-cache", "--repeats", "2",
                     "--record", str(baseline)]) == 0
        assert "recorded 1 baselines" in capsys.readouterr().out
        doc = json.loads(baseline.read_text())
        assert "ZZTIMED" in doc["tiers"]["default"]
        assert len(doc["tiers"]["default"]["ZZTIMED"]["samples"]) == 2

        assert main(["bench", "ZZTIMED", "--no-cache", "--repeats", "2",
                     "--against", str(baseline)]) == 0
        assert "perf gate: PASS" in capsys.readouterr().out

    def test_injected_slowdown_fails_the_gate(self, monkeypatch, tmp_path, capsys):
        exp = _install_timed(monkeypatch)
        baseline = tmp_path / "BENCH_baselines.json"
        json_out = tmp_path / "report.json"
        assert main(["bench", "ZZTIMED", "--no-cache",
                     "--repeats", "1", "--record", str(baseline)]) == 0
        exp.delay_s = 0.2  # well past the +25% and the 0.05s floor
        capsys.readouterr()
        assert main(["bench", "ZZTIMED", "--no-cache", "--repeats", "1",
                     "--against", str(baseline),
                     "--json", str(json_out)]) == 1
        assert "perf gate: FAIL" in capsys.readouterr().out
        doc = json.loads(json_out.read_text())
        assert doc["passed"] is False
        assert doc["comparisons"][0]["status"] == "regression"

    def test_no_baseline_bootstrap_with_record_missing(
        self, monkeypatch, tmp_path, capsys
    ):
        _install_timed(monkeypatch)
        baseline = tmp_path / "BENCH_baselines.json"
        assert not baseline.exists()
        assert main(["bench", "ZZTIMED", "--no-cache", "--repeats", "1",
                     "--against", str(baseline), "--record-missing"]) == 0
        out = capsys.readouterr().out
        assert "bootstrapped 1 baseline entries" in out
        assert baseline.exists()
        # The bootstrapped file now gates subsequent runs.
        assert main(["bench", "ZZTIMED", "--no-cache", "--repeats", "1",
                     "--against", str(baseline)]) == 0

    def test_new_without_record_missing_does_not_write(
        self, monkeypatch, tmp_path, capsys
    ):
        _install_timed(monkeypatch)
        baseline = tmp_path / "BENCH_baselines.json"
        assert main(["bench", "ZZTIMED", "--no-cache", "--repeats", "1",
                     "--against", str(baseline)]) == 0
        assert not baseline.exists()
        assert "1 new" in capsys.readouterr().out

    def test_smoke_flag_selects_the_smoke_tier(self, monkeypatch, tmp_path):
        _install_timed(monkeypatch)
        baseline = tmp_path / "b.json"
        assert main(["bench", "ZZTIMED", "--smoke", "--no-cache",
                     "--repeats", "1", "--record", str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        assert list(doc["tiers"]) == ["smoke"]

    def test_every_repeat_executes_whatever_the_cache_flags(
        self, monkeypatch, tmp_path
    ):
        # T3 runs its cells through a cached pmap; timing a cache replay
        # would make every repeat after the first look fast.
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        baseline = tmp_path / "x.json"
        assert main(["bench", "T3", "--smoke", "--repeats", "2",
                     "--record", str(baseline)]) == 0
        assert list(cache_dir.iterdir()) == []
        doc = json.loads(baseline.read_text())
        assert len(doc["tiers"]["smoke"]["T3"]["samples"]) == 2
        metrics = obs.get_metrics()
        executed = metrics.counter("pmap.cells_executed").value
        assert executed == metrics.counter("pmap.cells").value > 0

    def test_each_experiment_is_timed_in_a_request_of_its_own(
        self, monkeypatch, tmp_path
    ):
        # A multi-experiment request overlaps its experiments; a baseline
        # sample must time one that has the host to itself.
        from repro.api import Catalog

        requests = []

        class _Summary:
            def __init__(self, ids):
                self.ids = ids

            def timings(self):
                return {exp_id: 0.01 for exp_id in self.ids}

        def execute(self, request, out_dir=None):
            requests.append(tuple(request.resolved_ids()))
            return _Summary(request.resolved_ids())

        monkeypatch.setattr(Catalog, "execute", execute)
        baseline = tmp_path / "b.json"
        assert main(["bench", "T1", "T2", "T3", "--smoke", "--repeats", "2",
                     "--record", str(baseline)]) == 0
        assert requests == [("T1",), ("T2",), ("T3",)] * 2
        doc = json.loads(baseline.read_text())
        assert {len(e["samples"]) for e in doc["tiers"]["smoke"].values()} == {2}


def test_committed_baseline_file_is_loadable():
    """The repo-root BENCH_baselines.json stays schema-valid."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_baselines.json"
    if not path.exists():
        pytest.skip("no committed baselines")
    store = BaselineStore.load(path)
    assert store.tiers()
    for tier in store.tiers():
        for entry in store.entries(tier).values():
            assert entry.median_s > 0
