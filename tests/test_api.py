"""The repro.api layer: RunRequest semantics, the Catalog facade, and the
determinism projection the served/CLI bit-identity check rests on."""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.api import (
    CANCELLED,
    DONE,
    Catalog,
    ConflictError,
    InlineBackend,
    RequestError,
    RunRequest,
    RunStatus,
    UnknownRunError,
    canonical_results,
    canonical_results_bytes,
    execute_request,
)
from repro.exp import registry
from repro.exp.registry import Experiment
from repro.exp.result import Block, Check, ExpResult, Verdict


class _FakeExperiment(Experiment):
    title = "fake"
    paper_claim = "a controllable claim"
    DEFAULT = {"x": 1}
    should_pass = True

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add("block", Block(values={"x": config["x"]}, tables=("t",)))
        return result

    def check(self, result):
        return Verdict(
            self.id,
            (Check("controllable claim", result["block"]["x"], self.should_pass),),
        )


@pytest.fixture()
def fake(monkeypatch):
    registry.load_all()
    exp = _FakeExperiment()
    exp.id = "ZZAPI"
    monkeypatch.setitem(registry._REGISTRY, "ZZAPI", exp)
    return exp


class TestRunRequestValidation:
    def test_defaults_round_trip_through_dict(self):
        req = RunRequest()
        assert RunRequest.from_dict(req.as_dict()) == req

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(RequestError, match="JSON object"):
            RunRequest.from_dict(["T1"])

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown request field"):
            RunRequest.from_dict({"ids": ["T1"], "bogus": 1})

    @pytest.mark.parametrize("raw, match", [
        ({"ids": []}, "non-empty list"),
        ({"ids": "T1"}, "non-empty list"),
        ({"ids": [1]}, "non-empty list"),
        ({"smoke": "yes"}, "'smoke' must be a boolean"),
        ({"seeds": 0}, "'seeds' must be a positive integer"),
        ({"seeds": True}, "'seeds' must be a positive integer"),
        ({"workers": -1}, "'workers' must be a non-negative integer"),
        ({"cache": "on"}, "'cache' must be a boolean"),
        ({"overrides": {"T1": 3}}, "'overrides' must map"),
        ({"sample_resources": -0.5}, "'sample_resources'"),
    ])
    def test_from_dict_field_validation(self, raw, match):
        with pytest.raises(RequestError, match=match):
            RunRequest.from_dict(raw)

    def test_request_error_is_both_value_and_key_error(self):
        exc = RequestError("unknown experiment 'E99'")
        assert isinstance(exc, ValueError) and isinstance(exc, KeyError)
        assert str(exc) == "unknown experiment 'E99'"  # no KeyError repr-quoting

    def test_unknown_id_is_a_request_error(self):
        with pytest.raises(RequestError, match="unknown experiment"):
            RunRequest(ids=("E99",)).resolved_ids()

    def test_overrides_must_name_requested_experiments(self):
        req = RunRequest(ids=("T1",), overrides={"T2": {"x": 1}})
        with pytest.raises(RequestError, match="not in the requested set"):
            req.resolved_ids()

    def test_unknown_config_key_is_a_request_error(self, fake):
        req = RunRequest(ids=("ZZAPI",), overrides={"ZZAPI": {"nope": 1}})
        with pytest.raises(RequestError):
            req.resolved_config("ZZAPI")


class TestRequestDigest:
    def test_execution_knobs_do_not_change_the_digest(self, fake):
        base = RunRequest(ids=("ZZAPI",), smoke=True)
        assert base.digest() == RunRequest(
            ids=("ZZAPI",), smoke=True, workers=7, cache=False,
            sample_resources=0.5,
        ).digest()

    def test_config_changes_change_the_digest(self, fake):
        base = RunRequest(ids=("ZZAPI",))
        tweaked = RunRequest(ids=("ZZAPI",), overrides={"ZZAPI": {"x": 2}})
        assert base.digest() != tweaked.digest()

    def test_tier_changes_change_the_digest(self):
        assert (RunRequest(ids=("T1",), smoke=True).digest()
                != RunRequest(ids=("T1",)).digest())

    def test_digest_is_order_sensitive_like_the_results_document(self):
        # The experiments list in results.json follows request order, so a
        # reordered request is a different document — and a different key.
        assert (RunRequest(ids=("T1", "P1")).digest()
                != RunRequest(ids=("P1", "T1")).digest())

    def test_all_token_digests_like_the_explicit_catalog(self):
        from repro.exp.registry import resolve_ids

        assert (RunRequest(ids=("all",)).digest()
                == RunRequest(ids=tuple(resolve_ids(["all"]))).digest())

    def test_seeds_override_reaches_the_canonical_config(self):
        with_seeds = RunRequest(ids=("T3",), smoke=True, seeds=1)
        without = RunRequest(ids=("T3",), smoke=True)
        assert with_seeds.digest() != without.digest()
        assert with_seeds.resolved_config("T3")["n_seeds"] == 1


class TestCanonicalResults:
    DOC = {
        "smoke": True,
        "timings": {"T1": 1.23},
        "experiments": [{
            "experiment": "T1",
            "seconds": 1.23,
            "wall_s": 1.25,
            "values": {"n": 5, "fit_seconds": 9.9, "nested": {"fit_seconds": 1.0}},
            "volatile_values": ["*fit_seconds*"],
        }],
    }

    def test_wall_clock_fields_are_dropped(self):
        canon = canonical_results(self.DOC)
        assert "timings" not in canon
        (entry,) = canon["experiments"]
        assert "seconds" not in entry and "wall_s" not in entry

    def test_volatile_values_are_masked_recursively(self):
        (entry,) = canonical_results(self.DOC)["experiments"]
        assert entry["values"]["fit_seconds"] == "<volatile>"
        assert entry["values"]["nested"]["fit_seconds"] == "<volatile>"
        assert entry["values"]["n"] == 5

    def test_projection_equates_runs_differing_only_in_wall_clock(self):
        other = json.loads(json.dumps(self.DOC))
        other["timings"]["T1"] = 99.0
        other["experiments"][0]["seconds"] = 99.0
        other["experiments"][0]["values"]["fit_seconds"] = 123.0
        assert canonical_results_bytes(self.DOC) == canonical_results_bytes(other)

    def test_projection_detects_deterministic_drift(self):
        other = json.loads(json.dumps(self.DOC))
        other["experiments"][0]["values"]["n"] = 6
        assert canonical_results_bytes(self.DOC) != canonical_results_bytes(other)

    def test_does_not_mutate_its_input(self):
        before = json.dumps(self.DOC, sort_keys=True)
        canonical_results(self.DOC)
        assert json.dumps(self.DOC, sort_keys=True) == before

    def test_volatile_experiments_mask_verdict_observations(self):
        doc = json.loads(json.dumps(self.DOC))
        check = {"claim": "speedup > 10x", "observed": 245.0, "passed": True}
        doc["experiments"][0]["verdict"] = {"passed": True, "checks": [check]}
        stable = json.loads(json.dumps(doc))
        del stable["experiments"][0]["volatile_values"]
        (entry,) = canonical_results(doc)["experiments"]
        assert entry["verdict"]["checks"] == [
            {"claim": "speedup > 10x", "observed": "<volatile>", "passed": True}
        ]
        # Experiments without volatile values keep their observations.
        (kept,) = canonical_results(stable)["experiments"]
        assert kept["verdict"]["checks"] == [check]

        slower = json.loads(json.dumps(doc))
        slower["experiments"][0]["verdict"]["checks"][0]["observed"] = 64.0
        assert canonical_results_bytes(doc) == canonical_results_bytes(slower)
        flipped = json.loads(json.dumps(slower))
        flipped["experiments"][0]["verdict"]["checks"][0]["passed"] = False
        assert canonical_results_bytes(doc) != canonical_results_bytes(flipped)


class TestCatalogFacade:
    def test_describe_experiments_covers_the_catalog(self):
        descriptors = Catalog().experiments()
        ids = [d["id"] for d in descriptors]
        assert len(ids) == 21 and len(set(ids)) == 21
        for d in descriptors:
            assert {"id", "title", "section", "paper_claim", "config",
                    "smoke_overrides", "volatile_values"} <= set(d)

    def test_execute_matches_the_legacy_runner(self, fake, tmp_path):
        request = RunRequest(ids=("ZZAPI",), cache=False)
        via_api = Catalog().execute(request)
        via_runner = execute_request(request)
        assert (canonical_results_bytes(via_api.as_dict())
                == canonical_results_bytes(via_runner.as_dict()))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_runs_with_an_out_dir_leave_no_descriptor_open(fake, tmp_path, monkeypatch):
    # A serve worker executes runs in-process for its whole life: each
    # run's events.jsonl descriptor must be released when the run ends.
    monkeypatch.delenv("REPRO_OBS_DISABLE", raising=False)
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    request = RunRequest(ids=("ZZAPI",), cache=False)
    execute_request(request, out_dir=tmp_path / "warm")
    before = len(os.listdir("/proc/self/fd"))
    for i in range(5):
        execute_request(request, out_dir=tmp_path / f"run-{i}")
        assert (tmp_path / f"run-{i}" / "events.jsonl").stat().st_size > 0
    assert len(os.listdir("/proc/self/fd")) == before


def test_runs_in_threads_each_route_to_their_own_log(monkeypatch, tmp_path):
    # Both runs are inside their experiment at once; the first one
    # finishes first, so a process-wide routing swap would restore the
    # sinks out of order and leave a finished run's log installed.
    monkeypatch.delenv("REPRO_OBS_DISABLE", raising=False)
    registry.load_all()
    start_line = threading.Barrier(2, timeout=60)
    both_inside = threading.Barrier(2, timeout=60)
    first_done = threading.Event()

    def rendezvous(config, *, workers, cache):
        both_inside.wait()
        if threading.current_thread().name == "b":
            assert first_done.wait(60)
        result = ExpResult("ZZ", config)
        result.add("block", Block(values={"x": config["x"]}))
        return result

    for exp_id in ("ZZA", "ZZB"):
        exp = _FakeExperiment()
        exp.id = exp_id
        exp._run = rendezvous
        monkeypatch.setitem(registry._REGISTRY, exp_id, exp)
    errors = []

    def run(exp_id, delay_s):
        try:
            start_line.wait()
            time.sleep(delay_s)
            execute_request(RunRequest(ids=(exp_id,), cache=False),
                            out_dir=tmp_path / exp_id)
        except Exception as exc:  # surfaced below
            errors.append(exc)
            both_inside.abort()
        finally:
            if exp_id == "ZZA":
                first_done.set()

    routing = obs.get_logger()
    threads = [threading.Thread(target=run, args=("ZZA", 0.0), name="a"),
               threading.Thread(target=run, args=("ZZB", 0.05), name="b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert not errors
    assert obs.get_logger() is routing
    for exp_id in ("ZZA", "ZZB"):
        events = obs.read_events(tmp_path / exp_id / "events.jsonl")
        kinds = [e["kind"] for e in events]
        assert kinds.count("run_start") == 1 and kinds.count("run_finish") == 1
        assert {
            e["payload"]["experiment"] for e in events
            if e["kind"].startswith("experiment_")
        } == {exp_id}
        assert {
            e["payload"]["path"] for e in events if e["kind"] == "span_start"
        } == {exp_id}


class TestInlineBackend:
    def test_lifecycle_and_cache_hit(self, fake, tmp_path):
        catalog = Catalog(backend=InlineBackend(tmp_path / "runs"))
        request = RunRequest(ids=("ZZAPI",))

        first = catalog.submit(request)
        assert first.state == DONE and first.cached is False
        assert (tmp_path / "runs" / first.run_id / "results.json").is_file()

        second = catalog.submit(request)
        assert second.state == DONE and second.cached is True
        assert second.run_id != first.run_id

        doc_a = catalog.results(first.run_id)
        doc_b = catalog.results(second.run_id)
        assert doc_b.cached is True
        assert doc_a.canonical_bytes() == doc_b.canonical_bytes()
        assert doc_a.experiments == ["ZZAPI"]
        assert doc_a.verdicts() == {"ZZAPI": True}
        assert doc_a.all_passed is True

        assert {s.run_id for s in catalog.statuses()} == {
            first.run_id, second.run_id,
        }

    def test_no_cache_requests_always_execute(self, fake, tmp_path):
        catalog = Catalog(backend=InlineBackend(tmp_path / "runs"))
        request = RunRequest(ids=("ZZAPI",), cache=False)
        assert catalog.submit(request).cached is False
        assert catalog.submit(request).cached is False

    def test_failed_run_is_a_state_not_a_crash(self, fake, tmp_path):
        def boom(config, *, workers, cache):
            raise RuntimeError("kaput")

        fake._run = boom
        catalog = Catalog(backend=InlineBackend(tmp_path / "runs"))
        status = catalog.submit(RunRequest(ids=("ZZAPI",)))
        assert status.state == "failed"
        assert "kaput" in status.error
        with pytest.raises(ConflictError, match="no results"):
            catalog.results(status.run_id)

    def test_unknown_run_and_terminal_cancel(self, fake, tmp_path):
        catalog = Catalog(backend=InlineBackend(tmp_path / "runs"))
        with pytest.raises(UnknownRunError):
            catalog.status("run-nope")
        status = catalog.submit(RunRequest(ids=("ZZAPI",)))
        with pytest.raises(ConflictError, match="already finished"):
            catalog.cancel(status.run_id)


class TestRunStatus:
    def test_round_trip_and_derived_fields(self):
        status = RunStatus(
            run_id="run-0001-abc", state=CANCELLED,
            request=RunRequest(ids=("T1",)),
            queued_at=10.0, started_at=10.5, finished_at=11.0,
        )
        assert status.terminal is True
        assert status.wait_s == pytest.approx(0.5)
        again = RunStatus.from_dict(status.as_dict())
        assert again == status


# -- knobs that must not change results ---------------------------------------

#: Execution knobs that only observe a run.  Each must leave the
#: deterministic half of the results document byte-identical.
_OBSERVER_KNOBS = {
    "telemetry": {},
    "obs-disabled": {},
    "profile": {"profile": 0.01},
    "sample-resources": {"sample_resources": 0.02},
}
_MATRIX_BUDGET_S = 0.2  # smoke median per experiment, BENCH_baselines.json


def _matrix_ids() -> tuple[str, ...]:
    """Every fast smoke experiment without volatile values, plus R1."""
    registry.load_all()
    path = Path(__file__).resolve().parent.parent / "BENCH_baselines.json"
    smoke = json.loads(path.read_text())["tiers"]["smoke"]
    return tuple(
        exp.id for exp in registry.all_experiments()
        if exp.id == "R1" or (
            not exp.VOLATILE_VALUES
            and smoke.get(exp.id, {}).get("median_s", float("inf"))
            < _MATRIX_BUDGET_S
        )
    )


def _canonical_run(knob: str, workers, out_dir) -> bytes:
    with pytest.MonkeyPatch.context() as mp:
        for name in ("REPRO_OBS_DISABLE", "REPRO_OBS_DIR", "REPRO_OBS_SAMPLE",
                     "REPRO_OBS_PROFILE"):
            mp.delenv(name, raising=False)
        if knob == "obs-disabled":
            mp.setenv("REPRO_OBS_DISABLE", "1")
        request = RunRequest(ids=_matrix_ids(), smoke=True, workers=workers,
                             cache=False, **_OBSERVER_KNOBS[knob])
        summary = execute_request(request, out_dir=out_dir)
    return canonical_results_bytes(summary.as_dict())


@pytest.fixture(scope="module")
def reference_results(tmp_path_factory):
    return _canonical_run("telemetry", 1, tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("knob,workers", [
    pytest.param(knob, workers, id=f"{knob}-{'serial' if workers else 'auto'}")
    for knob in _OBSERVER_KNOBS for workers in (1, None)
    if (knob, workers) != ("telemetry", 1)  # the reference run itself
])
def test_observer_knobs_do_not_change_results(
    knob, workers, reference_results, tmp_path
):
    assert "R1" in _matrix_ids()
    assert _canonical_run(knob, workers, tmp_path / "run") == reference_results


# -- a multi-experiment request fans out ----------------------------------------

#: Three experiments that overlap and one that times itself (P1), which
#: runs alone in the coordinator once the others are done.
_FANNED_IDS = ("T1", "P1", "T3", "R1")
_OBS_ENV = ("REPRO_OBS_DISABLE", "REPRO_OBS_DIR", "REPRO_OBS_SAMPLE",
            "REPRO_OBS_PROFILE")


@pytest.fixture()
def forced_pool(monkeypatch):
    """Automatic calls pool at once, on a budget of two CPUs."""
    from repro.parallel import runner

    monkeypatch.setattr(runner, "POOL_AFTER_S", 0.0)
    monkeypatch.setattr(runner, "visible_cpus", lambda: 2)
    for name in _OBS_ENV:
        monkeypatch.delenv(name, raising=False)


def _replayable(out_dir):
    """The run's events with volatile fields and sample kinds dropped."""
    return [
        json.dumps(obs.strip_volatile(e), sort_keys=True)
        for e in obs.read_events(out_dir / "events.jsonl")
        if e["kind"] not in obs.VOLATILE_KINDS
    ]


def _prom_counts(out_dir):
    """Counter values and summary counts of the run's metrics.prom."""
    lines = (out_dir / "metrics.prom").read_text().splitlines()
    return sorted(
        line.split("{")[0] + " " + line.rsplit(" ", 1)[1] for line in lines
        if not line.startswith("#") and ("_total{" in line or "_count{" in line)
    )


def test_fanned_out_request_replays_the_serial_event_stream(forced_pool, tmp_path):
    runs = {}
    for label, workers in (("serial", 1), ("auto", None)):
        obs.get_metrics().reset()
        summary = execute_request(
            RunRequest(ids=_FANNED_IDS, smoke=True, workers=workers, cache=False),
            out_dir=tmp_path / label,
        )
        finish = {
            e["payload"]["experiment"]: e["wall"]["pid"]
            for e in obs.read_events(tmp_path / label / "events.jsonl")
            if e["kind"] == "experiment_finish"
        }
        runs[label] = (
            _replayable(tmp_path / label),
            canonical_results_bytes(summary.as_dict()),
            _prom_counts(tmp_path / label),
            finish,
        )
    serial, auto = runs["serial"], runs["auto"]
    assert auto[0] == serial[0]
    assert any('"kind": "cluster_run_finish"' in line and '"contention"' in line
               for line in auto[0])
    assert auto[1] == serial[1]
    assert auto[2] == serial[2]
    assert set(serial[3].values()) == {os.getpid()}
    assert auto[3]["P1"] == os.getpid()
    assert os.getpid() not in {auto[3][i] for i in ("T1", "T3", "R1")}


class _PidExperiment(Experiment):
    """Reports where it ran and whether telemetry reached it."""

    title = "pid probe"
    DEFAULT = {"x": 1}

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add("probe", Block(values={
            "pid": os.getpid(), "routed": obs.get_logger() is not None,
        }))
        return result


def test_kill_switch_captures_nothing_and_still_overlaps(
    forced_pool, monkeypatch, tmp_path
):
    registry.load_all()
    for exp_id in ("ZZPIDA", "ZZPIDB"):
        exp = _PidExperiment()
        exp.id = exp_id
        monkeypatch.setitem(registry._REGISTRY, exp_id, exp)
    monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
    summary = execute_request(
        RunRequest(ids=("ZZPIDA", "ZZPIDB"), cache=False), out_dir=tmp_path / "run"
    )
    probes = [record.result["probe"] for record in summary.records]
    assert os.getpid() not in {probe["pid"] for probe in probes}
    assert not any(probe["routed"] for probe in probes)
    assert not (tmp_path / "run" / "events.jsonl").exists()


@pytest.mark.parametrize("knob", list(_OBSERVER_KNOBS))
def test_observer_knobs_do_not_change_a_fanned_out_request(
    knob, forced_pool, monkeypatch, tmp_path
):
    ids = ("T3", "R1")
    reference = execute_request(
        RunRequest(ids=ids, smoke=True, workers=1, cache=False),
        out_dir=tmp_path / "reference",
    )
    if knob == "obs-disabled":
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
    summary = execute_request(
        RunRequest(ids=ids, smoke=True, cache=False, **_OBSERVER_KNOBS[knob]),
        out_dir=tmp_path / "run",
    )
    assert canonical_results_bytes(summary.as_dict()) == \
        canonical_results_bytes(reference.as_dict())


def _submissions(monkeypatch):
    """Record the experiment ids of every fan-out, in submission order."""
    from repro.api import execution

    submitted = []
    real = execution.run_cells

    def recording(fn, jobs, **kwargs):
        jobs = list(jobs)
        submitted.append([exp_id for exp_id, _ in jobs])
        return real(fn, jobs, **kwargs)

    monkeypatch.setattr(execution, "run_cells", recording)
    return submitted


def test_fan_out_submits_the_longest_experiments_first(
    forced_pool, monkeypatch, tmp_path
):
    from repro.api import execution
    from repro.obs.baseline import BaselineStore

    registry.load_all()
    for exp_id in ("ZZAPIB", "ZZAPIA"):  # no committed median
        exp = _FakeExperiment()
        exp.id = exp_id
        monkeypatch.setitem(registry._REGISTRY, exp_id, exp)
    ids = ("T1", "ZZAPIB", "P1", "T3", "ZZAPIA", "R1")
    medians = BaselineStore.load(execution._BASELINES).entries("smoke")
    known = sorted(("T1", "T3", "R1"), key=lambda i: -medians[i].median_s)
    submitted = _submissions(monkeypatch)

    def run(label):
        summary = execute_request(
            RunRequest(ids=ids, smoke=True, cache=False), out_dir=tmp_path / label
        )
        return (
            [record.experiment.id for record in summary.records],
            _replayable(tmp_path / label),
            canonical_results_bytes(summary.as_dict()),
        )

    ordered = run("ordered")
    # Without a readable baseline file the fan-out keeps resolved order,
    # and the run's records, events and results are the same.
    unreadable = tmp_path / "BENCH_baselines.json"
    unreadable.write_text("{ not json")
    monkeypatch.setattr(execution, "_BASELINES", unreadable)
    fallback = run("unreadable")

    assert submitted == [
        known + ["ZZAPIB", "ZZAPIA"],
        ["T1", "ZZAPIB", "T3", "ZZAPIA", "R1"],
    ]
    assert ordered[0] == fallback[0] == list(ids)
    assert ordered[1] == fallback[1]
    assert ordered[2] == fallback[2]


def test_a_repeated_experiment_runs_once(forced_pool, tmp_path):
    # A repeated id keeps its first place, so the request is T1 T3 in
    # its identity and in what runs, serially and fanned out.
    ids = ("T1", "T3", "T3")
    assert RunRequest(ids=ids).digest() == RunRequest(ids=("T1", "T3")).digest()
    runs = {}
    for label, workers in (("serial", 1), ("auto", None)):
        summary = execute_request(
            RunRequest(ids=ids, smoke=True, workers=workers, cache=False),
            out_dir=tmp_path / label,
        )
        runs[label] = (
            [record.experiment.id for record in summary.records],
            _replayable(tmp_path / label),
            canonical_results_bytes(summary.as_dict()),
        )
    assert runs["auto"] == runs["serial"]
    assert runs["auto"][0] == ["T1", "T3"]


def test_a_short_request_keeps_the_serial_prefix(monkeypatch, tmp_path):
    # T1 and T3's committed medians add up to milliseconds: at the
    # default POOL_AFTER_S both run here and no pool starts.
    from repro.parallel import runner

    monkeypatch.setattr(runner, "visible_cpus", lambda: 2)
    for name in _OBS_ENV:
        monkeypatch.delenv(name, raising=False)
    execute_request(
        RunRequest(ids=("T1", "T3"), smoke=True, cache=False),
        out_dir=tmp_path / "run",
    )
    pids = [
        e["wall"]["pid"] for e in obs.read_events(tmp_path / "run" / "events.jsonl")
        if e["kind"] == "experiment_finish"
    ]
    assert pids == [os.getpid()] * 2


def test_fan_out_plan_reads_smoke_medians_only(monkeypatch, tmp_path):
    from repro.api import execution
    from repro.obs.baseline import BaselineStore
    from repro.parallel import runner

    medians = BaselineStore.load(execution._BASELINES).entries("smoke")
    assert medians["E8"].median_s > runner.POOL_AFTER_S
    assert medians["T1"].median_s + medians["T3"].median_s < runner.POOL_AFTER_S
    # Longest first, unknown ids last in their own order; long enough to
    # pool from the first cell.
    ids = ["T1", "ZZNEW", "E8", "T3", "E8"]
    assert execution._plan_fan_out(ids, True) == ([2, 4, 3, 0, 1], True)
    assert execution._plan_fan_out(["T1", "T3"], True) == ([1, 0], False)
    # The file measures the smoke tier only, so a full-tier request keeps
    # resolved order and the serial prefix, as does one without a file.
    assert execution._plan_fan_out(ids, False) == ([0, 1, 2, 3, 4], False)
    monkeypatch.setattr(execution, "_BASELINES", tmp_path / "absent.json")
    assert execution._plan_fan_out(ids, True) == ([0, 1, 2, 3, 4], False)
