"""The repro.api layer: RunRequest semantics, the Catalog facade, and the
determinism projection the served/CLI bit-identity check rests on."""

import json
import os

import pytest

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
