"""repro.obs.history: the run registry, run diffing, and flakiness audit."""

import json
import os
import time

import pytest

from repro.obs.history import (
    HistoryError,
    RunDiff,
    RunRecord,
    RunRegistry,
    detect_flakiness,
    flatten_values,
)


def make_run(
    root,
    run_id,
    *,
    values=None,
    config=None,
    seeds=None,
    passed=True,
    volatile=(),
    smoke=True,
    environment=None,
    result_digest="d0",
    mtime=None,
):
    """Write a minimal but structurally faithful run directory."""
    run_dir = root / run_id
    run_dir.mkdir(parents=True)
    config = {"n": 4} if config is None else config
    results = {
        "smoke": smoke,
        "repro_version": "1.1.0",
        "experiments": [
            {
                "experiment": "E1",
                "config": config,
                "values": {"acc": 0.5, "loss": 0.25} if values is None else values,
                "wall_s": 1.5,
                "volatile_values": list(volatile),
                "verdict": None if passed is None else {"passed": passed},
            }
        ],
    }
    (run_dir / "results.json").write_text(json.dumps(results))
    manifest = {
        "environment": {"python": "3.12"} if environment is None else environment,
        "chain_verified": True,
        "manifest": {
            "entries": [
                {
                    "name": "E1",
                    "seed_audit": {"seed": 0} if seeds is None else seeds,
                    "result_digest": result_digest,
                }
            ]
        },
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    if mtime is not None:
        os.utime(run_dir / "results.json", (mtime, mtime))
    return run_dir


def test_flatten_values_dotted_keys_and_list_indices():
    flat = flatten_values({"a": {"b": [1, {"c": 2}]}, "d": True})
    assert flat == {"a.b[0]": 1, "a.b[1].c": 2, "d": True}


def test_run_record_from_dir_round_trips_through_the_index_form(tmp_path):
    make_run(tmp_path, "run-1", volatile=("loss",))
    record = RunRecord.from_dir(tmp_path / "run-1")
    assert record.run_id == "run-1"
    assert record.smoke is True
    assert record.repro_version == "1.1.0"
    assert record.chain_verified is True
    snap = record.experiments["E1"]
    assert snap.values == {"acc": 0.5, "loss": 0.25}
    assert snap.seeds == {"seed": 0}
    assert snap.volatile == ("loss",)
    assert snap.deterministic_values() == {"acc": 0.5}

    clone = RunRecord.from_dict(record.as_dict())
    assert clone.as_dict() == record.as_dict()
    assert clone.experiments["E1"].group_key == snap.group_key


def test_run_record_requires_results_json(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(HistoryError, match="no results.json"):
        RunRecord.from_dir(tmp_path / "empty")


def test_registry_scan_indexes_and_serves_unchanged_runs_from_index(tmp_path):
    make_run(tmp_path, "run-1")
    make_run(tmp_path, "run-2")
    registry = RunRegistry(tmp_path)
    first = registry.scan()
    assert [r.run_id for r in first] == ["run-1", "run-2"]
    assert (tmp_path / "runs_index.jsonl").is_file()

    # Corrupt the artifact *without* touching its mtime: an unchanged run
    # must be served from the index, never re-read from disk.
    results = tmp_path / "run-1" / "results.json"
    stat = results.stat()
    results.write_text("not json at all")
    os.utime(results, (stat.st_mtime, stat.st_mtime))
    again = RunRegistry(tmp_path).scan()
    assert [r.run_id for r in again] == ["run-1", "run-2"]
    assert again[0].experiments["E1"].values == {"acc": 0.5, "loss": 0.25}


def test_registry_scan_detects_stale_and_added_runs(tmp_path):
    import shutil

    make_run(tmp_path, "run-1")
    make_run(tmp_path, "run-2")
    registry = RunRegistry(tmp_path)
    assert len(registry.scan()) == 2

    shutil.rmtree(tmp_path / "run-2")
    make_run(tmp_path, "run-3")
    rescan = registry.scan()
    assert [r.run_id for r in rescan] == ["run-1", "run-3"]
    assert registry.stale == ["run-2"]

    # The vanished run's index lines survive (append-only), but the view
    # never serves them; a torn final line is skipped, not fatal.
    with open(tmp_path / "runs_index.jsonl", "a") as fh:
        fh.write('{"truncated')
    assert [r.run_id for r in RunRegistry(tmp_path).scan()] == ["run-1", "run-3"]


def test_registry_scan_reparses_modified_runs(tmp_path):
    run_dir = make_run(tmp_path, "run-1", mtime=time.time() - 60)
    registry = RunRegistry(tmp_path)
    registry.scan()

    results = json.loads((run_dir / "results.json").read_text())
    results["experiments"][0]["values"]["acc"] = 0.9
    (run_dir / "results.json").write_text(json.dumps(results))
    (record,) = RunRegistry(tmp_path).scan()
    assert record.experiments["E1"].values["acc"] == 0.9


def test_registry_reports_unparseable_runs(tmp_path):
    make_run(tmp_path, "run-1")
    broken = tmp_path / "run-bad"
    broken.mkdir()
    (broken / "results.json").write_text("{]")
    registry = RunRegistry(tmp_path)
    assert [r.run_id for r in registry.scan()] == ["run-1"]
    assert registry.unparseable == ["run-bad"]


def test_registry_register_and_get(tmp_path):
    run_dir = make_run(tmp_path, "run-1")
    registry = RunRegistry(tmp_path)
    record = registry.register(run_dir)
    assert record.run_id == "run-1"
    assert registry.get("run-1").run_id == "run-1"
    assert registry.get(str(run_dir)).run_id == "run-1"
    with pytest.raises(HistoryError, match="no run"):
        registry.get("run-missing")


def test_register_appends_without_reading_the_index(tmp_path, monkeypatch):
    # Pre-fill a large index: registering one more run must not parse it.
    template = RunRecord.from_dir(make_run(tmp_path, "run-0")).as_dict()
    index = tmp_path / "runs_index.jsonl"
    with open(index, "w") as fh:
        for i in range(2000):
            fh.write(json.dumps({**template, "run_id": f"old-{i}"}) + "\n")
    run_dir = make_run(tmp_path, "run-new")

    def refuse(self):
        raise AssertionError("register must not read the index")

    monkeypatch.setattr(RunRegistry, "_load_index", refuse)
    record = RunRegistry(tmp_path).register(run_dir)

    lines = index.read_text().splitlines()
    assert len(lines) == 2001
    assert json.loads(lines[-1]) == record.as_dict()


def test_register_from_memory_equals_the_record_parsed_from_disk(
    tmp_path, monkeypatch
):
    from repro.api import RunRequest, execute_request

    built = []
    register = RunRegistry.register

    def recording_register(self, run_dir, **documents):
        built.append((sorted(documents), register(self, run_dir, **documents)))
        return built[-1][1]

    monkeypatch.setattr(RunRegistry, "register", recording_register)
    monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
    # E2 and R1 carry tuples in their configs, which JSON reads back as lists.
    request = RunRequest(ids=("T1", "E2", "R1"), smoke=True, workers=1, cache=False)
    execute_request(request, out_dir=tmp_path / "run-mem")
    ((documents, from_memory),) = built
    assert documents == ["manifest", "results"]
    from_disk = RunRecord.from_dir(tmp_path / "run-mem")
    for name in RunRecord.__dataclass_fields__:
        assert getattr(from_memory, name) == getattr(from_disk, name), name
    assert list(from_memory.experiments) == ["T1", "E2", "R1"]
    assert from_memory.mtime == (tmp_path / "run-mem" / "results.json").stat().st_mtime
    (indexed,) = RunRegistry(tmp_path).scan()
    assert indexed == from_disk


def test_a_run_without_a_manifest_registers_from_disk(tmp_path):
    run_dir = make_run(tmp_path, "run-1", mtime=1_000.0)
    (run_dir / "manifest.json").unlink()
    record = RunRegistry(tmp_path).register(run_dir)
    assert record == RunRecord.from_dir(run_dir)
    assert record.mtime == 1_000.0
    assert record.environment == {} and record.chain_verified is None
    assert record.experiments["E1"].seeds == {}


def test_repeat_registration_collapses_on_read(tmp_path):
    run_dir = make_run(tmp_path, "run-1")
    registry = RunRegistry(tmp_path)
    registry.register(run_dir)
    registry.register(run_dir)
    assert len((tmp_path / "runs_index.jsonl").read_text().splitlines()) == 2
    assert [r.run_id for r in registry.scan()] == ["run-1"]

    # A torn final line (a writer cut mid-append) is still skipped.
    with open(tmp_path / "runs_index.jsonl", "a") as fh:
        fh.write('{"run_id": "run-1", "trunc')
    assert [r.run_id for r in RunRegistry(tmp_path).scan()] == ["run-1"]


def test_diff_of_identical_runs_is_clean(tmp_path):
    make_run(tmp_path, "run-a")
    make_run(tmp_path, "run-b")
    diff = RunDiff.between(
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    )
    assert diff.clean
    assert diff.value_deltas == []
    assert diff.verdict_flips == []
    assert "runs agree on every deterministic value" in diff.to_table()


def test_diff_flags_value_deltas_and_verdict_flips(tmp_path):
    make_run(tmp_path, "run-a", values={"acc": 0.5}, passed=True)
    make_run(tmp_path, "run-b", values={"acc": 0.75}, passed=False,
             result_digest="d1")
    diff = RunDiff.between(
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    )
    assert not diff.clean
    (delta,) = diff.value_deltas
    assert delta["key"] == "acc"
    assert delta["delta"] == pytest.approx(0.25)
    assert delta["rel_change"] == pytest.approx(0.5)
    assert diff.verdict_flips == [{"experiment": "E1", "a": True, "b": False}]
    assert diff.digest_changes == ["E1"]
    rendered = diff.to_table()
    assert "!! VERDICT FLIPS" in rendered
    assert "1 value delta" in rendered
    payload = diff.as_dict()
    assert payload["clean"] is False
    assert payload["verdict_flips"] == diff.verdict_flips


def test_diff_exempts_declared_volatile_values(tmp_path):
    make_run(tmp_path, "run-a", values={"acc": 0.5, "speedup": 11.0},
             volatile=("speedup",))
    make_run(tmp_path, "run-b", values={"acc": 0.5, "speedup": 14.0},
             volatile=("speedup",))
    diff = RunDiff.between(
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    )
    assert diff.clean
    assert diff.value_deltas == []
    (volatile,) = diff.volatile_deltas
    assert volatile["key"] == "speedup"
    assert "declared-volatile" in diff.to_table()


def test_diff_reports_config_env_and_seed_drift(tmp_path):
    make_run(tmp_path, "run-a", config={"n": 4}, seeds={"seed": 0},
             environment={"python": "3.12"})
    make_run(tmp_path, "run-b", config={"n": 8}, seeds={"seed": 7},
             environment={"python": "3.13"})
    diff = RunDiff.between(
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    )
    assert diff.config_diffs["E1"] == [{"key": "n", "a": 4, "b": 8}]
    assert diff.seed_diffs["E1"] == [{"key": "seed", "a": 0, "b": 7}]
    assert diff.env_diffs == [{"key": "python", "a": "3.12", "b": "3.13"}]
    # Config drift changes the grouping identity, so these runs are not
    # comparable for flakiness either.
    report = detect_flakiness([
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    ])
    assert report.n_compared == 0


def test_flakiness_passes_on_bit_identical_reruns(tmp_path):
    for run_id in ("run-a", "run-b", "run-c"):
        make_run(tmp_path, run_id)
    report = detect_flakiness(RunRegistry(tmp_path).scan())
    assert report.passed
    assert report.n_runs == 3
    assert report.n_compared == 1
    assert "determinism contract holds" in report.to_table()


def test_flakiness_flags_varying_and_missing_values(tmp_path):
    make_run(tmp_path, "run-a", values={"acc": 0.5, "extra": 1})
    make_run(tmp_path, "run-b", values={"acc": 0.5000001})
    report = detect_flakiness([
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    ])
    assert not report.passed
    by_key = {f.key: f for f in report.flaky}
    assert by_key["acc"].spread == pytest.approx(1e-7)
    assert "<absent>" in by_key["extra"].values
    assert by_key["extra"].spread is None
    assert report.flaky_experiments == ["E1"]
    assert "FLAKY VALUES" in report.to_table()
    assert report.as_dict()["passed"] is False


def test_flakiness_skips_declared_volatile_values(tmp_path):
    make_run(tmp_path, "run-a", values={"acc": 0.5, "speedup": 11.0},
             volatile=("speedup",))
    make_run(tmp_path, "run-b", values={"acc": 0.5, "speedup": 14.0},
             volatile=("speedup",))
    report = detect_flakiness([
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    ])
    assert report.passed


def test_registry_short_write_raises_naming_the_path(tmp_path, monkeypatch):
    make_run(tmp_path, "run-1")
    registry = RunRegistry(tmp_path)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    with pytest.raises(OSError, match="runs_index.jsonl"):
        registry.register(tmp_path / "run-1")
