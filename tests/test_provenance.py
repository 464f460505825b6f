"""Tests for the reproducibility tooling."""

import importlib.metadata
import json

import numpy as np
import pytest

from repro.api import RunRequest, execute_request
from repro.provenance import (
    ArtifactBundle,
    ExperimentManifest,
    capture_environment,
    package_artifact,
    stable_hash,
    verify_artifact,
    verify_deterministic,
)


class TestStableHash:
    def test_deterministic(self):
        v = {"a": 1, "b": [1.0, 2.0]}
        assert stable_hash(v) == stable_hash(v)

    def test_dict_order_invariant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_ndarray_supported(self):
        a = np.arange(6.0).reshape(2, 3)
        assert stable_hash(a) == stable_hash(a.copy())

    def test_ndarray_shape_matters(self):
        a = np.arange(6.0)
        assert stable_hash(a) != stable_hash(a.reshape(2, 3))

    def test_tiny_float_noise_ignored(self):
        # 12-significant-digit canonicalization absorbs 1e-15 reassociation noise.
        assert stable_hash(1.0) == stable_hash(1.0 + 1e-15)

    def test_meaningful_difference_detected(self):
        assert stable_hash(1.0) != stable_hash(1.001)

    def test_rejects_exotic_types(self):
        with pytest.raises(TypeError):
            stable_hash(object())


class TestManifest:
    def test_chain_verifies(self):
        m = ExperimentManifest("exp")
        m.record("a", {"n": 1}, {}, result=1.0)
        m.record("b", {"n": 2}, {"stream": 3}, result=[1, 2])
        assert m.verify_chain()

    def test_tamper_with_result_detected(self):
        m = ExperimentManifest("exp")
        m.record("a", {}, {}, result=1.0)
        m.record("b", {}, {}, result=2.0)
        object.__setattr__(m.entries[0], "result_digest", "0" * 64)
        assert not m.verify_chain()

    def test_tamper_with_params_detected(self):
        m = ExperimentManifest("exp")
        e = m.record("a", {"lr": 0.1}, {}, result=1.0)
        e.params["lr"] = 0.2
        assert not m.verify_chain()

    def test_entries_chain_prev_digest(self):
        m = ExperimentManifest("exp")
        a = m.record("a", {}, {}, result=0)
        b = m.record("b", {}, {}, result=0)
        assert b.prev_digest == a.entry_digest
        assert a.prev_digest == ExperimentManifest.GENESIS

    def test_json_round_trip(self):
        m = ExperimentManifest("exp")
        m.record("a", {"x": [1, 2]}, {"s": 7}, result={"acc": 0.5})
        restored = ExperimentManifest.from_json(m.to_json())
        assert restored.verify_chain()
        assert restored.entries[0].name == "a"


class TestEnvironment:
    def test_capture_contains_numpy(self):
        env = capture_environment()
        assert dict(env.packages)["numpy"] != "absent"

    def test_self_comparison_empty(self):
        env = capture_environment()
        assert env.differs_from(env) == []

    def test_difference_reported(self):
        a = capture_environment()
        b = type(a)(
            python_version="0.0.0",
            platform=a.platform,
            machine=a.machine,
            packages=a.packages,
        )
        assert any("python" in d for d in a.differs_from(b))

    def test_captured_once_per_process_across_runs(self, tmp_path, monkeypatch):
        real_version = importlib.metadata.version
        calls = []

        def counting_version(name):
            calls.append(name)
            return real_version(name)

        monkeypatch.setattr(importlib.metadata, "version", counting_version)
        capture_environment.cache_clear()
        try:
            for i in range(3):
                execute_request(
                    RunRequest(ids=("T1",), smoke=True, cache=False),
                    out_dir=tmp_path / f"run-{i}",
                )
            assert len(calls) == len(capture_environment().packages)

            fresh = capture_environment.__wrapped__().as_dict()
            for i in range(3):
                manifest = json.loads(
                    (tmp_path / f"run-{i}" / "manifest.json").read_text()
                )
                assert manifest["environment"] == fresh
        finally:
            capture_environment.cache_clear()


class TestArtifactPackaging:
    def _bundle(self):
        b = ArtifactBundle("demo", metadata={"paper": "treu"})
        b.add_code("run.py", "print('hi')\n")
        b.add_doc("README.md", "# Demo\n")
        return b

    def test_package_and_verify_clean(self, tmp_path):
        package_artifact(self._bundle(), tmp_path / "art")
        assert verify_artifact(tmp_path / "art") == []

    def test_modified_file_detected(self, tmp_path):
        package_artifact(self._bundle(), tmp_path / "art")
        (tmp_path / "art" / "code" / "run.py").write_text("changed")
        problems = verify_artifact(tmp_path / "art")
        assert any("checksum mismatch" in p for p in problems)

    def test_missing_file_detected(self, tmp_path):
        package_artifact(self._bundle(), tmp_path / "art")
        (tmp_path / "art" / "docs" / "README.md").unlink()
        assert any("missing file" in p for p in verify_artifact(tmp_path / "art"))

    def test_stray_file_detected(self, tmp_path):
        package_artifact(self._bundle(), tmp_path / "art")
        (tmp_path / "art" / "extra.txt").write_text("sneaky")
        assert any("unmanifested" in p for p in verify_artifact(tmp_path / "art"))

    def test_repackaging_refused(self, tmp_path):
        package_artifact(self._bundle(), tmp_path / "art")
        with pytest.raises(FileExistsError):
            package_artifact(self._bundle(), tmp_path / "art")

    def test_missing_manifest_reported(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert verify_artifact(tmp_path / "empty") == ["missing manifest ARTIFACT.json"]


class TestRerun:
    def test_deterministic_experiment_passes(self):
        def exp(seed):
            rng = np.random.default_rng(seed)
            return {"mean": float(rng.normal(size=100).mean())}

        assert verify_deterministic(exp, seed=3)

    def test_nondeterministic_experiment_fails(self):
        state = {"count": 0}

        def exp(seed):
            state["count"] += 1
            return state["count"]

        report = verify_deterministic(exp, seed=0)
        assert not report.reproducible
        assert report.max_abs_difference == 1.0

    def test_tolerance_mode(self):
        state = {"first": True}

        def exp(seed):
            value = 1.0 if state["first"] else 1.0 + 1e-9
            state["first"] = False
            return value

        assert verify_deterministic(exp, tolerance=1e-6)

    def test_structure_change_is_infinite(self):
        state = {"first": True}

        def exp(seed):
            out = [1.0] if state["first"] else [1.0, 2.0]
            state["first"] = False
            return out

        report = verify_deterministic(exp, tolerance=10.0)
        assert not report.reproducible


class TestLabNotebook:
    def _notebook(self):
        from repro.provenance import LabNotebook

        nb = LabNotebook("study")
        nb.add("sample", "draw data", lambda rng: rng.normal(size=4).round(6).tolist())
        nb.add("mean", "summarize", lambda rng: float(rng.random()))
        return nb

    def test_run_produces_digests(self):
        nb = self._notebook()
        results = nb.run(seed=3)
        assert [r.name for r in results] == ["sample", "mean"]
        assert all(len(r.digest) == 64 for r in results)

    def test_verify_rerun_true_for_deterministic(self):
        nb = self._notebook()
        nb.run(seed=3)
        assert nb.verify_rerun()

    def test_verify_rerun_catches_nondeterminism(self):
        from repro.provenance import LabNotebook

        nb = LabNotebook("flaky")
        state = {"n": 0}

        def step(rng):
            state["n"] += 1
            return state["n"]

        nb.add("impure", "mutates global state", step)
        nb.run(seed=0)
        assert not nb.verify_rerun()

    def test_inserting_step_preserves_earlier_streams(self):
        """Named seed streams: adding a step doesn't change prior results."""
        from repro.provenance import LabNotebook

        short = LabNotebook("a")
        short.add("x", "", lambda rng: float(rng.random()))
        long = LabNotebook("b")
        long.add("x", "", lambda rng: float(rng.random()))
        long.add("y", "", lambda rng: float(rng.random()))
        rx_short = short.run(seed=5)[0]
        rx_long = long.run(seed=5)[0]
        assert rx_short.digest == rx_long.digest

    def test_manifest_chains(self):
        nb = self._notebook()
        nb.run(seed=1)
        manifest = nb.manifest()
        assert manifest.verify_chain()
        assert [e.name for e in manifest.entries] == ["sample", "mean"]

    def test_markdown_rendering(self):
        nb = self._notebook()
        nb.run(seed=2)
        md = nb.render_markdown()
        assert "# study" in md
        assert "## sample" in md
        assert "digest" in md

    def test_duplicate_step_rejected(self):
        nb = self._notebook()
        with pytest.raises(ValueError, match="duplicate"):
            nb.add("sample", "", lambda rng: 0)

    def test_empty_notebook_rejected(self):
        from repro.provenance import LabNotebook

        with pytest.raises(ValueError):
            LabNotebook("empty").run()

    def test_manifest_before_run_rejected(self):
        nb = self._notebook()
        with pytest.raises(RuntimeError):
            nb.manifest()
