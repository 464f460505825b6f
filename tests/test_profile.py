"""repro.obs.profile end to end: the sampling writer, worker-side
attach, the ProfileReader hotspot/flamegraph read side, the determinism
contract (profiled runs byte-identical to bare ones), and the
`repro profile` CLI.
"""

import json
import os
import threading
import time

import pytest

from repro import obs
from repro.api import RunRequest, canonical_results_bytes, execute_request
from repro.exp.cli import main
from repro.obs.events import VOLATILE_KINDS, EventLog
from repro.obs.profile import (
    DEFAULT_INTERVAL_S,
    PROFILE_ENV,
    PROFILE_FILE_ENV,
    PROFILE_KIND,
    PROFILE_LOG_NAME,
    PROFILE_SPAN_ENV,
    SamplingProfiler,
    attach_worker_profiler,
    capture_stack,
    resolve_profile,
    short_file,
)
from repro.obs.resources import strip_samples
from repro.obs.trace import ProfileReader, TraceError, render_hotspots
from repro.parallel import pmap


def spin(seconds):
    """Busy-loop long enough for the sampler to catch several stacks."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(i * i for i in range(500))
    return acc


def _spin_cell(config, seed=None):
    """Module-level pmap cell (picklable) that burns visible CPU."""
    return spin(0.08)


def sample(seq, stack, *, span="E1", role="coordinator", pid=100,
           interval=0.01):
    return {
        "schema": obs.SCHEMA_VERSION, "seq": seq, "kind": PROFILE_KIND,
        "ts": 0.0, "payload": {},
        "wall": {"pid": pid, "role": role, "span": span, "stack": stack,
                 "interval_s": interval},
    }


class TestResolveProfile:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert resolve_profile(None) is None

    @pytest.mark.parametrize("value", ["sampling", "1", "on", "true"])
    def test_sampling_aliases_use_the_default_cadence(self, value):
        assert resolve_profile(value) == ("sampling", DEFAULT_INTERVAL_S)

    def test_float_is_a_sampling_interval(self):
        assert resolve_profile("0.002") == ("sampling", 0.002)
        assert resolve_profile(0.25) == ("sampling", 0.25)

    @pytest.mark.parametrize("value", ["0", "off", "none", "false", "-1"])
    def test_zero_and_off_disable(self, value):
        assert resolve_profile(value) is None

    def test_env_var_is_the_fallback(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "0.05")
        assert resolve_profile(None) == ("sampling", 0.05)

    @pytest.mark.parametrize("value", ["deterministic", "bogus", "1e-3s"])
    def test_unknown_value_is_an_error_naming_it(self, value):
        with pytest.raises(ValueError, match=value):
            resolve_profile(value)

    def test_unknown_env_value_is_an_error_naming_it(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "deterministic")
        with pytest.raises(ValueError, match=f"{PROFILE_ENV}.*deterministic"):
            resolve_profile(None)

    def test_kill_switch_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
        assert resolve_profile("sampling") is None

    def test_short_file_keeps_two_components(self):
        assert short_file("/a/b/c/nn/conv.py") == "nn/conv.py"
        assert short_file("conv.py") == "conv.py"


class TestSamplingProfiler:
    def test_samples_carry_stack_role_and_span(self):
        log = EventLog()
        with obs.span("E9"):
            with SamplingProfiler(0.002, log=log):
                spin(0.1)
        assert log.records, "no samples from a 100ms busy loop at 2ms"
        for record in log.records:
            assert record["kind"] == PROFILE_KIND
            assert record["payload"] == {}
            wall = record["wall"]
            assert wall["role"] == "coordinator"
            assert wall["pid"] == os.getpid()
            assert wall["interval_s"] == 0.002
            assert wall["stack"][-1][0]  # leaf frame has a function name
        spans = {r["wall"]["span"] for r in log.records}
        assert "E9" in spans

    def test_profiles_the_calling_thread_not_its_own(self):
        log = EventLog()
        profiler = SamplingProfiler(0.002, log=log)
        profiler.start()
        spin(0.05)
        profiler.stop()
        leaves = {tuple(r["wall"]["stack"][-1]) for r in log.records}
        assert leaves
        assert not any("_loop" == leaf[0] for leaf in leaves)

    def test_stop_is_idempotent_and_counts_samples(self):
        profiler = SamplingProfiler(0.002, log=EventLog())
        profiler.start()
        spin(0.03)
        profiler.stop()
        profiler.stop()
        assert profiler.n_samples == len(profiler._log.records)

    def test_fixed_span_overrides_the_bind_stack(self):
        log = EventLog()
        with obs.span("outer"):
            with SamplingProfiler(0.002, log=log, role="worker", span="E3/fit"):
                spin(0.05)
        assert {r["wall"]["span"] for r in log.records} == {"E3/fit"}
        assert {r["wall"]["role"] for r in log.records} == {"worker"}

    def test_capture_stack_of_a_live_thread_is_root_first(self):
        here = capture_stack(threading.get_ident())
        assert here is not None
        names = [frame[0] for frame in here]
        assert "test_capture_stack_of_a_live_thread_is_root_first" in names
        assert names.index("test_capture_stack_of_a_live_thread_is_root_first") \
            > 0  # root (interpreter entry) comes before the leaf end

    def test_capture_stack_of_a_dead_thread_is_none(self):
        assert capture_stack(2 ** 60) is None

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0.0, log=EventLog())


class TestWorkerAttach:
    def test_noop_without_a_published_file(self, monkeypatch):
        monkeypatch.delenv(PROFILE_FILE_ENV, raising=False)
        assert attach_worker_profiler() is None

    def test_attaches_with_fixed_span_and_worker_role(
        self, tmp_path, monkeypatch
    ):
        stream = tmp_path / PROFILE_LOG_NAME
        monkeypatch.setenv(PROFILE_FILE_ENV, str(stream))
        monkeypatch.setenv(PROFILE_ENV, "0.002")
        monkeypatch.setenv(PROFILE_SPAN_ENV, "E5/sweep")
        profiler = attach_worker_profiler()
        assert profiler is not None
        try:
            spin(0.05)
        finally:
            profiler.stop()
        records = obs.read_events(stream)
        assert records
        assert {r["wall"]["role"] for r in records} == {"worker"}
        assert {r["wall"]["span"] for r in records} == {"E5/sweep"}
        assert {r["wall"]["pid"] for r in records} == {os.getpid()}

    def test_pool_workers_sample_into_the_shared_stream(
        self, tmp_path, monkeypatch
    ):
        stream = tmp_path / PROFILE_LOG_NAME
        monkeypatch.setenv(PROFILE_FILE_ENV, str(stream))
        monkeypatch.setenv(PROFILE_ENV, "0.002")
        with obs.span("E2"):
            pmap(_spin_cell, [{}, {}, {}, {}], workers=2)
        assert stream.exists(), "no worker samples reached the shared file"
        records = obs.read_events(stream)
        workers = {r["wall"]["pid"] for r in records}
        assert workers and os.getpid() not in workers
        assert {r["wall"]["role"] for r in records} == {"worker"}
        # pmap stamped the enclosing span before the pool forked.
        assert {r["wall"]["span"] for r in records} == {"E2"}


    def test_execute_request_publishes_the_stream_to_pool_workers(
        self, tmp_path, monkeypatch
    ):
        """A profiled run with a pool samples coordinator and workers into
        one profile.jsonl, then restores the profile environment."""
        monkeypatch.setenv(PROFILE_ENV, "0.5")
        monkeypatch.delenv(PROFILE_FILE_ENV, raising=False)
        monkeypatch.setenv(PROFILE_SPAN_ENV, "caller")
        summary = execute_request(
            RunRequest(ids=("E10",), smoke=True, cache=False, workers=2,
                       profile="0.001"),
            out_dir=tmp_path / "run",
        )
        pools = [
            r["wall"] for r in obs.read_events(summary.out_dir / "events.jsonl")
            if r["kind"] == "pmap_finish"
        ]
        assert pools and {w["mode"] for w in pools} == {"pool"}
        samples = ProfileReader.load(summary.out_dir).samples
        assert {r["wall"]["role"] for r in samples} == {"coordinator", "worker"}
        assert {r["wall"]["interval_s"] for r in samples} == {0.001}
        assert os.environ[PROFILE_ENV] == "0.5"
        assert PROFILE_FILE_ENV not in os.environ
        assert os.environ[PROFILE_SPAN_ENV] == "caller"

    def test_experiments_in_pool_workers_sample_under_their_own_spans(
        self, tmp_path, monkeypatch
    ):
        """A fanned-out experiment is sampled under its span, not the
        run root the pool was started from."""
        from repro.exp import registry
        from repro.exp.registry import Experiment
        from repro.exp.result import Block, ExpResult
        from repro.parallel import runner

        class Spinning(Experiment):
            title = "spins"
            DEFAULT = {"x": 1}

            def _run(self, config, *, workers, cache):
                spin(0.2)
                result = ExpResult(self.id, config)
                result.add("block", Block(values={"x": config["x"]}))
                return result

        registry.load_all()
        for exp_id in ("ZZSPINA", "ZZSPINB"):
            exp = Spinning()
            exp.id = exp_id
            monkeypatch.setitem(registry._REGISTRY, exp_id, exp)
        monkeypatch.setattr(runner, "POOL_AFTER_S", 0.0)
        monkeypatch.setattr(runner, "visible_cpus", lambda: 2)
        summary = execute_request(
            RunRequest(ids=("ZZSPINA", "ZZSPINB"), cache=False,
                       profile="0.002"),
            out_dir=tmp_path / "run",
        )
        samples = ProfileReader.load(summary.out_dir).samples
        worker_spans = {
            r["wall"]["span"] for r in samples if r["wall"]["role"] == "worker"
        }
        assert {"ZZSPINA", "ZZSPINB"} <= worker_spans


class TestProfileReader:
    def make_reader(self):
        s = [["main", "exp/cli.py", 1], ["run", "exp/registry.py", 2]]
        records = [
            sample(0, s + [["gemm", "nn/kernels.py", 10]]),
            sample(1, s + [["gemm", "nn/kernels.py", 10]]),
            sample(2, s + [["gemm", "nn/kernels.py", 10],
                           ["dot", "numpy/core.py", 5]]),
            sample(3, s + [["im2col", "nn/kernels.py", 90]], span="E1/conv"),
            sample(4, [["main", "exp/cli.py", 1]], span="E2", pid=200,
                   role="worker"),
        ]
        return ProfileReader(records)

    def test_mode_and_counts(self):
        reader = self.make_reader()
        assert reader.mode == "sampling"
        assert reader.n_samples == 5

    def test_spans_weigh_samples_by_interval(self):
        spans = self.make_reader().spans()
        assert spans["E1"] == pytest.approx(0.03)
        assert spans["E1/conv"] == pytest.approx(0.01)
        assert spans["E2"] == pytest.approx(0.01)

    def test_exclusive_goes_to_the_leaf_inclusive_to_every_frame(self):
        hotspots = {h.key: h for h in self.make_reader().hotspots()}
        gemm = hotspots["nn/kernels.py:gemm"]
        assert gemm.self_weight == pytest.approx(0.02)   # leaf in 2 of 5
        assert gemm.total_weight == pytest.approx(0.03)  # on-stack in 3
        main_h = hotspots["exp/cli.py:main"]
        assert main_h.self_weight == pytest.approx(0.01)
        assert main_h.total_weight == pytest.approx(0.05)

    def test_recursion_cannot_double_bill_inclusive_time(self):
        rec = [sample(0, [["f", "m.py", 1], ["f", "m.py", 1], ["f", "m.py", 1]])]
        (hotspot,) = ProfileReader(rec).hotspots()
        assert hotspot.total_weight == pytest.approx(0.01)

    def test_span_filter_is_a_prefix_match(self):
        reader = self.make_reader()
        inside = {h.key for h in reader.hotspots(span="E1")}
        assert "nn/kernels.py:im2col" in inside    # E1/conv is inside E1
        assert "numpy/core.py:dot" in inside
        only_e2 = reader.hotspots(span="E2")
        assert {h.key for h in only_e2} == {"exp/cli.py:main"}

    def test_per_process_split(self):
        procs = self.make_reader().processes()
        roles = {f"{p['role']}:{p['pid']}": p["n_samples"] for p in procs}
        assert roles["coordinator:100"] == 4
        assert roles["worker:200"] == 1
        assert procs[0]["role"] == "coordinator"  # coordinator sorts first

    def test_collapsed_and_flamegraph_format(self):
        reader = self.make_reader()
        flame = reader.flamegraph()
        assert flame.endswith("\n")
        for line in flame.strip().splitlines():
            stack_part, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack_part or "main" in stack_part
        assert "gemm (nn/kernels.py:10)" in flame

    def test_missing_stream_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="--profile"):
            ProfileReader.load(tmp_path)

    def test_wrong_schema_is_a_clear_error(self):
        bad = sample(0, [["f", "m.py", 1]])
        bad["schema"] = 999
        with pytest.raises(TraceError, match="schema"):
            ProfileReader([bad])

    def test_render_names_the_hot_function(self):
        text = render_hotspots(self.make_reader(), top=5)
        assert "gemm" in text and "nn/kernels.py:10" in text
        assert "sampling" in text

    def test_render_empty_stream_suggests_a_faster_cadence(self):
        text = render_hotspots(ProfileReader([]))
        assert "no samples" in text or "empty" in text

    def test_summary_document_shape(self):
        doc = self.make_reader().summary(top=3)
        assert doc["mode"] == "sampling"
        assert doc["n_samples"] == 5
        assert doc["spans"] and doc["processes"] and doc["hotspots"]
        for hotspot in doc["hotspots"]:
            assert {"func", "file", "self_s", "total_s"} <= set(hotspot)


class TestDeterminismContract:
    """Satellite: profile on/off x workers 1/4 must not move a byte."""

    def project(self, summary):
        events = [obs.strip_volatile(r) for r in strip_samples(
            obs.read_events(summary.out_dir / "events.jsonl")
        )]
        results = canonical_results_bytes(
            json.loads((summary.out_dir / "results.json").read_text())
        )
        return events, results

    @pytest.mark.parametrize("workers", [1, 4])
    def test_profiled_run_is_byte_identical_to_bare(self, tmp_path, workers):
        request = {"ids": ("T1",), "smoke": True, "cache": False,
                   "workers": workers}
        bare = execute_request(
            RunRequest(**request), out_dir=tmp_path / f"bare-{workers}"
        )
        profiled = execute_request(
            RunRequest(**request, profile="sampling"),
            out_dir=tmp_path / f"prof-{workers}",
        )
        assert self.project(bare) == self.project(profiled)
        # The profile stream exists beside, never inside, the event log.
        assert (profiled.out_dir / PROFILE_LOG_NAME).exists()
        assert not (bare.out_dir / PROFILE_LOG_NAME).exists()
        event_kinds = {
            r["kind"] for r in obs.read_events(
                profiled.out_dir / "events.jsonl"
            )
        }
        assert not (event_kinds & set(VOLATILE_KINDS))

    def test_profile_is_excluded_from_the_request_digest(self):
        bare = RunRequest(ids=("T1",), smoke=True)
        assert bare.digest() == RunRequest(
            ids=("T1",), smoke=True, profile="sampling"
        ).digest()
        assert bare.digest() == RunRequest(
            ids=("T1",), smoke=True, profile="0.002"
        ).digest()

    def test_strip_samples_drops_all_volatile_kinds(self):
        mixed = [
            {"kind": "run_start"}, {"kind": PROFILE_KIND},
            {"kind": "resource_sample"},
            {"kind": "run_finish"},
        ]
        assert [r["kind"] for r in strip_samples(mixed)] == [
            "run_start", "run_finish"
        ]


class TestProfileCli:
    @pytest.fixture()
    def profiled_run(self, tmp_path):
        """A real profiled smoke run on disk, long enough to catch samples."""
        out = tmp_path / "run"
        assert main([
            "run", "E6", "--smoke", "--no-cache",
            "--out", str(out), "--profile", "0.001",
        ]) == 0
        return out

    def test_run_writes_the_profile_stream(self, profiled_run, capsys):
        capsys.readouterr()
        assert (profiled_run / PROFILE_LOG_NAME).exists()
        records = obs.read_events(profiled_run / PROFILE_LOG_NAME)
        assert records and {r["kind"] for r in records} == {PROFILE_KIND}
        spans = {r["wall"]["span"] for r in records}
        assert any(s == "E6" or s.startswith("E6/") for s in spans)
        # Ticks that land before E6's span opens carry the empty path.
        assert all(s in ("", "E6") or s.startswith("E6/") for s in spans)

    def test_profile_command_renders_the_table(self, profiled_run, capsys):
        assert main(["profile", str(profiled_run), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out
        assert "self s" in out

    def test_profile_json_document(self, profiled_run, capsys):
        assert main(["profile", str(profiled_run), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "sampling"
        assert doc["hotspots"]

    def test_unknown_profile_value_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "T1", "--smoke", "--out", str(tmp_path / "r"),
                  "--profile", "bogus"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["report", "check", "bench"])
    def test_profile_is_a_run_only_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "T1", "--smoke", "--profile"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_flamegraph_of_a_sampling_stream(self, tmp_path, capsys):
        log = EventLog(tmp_path / PROFILE_LOG_NAME)
        with obs.span("E1"):
            with SamplingProfiler(0.002, log=log):
                spin(0.05)
        flame_out = tmp_path / "flame.txt"
        assert main([
            "profile", str(tmp_path), "--flamegraph", str(flame_out)
        ]) == 0
        lines = flame_out.read_text().strip().splitlines()
        assert lines
        stack_part, count = lines[0].rsplit(" ", 1)
        assert int(count) >= 1 and "(" in stack_part

    def test_missing_stream_exits_2(self, tmp_path, capsys):
        (tmp_path / "events.jsonl").write_text("")
        assert main(["profile", str(tmp_path)]) == 2
        assert "--profile" in capsys.readouterr().err

    def test_disabled_telemetry_run_gets_a_clear_message(
        self, tmp_path, capsys, monkeypatch
    ):
        """Satellite: REPRO_OBS_DISABLE=1 runs must not stack-trace."""
        out = tmp_path / "quiet-run"
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
        assert main([
            "run", "T1", "--smoke", "--no-cache", "--out", str(out),
        ]) == 0
        monkeypatch.delenv("REPRO_OBS_DISABLE")
        capsys.readouterr()
        assert (out / "results.json").exists()
        assert not (out / "events.jsonl").exists()
        assert main(["profile", str(out)]) == 2
        err = capsys.readouterr().err
        assert "telemetry was disabled" in err and "REPRO_OBS_DISABLE" in err
        assert main(["trace", str(out)]) == 2
        err = capsys.readouterr().err
        assert "telemetry was disabled" in err
