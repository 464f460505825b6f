"""The serving stack end to end: HTTP routes, error taxonomy, the queue's
lifecycle (including cancel-mid-run), the shared-store fast path, the
served-vs-CLI bit-identity guarantee, and the transport (keep-alive
connections, server-held waits, constant-time queue gauges).

The worker pool inherits test-registered fake experiments only under the
``fork`` start method (the fakes live in this process's registry), so the
whole module is skipped elsewhere — on Linux CI fork is the default.
"""

import http.client
import json
import multiprocessing
import pathlib
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import RunRequest, canonical_results_bytes
from repro.exp import registry
from repro.exp.cli import main
from repro.exp.registry import Experiment
from repro.exp.result import Block, Check, ExpResult, Verdict
from repro.serve import CatalogServer, ServeClient, ServeError

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker pool inherits test-registered fakes via fork",
)


class _QuickExperiment(Experiment):
    title = "quick fake"
    paper_claim = "instant"
    DEFAULT = {"x": 1}

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add("block", Block(values={"x": config["x"]}, tables=("t",)))
        return result

    def check(self, result):
        return Verdict(self.id, (Check("instant", result["block"]["x"], True),))


class _SlowExperiment(_QuickExperiment):
    title = "slow fake"
    DEFAULT = {"x": 1, "sleep_s": 30.0}

    def _run(self, config, *, workers, cache):
        time.sleep(config["sleep_s"])
        return super()._run(config, workers=workers, cache=cache)


class _BrokenExperiment(_QuickExperiment):
    title = "broken fake"

    def _run(self, config, *, workers, cache):
        raise RuntimeError("kaput")


def _install(monkeypatch, cls, exp_id):
    registry.load_all()
    exp = cls()
    exp.id = exp_id
    monkeypatch.setitem(registry._REGISTRY, exp_id, exp)
    return exp


@pytest.fixture()
def fakes(monkeypatch):
    _install(monkeypatch, _QuickExperiment, "ZZQ")
    _install(monkeypatch, _SlowExperiment, "ZZSLOW")
    _install(monkeypatch, _BrokenExperiment, "ZZBOOM")


@pytest.fixture()
def server(fakes, tmp_path):
    # Fakes are registered before start(): the forked workers inherit them.
    with CatalogServer(tmp_path / "srv", workers=2) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout_s=30.0)


class TestRoutes:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["ok"] is True and "version" in payload

    def test_experiments_lists_the_catalog(self, client):
        ids = {d["id"] for d in client.experiments()}
        assert {"T1", "N1", "R1", "P3", "ZZQ"} <= ids

    def test_submit_status_results_lifecycle(self, client):
        status = client.submit(RunRequest(ids=("ZZQ",)))
        assert status.state in ("queued", "running")
        assert status.cached is False
        assert status.run_dir and status.run_id.startswith("run-")

        done = client.wait(status.run_id, timeout_s=60)
        assert done.state == "done"
        assert done.wait_s is not None and done.wait_s >= 0

        document = client.results(status.run_id)
        (entry,) = document["experiments"]
        assert entry["experiment"] == "ZZQ"
        assert entry["verdict"]["passed"] is True

        listed = {s.run_id for s in client.statuses()}
        assert status.run_id in listed

    def test_run_dir_exists_at_submission_for_watch(self, server, client):
        status = client.submit(RunRequest(ids=("ZZQ",)))
        run_dir = server.queue.root / status.run_id
        assert run_dir.is_dir()  # before completion: watch can attach now
        client.wait(status.run_id, timeout_s=60)

    def test_metrics_exposition(self, client):
        client.wait(client.submit(RunRequest(ids=("ZZQ",))).run_id, timeout_s=60)
        text = client.metrics_text()
        assert "repro_serve_requests_total" in text
        assert 'service="repro-serve"' in text
        assert "repro_serve_workers" in text


class TestErrorTaxonomy:
    def test_bad_json_body_is_400(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.submit({"ids": ["ZZQ"], "bogus": True})
        assert exc_info.value.status == 400
        assert "unknown request field" in str(exc_info.value)

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/runs", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400

    def test_unknown_experiment_is_400(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.submit(RunRequest(ids=("E99",)))
        assert exc_info.value.status == 400
        assert "unknown experiment" in str(exc_info.value)

    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.status("run-nope")
        assert exc_info.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as exc_info:
            client._request("GET", "/nope")
        assert exc_info.value.status == 404

    def test_wrong_verb_is_405(self, client):
        with pytest.raises(ServeError) as exc_info:
            client._request("DELETE", "/runs")
        assert exc_info.value.status == 405

    def test_results_of_unfinished_run_is_409(self, client):
        status = client.submit(RunRequest(ids=("ZZSLOW",), cache=False))
        try:
            with pytest.raises(ServeError) as exc_info:
                client.results(status.run_id)
            assert exc_info.value.status == 409
        finally:
            client.cancel(status.run_id)

    def test_failed_run_reports_error_and_409_results(self, client):
        status = client.submit(RunRequest(ids=("ZZBOOM",)))
        done = client.wait(status.run_id, timeout_s=60)
        assert done.state == "failed"
        assert "kaput" in done.error
        with pytest.raises(ServeError) as exc_info:
            client.results(status.run_id)
        assert exc_info.value.status == 409
        assert "kaput" in str(exc_info.value)


class TestCancel:
    def test_cancel_mid_run_frees_the_pool(self, client):
        victim = client.submit(RunRequest(ids=("ZZSLOW",), cache=False))
        # Wait until a worker actually picks it up.
        deadline = time.monotonic() + 30
        while client.status(victim.run_id).state == "queued":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)

        cancelled = client.cancel(victim.run_id)
        assert cancelled.state == "cancelled"
        assert client.status(victim.run_id).state == "cancelled"

        # The respawned worker still serves new jobs promptly.
        follow_up = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        assert client.wait(follow_up.run_id, timeout_s=60).state == "done"

    def test_cancel_terminal_run_is_409(self, client):
        status = client.submit(RunRequest(ids=("ZZQ",)))
        client.wait(status.run_id, timeout_s=60)
        with pytest.raises(ServeError) as exc_info:
            client.cancel(status.run_id)
        assert exc_info.value.status == 409


class TestSharedStore:
    def test_identical_resubmission_is_answered_from_cache(self, client):
        request = RunRequest(ids=("ZZQ",))
        first = client.submit(request)
        client.wait(first.run_id, timeout_s=60)

        second = client.submit(request)
        assert second.state == "done"  # no wait needed: answered at submit
        assert second.cached is True
        assert (canonical_results_bytes(client.results(first.run_id))
                == canonical_results_bytes(client.results(second.run_id)))

        hits = [
            line for line in client.metrics_text().splitlines()
            if line.startswith("repro_serve_cache_hits_total")
        ]
        assert hits and float(hits[0].rsplit(" ", 1)[1]) >= 1

    def test_executed_results_are_read_from_disk_not_kept(
        self, server, client, monkeypatch
    ):
        queue = server.queue
        request = RunRequest(ids=("ZZQ",), overrides={"ZZQ": {"x": 7}})
        executed = client.submit(request)
        client.wait(executed.run_id, timeout_s=60)
        first = queue.results(executed.run_id).document
        second = queue.results(executed.run_id).document
        assert first == second
        assert first["experiments"][0]["values"]["block"]["x"] == 7
        assert queue._jobs[executed.run_id].document is None

        hit = client.submit(request)
        assert hit.cached is True

        def no_disk(self, *args, **kwargs):
            raise AssertionError(f"cache hit read {self}")

        with monkeypatch.context() as patch:
            patch.setattr(pathlib.Path, "read_text", no_disk)
            patch.setattr(pathlib.Path, "read_bytes", no_disk)
            cached = queue.results(hit.run_id)
        assert cached.cached is True
        assert canonical_results_bytes(cached.document) == (
            canonical_results_bytes(first)
        )

    def test_cache_hit_http_status_is_200_not_202(self, server, client):
        request = RunRequest(ids=("ZZQ",))
        body = json.dumps(request.as_dict()).encode()

        def submit_raw():
            http_req = urllib.request.Request(
                f"{server.url}/runs", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(http_req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())

        code, payload = submit_raw()
        assert code == 202
        client.wait(payload["run_id"], timeout_s=60)
        code, payload = submit_raw()
        assert code == 200 and payload["cached"] is True

    def test_concurrent_identical_submissions_coalesce(self, client):
        request = RunRequest(ids=("ZZSLOW",), overrides={"ZZSLOW": {"sleep_s": 2.0}})
        first = client.submit(request)
        second = client.submit(request)  # same digest, still in flight
        assert second.run_id == first.run_id  # joined, not duplicated
        done = client.wait(first.run_id, timeout_s=60)
        assert done.state == "done"
        coalesced = [
            line for line in client.metrics_text().splitlines()
            if line.startswith("repro_serve_coalesced_total")
        ]
        assert coalesced and float(coalesced[0].rsplit(" ", 1)[1]) >= 1

    def test_no_cache_submissions_never_coalesce(self, client):
        request = RunRequest(
            ids=("ZZSLOW",), cache=False,
            overrides={"ZZSLOW": {"sleep_s": 2.0}},
        )
        first = client.submit(request)
        second = client.submit(request)
        assert second.run_id != first.run_id
        for status in (first, second):
            assert client.wait(status.run_id, timeout_s=60).state == "done"

    def test_different_config_misses_the_cache(self, client):
        first = client.submit(RunRequest(ids=("ZZQ",)))
        client.wait(first.run_id, timeout_s=60)
        other = client.submit(
            RunRequest(ids=("ZZQ",), overrides={"ZZQ": {"x": 2}})
        )
        assert other.cached is False
        client.wait(other.run_id, timeout_s=60)


class TestBitIdentity:
    def test_served_results_match_the_cli_byte_for_byte(
        self, fakes, tmp_path, capsys
    ):
        cli_out = tmp_path / "cli-run"
        assert main(["run", "ZZQ", "--no-cache", "--out", str(cli_out)]) == 0
        capsys.readouterr()
        cli_doc = json.loads((cli_out / "results.json").read_text())

        with CatalogServer(tmp_path / "srv", workers=1) as srv:
            client = ServeClient(srv.url, timeout_s=30.0)
            status = client.submit(RunRequest(ids=("ZZQ",), cache=False))
            client.wait(status.run_id, timeout_s=60)
            served_doc = client.results(status.run_id)
            served_file = json.loads(
                (srv.queue.root / status.run_id / "results.json").read_text()
            )

        assert (canonical_results_bytes(served_doc)
                == canonical_results_bytes(cli_doc))
        # The endpoint serves exactly what the worker wrote to disk.
        assert served_doc == served_file

    def test_served_run_dir_has_the_full_cli_artifact_set(
        self, server, client
    ):
        status = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        client.wait(status.run_id, timeout_s=60)
        run_dir = server.queue.root / status.run_id
        for name in ("events.jsonl", "manifest.json", "results.json",
                     "metrics.prom"):
            assert (run_dir / name).is_file(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["chain_verified"] is True


class TestLifecycle:
    def test_double_stop_is_idempotent(self, fakes, tmp_path):
        server = CatalogServer(tmp_path / "srv", workers=1)
        server.start()
        server.stop()
        server.stop()  # must not raise

    def test_watch_follows_a_server_run_by_id(self, server, client, capsys):
        status = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        client.wait(status.run_id, timeout_s=60)
        code = main([
            "watch", status.run_id, "--root", str(server.queue.root), "--once",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert status.run_id in out
        assert "run finished" in out


def _access_records(server):
    path = server.queue.root / "access.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def _wait_for_access(server, predicate, timeout_s=30.0):
    """Poll the access log until one record satisfies ``predicate``.

    Request lines land after the response bytes go out and terminal
    lines after the status flips, so readers momentarily race writers.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        matches = [r for r in _access_records(server) if predicate(r)]
        if matches:
            return matches
        time.sleep(0.05)
    raise AssertionError(
        f"no matching access record; log = {_access_records(server)}"
    )


class TestTracing:
    def test_trace_id_spans_log_events_manifest_and_cli(
        self, server, client, capsys
    ):
        status = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        trace_id = client.last_trace.trace_id
        assert status.trace_id == trace_id
        client.wait(status.run_id, timeout_s=60)

        # 1. The access log: the submit's request line and the run's
        #    terminal line both carry the trace verbatim.
        (request_line,) = _wait_for_access(
            server,
            lambda r: r["kind"] == "request" and r.get("trace_id") == trace_id,
        )
        assert request_line["method"] == "POST"
        assert request_line["path"] == "/runs"
        assert request_line["status"] == 202
        assert request_line["run_id"] == status.run_id
        assert request_line["ids"] == ["ZZQ"]
        (terminal,) = _wait_for_access(
            server,
            lambda r: r["kind"] == "terminal"
            and r.get("run_id") == status.run_id,
        )
        assert terminal["state"] == "done"
        assert trace_id in terminal["trace_ids"]
        assert terminal["queue_latency_s"] >= 0
        assert terminal["wall_s"] >= 0

        # 2. The worker-side event stream: every record's volatile half
        #    names the originating trace.
        run_dir = server.queue.root / status.run_id
        events = [
            json.loads(line)
            for line in (run_dir / "events.jsonl").read_text().splitlines()
        ]
        assert events
        assert all(e["trace"]["trace_id"] == trace_id for e in events)

        # 3. The manifest records the originating trace.
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["trace"]["trace_id"] == trace_id

        # 4. `repro trace --serve` stitches it back together.
        root = str(server.queue.root)
        assert main(["trace", "--serve", root]) == 0
        assert trace_id in capsys.readouterr().out
        assert main(["trace", "--serve", root, "--trace-id", trace_id]) == 0
        detail = capsys.readouterr().out
        assert status.run_id in detail
        code = main([
            "trace", "--serve", root, "--trace-id", trace_id, "--json",
        ])
        assert code == 0
        timeline = json.loads(capsys.readouterr().out)
        assert timeline["run_id"] == status.run_id
        assert timeline["state"] == "done"

    def test_malformed_traceparent_falls_back_to_a_fresh_trace(
        self, server
    ):
        for header in ("not-a-header", "00-" + "0" * 32 + "-" + "0" * 16 + "-01"):
            http_req = urllib.request.Request(
                f"{server.url}/healthz",
                headers={"traceparent": header},
            )
            with urllib.request.urlopen(http_req, timeout=10) as resp:
                assert resp.status == 200
                echoed = resp.headers["traceparent"]
            # The response echoes a *fresh, well-formed* trace.
            assert echoed is not None and echoed != header
            version, trace_id, span_id, flags = echoed.split("-")
            assert len(trace_id) == 32 and set(trace_id) != {"0"}

    def test_wellformed_traceparent_is_adopted_not_replaced(self, server):
        incoming = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        http_req = urllib.request.Request(
            f"{server.url}/healthz", headers={"traceparent": incoming}
        )
        with urllib.request.urlopen(http_req, timeout=10) as resp:
            echoed = resp.headers["traceparent"]
        # Same trace_id (adopted), new span_id (this hop).
        assert echoed.split("-")[1] == "ab" * 16
        assert echoed.split("-")[2] != "cd" * 8
        (line,) = _wait_for_access(
            server, lambda r: r.get("trace_id") == "ab" * 16
        )
        assert line["parent_id"] == "cd" * 8

    def test_cancelled_run_emits_a_terminal_line(self, server, client):
        victim = client.submit(RunRequest(ids=("ZZSLOW",), cache=False))
        trace_id = client.last_trace.trace_id
        deadline = time.monotonic() + 30
        while client.status(victim.run_id).state == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        client.cancel(victim.run_id)
        (terminal,) = _wait_for_access(
            server,
            lambda r: r["kind"] == "terminal"
            and r.get("run_id") == victim.run_id,
        )
        assert terminal["state"] == "cancelled"
        assert trace_id in terminal["trace_ids"]

    def test_failed_run_emits_a_terminal_line_with_the_error(
        self, server, client
    ):
        status = client.submit(RunRequest(ids=("ZZBOOM",), cache=False))
        assert client.wait(status.run_id, timeout_s=60).state == "failed"
        (terminal,) = _wait_for_access(
            server,
            lambda r: r["kind"] == "terminal"
            and r.get("run_id") == status.run_id,
        )
        assert terminal["state"] == "failed"
        assert "kaput" in terminal["error"]

    def test_coalesced_joiners_each_get_an_access_line(self, server, client):
        request = RunRequest(
            ids=("ZZSLOW",), overrides={"ZZSLOW": {"sleep_s": 2.0}}
        )
        first = client.submit(request)
        first_trace = client.last_trace.trace_id
        second = client.submit(request)  # same digest, joins in flight
        second_trace = client.last_trace.trace_id
        assert second.run_id == first.run_id
        assert first_trace != second_trace
        client.wait(first.run_id, timeout_s=60)

        (joiner_line,) = _wait_for_access(
            server, lambda r: r.get("trace_id") == second_trace
        )
        assert joiner_line["coalesced"] is True
        assert joiner_line["joined_trace_id"] == first_trace
        assert joiner_line["run_id"] == first.run_id
        (terminal,) = _wait_for_access(
            server,
            lambda r: r["kind"] == "terminal"
            and r.get("run_id") == first.run_id,
        )
        assert first_trace in terminal["trace_ids"]
        assert second_trace in terminal["trace_ids"]

    def test_cache_answer_is_marked_in_the_access_log(self, server, client):
        request = RunRequest(ids=("ZZQ",))
        first = client.submit(request)
        client.wait(first.run_id, timeout_s=60)
        client.submit(request)
        hit_trace = client.last_trace.trace_id
        (line,) = _wait_for_access(
            server, lambda r: r.get("trace_id") == hit_trace
        )
        assert line["cached"] is True and line["status"] == 200

    def test_metrics_expose_latency_histograms(self, client):
        client.wait(client.submit(RunRequest(ids=("ZZQ",))).run_id, timeout_s=60)
        text = client.metrics_text()
        for name in (
            "repro_serve_request_latency_seconds",
            "repro_serve_queue_latency_seconds",
        ):
            bucket_counts = [
                int(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith(f"{name}_bucket")
            ]
            assert bucket_counts, name
            assert bucket_counts == sorted(bucket_counts), name
            count_line = next(
                line for line in text.splitlines()
                if line.startswith(f"{name}_count")
            )
            assert int(count_line.rsplit(" ", 1)[1]) == bucket_counts[-1]
            assert f'{name}_bucket{{le="+Inf"' in text

    def test_serve_report_cli_over_a_live_root(
        self, server, client, capsys
    ):
        done = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        client.wait(done.run_id, timeout_s=60)
        _wait_for_access(
            server,
            lambda r: r["kind"] == "terminal"
            and r.get("run_id") == done.run_id,
        )
        root = str(server.queue.root)
        assert main(["serve-report", root, "--require-stitched"]) == 0
        out = capsys.readouterr().out
        assert "requests" in out and "ZZQ" in out
        assert main(["serve-report", root, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests"]["total"] >= 2
        assert report["stitching"]["unstitched"] == []
        assert report["request_latency"]["buckets"][-1]["le"] == "+Inf"

    def test_disable_env_silences_tracing(self, fakes, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
        with CatalogServer(tmp_path / "quiet", workers=1) as srv:
            quiet_client = ServeClient(srv.url, timeout_s=30.0)
            status = quiet_client.submit(RunRequest(ids=("ZZQ",), cache=False))
            quiet_client.wait(status.run_id, timeout_s=60)
            assert not (srv.queue.root / "access.jsonl").exists()


class TestAccessLogRotation:
    """Size-threshold rotation of access.jsonl, and reading across it."""

    @staticmethod
    def _fill(log, n, prefix="t"):
        from repro.serve.access import AccessLog  # noqa: F401  (re-export check)

        for i in range(n):
            log.write(
                "request", method="GET", path=f"/runs/{i}", status=200,
                trace_id=f"{prefix}{i:03d}", dur_s=0.01,
            )

    def test_write_past_threshold_rotates_to_dot_one(self, tmp_path):
        from repro.serve.access import AccessLog

        log = AccessLog(tmp_path / "access.jsonl", max_bytes=600)
        self._fill(log, 8)
        log.close()
        live = tmp_path / "access.jsonl"
        rotated = tmp_path / "access.jsonl.1"
        assert live.exists() and rotated.exists()
        assert live.stat().st_size <= 600
        # Both segments hold whole lines only — rotation never tears one.
        for segment in (live, rotated):
            for line in segment.read_text().splitlines():
                assert json.loads(line)["kind"] == "request"

    def test_index_stitches_across_the_rotation_boundary(self, tmp_path):
        from repro.obs.trace import ServeTraceIndex
        from repro.serve.access import AccessLog

        log = AccessLog(tmp_path / "access.jsonl", max_bytes=800)
        self._fill(log, 12)
        log.close()
        assert (tmp_path / "access.jsonl.1").exists()
        index = ServeTraceIndex.load(tmp_path)
        # Every record survives the rotation, rotated segment first.
        assert sorted(index.trace_ids()) == [f"t{i:03d}" for i in range(12)]
        assert len(index.requests) == 12

    def test_short_write_raises_naming_the_path(self, tmp_path, monkeypatch):
        import os

        from repro.serve.access import AccessLog

        monkeypatch.delenv("REPRO_OBS_DISABLE", raising=False)
        log = AccessLog(tmp_path / "access.jsonl")
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        with pytest.raises(OSError, match="access.jsonl"):
            self._fill(log, 1)
        log.close()

    def test_zero_threshold_disables_rotation(self, tmp_path):
        from repro.serve.access import AccessLog

        log = AccessLog(tmp_path / "access.jsonl", max_bytes=0)
        self._fill(log, 50)
        log.close()
        assert not (tmp_path / "access.jsonl.1").exists()

    def test_reopened_log_keeps_honoring_the_threshold(self, tmp_path):
        from repro.serve.access import AccessLog

        log = AccessLog(tmp_path / "access.jsonl", max_bytes=600)
        self._fill(log, 4, prefix="a")
        log.close()
        # A new instance (process restart) seeds its size from disk.
        log = AccessLog(tmp_path / "access.jsonl", max_bytes=600)
        self._fill(log, 8, prefix="b")
        log.close()
        assert (tmp_path / "access.jsonl.1").exists()

    def test_env_var_overrides_the_default_threshold(self, tmp_path, monkeypatch):
        from repro.serve.access import DEFAULT_MAX_BYTES, AccessLog

        monkeypatch.setenv("REPRO_ACCESS_LOG_MAX_BYTES", "700")
        assert AccessLog(tmp_path / "a.jsonl").max_bytes == 700
        monkeypatch.setenv("REPRO_ACCESS_LOG_MAX_BYTES", "not-a-number")
        assert AccessLog(tmp_path / "b.jsonl").max_bytes == DEFAULT_MAX_BYTES

    def test_rotated_fleet_report_counts_both_segments(self, tmp_path):
        from repro.obs.trace import ServeTraceIndex
        from repro.serve.access import AccessLog

        log = AccessLog(tmp_path / "access.jsonl", max_bytes=800)
        self._fill(log, 12)
        log.close()
        report = ServeTraceIndex.load(tmp_path).fleet_report()
        assert report["requests"]["total"] == 12


def _get(url, timeout_s=10.0):
    """One plain-HTTP GET: (status code, parsed JSON body)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _await_state(client, run_id, state, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while client.status(run_id).state != state:
        assert time.monotonic() < deadline, f"run never reached {state}"
        time.sleep(0.02)


@pytest.fixture()
def connects(monkeypatch):
    """Every ``HTTPConnection.connect`` made while the test runs."""
    made = []
    real_connect = http.client.HTTPConnection.connect

    def counting_connect(conn):
        made.append(conn)
        return real_connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    return made


class TestKeepAlive:
    def test_submit_wait_results_make_one_connection(self, client, connects):
        status = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        assert client.wait(status.run_id, timeout_s=60).state == "done"
        assert client.results(status.run_id)["experiments"]
        assert len(connects) == 1

    def test_a_dropped_idle_connection_is_reopened(
        self, server, client, connects
    ):
        assert client.healthz()["ok"] is True
        # The server side hangs up on the idle connection.
        for conn in list(server._httpd.connections):
            conn.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + 10
        while server._httpd.connections:
            assert time.monotonic() < deadline, "handler kept the connection"
            time.sleep(0.01)
        assert client.healthz()["ok"] is True
        assert len(connects) == 2

    def test_an_unused_body_does_not_poison_the_next_request(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/healthz", body=b'{"ignored": true}',
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 405
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ok"] is True
        finally:
            conn.close()

    def test_malformed_content_length_is_400_and_closes(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.putrequest("POST", "/runs")
            conn.putheader("Content-Length", "lots")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
            assert response.will_close
        finally:
            conn.close()

    def test_an_http09_request_gets_the_bare_body(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        assert json.loads(b"".join(chunks))["ok"] is True

    def test_keepalive_responses_are_not_held_back_by_nagle(self, client):
        client.healthz()  # connect outside the timed loop
        start = time.perf_counter()
        for _ in range(20):
            client.healthz()
        # Nagle + delayed ACK would stall each response ~40 ms (0.8 s).
        assert time.perf_counter() - start < 0.4

    def test_one_client_is_safe_across_threads(self, client):
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    assert client.healthz()["ok"] is True
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_stop_ends_handlers_of_open_connections(self, fakes, tmp_path):
        baseline = threading.active_count()
        srv = CatalogServer(tmp_path / "srv", workers=1).start()
        with ServeClient(srv.url, timeout_s=10.0) as held:
            assert held.healthz()["ok"] is True
            srv.stop()  # while the client still holds its connection
            deadline = time.monotonic() + 10
            while threading.active_count() > baseline:
                assert time.monotonic() < deadline, (
                    f"threads left after stop: {threading.enumerate()}"
                )
                time.sleep(0.02)

    def test_a_closed_client_reconnects(self, client):
        with client:
            assert client.healthz()["ok"] is True
        assert client.healthz()["ok"] is True


class TestHeldWait:
    def test_wait_on_a_running_run_is_one_held_request(self, client):
        calls = []
        real_request = client._request

        def counting_request(method, path, body=None):
            calls.append(path)
            return real_request(method, path, body)

        status = client.submit(RunRequest(
            ids=("ZZSLOW",), cache=False, overrides={"ZZSLOW": {"sleep_s": 0.6}},
        ))
        client._request = counting_request
        start = time.perf_counter()
        assert client.wait(status.run_id, timeout_s=60).state == "done"
        assert time.perf_counter() - start >= 0.5
        assert len(calls) <= 2, calls

    def test_short_hold_answers_with_the_unfinished_state(self, server, client):
        victim = client.submit(RunRequest(ids=("ZZSLOW",), cache=False))
        try:
            code, payload = _get(f"{server.url}/runs/{victim.run_id}?wait=0.05")
            assert code == 200
            assert payload["state"] in ("queued", "running")
        finally:
            client.cancel(victim.run_id)

    def test_plain_status_route_is_not_held(self, server, client):
        victim = client.submit(RunRequest(ids=("ZZSLOW",), cache=False))
        try:
            start = time.perf_counter()
            code, payload = _get(f"{server.url}/runs/{victim.run_id}")
            assert code == 200 and payload["state"] in ("queued", "running")
            assert time.perf_counter() - start < 1.0
        finally:
            client.cancel(victim.run_id)

    def test_non_numeric_wait_is_400(self, server, client):
        status = client.submit(RunRequest(ids=("ZZQ",)))
        for bad in ("abc", "", "nan", "inf"):
            code, payload = _get(f"{server.url}/runs/{status.run_id}?wait={bad}")
            assert code == 400, bad
            assert "wait" in payload["error"]

    def test_wait_on_an_unknown_run_is_404_at_once(self, server):
        start = time.perf_counter()
        code, payload = _get(f"{server.url}/runs/run-9999-deadbeef?wait=5")
        assert code == 404 and "unknown run" in payload["error"]
        assert time.perf_counter() - start < 1.0

    def test_submit_wait_results_is_two_requests(self, server, client):
        status = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        run_id = status.run_id
        assert client.wait(run_id, timeout_s=60).state == "done"
        document = client.results(run_id)

        def lines():
            return [r for r in _access_records(server)
                    if r["kind"] == "request" and r.get("run_id") == run_id]

        _wait_for_access(server, lambda r: len(lines()) >= 2)
        time.sleep(0.2)  # a third request line would have landed by now
        assert [r["method"] for r in lines()] == ["POST", "GET"]
        on_disk = json.loads((server.queue.root / run_id / "results.json").read_text())
        assert document == on_disk
        code, payload = _get(f"{server.url}/runs/{run_id}/results")
        assert code == 200 and payload["document"] == document
        code, plain = _get(f"{server.url}/runs/{run_id}")
        assert code == 200 and plain["state"] == "done" and "results" not in plain

    def test_a_wait_that_ends_failed_or_cancelled_holds_nothing(self, client):
        done = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        client.wait(done.run_id, timeout_s=60)
        failed = client.submit(RunRequest(ids=("ZZBOOM",), cache=False))
        assert client.wait(failed.run_id, timeout_s=60).state == "failed"
        assert client._local.held is None
        with pytest.raises(ServeError) as exc_info:
            client.results(failed.run_id)
        assert exc_info.value.status == 409

        cancelled = client.submit(RunRequest(ids=("ZZSLOW",), cache=False))
        client.cancel(cancelled.run_id)
        assert client.wait(cancelled.run_id, timeout_s=60).state == "cancelled"
        assert client._local.held is None
        with pytest.raises(ServeError) as exc_info:
            client.results(cancelled.run_id)
        assert exc_info.value.status == 409
        # The first run's results are still served, by a request.
        assert client.results(done.run_id)["experiments"]

    def test_a_thread_holds_one_document_at_most(self, client):
        calls = []
        real_request = client._request

        def counting_request(method, path, body=None):
            calls.append(path)
            return real_request(method, path, body)

        first, second, other = (
            client.submit(RunRequest(ids=("ZZQ",), cache=False,
                                     overrides={"ZZQ": {"x": x}}))
            for x in (1, 2, 3)
        )
        held_elsewhere = []

        def wait_in_a_thread():
            client.wait(other.run_id, timeout_s=60)
            held_elsewhere.append(client._local.held[0])

        thread = threading.Thread(target=wait_in_a_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and held_elsewhere == [other.run_id]

        client.wait(first.run_id, timeout_s=60)
        client.wait(second.run_id, timeout_s=60)
        assert client._local.held[0] == second.run_id
        client._request = counting_request
        assert client.results(second.run_id)["experiments"][0]["values"] == {
            "block": {"x": 2}
        }
        assert calls == []
        assert client.results(first.run_id)["experiments"][0]["values"] == {
            "block": {"x": 1}
        }
        assert calls == [f"/runs/{first.run_id}/results"]
        assert client._local.held is None

    def test_wait_without_a_results_file_answers_the_status(self, server, client):
        status = client.submit(RunRequest(ids=("ZZQ",), cache=False))
        client.wait(status.run_id, timeout_s=60)
        (server.queue.root / status.run_id / "results.json").unlink()
        code, payload = _get(f"{server.url}/runs/{status.run_id}?wait=5")
        assert code == 200
        assert payload["state"] == "done" and "results" not in payload

    def test_held_time_is_not_booked_as_handler_latency(self, server, client):
        from repro.obs.trace import ServeTraceIndex

        status = client.submit(RunRequest(
            ids=("ZZSLOW",), cache=False, overrides={"ZZSLOW": {"sleep_s": 0.3}},
        ))
        _await_state(client, status.run_id, "running")
        code, payload = _get(f"{server.url}/runs/{status.run_id}?wait=20")
        assert code == 200 and payload["state"] == "done"
        (held,) = _wait_for_access(
            server,
            lambda r: r["kind"] == "request" and r.get("wait_s", 0) >= 0.2,
        )
        assert held["wall_s"] >= held["wait_s"]
        latency = ServeTraceIndex.load(server.queue.root).fleet_report()[
            "request_latency"
        ]
        assert latency["count"] >= 3
        assert latency["sum"] < 0.1


def _gauges():
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    return (
        metrics.gauge("serve.queue_depth").value,
        metrics.gauge("serve.running").value,
    )


@pytest.fixture()
def idle_queue(fakes, tmp_path):
    """A JobQueue whose workers never start: jobs move only as the test
    drives them."""
    from repro.serve import JobQueue

    q = JobQueue(tmp_path / "q", workers=1)
    yield q
    for mp_queue in (q._tasks, q._events):
        mp_queue.close()
        mp_queue.cancel_join_thread()
    q.access.close()


def _feed(q, *messages):
    """Fold worker messages into the job table, as the drainer would."""
    for message in messages + (("stop",),):
        q._events.put(message)
    q._drain()


def test_worker_stores_under_the_digest_it_was_handed(fakes, tmp_path, monkeypatch):
    import queue

    from repro.api.catalog import SERVE_STORE_DIRNAME
    from repro.parallel.cache import ResultCache
    from repro.serve.queue import _STOP, worker_main

    request = RunRequest(ids=("ZZQ",), overrides={"ZZQ": {"x": 5}})
    digest = request.digest()
    tasks, events = queue.Queue(), queue.Queue()
    tasks.put(("run-0001", digest, request.as_dict(), None))
    tasks.put(_STOP)

    def no_digest(self):
        raise AssertionError("the worker hashed the request again")

    monkeypatch.setattr(RunRequest, "digest", no_digest)
    worker_main(tasks, events, str(tmp_path))
    kinds = [events.get_nowait()[0] for _ in range(events.qsize())]
    assert kinds == ["start", "done"]
    hit, document = ResultCache(tmp_path / SERVE_STORE_DIRNAME).get(digest)
    assert hit
    assert document["experiments"][0]["values"]["block"]["x"] == 5


class TestQueueGauges:
    def test_submit_never_scans_the_job_table(self, idle_queue):
        from repro.api.types import DONE, RunStatus
        from repro.serve.queue import _Job

        request = RunRequest(ids=("ZZQ",), cache=False)
        for i in range(5000):
            run_id = f"run-old-{i}"
            idle_queue._jobs[run_id] = _Job(
                RunStatus(run_id=run_id, state=DONE, request=request), "d"
            )

        class NoScan(dict):
            def values(self):
                raise AssertionError("job table scanned")

        idle_queue._jobs = NoScan(idle_queue._jobs)
        status = idle_queue.submit(request)
        assert status.state == "queued"
        assert _gauges() == (1, 0)

    def test_gauges_match_a_full_recount(self, idle_queue):
        import random

        rng = random.Random(20231112)
        for step in range(200):
            live = [
                run_id for run_id, job in idle_queue._jobs.items()
                if not job.status.terminal
            ]
            op = rng.choice(("submit", "cancel", "start", "done", "failed"))
            if op == "submit" or not live:
                idle_queue.submit(RunRequest(
                    ids=("ZZQ",), cache=rng.random() < 0.5,
                    overrides={"ZZQ": {"x": rng.randrange(4)}},
                ))
            elif op == "cancel":
                idle_queue.cancel(rng.choice(live))
            else:
                run_id = rng.choice(list(idle_queue._jobs))
                message = {
                    "start": ("start", run_id, -1, time.time()),
                    "done": ("done", run_id, time.time()),
                    "failed": ("failed", run_id, "boom", time.time()),
                }[op]
                _feed(idle_queue, message)
            states = [job.status.state for job in idle_queue._jobs.values()]
            assert _gauges() == (
                states.count("queued"), states.count("running")
            ), step
