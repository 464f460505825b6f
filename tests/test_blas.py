"""The BLAS pin: every run holds the loaded BLAS at one thread, concurrent
runs share one pin, the caller's thread count comes back afterwards, and
the run's manifest records what it used."""

import functools
import json
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.api import DONE, InlineBackend, RunRequest, execute_request
from repro.exp import registry
from repro.exp.registry import Experiment
from repro.exp.result import Block, ExpResult
from repro.obs.history import RunDiff, RunRecord
from repro.parallel import pmap, runner
from repro.utils import blas

pytestmark = pytest.mark.skipif(
    not blas.thread_counts(), reason="no controllable BLAS is loaded"
)


class _SpyExperiment(Experiment):
    """Records the BLAS thread counts its body runs under."""

    title = "blas spy"
    paper_claim = "-"
    DEFAULT: dict = {}

    def _run(self, config, *, workers, cache):
        self.hook()
        self.seen.append(blas.thread_counts())
        result = ExpResult(self.id, config)
        result.add("block", Block(values={"x": 1}))
        return result


@pytest.fixture()
def spy(monkeypatch):
    registry.load_all()
    exp = _SpyExperiment()
    exp.id = "ZZBLAS"
    exp.seen = []
    exp.hook = lambda: None
    monkeypatch.setitem(registry._REGISTRY, "ZZBLAS", exp)
    return exp


@pytest.fixture()
def callers_counts():
    """Start every BLAS at two threads, so that a restore is observable."""
    saved = list(blas.thread_counts().values())
    for _, _, set_threads in blas._libraries():
        set_threads(2)
    try:
        yield blas.thread_counts()
    finally:
        for (_, _, set_threads), count in zip(blas._libraries(), saved):
            set_threads(count)


def _pinned():
    return {name: 1 for name in blas.thread_counts()}


def test_execute_request_pins_then_restores(spy, callers_counts):
    execute_request(RunRequest(ids=("ZZBLAS",), cache=False))
    assert spy.seen == [_pinned()]
    assert blas.thread_counts() == callers_counts


def test_concurrent_inline_runs_hold_the_pin_until_both_finish(
    spy, callers_counts, tmp_path
):
    backend = InlineBackend(tmp_path / "runs")
    both_inside = threading.Barrier(2, timeout=60)
    first_finished = threading.Event()

    def hook():
        both_inside.wait()
        if threading.current_thread().name == "second":
            assert first_finished.wait(60)

    spy.hook = hook
    states = {}

    def submit():
        status = backend.submit(RunRequest(ids=("ZZBLAS",), cache=False))
        states[threading.current_thread().name] = status.state

    first = threading.Thread(target=submit, name="first")
    second = threading.Thread(target=submit, name="second")
    routing = obs.get_logger()
    first.start()
    second.start()
    first.join(60)
    assert not first.is_alive()
    first_finished.set()
    second.join(60)
    assert not second.is_alive()
    # Each run routes its thread's telemetry and restores it on exit, so
    # two runs in threads leave this thread's routing as it was.
    assert obs.get_logger() is routing
    assert states == {"first": DONE, "second": DONE}
    # The second run still saw one thread after the first one finished.
    assert spy.seen == [_pinned(), _pinned()]
    assert blas.thread_counts() == callers_counts


def _worker_blas(_config, _seed):
    return os.getpid(), blas.thread_counts()


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_pin_themselves(method, monkeypatch, callers_counts):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(
        runner, "ProcessPoolExecutor",
        functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
        ),
    )
    # Outside any run, so a forked worker inherits the caller's two threads.
    out = pmap(_worker_blas, [0, 1, 2, 3], seeds=0, workers=2)
    if any(pid == os.getpid() for pid, _ in out):
        pytest.skip("pmap ran serially, so there was no pool worker")
    assert [counts for _, counts in out] == [_pinned()] * 4


def test_manifest_records_the_blas_and_runs_diff_reports_a_change(tmp_path):
    for name in ("run-a", "run-b"):
        execute_request(
            RunRequest(ids=("T1",), smoke=True, cache=False),
            out_dir=tmp_path / name,
        )
    manifest_b = tmp_path / "run-b" / "manifest.json"
    doc = json.loads(manifest_b.read_text())
    assert doc["environment"]["blas"] == {
        "library": list(blas.thread_counts()), "threads": 1,
    }
    doc["environment"]["blas"]["threads"] = "unpinned"
    manifest_b.write_text(json.dumps(doc))
    diff = RunDiff.between(
        RunRecord.from_dir(tmp_path / "run-a"),
        RunRecord.from_dir(tmp_path / "run-b"),
    )
    assert diff.env_diffs == [{"key": "blas.threads", "a": 1, "b": "unpinned"}]
