"""The serve workloads: ``repro serve`` in its own process, driven over HTTP.

``serve-hot`` is an open loop: requests are due on a Poisson schedule at
each rate of :data:`workloads.HOT_LADDER`, sent over at most
:data:`CONNECTIONS` connections, and every one hits the result store.
``serve-cold`` is a closed loop of :data:`CONNECTIONS` clients whose
requests all miss the store and execute in a worker.

The server is started with the ``spawn`` method (a fresh interpreter,
as ``repro serve`` would be), forks its own ``workers=2`` pool, and is
stopped before the run returns.  With tracing on, the wrappers go in
inside the server process before the pool forks.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import multiprocessing
import socket
import sys
import threading
import time
import urllib.error
from pathlib import Path
from typing import Any, Callable

from artifacts import tree_bytes
from common import canonical_bytes, median, peak_rss_mb, percentile
from repro.api.catalog import SERVE_STORE_DIRNAME
import workloads

#: Latency limit of a hot request (POST /runs + GET results).
LIMIT_MS = 50.0
#: The percentile held to the limit on a ladder step: the highest one a
#: step's ~200 arrivals leave ten samples beyond.
LADDER_PERCENTILE = 95.0
#: Thread switch interval of the load generator (not of the server), so
#: a sender due to fire is not held up to 5 ms by its sibling.
GENERATOR_SWITCH_S = 0.0005
#: Connections the load generator holds open at once.
CONNECTIONS = 2
#: ``JobQueue`` worker processes in the server.
SERVE_WORKERS = 2
#: Server starts per run; set-up reports their median.
SETUP_STARTS = 3
#: Status poll cadence of the cold clients.
POLL_S = 0.005
#: Cold documents checked against an in-process reference per run.
COLD_VERIFY = 24
#: Per-HTTP-call client timeout.
REQUEST_TIMEOUT_S = 15.0
#: Longest a cold request may take before it counts as timed out.
COLD_TIMEOUT_S = 30.0
#: The latency a failed request is counted at: it misses any limit.
FAILED_MS = 1000.0 * REQUEST_TIMEOUT_S


# -- the server process ----------------------------------------------------------


def serve_main(conn: Any, root: str, traced: bool, spans_dir: str) -> None:
    """Body of the server process: serve until told to stop, then report."""
    # A spawned child inherits "spawn" as its default start method; the
    # pool must fork its workers the way `repro serve` does.
    multiprocessing.set_start_method(None, force=True)
    tracer = None
    if traced:
        import probes
        from tracing import Tracer

        # Nothing counts until the benchmark opens the window.
        tracer = Tracer(since=float("inf"))
        probes.install_common(tracer)
        probes.install_server(tracer, spans_dir)
    from repro.serve.server import CatalogServer

    server = CatalogServer(root, workers=SERVE_WORKERS).start()
    try:
        conn.send(server.port)
        while True:
            try:
                message = conn.recv()
            except EOFError:  # the benchmark went away
                break
            if message == "stop":
                break
            if tracer is not None:  # ("window", perf_counter start)
                tracer.since.value = message[1]
        jobs = len(server.queue.statuses())
    finally:
        server.stop()
    report: dict[str, Any] = {"peak_rss_mb": peak_rss_mb(), "jobs_retained": jobs}
    if tracer is not None:
        from tracing import merge

        exports = [tracer.export()]
        for path in sorted(Path(spans_dir).glob("worker-*.json")):
            exports.append(json.loads(path.read_text()))
        report["trace"] = merge(exports)
    conn.send(report)
    conn.close()


class Server:
    """Start, address and stop one server process."""

    def __init__(self, root: Path, *, traced: bool = False,
                 spans_dir: Path | None = None) -> None:
        self.root = root
        self.traced = traced
        self.spans_dir = spans_dir or root.parent / "spans"
        self.proc: Any = None
        self.conn: Any = None
        self.url = ""

    def start(self) -> float:
        """Seconds from process start to an answered ``/healthz``."""
        from repro.serve.client import ServeClient

        self.spans_dir.mkdir(parents=True, exist_ok=True)
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        start = time.perf_counter()
        self.proc = ctx.Process(
            target=serve_main,
            args=(child, str(self.root), self.traced, str(self.spans_dir)),
            name="perfbench-serve",
        )
        self.proc.start()
        child.close()
        if not self.conn.poll(120):
            self.kill()
            raise RuntimeError("server did not start within 120 s")
        self.url = f"http://127.0.0.1:{self.conn.recv()}"
        ServeClient(self.url, timeout_s=REQUEST_TIMEOUT_S).healthz()
        return time.perf_counter() - start

    def open_window(self, since: float) -> None:
        self.conn.send(("window", since))

    def stop(self) -> dict[str, Any]:
        report: dict[str, Any] = {}
        try:
            self.conn.send("stop")
            if self.conn.poll(120):
                report = self.conn.recv()
        except (OSError, EOFError):
            pass
        self.kill()
        return report

    def kill(self) -> None:
        if self.proc is None:
            return
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()
        self.proc = None


# -- requests and the correctness gate -------------------------------------------


class Outcome:
    """One request as the generator saw it."""

    __slots__ = ("due", "start", "end", "ok", "timed_out", "body", "doc")

    def __init__(self, due: float, start: float, end: float, ok: bool,
                 timed_out: bool, body: dict, doc: Any) -> None:
        self.due, self.start, self.end = due, start, end
        self.ok, self.timed_out = ok, timed_out
        self.body, self.doc = body, doc

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.end - self.due) if self.ok else FAILED_MS


def _timed_out(exc: BaseException) -> bool:
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return True
    return isinstance(exc, urllib.error.URLError) and isinstance(
        exc.reason, (socket.timeout, TimeoutError))


def attempt(call: Callable[[], Any], due: float, body: dict) -> Outcome:
    """Run one request; any error is a failed outcome, never a raise."""
    start = time.perf_counter()
    try:
        doc = call()
    except Exception as exc:  # a failed request is data, not a crash
        return Outcome(due, start, time.perf_counter(), False, _timed_out(exc),
                       body, None)
    return Outcome(due, start, time.perf_counter(), True, False, body, doc)


def request_key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def references(bodies: list[dict]) -> dict[str, bytes]:
    """Canonical results of each request, executed in this process with
    the cell cache off."""
    from repro.api import RunRequest, execute_request

    refs: dict[str, bytes] = {}
    for body in bodies:
        key = request_key(body)
        if key not in refs:
            request = RunRequest.from_dict({**body, "cache": False})
            refs[key] = canonical_bytes(execute_request(request).as_dict())
    return refs


def mismatches(outcomes: list[Outcome], refs: dict[str, bytes]) -> int:
    """Served documents whose canonical bytes differ from the reference."""
    bad = 0
    for outcome in outcomes:
        if not outcome.ok:
            continue
        expected = refs.get(request_key(outcome.body))
        if expected is not None and canonical_bytes(outcome.doc) != expected:
            outcome.ok = False
            bad += 1
    return bad


def _bind(material: str) -> Any:
    """A fresh trace per request, so all its spans share one id."""
    from repro.obs import context as trace_context

    return trace_context.bind(trace_context.new_context(material))


# -- the load generators -----------------------------------------------------------


def open_loop(url: str, pool: tuple[dict, ...], step: workloads.HotStep,
              label: str) -> list[Outcome]:
    """Send one step's arrivals on schedule; time each from its due time,
    so a stall also delays the requests queued behind it."""
    from repro.serve.client import ServeClient

    t0 = time.perf_counter() + 0.05
    outcomes: list[Outcome | None] = [None] * len(step.offsets)
    order = itertools.count()
    lock = threading.Lock()

    def sender() -> None:
        client = ServeClient(url, timeout_s=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                i = next(order)
            if i >= len(outcomes):
                return
            due = t0 + step.offsets[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            body = pool[step.picks[i]]

            def call() -> Any:
                with _bind(f"perfbench:{label}:{i}"):
                    return fetch(client, body)

            outcomes[i] = attempt(call, due, body)

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [o for o in outcomes if o is not None]


def fetch(client: Any, body: dict) -> Any:
    """A hot request: submit, then read the results it was answered with."""
    status = client.submit(body)
    return client.results(status.run_id)


def execute(client: Any, body: dict) -> Any:
    """A cold request: submit, poll every :data:`POLL_S` until the run
    ends, then read its results."""
    from repro.api.types import DONE

    status = client.submit(body)
    status = client.wait(status.run_id, timeout_s=COLD_TIMEOUT_S, poll_s=POLL_S)
    if status.state != DONE:
        raise RuntimeError(f"run ended {status.state}: {status.error}")
    return client.results(status.run_id)


def closed_loop(url: str, bodies: tuple[dict, ...], seconds: float,
                send: Callable[[Any, dict], Any],
                label: str) -> tuple[list[Outcome], float]:
    """:data:`CONNECTIONS` clients, each sending its next request when the
    last one's results arrive, until ``seconds`` have passed or the
    requests run out."""
    from repro.serve.client import ServeClient

    outcomes: list[Outcome] = []
    order = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop() -> None:
        client = ServeClient(url, timeout_s=REQUEST_TIMEOUT_S)
        while time.perf_counter() < deadline:
            with lock:
                i = next(order)
            if i >= len(bodies):
                return
            body = bodies[i]

            def call() -> Any:
                with _bind(f"perfbench:{label}:{i}"):
                    return send(client, body)

            outcome = attempt(call, time.perf_counter(), body)
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=client_loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((o.end for o in outcomes), default=time.perf_counter())
    return outcomes, end - start


# -- the workloads -------------------------------------------------------------------


def _start_servers(tmp: Path, traced: bool) -> tuple[Server, list[float]]:
    """Start the server :data:`SETUP_STARTS` times; keep the last one."""
    starts = []
    for k in range(SETUP_STARTS - 1):
        probe = Server(tmp / f"start-{k}" / "serve")
        starts.append(probe.start())
        probe.stop()
    server = Server(tmp / "serve", traced=traced, spans_dir=tmp / "spans")
    starts.append(server.start())
    return server, starts


def _step_summary(rate: float, outcomes: list[Outcome]) -> dict[str, Any]:
    """One ladder step: latency, lateness, and whether it met the limit
    without a growing backlog (the last quarter's arrivals sent late by
    more than the limit on average)."""
    lat = [o.latency_ms for o in outcomes]
    late = [1000.0 * (o.start - o.due) for o in outcomes]
    tail = late[-max(1, len(late) // 4):]
    tail_late = sum(tail) / len(tail) if tail else 0.0
    effective = max(percentile(lat, LADDER_PERCENTILE), tail_late)
    return {
        "rate": rate, "n": len(outcomes), "p50_ms": percentile(lat, 50),
        "p95_ms": percentile(lat, 95), "p99_ms": percentile(lat, 99),
        "late_p99_ms": percentile(late, 99), "tail_late_ms": tail_late,
        "effective_ms": effective, "meets_limit": effective <= LIMIT_MS,
    }


def max_rate(steps: list[dict[str, Any]]) -> float:
    """The highest ladder rate that meets :data:`LIMIT_MS`, interpolated
    towards the next rate up by where the limit falls between their
    latencies, so the figure moves continuously with the system.  Below
    the ladder it scales the lowest rate by limit over latency."""
    passing = [k for k, step in enumerate(steps) if step["meets_limit"]]
    if not passing:
        return steps[0]["rate"] * LIMIT_MS / steps[0]["effective_ms"]
    k = passing[-1]
    if k == len(steps) - 1:
        return steps[k]["rate"]
    low, high = steps[k], steps[k + 1]
    frac = (LIMIT_MS - low["effective_ms"]) / (high["effective_ms"] - low["effective_ms"])
    return low["rate"] + frac * (high["rate"] - low["rate"])


def run_hot(seed: int, seconds: float, tmp: Path, traced: bool) -> dict[str, Any]:
    from repro.serve.client import ServeClient

    plan = workloads.hot_plan(seed, seconds)
    server, starts = _start_servers(tmp, traced)
    try:
        client = ServeClient(server.url, timeout_s=REQUEST_TIMEOUT_S)
        warm_start = time.perf_counter()
        for body in plan.pool:
            status = client.submit(body)
            client.wait(status.run_id, timeout_s=COLD_TIMEOUT_S, poll_s=POLL_S)
        warm_s = time.perf_counter() - warm_start
        store_bytes = tree_bytes(tmp / "serve" / SERVE_STORE_DIRNAME)
        client_trace = _window(server, traced)
        wall_start = time.time()
        reference: list[Outcome] = []
        others: list[Outcome] = []  # capacity and ladder requests
        capacities: list[float] = []
        steps = []
        capacity_s = seconds * workloads.HOT_CAPACITY_SHARE / workloads.HOT_ROUNDS
        with _generator_mode():
            for r, (ref_step, picks) in enumerate(zip(plan.reference, plan.capacity)):
                reference += open_loop(server.url, plan.pool, ref_step, f"ref{r}")
                saturated, elapsed = closed_loop(
                    server.url, tuple(plan.pool[p] for p in picks), capacity_s,
                    fetch, f"cap{r}")
                capacities.append(sum(o.ok for o in saturated) / elapsed)
                others += saturated
            steps.append(_step_summary(workloads.HOT_LADDER[0], reference))
            for k, step in enumerate(plan.ladder):
                got = open_loop(server.url, plan.pool, step, f"step{k}")
                steps.append(_step_summary(step.rate, got))
                others += got
        outcomes = reference + others
    finally:
        info = server.stop()
    refs = references(list(plan.pool))
    bad = mismatches(outcomes, refs)
    ref_lat = [o.latency_ms for o in reference]
    result = _result(outcomes, bad, {
        "setup_s": median(starts) + warm_s,
        "peak_rss_mb": info.get("peak_rss_mb", 0.0),
        "latency_ms": percentile(ref_lat, 50),
        "throughput_per_s": median(capacities),
    })
    result["tail"] = {"latency_p95_ms": percentile(ref_lat, 95),
                      "latency_p99_ms": percentile(ref_lat, 99)}
    result["report"]["ladder"] = steps
    result["report"]["capacity_per_round"] = capacities
    result["report"]["reference_n"] = len(reference)
    result["load"]["max_rps"] = max_rate(steps)
    late = [1000.0 * (o.start - o.due) for o in reference]
    result["load"]["late_p99_ms"] = percentile(late, 99)
    result["load"]["generator_behind"] = percentile(late, 99) > LIMIT_MS
    if traced:
        result["layers"], result["trace"] = serve_layers(
            info, client_trace, tmp / "serve", outcomes, wall_start, store_bytes)
    return result


def run_cold(seed: int, seconds: float, tmp: Path, traced: bool) -> dict[str, Any]:
    bodies = workloads.cold_requests(seed, seconds)
    server, starts = _start_servers(tmp, traced)
    try:
        # Each worker runs each experiment once before the window (set-up).
        warm_start = time.perf_counter()
        n_warm = SERVE_WORKERS * len(workloads.COLD_IDS)
        closed_loop(server.url, bodies[-n_warm:], COLD_TIMEOUT_S, execute, "warm")
        warm_s = time.perf_counter() - warm_start
        store_bytes = tree_bytes(tmp / "serve" / SERVE_STORE_DIRNAME)
        client_trace = _window(server, traced)
        wall_start = time.time()
        with _generator_mode():
            outcomes, elapsed = closed_loop(server.url, bodies[:-n_warm], seconds,
                                            execute, "cold")
    finally:
        info = server.stop()
    picked = [outcomes[i] for i in workloads.sample_indices(seed, len(outcomes),
                                                            COLD_VERIFY)]
    bad = mismatches(picked, references([o.body for o in picked if o.ok]))
    lat = [o.latency_ms for o in outcomes]
    completed = sum(o.ok for o in outcomes)
    result = _result(outcomes, bad, {
        "setup_s": median(starts) + warm_s,
        "peak_rss_mb": info.get("peak_rss_mb", 0.0),
        "latency_ms": percentile(lat, 50),
        "throughput_per_s": completed / elapsed if elapsed > 0 else 0.0,
    })
    result["tail"] = {"latency_p95_ms": percentile(lat, 95),
                      "latency_p99_ms": percentile(lat, 99)}
    result["report"]["verified"] = len(picked)
    if traced:
        result["layers"], result["trace"] = serve_layers(
            info, client_trace, tmp / "serve", outcomes, wall_start, store_bytes)
    return result


@contextlib.contextmanager
def _generator_mode() -> Any:
    """Keep the generator's own pauses out of the measured window: apply
    :data:`GENERATOR_SWITCH_S` and hold this process's garbage collector
    (the server process keeps its defaults)."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(GENERATOR_SWITCH_S)
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        sys.setswitchinterval(previous)


def _window(server: Server, traced: bool) -> Any:
    """Open the measured window: from here on, traced spans count."""
    if not traced:
        return None
    import probes
    from tracing import Tracer

    tracer = Tracer()
    probes.install_client(tracer)
    server.open_window(time.perf_counter())
    return tracer


def _result(outcomes: list[Outcome], bad: int,
            e2e: dict[str, float]) -> dict[str, Any]:
    failed = sum(not o.ok for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "correct": bad == 0,
        "e2e": e2e,
        "load": {
            "attempted": len(outcomes),
            "succeeded": len(outcomes) - failed,
            "failed": failed,
            "timed_out": sum(o.timed_out for o in outcomes),
            "mismatched": bad,
        },
        "report": {},
    }


# -- per-layer figures ------------------------------------------------------------------


def serve_layers(info: dict[str, Any], client_tracer: Any, root: Path,
                 outcomes: list[Outcome], wall_start: float,
                 store_bytes: int) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of a traced serve run (see README.md's map), and
    the merged trace they were read from.

    Only what happened after ``wall_start`` counts; ``store_bytes`` is
    the result store's size when the window opened.
    """
    from artifacts import event_stats, jsonl, sum_stats
    from tracing import agg, mean_ms, merge

    data = merge([info.get("trace") or merge([]), client_tracer.export()])
    counts = data["counts"]
    access = [r for seg in ("access.jsonl.1", "access.jsonl")
              for r in jsonl(root / seg) if r.get("ts", 0) >= wall_start]
    handled = [r for r in access if r.get("kind") == "request"]
    terminal = [r for r in access if r.get("kind") == "terminal"]
    requests = max(1, len(outcomes))
    calls, call_total, _ = agg(data, "serve.client.call")
    handler_total = sum(float(r.get("wall_s") or 0.0) for r in handled)
    waits = [1000.0 * float(r["queue_latency_s"]) for r in terminal
             if r.get("queue_latency_s") is not None]
    run_dirs = [Path(r["run_dir"]) for r in terminal if r.get("run_dir")]
    runs = len(run_dirs)
    events = sum_stats([event_stats(d) for d in run_dirs])
    docs = [o.doc for o in outcomes if o.ok and isinstance(o.doc, dict)]
    compute = [1000.0 * sum(d.get("timings", {}).values()) for d in docs
               if d.get("timings")]
    access_bytes = sum(len(json.dumps(r, sort_keys=True)) + 1 for r in access)
    exec_ms = mean_ms(data, "api.execute")
    # A mean, like exec.wall_ms, so that their difference is meaningful.
    compute_ms = sum(compute) / len(compute) if runs and compute else 0.0
    layers = {
        "http.handler_ms": median([1000.0 * float(r.get("wall_s") or 0.0)
                                   for r in handled]),
        "http.client_overhead_ms": (1000.0 * (call_total - handler_total) / calls
                                    if calls else 0.0),
        "http.response_bytes": (counts.get("http.response_bytes", 0)
                                / max(1, counts.get("http.responses", 0))),
        "http.requests": float(len(handled)),
        "api.digest_calls_per_request": agg(data, "api.digest")[0] / requests,
        "queue.submit_ms": mean_ms(data, "serve.queue.submit"),
        "queue.wait_p50_ms": percentile(waits, 50),
        "queue.wait_p99_ms": percentile(waits, 99),
        "queue.executions_per_request": runs / requests,
        "queue.jobs_retained": float(info.get("jobs_retained", 0)),
        "exec.runs": float(runs),
        "exec.wall_ms": exec_ms,
        "exec.compute_ms": compute_ms,
        "exec.artifacts_ms": max(0.0, exec_ms - compute_ms) if runs else 0.0,
        "exec.bytes_written": (sum(tree_bytes(d) for d in run_dirs) / runs
                               if runs else 0.0),
        "obs.events_per_run": events.get("events", 0) / runs if runs else 0.0,
        "obs.access_bytes_per_request": access_bytes / requests,
        "store.bytes_written": float(
            tree_bytes(root / SERVE_STORE_DIRNAME) - store_bytes),
    }
    layers.update(pmap_layers(events))
    layers.update(common_layers(data))
    return layers, data


def pmap_layers(events: dict[str, float]) -> dict[str, float]:
    capacity = events.get("pool_capacity_s", 0.0)
    return {
        "pmap.calls": float(events.get("pmap_calls", 0)),
        "pmap.cells": float(events.get("pmap_cells", 0)),
        "pmap.pool_calls": float(events.get("pool_calls", 0)),
        "pmap.pool_wall_s": float(events.get("pool_wall_s", 0.0)),
        "pmap.pool_efficiency": (events.get("pool_busy_s", 0.0) / capacity
                                 if capacity else 0.0),
    }


def common_layers(data: dict[str, Any]) -> dict[str, float]:
    """Figures every traced workload reads the same way from its spans."""
    from tracing import agg, layer_table, mean_ms

    counts = data["counts"]
    out: dict[str, float] = {
        "api.digest_ms": mean_ms(data, "api.digest"),
        "api.from_dict_ms": mean_ms(data, "api.from_dict"),
        "nn.conv_fwd_s": agg(data, "nn.conv.forward")[1],
        "nn.conv_bwd_s": agg(data, "nn.conv.backward")[1],
        "nn.conv_gflop": (counts.get("nn.conv_fwd_flop", 0)
                          + counts.get("nn.conv_bwd_flop", 0)) / 1e9,
        "nn.optim_step_s": agg(data, "nn.optim.step")[1],
        "trace.spans": float(len(data["spans"])),
    }
    for kind in ("store", "cells"):
        lookups = counts.get(f"{kind}.lookups", 0)
        out[f"{kind}.lookups"] = float(lookups)
        out[f"{kind}.hit_ratio"] = (counts.get(f"{kind}.hits", 0) / lookups
                                    if lookups else 0.0)
        out[f"{kind}.get_ms"] = mean_ms(data, f"parallel.{kind}.get")
        out[f"{kind}.put_ms"] = mean_ms(data, f"parallel.{kind}.put")
    for layer, row in layer_table(data).items():
        out[f"layer.{layer}.self_s"] = row["self_s"]
        out[f"layer.{layer}.calls"] = float(row["calls"])
    for name, (count, total, _self) in data["aggregates"].items():
        if name.startswith("exp."):
            out[f"{name}_s"] = total / count
    return out
