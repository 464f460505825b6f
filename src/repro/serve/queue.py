"""Async job queue + sharded worker-process pool behind ``repro serve``.

:class:`JobQueue` is the queueing implementation of the
:class:`repro.api.catalog.CatalogBackend` protocol: ``submit`` validates
the request, consults the shared content-addressed result store, and —
on a miss — enqueues the job for a pool of long-lived worker
*processes* (processes, not threads: each job fans out through
:func:`repro.parallel.pmap`, which is NumPy-heavy and CPU-bound, and a
cancelled job must be killable mid-experiment, which only a process
boundary allows).

Life of a job
-------------
1. ``submit`` computes the request's content digest.  A store hit is the
   microsecond path: the job is born ``done`` with ``cached=True`` and
   the stored results document — nothing executes, nothing touches disk.
2. A miss creates the run directory up front (so ``repro watch <run-id>``
   can start following before the first event), marks the job ``queued``,
   and puts it on the task queue.
3. A worker picks it up, reports ``start``, runs
   :func:`repro.api.execution.execute_request` — the same path the CLI
   takes, so the run directory is indistinguishable from a CLI run — and
   stores the results document into the shared store under the digest
   ``submit`` computed (it rides the task tuple, so a request is hashed
   once) before reporting ``done``.  The store write is the cross-process
   rendezvous: any worker's result answers every later submitter.
4. ``cancel`` flips a queued job to ``cancelled`` immediately; a running
   job's worker process is terminated and a replacement worker is
   spawned, so pool capacity survives cancellation.  (A terminated
   worker's own pmap children, if any, are orphaned to the OS — smoke
   runs keep cells short precisely so this window is tiny.)

Coordinator-side state (the job table, the Condition, the metrics
gauges) lives in the server process and is guarded by one lock; worker
feedback arrives on an events queue drained by a dedicated thread.

Submission is *idempotent for identical in-flight work*: a cacheable
request whose digest matches a job already queued or running is coalesced
onto that job — the caller gets the existing run's status (same run id)
and waits on the one execution instead of triggering a duplicate.  This
is the thundering-herd guard: N clients racing to submit the same request
cost one execution, not N.  (``cache=False`` requests never coalesce —
an explicit no-cache submission is a demand for a fresh execution.)

Metrics: ``serve.requests`` / ``serve.cache.hits`` / ``serve.cache.misses``
/ ``serve.coalesced`` / ``serve.completed`` / ``serve.failed`` /
``serve.cancelled`` counters, ``serve.queue_depth`` / ``serve.running``
/ ``serve.workers`` gauges, and the ``serve.queue_latency`` histogram
(submission → execution start) — all visible through ``GET /metrics``
(the HTTP layer adds the ``serve.request_latency`` per-request wall-time
histogram).

Tracing: every submission carries a :mod:`repro.obs.context` trace.  The
coordinator threads the submitter's ``traceparent`` through the task
tuple into the forked worker, records every coalesced joiner's trace_id
on the one job, and appends one ``terminal`` line per executed run to
the serve root's ``access.jsonl`` (see :mod:`repro.serve.access`).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api.catalog import SERVE_STORE_DIRNAME
from repro.api.types import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    ConflictError,
    RunRequest,
    RunResult,
    RunStatus,
    UnknownRunError,
)
from repro.obs import context as trace_context
from repro.obs.metrics import get_metrics
from repro.serve.access import ACCESS_LOG_NAME, AccessLog

__all__ = ["JobQueue", "worker_main"]

_STOP = None  # task-queue sentinel


def worker_main(tasks: Any, events: Any, root: str) -> None:
    """One pool shard: loop over tasks until the stop sentinel arrives.

    Module-level (picklable) so the pool works under any multiprocessing
    start method.  Each job gets a fresh metrics registry, so the
    ``metrics.prom`` a run writes describes that run, not the worker's
    lifetime — the same per-invocation contract the CLI keeps.
    """
    from repro import obs
    from repro.api.execution import execute_request
    from repro.parallel.cache import ResultCache

    store = ResultCache(Path(root) / SERVE_STORE_DIRNAME)
    while True:
        item = tasks.get()
        if item is _STOP:
            break
        run_id, digest, raw_request, traceparent = item
        events.put(("start", run_id, os.getpid(), time.time()))
        # The traceparent rode the task tuple across the fork boundary;
        # the worker hop is a child span of the coordinator's, keeping
        # the trace_id verbatim end to end.  A missing/unparsable value
        # (e.g. a direct JobQueue driver) roots a fresh trace.
        parent = trace_context.TraceContext.from_traceparent(traceparent)
        ctx = (
            parent.child(run_id) if parent is not None
            else trace_context.new_context(run_id)
        )
        try:
            request = RunRequest.from_dict(raw_request)
            obs.get_metrics().reset()
            with trace_context.bind(ctx):
                summary = execute_request(request, out_dir=Path(root) / run_id)
            if request.cache:
                store.put(digest, summary.as_dict())
            events.put(("done", run_id, time.time()))
        except BaseException as exc:  # a worker must survive any job
            events.put(("failed", run_id, f"{type(exc).__name__}: {exc}",
                        time.time()))


@dataclass
class _Job:
    status: RunStatus
    digest: str
    worker_pid: int | None = None
    #: Only a store hit carries its document.  An executed run's
    #: results.json is re-read on demand, so the job table (which keeps
    #: every answered job) does not also hold a document per run.
    document: dict[str, Any] | None = None
    #: Every trace that rode this job — the submitter's first, then each
    #: coalesced joiner's.  The terminal access-log line publishes the
    #: full list, making cache sharing auditable.
    trace_ids: list[str] = field(default_factory=list)


class JobQueue:
    """Sharded worker pool + job table (see module docstring).

    Implements the backend quartet (``submit``/``status``/``results``/
    ``cancel``) plus :meth:`wait` for synchronous callers, so
    ``Catalog(backend=JobQueue(...))`` is a drop-in replacement for the
    inline backend.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        workers: int = 2,
        store: Any = None,
        context: Any = None,
    ) -> None:
        self.root = Path(
            root if root is not None
            else os.environ.get("REPRO_RUNS_DIR") or "runs"
        )
        self.n_workers = max(1, int(workers))
        if store is None:
            from repro.parallel.cache import ResultCache

            store = ResultCache(self.root / SERVE_STORE_DIRNAME)
        self.store = store
        #: The serve root's structured access log; the HTTP layer writes
        #: per-request lines into it, the coordinator writes per-run
        #: terminal lines (see repro.serve.access).
        self.access = AccessLog(self.root / ACCESS_LOG_NAME)
        self._ctx = context if context is not None else multiprocessing.get_context()
        self._tasks = self._ctx.Queue()
        self._events = self._ctx.Queue()
        self._lock = threading.RLock()
        self._done_cond = threading.Condition(self._lock)
        self._jobs: dict[str, _Job] = {}
        #: digest -> run id of the in-flight (queued/running) job computing
        #: it; entries leave on completion, failure, or cancellation.
        self._inflight: dict[str, str] = {}
        #: Jobs per live state, kept on every transition so the gauges
        #: never rescan the job table (which keeps every answered job).
        self._live = {QUEUED: 0, RUNNING: 0}
        self._seq = itertools.count(1)
        self._workers: list[Any] = []
        self._drainer: threading.Thread | None = None
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "JobQueue":
        """Fork the worker shards and the event drainer (idempotent).

        Call *before* any request-handling threads exist: forking from a
        single-threaded process is the only fork that is safe by
        construction.
        """
        with self._lock:
            if self._started:
                return self
            self.root.mkdir(parents=True, exist_ok=True)
            for _ in range(self.n_workers):
                self._workers.append(self._spawn_worker())
            self._drainer = threading.Thread(
                target=self._drain, name="repro-serve-drain", daemon=True
            )
            self._drainer.start()
            self._started = True
            get_metrics().gauge("serve.workers").set(self.n_workers)
        return self

    def _spawn_worker(self) -> Any:
        proc = self._ctx.Process(
            target=worker_main,
            args=(self._tasks, self._events, str(self.root)),
            name="repro-serve-worker",
            daemon=False,  # daemons could not create pmap child processes
        )
        proc.start()
        return proc

    def stop(self, timeout_s: float = 10.0) -> None:
        """Drain-free shutdown: stop workers, then the drainer (idempotent)."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            workers, self._workers = self._workers, []
        for _ in workers:
            self._tasks.put(_STOP)
        deadline = time.monotonic() + timeout_s
        for proc in workers:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._events.put(("stop",))
        if self._drainer is not None:
            self._drainer.join(timeout=timeout_s)
            self._drainer = None
        for queue in (self._tasks, self._events):
            queue.close()
            queue.cancel_join_thread()
        self.access.close()

    def __enter__(self) -> "JobQueue":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the backend quartet -------------------------------------------------

    def _new_run_id(self, digest: str) -> str:
        return f"run-{next(self._seq):04d}-{digest[:8]}"

    def submit(self, request: RunRequest) -> RunStatus:
        """Validate, answer from the shared store, or enqueue."""
        metrics = get_metrics()
        metrics.counter("serve.requests").inc()
        digest = request.digest()  # raises RequestError on a bad request
        # The submitter's trace: the HTTP handler binds the request's
        # context before calling in; a direct driver gets a fresh root.
        ctx = trace_context.current()
        if ctx is None:
            ctx = trace_context.new_context(digest)
        now = time.time()
        if request.cache:
            hit, document = self.store.get(digest)
            if hit:
                metrics.counter("serve.cache.hits").inc()
                with self._lock:
                    run_id = self._new_run_id(digest)
                    status = RunStatus(
                        run_id=run_id, state=DONE, request=request,
                        cached=True, queued_at=now, started_at=now,
                        finished_at=time.time(), trace_id=ctx.trace_id,
                    )
                    self._jobs[run_id] = _Job(
                        status, digest, document=document,
                        trace_ids=[ctx.trace_id],
                    )
                return status
            metrics.counter("serve.cache.misses").inc()
        with self._lock:
            if request.cache:
                # Thundering-herd guard: identical work already in flight
                # is joined, not duplicated.  The joiner's trace_id is
                # appended to the job so the terminal access-log line
                # names every request the one execution answered.
                inflight = self._inflight.get(digest)
                if inflight is not None and not self._jobs[inflight].status.terminal:
                    metrics.counter("serve.coalesced").inc()
                    job = self._jobs[inflight]
                    if ctx.trace_id not in job.trace_ids:
                        job.trace_ids.append(ctx.trace_id)
                    return job.status
            run_id = self._new_run_id(digest)
            run_dir = self.root / run_id
            status = RunStatus(
                run_id=run_id, state=QUEUED, request=request,
                queued_at=now, run_dir=str(run_dir), trace_id=ctx.trace_id,
            )
            self._jobs[run_id] = _Job(status, digest, trace_ids=[ctx.trace_id])
            if request.cache:
                self._inflight[digest] = run_id
            self._live[QUEUED] += 1
            self._update_gauges()
        # The dir exists from submission, so `repro watch <run-id>` can
        # attach before the worker's first event.
        run_dir.mkdir(parents=True, exist_ok=True)
        self._tasks.put((run_id, digest, request.as_dict(), ctx.to_traceparent()))
        return status

    def _get(self, run_id: str) -> _Job:
        try:
            return self._jobs[run_id]
        except KeyError:
            raise UnknownRunError(f"unknown run {run_id!r}") from None

    def status(self, run_id: str) -> RunStatus:
        with self._lock:
            return self._get(run_id).status

    def results(self, run_id: str) -> RunResult:
        with self._lock:
            job = self._get(run_id)
            status = job.status
            if status.state != DONE:
                raise ConflictError(
                    f"run {run_id!r} has no results (state: {status.state}"
                    + (f"; error: {status.error}" if status.error else "") + ")"
                )
            if job.document is not None:
                return RunResult(run_id, job.document, cached=status.cached)
            run_dir = Path(status.run_dir or self.root / run_id)
        document = json.loads((run_dir / "results.json").read_text())
        return RunResult(run_id, document, cached=status.cached)

    def cancel(self, run_id: str) -> RunStatus:
        with self._lock:
            job = self._get(run_id)
            status = job.status
            if status.terminal:
                raise ConflictError(
                    f"run {run_id!r} already finished (state: {status.state})"
                )
            pid = job.worker_pid if status.state == RUNNING else None
            self._set_state(status, CANCELLED)
            status.finished_at = time.time()
            self._clear_inflight(job, run_id)
            get_metrics().counter("serve.cancelled").inc()
            self._terminal_line(job)
            self._update_gauges()
            self._done_cond.notify_all()
        if pid is not None:
            self._kill_worker(pid)
        return status

    def statuses(self) -> list[RunStatus]:
        with self._lock:
            return [job.status for job in self._jobs.values()]

    def wait(self, run_id: str, timeout_s: float = 300.0) -> RunStatus:
        """Block until the run reaches a terminal state (or time out)."""
        deadline = time.monotonic() + timeout_s
        with self._done_cond:
            while True:
                status = self._get(run_id).status
                if status.terminal:
                    return status
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"run {run_id!r} still {status.state} "
                        f"after {timeout_s:.1f}s"
                    )
                self._done_cond.wait(timeout=remaining)

    # -- coordinator internals ----------------------------------------------

    def _terminal_line(self, job: _Job) -> None:
        """Append the run's terminal access-log record (caller holds the lock).

        Every executed run gets exactly one — done, failed, *or*
        cancelled — carrying all joined trace_ids, the queue latency,
        and the execution wall time.
        """
        status = job.status
        wall = (
            status.finished_at - status.started_at
            if status.finished_at is not None and status.started_at is not None
            else None
        )
        self.access.write(
            "terminal",
            run_id=status.run_id,
            state=status.state,
            trace_ids=list(job.trace_ids),
            digest=job.digest,
            ids=list(status.request.ids),
            queue_latency_s=status.wait_s,
            wall_s=wall,
            error=status.error,
            run_dir=status.run_dir,
        )

    def _clear_inflight(self, job: _Job, run_id: str) -> None:
        """Drop the digest->run mapping once the job leaves flight.

        Caller holds the lock.
        """
        if self._inflight.get(job.digest) == run_id:
            del self._inflight[job.digest]

    def _set_state(self, status: RunStatus, state: str) -> None:
        """Move a job to ``state``, keeping the live counts in step.

        Caller holds the lock.
        """
        if status.state in self._live:
            self._live[status.state] -= 1
        if state in self._live:
            self._live[state] += 1
        status.state = state

    def _update_gauges(self) -> None:
        metrics = get_metrics()
        metrics.gauge("serve.queue_depth").set(self._live[QUEUED])
        metrics.gauge("serve.running").set(self._live[RUNNING])

    def _kill_worker(self, pid: int) -> None:
        """Terminate the shard running a cancelled job; respawn a fresh one."""
        with self._lock:
            victim = next(
                (p for p in self._workers if p.pid == pid and p.is_alive()), None
            )
            if victim is None:
                return
            self._workers.remove(victim)
        victim.terminate()
        victim.join(timeout=5.0)
        if victim.is_alive():  # pragma: no cover - SIGTERM refused
            victim.kill()
            victim.join(timeout=1.0)
        with self._lock:
            if self._started:
                self._workers.append(self._spawn_worker())

    def _drain(self) -> None:
        """Fold worker feedback into the job table until shutdown."""
        while True:
            message = self._events.get()
            kind = message[0]
            if kind == "stop":
                return
            run_id = message[1]
            kill_pid: int | None = None
            with self._lock:
                job = self._jobs.get(run_id)
                if job is None:  # pragma: no cover - foreign message
                    continue
                status = job.status
                if kind == "start":
                    _, _, pid, ts = message
                    if status.state == CANCELLED:
                        # Cancelled while queued: the worker that just
                        # picked it up must not run it to completion.
                        kill_pid = pid
                    else:
                        self._set_state(status, RUNNING)
                        status.started_at = ts
                        job.worker_pid = pid
                        if status.queued_at is not None:
                            get_metrics().histogram(
                                "serve.queue_latency"
                            ).observe(max(0.0, ts - status.queued_at))
                elif kind == "done":
                    _, _, ts = message
                    self._clear_inflight(job, run_id)
                    if status.state != CANCELLED:
                        self._set_state(status, DONE)
                        status.finished_at = ts
                        get_metrics().counter("serve.completed").inc()
                        self._terminal_line(job)
                elif kind == "failed":
                    _, _, error, ts = message
                    self._clear_inflight(job, run_id)
                    if status.state != CANCELLED:
                        self._set_state(status, FAILED)
                        status.error = error
                        status.finished_at = ts
                        get_metrics().counter("serve.failed").inc()
                        self._terminal_line(job)
                self._update_gauges()
                self._done_cond.notify_all()
            if kill_pid is not None:
                self._kill_worker(kill_pid)
