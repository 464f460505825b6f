"""The :class:`Catalog` facade — one object, every front door.

``Catalog`` is the unified request API the ISSUE's api_redesign names:
the CLI, the HTTP server, and the tests all drive the experiment catalog
through the same five verbs —

* :meth:`~Catalog.experiments` — describe the registered catalog;
* :meth:`~Catalog.execute` — run a :class:`RunRequest` synchronously in
  this process (the CLI's path);
* :meth:`~Catalog.submit` / :meth:`~Catalog.status` /
  :meth:`~Catalog.wait` / :meth:`~Catalog.results` /
  :meth:`~Catalog.cancel` — the asynchronous lifecycle, delegated to a
  pluggable backend.

Backends implement the submit/status/results/cancel quartet, plus
``wait`` (block until a run is terminal).  The
default :class:`InlineBackend` executes at submission time in-process —
useful for tests and scripting, and the reference semantics the serving
queue (:class:`repro.serve.queue.JobQueue`) must match.  Both consult a
shared content-addressed result store (:class:`ResultCache` keyed by
:meth:`RunRequest.digest`), so an identical resubmission is answered in
microseconds without re-executing anything.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path
from typing import Any, Protocol

from repro.api.execution import RunSummary, execute_request
from repro.api.types import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    ConflictError,
    RunRequest,
    RunResult,
    RunStatus,
    UnknownRunError,
)

__all__ = ["Catalog", "CatalogBackend", "InlineBackend", "SERVE_STORE_DIRNAME"]

#: Subdirectory of a runs root holding the shared served-result store.
SERVE_STORE_DIRNAME = ".serve_store"


class CatalogBackend(Protocol):
    """The asynchronous lifecycle quartet every backend provides."""

    def submit(self, request: RunRequest) -> RunStatus: ...

    def status(self, run_id: str) -> RunStatus: ...

    def wait(self, run_id: str, timeout_s: float) -> RunStatus:
        """Block until the run is terminal; ``TimeoutError`` after
        ``timeout_s`` seconds, ``UnknownRunError`` at once."""
        ...

    def results(self, run_id: str) -> RunResult: ...

    def cancel(self, run_id: str) -> RunStatus: ...

    def statuses(self) -> list[RunStatus]: ...


def describe_experiments() -> list[dict[str, Any]]:
    """JSON-shaped descriptors of every registered experiment."""
    from repro.exp.registry import all_experiments

    return [
        {
            "id": exp.id,
            "title": exp.title,
            "section": exp.section or None,
            "paper_claim": exp.paper_claim or None,
            "config": dict(exp.DEFAULT),
            "smoke_overrides": dict(exp.SMOKE),
            "volatile_values": list(exp.VOLATILE_VALUES),
        }
        for exp in all_experiments()
    ]


class InlineBackend:
    """Synchronous reference backend: ``submit`` executes before returning.

    Runs land under ``root`` (default ``REPRO_RUNS_DIR`` or ``runs/``)
    exactly as ``repro run --out`` would write them; the shared result
    store under ``<root>/.serve_store`` answers identical resubmissions
    without execution.  Cancel can therefore only ever hit terminal runs
    — it always raises :exc:`ConflictError` — which is precisely the
    semantics a queueing backend degrades to when its queue is empty.
    """

    def __init__(
        self, root: str | os.PathLike | None = None, *, store: Any = None
    ) -> None:
        self.root = Path(
            root if root is not None
            else os.environ.get("REPRO_RUNS_DIR") or "runs"
        )
        if store is None:
            from repro.parallel.cache import ResultCache

            store = ResultCache(self.root / SERVE_STORE_DIRNAME)
        self.store = store
        self._statuses: dict[str, RunStatus] = {}
        self._documents: dict[str, dict[str, Any]] = {}
        self._seq = itertools.count(1)

    def _new_run_id(self, digest: str) -> str:
        return f"run-{next(self._seq):04d}-{digest[:8]}"

    def submit(self, request: RunRequest) -> RunStatus:
        digest = request.digest()  # validates ids/overrides (RequestError)
        run_id = self._new_run_id(digest)
        now = time.time()
        if request.cache:
            hit, document = self.store.get(digest)
            if hit:
                status = RunStatus(
                    run_id=run_id, state=DONE, request=request, cached=True,
                    queued_at=now, started_at=now, finished_at=time.time(),
                )
                self._statuses[run_id] = status
                self._documents[run_id] = document
                return status
        run_dir = self.root / run_id
        status = RunStatus(
            run_id=run_id, state=RUNNING, request=request,
            queued_at=now, started_at=now, run_dir=str(run_dir),
        )
        self._statuses[run_id] = status
        try:
            summary = execute_request(request, out_dir=run_dir)
        except Exception as exc:  # a failed run is a state, not a crash
            status.state = FAILED
            status.error = f"{type(exc).__name__}: {exc}"
            status.finished_at = time.time()
            return status
        document = summary.as_dict()
        self._documents[run_id] = document
        if request.cache:
            self.store.put(digest, document)
        status.state = DONE
        status.finished_at = time.time()
        return status

    def status(self, run_id: str) -> RunStatus:
        try:
            return self._statuses[run_id]
        except KeyError:
            raise UnknownRunError(f"unknown run {run_id!r}") from None

    def wait(self, run_id: str, timeout_s: float = 300.0) -> RunStatus:
        """Inline runs finish at submission, so there is nothing to wait for."""
        return self.status(run_id)

    def results(self, run_id: str) -> RunResult:
        status = self.status(run_id)
        if status.state != DONE:
            raise ConflictError(
                f"run {run_id!r} has no results (state: {status.state}"
                + (f"; error: {status.error}" if status.error else "") + ")"
            )
        return RunResult(run_id, self._documents[run_id], cached=status.cached)

    def cancel(self, run_id: str) -> RunStatus:
        status = self.status(run_id)
        if status.terminal:
            raise ConflictError(
                f"run {run_id!r} already finished (state: {status.state})"
            )
        status.state = CANCELLED  # pragma: no cover - unreachable inline
        return status

    def statuses(self) -> list[RunStatus]:
        return list(self._statuses.values())


class Catalog:
    """The experiment catalog behind one facade (see module docstring)."""

    def __init__(self, backend: CatalogBackend | None = None) -> None:
        self._backend: CatalogBackend = backend or InlineBackend()

    @property
    def backend(self) -> CatalogBackend:
        return self._backend

    # -- synchronous path (the CLI) ----------------------------------------

    def execute(
        self, request: RunRequest, *, out_dir: str | os.PathLike | None = None
    ) -> RunSummary:
        """Run the request in this process; see :func:`execute_request`."""
        return execute_request(request, out_dir=out_dir)

    # -- catalog description ------------------------------------------------

    def experiments(self) -> list[dict[str, Any]]:
        return describe_experiments()

    # -- asynchronous lifecycle (the server, scripts, tests) ----------------

    def submit(self, request: RunRequest) -> RunStatus:
        return self._backend.submit(request)

    def status(self, run_id: str) -> RunStatus:
        return self._backend.status(run_id)

    def wait(self, run_id: str, timeout_s: float = 300.0) -> RunStatus:
        return self._backend.wait(run_id, timeout_s)

    def results(self, run_id: str) -> RunResult:
        return self._backend.results(run_id)

    def cancel(self, run_id: str) -> RunStatus:
        return self._backend.cancel(run_id)

    def statuses(self) -> list[RunStatus]:
        return self._backend.statuses()
