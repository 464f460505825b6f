"""repro.api — the typed request layer the whole catalog speaks.

This package is the api_redesign seam between *what to run* and *who
asked*: the CLI subcommands, the ``repro serve`` HTTP server, and the
test suite all build a :class:`RunRequest`, hand it to a
:class:`Catalog`, and read back :class:`RunStatus` / :class:`RunResult`
objects — no entry point has private orchestration anymore.

* :mod:`repro.api.types` — :class:`RunRequest` (with its content
  :meth:`~RunRequest.digest`, the shared-cache key), :class:`RunStatus`,
  :class:`RunResult`, the error taxonomy
  (:exc:`RequestError`/:exc:`UnknownRunError`/:exc:`ConflictError` — the
  server's 400/404/409), and :func:`canonical_results`, the determinism
  projection under which a served run and a CLI run of the same request
  are byte-identical.
* :mod:`repro.api.execution` — :func:`execute_request`, the single
  orchestration path (events, manifest, results, metrics, run index).
* :mod:`repro.api.catalog` — the :class:`Catalog` facade
  (``experiments`` / ``execute`` / ``submit`` / ``status`` / ``results``
  / ``cancel``) over a pluggable backend; :class:`InlineBackend` runs
  synchronously in-process, :class:`repro.serve.queue.JobQueue` feeds a
  worker-process pool.
"""

from repro.api.catalog import Catalog, CatalogBackend, InlineBackend
from repro.api.execution import RunRecord, RunSummary, execute_request, seed_ledger
from repro.api.types import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    ConflictError,
    RequestError,
    RunRequest,
    RunResult,
    RunStatus,
    UnknownRunError,
    canonical_results,
    canonical_results_bytes,
)

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "STATES",
    "TERMINAL_STATES",
    "Catalog",
    "CatalogBackend",
    "ConflictError",
    "InlineBackend",
    "RequestError",
    "RunRecord",
    "RunRequest",
    "RunResult",
    "RunStatus",
    "RunSummary",
    "UnknownRunError",
    "canonical_results",
    "canonical_results_bytes",
    "execute_request",
    "seed_ledger",
]
