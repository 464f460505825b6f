"""repro.serve — the experiment catalog as a long-running service.

The paper's §3/§4 finding (end-of-program contention: everyone re-runs
everything at once through one-shot processes) and the ROADMAP's
"heavy traffic" north star meet here: instead of a CLI process per run,
one resident service queues, shares, and caches catalog work across
concurrent requesters.

* :class:`~repro.serve.queue.JobQueue` — async job table + sharded pool
  of worker processes, the queueing implementation of the
  :class:`repro.api.catalog.CatalogBackend` protocol, answering repeat
  requests from the shared content-addressed result store in
  microseconds.
* :class:`~repro.serve.server.CatalogServer` — the HTTP/JSON front end
  (``POST /runs``, ``GET /runs/<id>[/results]``, ``GET
  /runs/<id>?wait=<s>``, ``POST /runs/<id>/cancel``, ``GET
  /experiments``, ``GET /metrics``).
* :class:`~repro.serve.client.ServeClient` — stdlib client returning the
  same typed objects over one kept-alive connection per thread.

``python -m repro serve`` is the CLI entry point;
``benchmarks/bench_serve.py`` stress-tests the stack with a
zipf-distributed synthetic client fleet.
"""

from repro.serve.access import ACCESS_LOG_NAME, AccessLog
from repro.serve.client import ServeClient, ServeError
from repro.serve.queue import JobQueue
from repro.serve.server import CatalogServer

__all__ = [
    "ACCESS_LOG_NAME",
    "AccessLog",
    "CatalogServer",
    "JobQueue",
    "ServeClient",
    "ServeError",
]
