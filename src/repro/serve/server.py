"""``repro serve`` — the experiment catalog over HTTP/JSON.

A thin, dependency-free (stdlib ``http.server``) front end over the
:class:`repro.api.Catalog` facade.  Every route serializes the same
objects the CLI consumes; there is no server-only logic beyond HTTP
plumbing, which is the api_redesign's point.

Routes
------
====================================  =====================================
``GET  /experiments``                 catalog descriptors
``POST /runs``                        submit a :class:`RunRequest` body —
                                      202 when queued, 200 when answered
                                      from the shared result store
``GET  /runs``                        every known run's status
``GET  /runs/<id>``                   one run's status
``GET  /runs/<id>?wait=<s>``          the same, held until the run is
                                      terminal or ``<s>`` seconds pass
                                      (capped at :data:`MAX_WAIT_S`);
                                      a ``done`` run's status also carries
                                      ``results``, the body of
                                      ``GET /runs/<id>/results``; 400 on a
                                      non-number, 404 at once on an
                                      unknown id
``GET  /runs/<id>/results``           the finished run's results document
                                      (the same shape ``results.json``
                                      holds)
``POST /runs/<id>/cancel``            cancel a queued or running run
``GET  /metrics``                     Prometheus exposition of the live
                                      server state (queue depth, running
                                      count, cache hit/miss counters, …)
``GET  /healthz``                     liveness probe
====================================  =====================================

Errors map straight off the API's taxonomy: :exc:`RequestError` → 400,
:exc:`UnknownRunError` → 404, :exc:`ConflictError` → 409, unknown route
→ 404, wrong verb → 405.  Error bodies are ``{"error": "<message>"}``.

A held wait that ends with the run ``done`` answers with its results
too, so a submit → wait → results round is two HTTP exchanges; when the
results cannot be read the wait answers with the bare status, and
``GET /runs/<id>/results`` says why.  A plain ``GET /runs/<id>`` never
carries them.

JSON bodies are compact (``json.dumps`` with its defaults, which runs the
C encoder) and end in a newline.  Each response goes out in one send:
the body is appended to the buffered headers.

Connections are HTTP/1.1 keep-alive: every response carries a
``Content-Length`` and every request body is read in full, so one client
connection carries any number of requests.  ``TCP_NODELAY`` is set on
each accepted socket: with one send per response Nagle's algorithm has
nothing to hold back today, but a response written in two sends on a
kept-alive socket would wait for the client's delayed ACK (~40 ms).
:meth:`stop` shuts down every open connection, so no handler thread
outlives it blocked on an idle client.

Every request runs under a :mod:`repro.obs.context` trace — continued
from the caller's ``traceparent`` header when one parses, freshly rooted
otherwise — echoed back as a response header, recorded as one
``request`` line in the serve root's ``access.jsonl``, and observed
into the ``serve.request_latency`` histogram.  Time a ``?wait=`` request
spent held is logged as ``wait_s`` and left out of the histogram, which
measures handling, not waiting.

:class:`CatalogServer` owns the lifecycle: it starts the worker pool
*before* binding the (threaded) HTTP listener — forking workers from a
still-single-threaded process — and tears both down on :meth:`stop`.
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

import repro
from repro import obs
from repro.api.catalog import Catalog
from repro.obs import context as trace_context
from repro.obs.context import TRACEPARENT_HEADER, TraceContext
from repro.api.types import (
    DONE,
    ConflictError,
    RequestError,
    RunRequest,
    UnknownRunError,
)
from repro.serve.queue import JobQueue

__all__ = ["CatalogServer"]

_RUN_PATH = re.compile(r"^/runs/(?P<run_id>[^/]+)(?P<tail>/results|/cancel)?$")

#: Prometheus text exposition content type.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The longest a ``GET /runs/<id>?wait=`` request is held, in seconds.
MAX_WAIT_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{repro.package_version()}"
    protocol_version = "HTTP/1.1"
    # Kept although each response is one send; see the module docstring.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        return self.server.catalog  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self._status_code = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        ctx = trace_context.current()
        if ctx is not None:
            # Echo the request's trace so callers without their own
            # context still learn the trace_id the server assigned.
            self.send_header(TRACEPARENT_HEADER, ctx.to_traceparent())
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        # end_headers() would send the headers on their own: append the
        # blank line and the body instead, and send the lot at once.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_json(self, code: int, payload: Any) -> None:
        self._send(code, (json.dumps(payload) + "\n").encode(),
                   "application/json")

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def setup(self) -> None:
        super().setup()
        self.server.connections.add(self.connection)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.connections.discard(self.connection)  # type: ignore[attr-defined]
        super().finish()

    def _read_request_body(self) -> bytes:
        """The request's whole body, read whether or not the route uses
        it: bytes left unread would be parsed as the connection's next
        request."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Nowhere to tell where this request ends and the next begins.
            self.close_connection = True
            raise RequestError("Content-Length must be a non-negative integer")
        return self.rfile.read(length) if length else b""

    def _read_body(self) -> Any:
        raw = self._body
        if not raw:
            raise RequestError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") from exc

    # -- routing ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    def do_PUT(self) -> None:  # noqa: N802
        self._route("PUT")

    def _route(self, method: str) -> None:
        path, _, self._query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        # Trace context: continue the caller's trace when it sent a valid
        # traceparent header (this hop becomes a child span); otherwise —
        # including malformed headers — root a fresh trace.  Binding is
        # per handler thread, so concurrent requests never cross.
        incoming = TraceContext.from_traceparent(
            self.headers.get(TRACEPARENT_HEADER)
        )
        ctx = (
            incoming.child(f"{method} {path}") if incoming is not None
            else trace_context.new_context(f"{method} {path}")
        )
        self._status_code: int | None = None
        self._access: dict[str, Any] = {}
        self._wait_s = 0.0
        start = time.perf_counter()
        try:
            with trace_context.bind(ctx):
                try:
                    self._body = self._read_request_body()
                    self._dispatch(method, path)
                except RequestError as exc:
                    self._send_error_json(400, str(exc))
                except UnknownRunError as exc:
                    self._send_error_json(
                        404, str(exc.args[0]) if exc.args else str(exc)
                    )
                except ConflictError as exc:
                    self._send_error_json(409, str(exc))
                except Exception as exc:  # pragma: no cover - defensive 500
                    self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - start
            obs.get_metrics().histogram("serve.request_latency").observe(
                max(0.0, wall - self._wait_s)
            )
            access = getattr(self.server, "access", None)
            if access is not None:
                access.write(
                    "request",
                    trace_id=ctx.trace_id,
                    span_id=ctx.span_id,
                    parent_id=ctx.parent_id,
                    method=method,
                    path=path,
                    status=self._status_code,
                    wall_s=wall,
                    wait_s=self._wait_s,
                    **self._access,
                )

    def _dispatch(self, method: str, path: str) -> None:
        if path == "/healthz":
            if method != "GET":
                return self._send_error_json(405, "use GET /healthz")
            return self._send_json(200, {
                "ok": True, "version": repro.package_version(),
            })
        if path == "/experiments":
            if method != "GET":
                return self._send_error_json(405, "use GET /experiments")
            return self._send_json(200, {"experiments": self.catalog.experiments()})
        if path == "/metrics":
            if method != "GET":
                return self._send_error_json(405, "use GET /metrics")
            text = obs.render_prometheus(
                obs.get_metrics(), labels={"service": "repro-serve"}
            )
            return self._send(200, text.encode(), _PROM_CONTENT_TYPE)
        if path == "/runs":
            if method == "POST":
                return self._submit()
            if method == "GET":
                return self._send_json(200, {
                    "runs": [s.as_dict() for s in self.catalog.statuses()],
                })
            return self._send_error_json(405, "use POST /runs or GET /runs")
        match = _RUN_PATH.match(path)
        if match:
            run_id, tail = match.group("run_id"), match.group("tail")
            self._access["run_id"] = run_id
            if tail == "/cancel":
                if method != "POST":
                    return self._send_error_json(405, "use POST to cancel")
                return self._send_json(
                    200, self.catalog.cancel(run_id).as_dict()
                )
            if method != "GET":
                return self._send_error_json(405, "use GET on run resources")
            if tail == "/results":
                return self._send_json(
                    200, self.catalog.results(run_id).as_dict()
                )
            hold = self._hold_s()
            if hold is None:
                return self._send_json(
                    200, self.catalog.status(run_id).as_dict()
                )
            return self._send_json(200, self._held_status(run_id, hold))
        self._send_error_json(404, f"no route {method} {path}")

    def _hold_s(self) -> float | None:
        """The ``?wait=`` hold in seconds, clamped to [0, MAX_WAIT_S]."""
        values = parse_qs(self._query, keep_blank_values=True).get("wait")
        if values is None:
            return None
        try:
            hold = float(values[-1])
        except ValueError:
            hold = math.nan
        if not math.isfinite(hold):
            raise RequestError(
                f"wait must be a number of seconds, got {values[-1]!r}"
            )
        return min(max(hold, 0.0), MAX_WAIT_S)

    def _held_status(self, run_id: str, hold: float) -> dict[str, Any]:
        """Hold until the run is terminal or ``hold`` passes; the status
        as it then stands, with a ``done`` run's results (when they can
        be read).  An unknown id raises before any hold."""
        start = time.perf_counter()
        try:
            status = self.catalog.wait(run_id, hold)
        except TimeoutError:
            status = self.catalog.status(run_id)
        finally:
            self._wait_s = time.perf_counter() - start
        body = status.as_dict()
        if status.state == DONE:
            try:
                body["results"] = self.catalog.results(run_id).as_dict()
            except (ConflictError, UnknownRunError, OSError, ValueError):
                pass  # the bare status; GET .../results reports the error
        return body

    def _submit(self) -> None:
        request = RunRequest.from_dict(self._read_body())
        status = self.catalog.submit(request)
        # A returned trace_id differing from this request's own means the
        # submission was coalesced onto an in-flight execution started by
        # an earlier trace — the access-log line records the join.
        ctx = trace_context.current()
        coalesced = bool(
            ctx is not None
            and status.trace_id is not None
            and status.trace_id != ctx.trace_id
        )
        self._access.update(
            run_id=status.run_id,
            state=status.state,
            cached=status.cached,
            coalesced=coalesced,
            ids=list(request.ids),
        )
        if coalesced:
            self._access["joined_trace_id"] = status.trace_id
        # A cache answer is complete now (200); queued work is accepted (202).
        self._send_json(200 if status.state == DONE else 202, status.as_dict())


class CatalogServer:
    """The long-running catalog service: worker pool + HTTP listener.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`) — the test suite and the bench fleet use that.  Usable
    as a context manager.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue: JobQueue | None = None,
        verbose: bool = False,
    ) -> None:
        self.queue = queue if queue is not None else JobQueue(root, workers=workers)
        self.catalog = Catalog(backend=self.queue)
        self.host = host
        self._requested_port = port
        self.verbose = verbose
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "CatalogServer":
        if self._httpd is not None:
            return self
        # Workers first: fork before this process grows listener threads.
        self.queue.start()
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        self._httpd.catalog = self.catalog  # type: ignore[attr-defined]
        self._httpd.verbose = self.verbose  # type: ignore[attr-defined]
        self._httpd.access = self.queue.access  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._httpd.connections = set()  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, then stop the pool (idempotent)."""
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            # Wake every handler still blocked reading a kept-alive
            # connection; each then sees EOF and its thread ends.
            for conn in list(httpd.connections):  # type: ignore[attr-defined]
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.queue.stop()

    def __enter__(self) -> "CatalogServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- addressing ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
