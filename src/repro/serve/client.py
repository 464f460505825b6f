"""A small stdlib HTTP client for a running ``repro serve`` instance.

:class:`ServeClient` speaks the server's routes and hands back the same
:class:`repro.api` objects the server serialized — submit a
:class:`RunRequest`, get a :class:`RunStatus` back, block on
:meth:`~ServeClient.wait`, fetch the results document.  Non-2xx
responses raise :exc:`ServeError` carrying the HTTP status and the
server's ``{"error": ...}`` body, so tests and the bench fleet can
assert on exact failure modes.

Built on :mod:`http.client`: each client keeps one persistent (HTTP/1.1
keep-alive) connection per thread, so a submit → wait → results round
costs one TCP connect, and :meth:`~ServeClient.wait` is a server-held
``GET /runs/<id>?wait=<s>`` rather than a sleep loop.  A held wait that
ends ``done`` brings the run's results with it; the client keeps that one
document for the thread's next :meth:`~ServeClient.results` call on the
same run, so the round is two HTTP exchanges, not three.  No third-party
dependency, usable from any Python that can reach the server.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Any, Mapping
from urllib.parse import urlsplit

from repro.api.types import RunRequest, RunStatus, TERMINAL_STATES
from repro.obs import context as trace_context
from repro.obs.context import TRACEPARENT_HEADER

__all__ = ["ServeClient", "ServeError"]

#: What sending on a kept-alive connection the server has already closed
#: raises before any response byte arrives (``RemoteDisconnected`` is a
#: ``ConnectionResetError``).
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class ServeError(RuntimeError):
    """A non-2xx response from the server."""

    def __init__(self, status: int, message: str, payload: Any = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServeClient:
    """Typed access to one ``repro serve`` base URL.

    Each thread that uses the client gets its own persistent connection,
    so one client may be shared across threads.  :meth:`close` (or
    leaving a ``with`` block) closes them all; a closed client reconnects
    on its next call.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self.timeout_s = timeout_s
        #: The trace context the most recent request was sent under —
        #: compare its trace_id to the returned status's to detect a
        #: coalesced submission.
        self.last_trace: Any = None
        self._local = threading.local()
        self._connections: weakref.WeakSet[http.client.HTTPConnection] = (
            weakref.WeakSet()
        )
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's kept-alive connection."""
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- transport ----------------------------------------------------------

    def _exchange(
        self, method: str, path: str, data: bytes | None, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        """One request/response on this thread's kept-alive connection."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout_s
            )
            self._local.conn = conn
            with self._connections_lock:
                self._connections.add(conn)
        reused = conn.sock is not None
        try:
            conn.request(method, self._prefix + path, body=data, headers=headers)
            response = conn.getresponse()
        except _STALE_CONNECTION:
            conn.close()
            if not reused:
                raise
            # The server closed the idle connection before this request
            # reached it, so nothing was answered: send it once more on a
            # fresh connection (which is not ``reused``, so never twice).
            return self._exchange(method, path, data, headers)
        except BaseException:
            conn.close()
            raise
        try:
            return response.status, response.read()
        except BaseException:
            # A half-read response would poison the next request.
            conn.close()
            raise

    def _request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> tuple[int, Any]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        # Propagate the caller's bound trace (repro.obs.context) when one
        # exists; otherwise root a fresh client-side trace so even bare
        # submissions are end-to-end traceable.  Id material is the
        # request itself — content, never a clock.
        ctx = trace_context.current()
        if ctx is None:
            ctx = trace_context.new_context(
                f"{method} {path} "
                + (json.dumps(body, sort_keys=True) if body else "")
            )
        self.last_trace = ctx
        headers[TRACEPARENT_HEADER] = ctx.to_traceparent()
        code, raw = self._exchange(method, path, data, headers)
        payload = _parse(raw)
        if code >= 400:
            message = (
                payload.get("error", raw.decode(errors="replace"))
                if isinstance(payload, dict) else raw.decode(errors="replace")
            )
            raise ServeError(code, message, payload)
        return code, payload

    # -- the API ------------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")[1]

    def experiments(self) -> list[dict[str, Any]]:
        return self._request("GET", "/experiments")[1]["experiments"]

    def submit(self, request: RunRequest | Mapping[str, Any]) -> RunStatus:
        body = request.as_dict() if isinstance(request, RunRequest) else dict(request)
        _, payload = self._request("POST", "/runs", body)
        return RunStatus.from_dict(payload)

    def statuses(self) -> list[RunStatus]:
        _, payload = self._request("GET", "/runs")
        return [RunStatus.from_dict(raw) for raw in payload["runs"]]

    def status(self, run_id: str) -> RunStatus:
        _, payload = self._request("GET", f"/runs/{run_id}")
        return RunStatus.from_dict(payload)

    def results(self, run_id: str) -> dict[str, Any]:
        """The finished run's results document (``results.json``'s shape).

        When this thread's last :meth:`wait` ended on ``run_id`` done,
        the document it brought back is returned without a request; the
        held document is dropped by this call either way.
        """
        held, self._local.held = getattr(self._local, "held", None), None
        if held is not None and held[0] == run_id:
            return held[1]
        _, payload = self._request("GET", f"/runs/{run_id}/results")
        return payload["document"]

    def cancel(self, run_id: str) -> RunStatus:
        _, payload = self._request("POST", f"/runs/{run_id}/cancel")
        return RunStatus.from_dict(payload)

    def metrics_text(self) -> str:
        # Prometheus text never parses as JSON, so _parse hands it back
        # decoded (and an empty exposition as None).
        return self._request("GET", "/metrics")[1] or ""

    def wait(
        self, run_id: str, *, timeout_s: float = 300.0, poll_s: float = 0.05
    ) -> RunStatus:
        """Block until the run reaches a terminal state (or time out).

        Each round is one server-held ``GET /runs/<id>?wait=<s>``: the
        server answers the moment the run ends, so nothing sleeps here.
        A hold asks for at most half this client's socket timeout (the
        server caps it too), so a long wait is a few held rounds, never a
        read timeout.  ``poll_s`` is kept for callers written against the
        earlier sleep-and-poll client; it no longer has any effect.

        When the run ends ``done`` the server's answer carries its results
        document, which this thread holds for its next :meth:`results`
        call; a thread holds one document at most, and a wait that ends
        otherwise (or raises) holds none.
        """
        self._local.held = None
        deadline = time.monotonic() + timeout_s
        while True:
            hold = max(0.0, min(deadline - time.monotonic(), self.timeout_s / 2))
            _, payload = self._request("GET", f"/runs/{run_id}?wait={hold:.3f}")
            status = RunStatus.from_dict(payload)
            if status.state in TERMINAL_STATES:
                if "results" in payload:  # only ever on a done run
                    self._local.held = (run_id, payload["results"]["document"])
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run {run_id!r} still {status.state} after {timeout_s:.1f}s"
                )


def _parse(raw: bytes) -> Any:
    if not raw:
        return None
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw.decode(errors="replace")
