"""The serve stack's structured access log — one JSONL line per event.

Request traces (:mod:`repro.obs.context`) answer "which hops did this
request take"; the access log answers "what did the *server* see".  Two
record kinds share one append-only file, ``<root>/access.jsonl``:

``kind="request"``
    One line per HTTP request, written by the handler thread as the
    response goes out: trace ids, method, path, HTTP status, the run it
    touched, cache/coalesced flags, and the request's wall time.
``kind="terminal"``
    One line per *executed* run reaching a terminal state (done, failed,
    cancelled), written by the :class:`~repro.serve.queue.JobQueue`
    coordinator: the run id, every trace_id that joined the execution
    (coalesced requests share one run — this is the audit trail), the
    queue latency, and the execution wall time.

The log is the one :class:`repro.obs.stream.JsonlStream` that rotates:
past ``max_bytes`` (default 4 MiB, ``REPRO_ACCESS_LOG_MAX_BYTES``
overrides, ``0`` disables) the live file becomes ``access.jsonl.1``, so
disk usage stays near two segments.  ``REPRO_OBS_DISABLE=1`` silences it
(the tracing-overhead benchmark leans on that).  The read side is
:class:`repro.obs.trace.ServeTraceIndex`.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any

from repro.obs.events import disabled
from repro.obs.stream import JsonlStream
from repro.obs.trace import ACCESS_LOG_NAME

__all__ = ["ACCESS_LOG_NAME", "DEFAULT_MAX_BYTES", "AccessLog"]

_MAX_BYTES_ENV = "REPRO_ACCESS_LOG_MAX_BYTES"

#: Rotation threshold — small enough that a runaway fleet can't fill the
#: disk, large enough (~10k records) that rotation is rare in normal use.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


class AccessLog(JsonlStream):
    """Append-only JSONL access log for one serve root.

    Examples
    --------
    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as root:
    ...     log = AccessLog(Path(root) / ACCESS_LOG_NAME)
    ...     record = log.write("request", method="POST", path="/runs")
    ...     record["kind"], record["method"]
    ('request', 'POST')
    """

    def __init__(
        self, path: str | os.PathLike, *, max_bytes: int | None = None
    ) -> None:
        if max_bytes is None:
            raw = os.environ.get(_MAX_BYTES_ENV, "")
            try:
                max_bytes = int(raw) if raw else DEFAULT_MAX_BYTES
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        super().__init__(path, default=str, max_bytes=max_bytes)

    def write(self, kind: str, **fields: Any) -> dict[str, Any] | None:
        """Append one record; returns it, or ``None`` when disabled.

        ``None``-valued fields are dropped so optional attributes (error,
        run_id on unrouted requests) never clutter the line.
        """
        if disabled():
            return None
        record: dict[str, Any] = {"kind": str(kind), "ts": time.time()}
        record.update({k: v for k, v in fields.items() if v is not None})
        self.append(record)
        return record
