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

Writes are single ``os.write`` calls on an ``O_APPEND`` descriptor, the
same atomic-line discipline as :class:`repro.obs.events.EventLog`, so
handler threads and the drainer thread may interleave lines but never
bytes.  The ``REPRO_OBS_DISABLE=1`` kill switch silences the log
entirely — the tracing-overhead benchmark leans on that.

Long-lived fleets rotate: when an append would push the file past
``max_bytes`` (default 4 MiB, ``REPRO_ACCESS_LOG_MAX_BYTES`` overrides,
``0`` disables), the live file is renamed to ``access.jsonl.1`` —
clobbering the previous rotation, so disk usage is bounded at roughly
two segments — and a fresh live file starts.  Rotation happens under
the write lock between whole-line appends, never mid-line.

The read side lives in :class:`repro.obs.trace.ServeTraceIndex`, which
reads the rotated segment before the live one, so stitching and fleet
aggregates span the rotation boundary.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any

from repro.obs.events import append_line
from repro.obs.trace import ACCESS_LOG_NAME

__all__ = ["ACCESS_LOG_NAME", "DEFAULT_MAX_BYTES", "AccessLog"]

_DISABLE_ENV = "REPRO_OBS_DISABLE"
_MAX_BYTES_ENV = "REPRO_ACCESS_LOG_MAX_BYTES"

#: Rotation threshold — small enough that a runaway fleet can't fill the
#: disk, large enough (~10k records) that rotation is rare in normal use.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


class AccessLog:
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
        self.path = Path(path)
        if max_bytes is None:
            raw = os.environ.get(_MAX_BYTES_ENV, "")
            try:
                max_bytes = int(raw) if raw else DEFAULT_MAX_BYTES
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        #: Rotation threshold in bytes; ``0`` (or negative) disables.
        self.max_bytes = max_bytes
        self._fd: int | None = None
        self._size = 0
        self._lock = threading.Lock()

    def write(self, kind: str, **fields: Any) -> dict[str, Any] | None:
        """Append one record; returns it, or ``None`` when disabled.

        ``None``-valued fields are dropped so optional attributes (error,
        run_id on unrouted requests) never clutter the line.
        """
        if os.environ.get(_DISABLE_ENV, "") == "1":
            return None
        record: dict[str, Any] = {"kind": str(kind), "ts": time.time()}
        record.update({k: v for k, v in fields.items() if v is not None})
        data = (json.dumps(record, sort_keys=True, default=str) + "\n").encode()
        with self._lock:
            if self._fd is None:
                self._open_locked()
            if (
                self.max_bytes > 0
                and self._size > 0
                and self._size + len(data) > self.max_bytes
            ):
                self._rotate_locked()
            append_line(self._fd, data, self.path)
            self._size += len(data)
        return record

    def _open_locked(self) -> None:
        """Open (or reopen) the live segment; caller holds the lock."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        # Seed the size from disk so a reopened log (process restart,
        # close()/write cycle) keeps honoring the threshold.
        self._size = os.fstat(self._fd).st_size

    def _rotate_locked(self) -> None:
        """Rename the live segment to ``.1`` and start a fresh one.

        Runs between whole-line appends under the lock, so neither
        segment ever holds a torn line (beyond the crash-tolerance the
        readers already have).
        """
        assert self._fd is not None
        os.close(self._fd)
        self._fd = None
        os.replace(self.path, self.path.with_name(self.path.name + ".1"))
        self._open_locked()

    def close(self) -> None:
        """Release the descriptor (subsequent writes reopen it)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
