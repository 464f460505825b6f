"""Structured run telemetry as append-only JSONL event streams.

The paper's §3 resource lesson — shared GPUs silently saturating at the
end of the program — was at bottom an observability failure: nobody could
see queue depth, cache behaviour, or per-trial cost until the crunch hit.
This module gives every run in the repository a machine-readable event
record instead of ad-hoc prints.

Records and determinism
-----------------------
Each event is one JSON object per line::

    {"schema": 1, "seq": 3, "kind": "cell_finish",
     "ts": 1722..., "payload": {"index": 3}, "wall": {"dur_s": 0.012}}

Fields split into two disjoint halves:

* ``kind``/``seq``/``payload`` are **deterministic**: for the same
  experiment they are byte-identical whether the run executed serially or
  across any number of worker processes.  This is the event-sequence
  determinism contract the test suite enforces.
* ``ts``, everything under ``wall``, and the ``trace`` block are
  **volatile**: wall-clock timestamps, durations, pids, worker counts,
  dispatch modes, and request-trace identifiers
  (:mod:`repro.obs.context`).  Strip them with :func:`strip_volatile`
  before comparing runs.

Emission rules that keep the contract honest: only the coordinating
process writes events (worker processes are born with the
``REPRO_OBS_DISABLE`` kill switch set), and the runner emits per-cell
events in submission order regardless of completion order.

Environment knobs
-----------------
``REPRO_OBS_DIR``
    When set, the default global logger appends to
    ``$REPRO_OBS_DIR/events.jsonl``.  Unset means telemetry is a no-op.
``REPRO_OBS_DISABLE``
    Set to ``1`` to silence every emit, including explicitly configured
    loggers — the kill switch.

Reading the stream back needs three lines of stdlib::

    import json
    with open("obs/events.jsonl") as fh:
        events = [json.loads(line) for line in fh]
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs import context as _trace_context

__all__ = [
    "SCHEMA_VERSION",
    "VOLATILE_FIELDS",
    "VOLATILE_KINDS",
    "EventLog",
    "configure",
    "get_logger",
    "emit",
    "quiet",
    "capture_events",
    "read_events",
    "strip_volatile",
]

SCHEMA_VERSION = 1

_DIR_ENV = "REPRO_OBS_DIR"
_DISABLE_ENV = "REPRO_OBS_DISABLE"

#: Top-level record fields excluded from the determinism contract.
#: ``trace`` carries request-trace ids (repro.obs.context), which mix in
#: a process-local counter and therefore differ between re-runs.
VOLATILE_FIELDS = ("ts", "wall", "trace")

#: Record *kinds* that are volatile wholesale: their positions in a
#: stream are wall-clock-determined (sampler ticks), so stream-comparison
#: tooling drops whole records of these kinds before byte comparison —
#: :func:`repro.obs.resources.strip_samples` is the canonical filter.
VOLATILE_KINDS = ("resource_sample", "profile_sample")


def _jsonable(value: Any) -> Any:
    """Last-resort JSON coercion for NumPy scalars, paths, dataclasses."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(repr(v) for v in value)
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    return repr(value)


def append_line(fd: int, data: bytes, path: str | os.PathLike) -> None:
    """Append one whole record with a single ``os.write``.

    A short write (full disk, quota) would leave a torn line that later
    appends bury mid-file, so it raises :class:`OSError` naming *path*.
    """
    written = os.write(fd, data)
    if written != len(data):
        raise OSError(
            f"short write to {os.fspath(path)}: {written} of {len(data)} bytes"
        )


class EventLog:
    """An append-only JSONL event sink.

    Parameters
    ----------
    path:
        File to append to (parent directories are created).  ``None``
        keeps events in memory only.
    capture:
        Keep an in-memory copy in :attr:`records` even when writing to a
        file.  Always on for path-less logs.
    trace:
        A :class:`repro.obs.context.TraceContext` pinned to this log:
        every record it writes carries the trace's ids, regardless of
        which thread emits (the resource sampler's daemon thread shares
        a run's log with the coordinator).  Without a pinned trace, the
        emitting thread's bound context (:func:`repro.obs.context.current`)
        is stamped when one exists.

    Appends are a single ``os.write`` to an ``O_APPEND`` descriptor, so a
    record is written atomically: concurrent writers may interleave
    *lines*, never bytes within a line.  A short write raises
    :class:`OSError`.

    Examples
    --------
    >>> log = EventLog()
    >>> _ = log.emit("demo", payload={"x": 1})
    >>> log.records[0]["kind"]
    'demo'
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        capture: bool = False,
        trace: Any = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.capture = bool(capture) or self.path is None
        self.trace = trace
        self.records: list[dict[str, Any]] = []
        self._seq = 0
        self._fd: int | None = None
        # Emits must be safe from helper threads too: the resource
        # sampler (repro.obs.resources) shares a run's log with the
        # coordinating thread, and seq assignment must never race.
        self._lock = threading.Lock()

    def _descriptor(self) -> int:
        if self._fd is None:
            assert self.path is not None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    def emit(
        self,
        kind: str,
        payload: Mapping[str, Any] | None = None,
        wall: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Append one event; returns the record as written."""
        trace = self.trace if self.trace is not None else _trace_context.current()
        with self._lock:
            record: dict[str, Any] = {
                "schema": SCHEMA_VERSION,
                "seq": self._seq,
                "kind": str(kind),
                "ts": time.time(),
                "payload": dict(payload or {}),
                "wall": dict(wall or {}),
            }
            if trace is not None:
                record["trace"] = trace.as_dict()
            self._seq += 1
            if self.capture:
                self.records.append(record)
            if self.path is not None:
                line = json.dumps(record, sort_keys=True, default=_jsonable) + "\n"
                append_line(self._descriptor(), line.encode(), self.path)
            return record

    def close(self) -> None:
        """Release the file descriptor (subsequent emits reopen it)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __len__(self) -> int:
        return self._seq


# The active logger. _UNSET means "resolve from the environment"; None
# means "explicitly disabled"; an EventLog is used as-is.
_UNSET = object()
_active: Any = _UNSET
_env_logs: dict[str, EventLog] = {}
_quiet_depth = 0


def configure(log: EventLog | str | os.PathLike | None) -> Any:
    """Install the global logger; returns the previously active state.

    Accepts an :class:`EventLog`, a path (a log appending there is
    built), or ``None`` to disable telemetry regardless of environment.
    Pass the return value back to ``configure`` to restore the prior
    routing — including "resolve from the environment" when nothing had
    been configured yet (the unset state round-trips, so a temporary
    swap does not permanently disable env-routed telemetry).
    """
    global _active
    previous = _active
    if log is None or log is _UNSET or isinstance(log, EventLog):
        _active = log
    else:
        _active = EventLog(log)
    return previous


def get_logger() -> EventLog | None:
    """The active logger, or ``None`` when telemetry is off.

    Without an explicit :func:`configure`, resolution follows the
    environment on every call (so tests may monkeypatch the knobs):
    ``REPRO_OBS_DIR`` enables a shared file logger, otherwise telemetry
    is a no-op.
    """
    if os.environ.get(_DISABLE_ENV, "") == "1":
        return None
    if _active is not _UNSET:
        return _active
    root = os.environ.get(_DIR_ENV, "")
    if not root:
        return None
    if root not in _env_logs:
        _env_logs[root] = EventLog(Path(root) / "events.jsonl")
    return _env_logs[root]


def enabled() -> bool:
    """True when an :func:`emit` would currently reach a sink.

    Hot loops (the cluster DES fires millions of events per run) use this
    as a pre-flight check so they can skip building payload dicts
    entirely when telemetry is off.
    """
    return _quiet_depth == 0 and get_logger() is not None


def emit(
    kind: str,
    payload: Mapping[str, Any] | None = None,
    wall: Mapping[str, Any] | None = None,
) -> dict[str, Any] | None:
    """Emit through the global logger; a cheap no-op when telemetry is off."""
    if _quiet_depth > 0:
        return None
    log = get_logger()
    if log is None:
        return None
    return log.emit(kind, payload, wall)


@contextmanager
def quiet() -> Iterator[None]:
    """Suppress global emits inside the block (re-entrant).

    The parallel runner quiesces cell functions with this: a cell's
    interior events cannot be reproduced in canonical order from worker
    processes, so the serial path mutes them too and the runner's own
    per-cell events remain the single record either way.
    """
    global _quiet_depth
    _quiet_depth += 1
    try:
        yield
    finally:
        _quiet_depth -= 1


class _FanoutLog(EventLog):
    """Forward every emit to several sinks (used by ``capture_events(tee=)``).

    The first sink's record is returned; each sink keeps its own ``seq``
    numbering, so teeing into a file-backed log does not disturb that
    log's sequence.
    """

    def __init__(self, sinks: tuple[EventLog, ...]) -> None:
        super().__init__()
        self._sinks = sinks

    def emit(
        self,
        kind: str,
        payload: Mapping[str, Any] | None = None,
        wall: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        first: dict[str, Any] | None = None
        for sink in self._sinks:
            record = sink.emit(kind, payload, wall)
            if first is None:
                first = record
        assert first is not None
        return first


@contextmanager
def capture_events(*, tee: bool = False) -> Iterator[list[dict[str, Any]]]:
    """Route global emits into a fresh in-memory log for the block.

    With ``tee=True`` emits are *also* forwarded to whatever logger was
    active before the block (e.g. a run's ``events.jsonl``), so analysis
    code can observe a sub-stream without stealing it from the run record.

    Examples
    --------
    >>> with capture_events() as events:
    ...     _ = emit("demo", payload={"x": 1})
    >>> [e["kind"] for e in events]
    ['demo']
    """
    log = EventLog()
    upstream = get_logger() if tee else None
    previous = configure(
        log if upstream is None else _FanoutLog((log, upstream))
    )
    try:
        yield log.records
    finally:
        configure(previous)


class TraceError(ValueError):
    """The event stream is unreadable: corrupt record or unknown schema."""


def _parse_stream(text: str) -> tuple[list[dict[str, Any]], bool]:
    """Parse JSONL text into records, tolerating one truncated final line."""
    lines = text.splitlines()
    last_content = -1
    for index, line in enumerate(lines):
        if line.strip():
            last_content = index
    records: list[dict[str, Any]] = []
    truncated = False
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == last_content:
                truncated = True
                break
            raise TraceError(
                f"corrupt event record on line {index + 1}: {exc.msg}"
            ) from exc
        if not isinstance(record, dict):
            raise TraceError(
                f"event record on line {index + 1} is not a JSON object"
            )
        records.append(record)
    return records, truncated


def read_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse a JSONL event file back into record dicts.

    A torn final line (a writer killed mid-append) is dropped; a corrupt
    interior record raises :class:`TraceError`.
    """
    records, _ = _parse_stream(Path(path).read_text(encoding="utf-8"))
    return records


def strip_volatile(record: Mapping[str, Any]) -> dict[str, Any]:
    """Drop the timestamp/wall-clock fields, keeping the deterministic half.

    Two runs of the same experiment — serial or parallel, today or next
    year — agree byte-for-byte on ``json.dumps(strip_volatile(r),
    sort_keys=True)`` for every record ``r``.
    """
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
