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
process writes events, and the runner emits per-cell events in
submission order regardless of completion order.  A pool worker's
routing is off (:func:`configure` ``(None)``); an experiment that
:func:`repro.api.execute_request` runs in a worker records into an
in-memory log, which the coordinator replays with :meth:`EventLog.extend`
in the experiment's place in the run.

Environment knobs
-----------------
``REPRO_OBS_DIR``
    When set, a thread that has not called :func:`configure` appends
    to ``$REPRO_OBS_DIR/events.jsonl``.  Unset means telemetry is a no-op.
``REPRO_OBS_DISABLE``
    Set to ``1`` to silence every emit, including explicitly configured
    loggers — the kill switch.

The file is a :class:`repro.obs.stream.JsonlStream` (one ``os.write`` per
line or per replayed batch, no rotation); :func:`read_events` reads it
back under the strict rule, dropping a torn final line.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.obs import context as _trace_context
from repro.obs.stream import JsonlStream, TraceError

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
    "disabled",
    "TraceError",
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


def disabled() -> bool:
    """True while the ``REPRO_OBS_DISABLE=1`` kill switch is set.

    The one place the switch is parsed: events, the profiler and the
    serve access log all defer to it.
    """
    return os.environ.get(_DISABLE_ENV, "") == "1"


class EventLog:
    """An append-only JSONL event sink.

    Parameters
    ----------
    path:
        File to append to (parent directories are created).  ``None``
        keeps events in memory only, in :attr:`records`.
    trace:
        A :class:`repro.obs.context.TraceContext` pinned to this log:
        every record it writes carries the trace's ids, regardless of
        which thread emits (the resource sampler's daemon thread shares
        a run's log with the coordinator).  Without a pinned trace, the
        emitting thread's bound context (:func:`repro.obs.context.current`)
        is stamped when one exists.

    A file-backed log appends through a :class:`JsonlStream`, so a record
    is one atomic line and a short write raises :class:`OSError`.

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
        trace: Any = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.trace = trace
        self.records: list[dict[str, Any]] = []
        self._stream = (
            None if self.path is None
            else JsonlStream(self.path, default=_jsonable)
        )
        self._seq = 0
        # Emits must be safe from helper threads too: the resource
        # sampler (repro.obs.resources) shares a run's log with the
        # coordinating thread, and seq assignment must never race.
        self._lock = threading.Lock()

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
            if self._stream is None:
                self.records.append(record)
            else:
                self._stream.append(record)
            return record

    def extend(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Replay records another log captured, as one batch.

        Each record keeps its ``kind``, ``ts``, ``payload`` and ``wall``
        and gets this log's next ``seq`` and trace, so a replayed stretch
        reads as if it had been emitted here.  A file-backed log writes
        the batch with one ``os.write``.
        """
        trace = self.trace if self.trace is not None else _trace_context.current()
        stamp = None if trace is None else trace.as_dict()
        with self._lock:
            batch = []
            for record in records:
                copy = {
                    "schema": SCHEMA_VERSION,
                    "seq": self._seq,
                    "kind": record["kind"],
                    "ts": record["ts"],
                    "payload": record["payload"],
                    "wall": record["wall"],
                }
                if stamp is not None:
                    copy["trace"] = stamp
                self._seq += 1
                batch.append(copy)
            if self._stream is None:
                self.records.extend(batch)
            else:
                self._stream.extend(batch)

    def close(self) -> None:
        """Release the file descriptor (subsequent emits reopen it)."""
        with self._lock:
            if self._stream is not None:
                self._stream.close()

    def __len__(self) -> int:
        return self._seq


# Telemetry routing, one slot per thread: two runs in two threads each
# route to their own log and restore their own prior routing.  _UNSET
# (the slot's initial state) means "resolve from the environment"; None
# means "off"; an EventLog is used as-is.
_UNSET = object()
_routing = threading.local()
_env_logs: dict[str, EventLog] = {}


def configure(log: EventLog | str | os.PathLike | None) -> Any:
    """Route this thread's emits; returns the previous routing.

    Accepts an :class:`EventLog`, a path (a log appending there is
    built), or ``None`` to disable telemetry regardless of environment.
    Pass the return value back to ``configure`` to restore the prior
    routing — including "resolve from the environment" when nothing had
    been configured yet (the unset state round-trips, so a temporary
    swap does not permanently disable env-routed telemetry).  Other
    threads keep their own routing.
    """
    previous = getattr(_routing, "log", _UNSET)
    if log is None or log is _UNSET or isinstance(log, EventLog):
        _routing.log = log
    else:
        _routing.log = EventLog(log)
    return previous


def get_logger() -> EventLog | None:
    """This thread's logger, or ``None`` when telemetry is off.

    Without an explicit :func:`configure`, resolution follows the
    environment on every call (so tests may monkeypatch the knobs):
    ``REPRO_OBS_DIR`` enables a shared file logger, otherwise telemetry
    is a no-op.
    """
    if disabled():
        return None
    log = getattr(_routing, "log", _UNSET)
    if log is not _UNSET:
        return log
    root = os.environ.get(_DIR_ENV, "")
    if not root:
        return None
    if root not in _env_logs:
        _env_logs[root] = EventLog(Path(root) / "events.jsonl")
    return _env_logs[root]


def enabled() -> bool:
    """True when an :func:`emit` would currently reach a sink.

    Callers whose payload is costly to build (the cluster DES's
    contention fold) use this as a pre-flight check, so they skip
    building it when telemetry is off.
    """
    return get_logger() is not None


def emit(
    kind: str,
    payload: Mapping[str, Any] | None = None,
    wall: Mapping[str, Any] | None = None,
) -> dict[str, Any] | None:
    """Emit through this thread's logger; a cheap no-op when telemetry is off."""
    log = get_logger()
    if log is None:
        return None
    return log.emit(kind, payload, wall)


@contextmanager
def quiet() -> Iterator[None]:
    """Switch this thread's emits off inside the block (re-entrant).

    The parallel runner quiesces cell functions with this: pool workers
    run with routing off, so the serial path mutes cell interiors too and
    the runner's own per-cell events remain the single record either way.
    """
    previous = configure(None)
    try:
        yield
    finally:
        configure(previous)


@contextmanager
def capture_events() -> Iterator[list[dict[str, Any]]]:
    """Route this thread's emits into a fresh in-memory log for the block.

    Examples
    --------
    >>> with capture_events() as events:
    ...     _ = emit("demo", payload={"x": 1})
    >>> [e["kind"] for e in events]
    ['demo']
    """
    log = EventLog()
    previous = configure(log)
    try:
        yield log.records
    finally:
        configure(previous)


def read_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse a JSONL event file back into record dicts.

    A torn final line (a writer killed mid-append) is dropped; a corrupt
    interior record raises :class:`TraceError`.
    """
    records, _ = JsonlStream(path).read()
    return records


def strip_volatile(record: Mapping[str, Any]) -> dict[str, Any]:
    """Drop the timestamp/wall-clock fields, keeping the deterministic half.

    Two runs of the same experiment — serial or parallel, today or next
    year — agree byte-for-byte on ``json.dumps(strip_volatile(r),
    sort_keys=True)`` for every record ``r``.
    """
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
