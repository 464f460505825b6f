"""One append-only JSONL file: the contract every telemetry stream shares.

``events.jsonl``, ``profile.jsonl``, the serve ``access.jsonl`` and
``runs_index.jsonl`` are all :class:`JsonlStream` files.  Only the access
log rotates: the others feed seq-ordered analytics that a clobbered
``.1`` would break.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = ["JsonlStream", "TraceError"]


class TraceError(ValueError):
    """The event stream is unreadable: corrupt record or unknown schema."""


def _parse(text: str) -> tuple[list[dict[str, Any]], bool]:
    """Parse JSONL text into records, tolerating one truncated final line."""
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    records: list[dict[str, Any]] = []
    for number, line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == lines[-1][0]:
                return records, True
            raise TraceError(
                f"corrupt event record on line {number}: {exc.msg}"
            ) from exc
        if not isinstance(record, dict):
            raise TraceError(f"event record on line {number} is not a JSON object")
        records.append(record)
    return records, False


class JsonlStream:
    """An append-only JSONL file with a strict read and a lenient poll.

    Each record is one ``sort_keys`` line written with a single
    ``os.write`` to an ``O_APPEND`` descriptor, so concurrent writers
    interleave lines, never bytes.  ``name`` is the file to use when
    ``path`` is a directory; ``default`` is the ``json.dumps`` fallback
    encoder; a positive ``max_bytes`` renames the live file to
    ``<name>.1`` (clobbering the previous one) before an append would
    push it past the threshold.

    Examples
    --------
    >>> import tempfile
    >>> stream = JsonlStream(Path(tempfile.mkdtemp()) / "demo.jsonl")
    >>> stream.append({"kind": "demo"})
    >>> stream.read()
    ([{'kind': 'demo'}], False)
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        name: str | None = None,
        default: Callable[[Any], Any] | None = None,
        max_bytes: int = 0,
    ) -> None:
        path = Path(path)
        self.path = path / name if name and path.is_dir() else path
        self.rotated = self.path.with_name(self.path.name + ".1")
        self.max_bytes = max_bytes
        #: Complete lines :meth:`poll` could not parse so far.
        self.n_corrupt = 0
        self._default = default
        self._fd: int | None = None
        self._size = 0
        self._offset = 0
        self._buffer = b""
        self._lock = threading.Lock()

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        # From disk, so a reopened stream keeps honouring the threshold.
        self._size = os.fstat(self._fd).st_size

    def _close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record; a short write raises ``OSError`` naming the file."""
        data = (
            json.dumps(record, sort_keys=True, default=self._default) + "\n"
        ).encode()
        with self._lock:
            if self._fd is None:
                self._open()
            if 0 < self.max_bytes < self._size + len(data) and self._size:
                # Between whole-line appends: neither segment tears a line.
                self._close()
                os.replace(self.path, self.rotated)
                self._open()
            written = os.write(self._fd, data)
            if written != len(data):
                raise OSError(
                    f"short write to {self.path}: {written} of {len(data)} bytes"
                )
            self._size += written

    def close(self) -> None:
        """Release the descriptor (a later append reopens it)."""
        with self._lock:
            self._close()

    def read(self) -> tuple[list[dict[str, Any]], bool]:
        """Every record, ``.1`` segment first, and whether a tail was torn.

        Per segment, a torn final line (a writer died mid-append) is
        dropped and flagged; a corrupt interior line raises
        :class:`TraceError`.  Neither segment existing raises
        :class:`FileNotFoundError`.
        """
        segments = [p for p in (self.rotated, self.path) if p.exists()]
        if not segments:
            raise FileNotFoundError(f"no stream at {self.path}")
        records: list[dict[str, Any]] = []
        truncated = False
        for segment in segments:
            part, torn = _parse(segment.read_text(encoding="utf-8"))
            records += part
            truncated = truncated or torn
        return records, truncated

    def poll(self) -> list[dict[str, Any]]:
        """The complete records appended to the live file since last poll.

        A missing file yields ``[]``; a partial trailing line stays
        buffered until its newline arrives; a corrupt complete line is
        counted in :attr:`n_corrupt` and skipped.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except OSError:
            return []
        *lines, self._buffer = (self._buffer + chunk).split(b"\n")
        records: list[dict[str, Any]] = []
        for line in lines:
            try:
                record = json.loads(line) if line.strip() else None
            except ValueError:
                self.n_corrupt += 1
                continue
            if isinstance(record, dict):
                records.append(record)
        return records
