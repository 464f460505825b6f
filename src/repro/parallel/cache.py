"""Content-addressed on-disk cache for experiment results.

A cache entry is keyed by a SHA-256 digest of *what was computed*: the
function's qualified name, its configuration, its seed, and a code-version
salt (by default a hash of the function's own source, so editing the
function invalidates its old results).  The digest reuses the canonical
hashing of :func:`repro.provenance.manifest.stable_hash`, which means two
semantically equal configs hash equally regardless of dict ordering or
NumPy scalar types.

Concurrency contract
--------------------
The cache is safe for concurrent use by any mix of threads and
processes sharing one root — it is the shared result store behind
``repro serve``'s worker pool as well as every ``pmap`` call:

* **Stores are atomic.**  Each ``put`` writes a uniquely named temp file
  (pid + thread id + a per-instance counter, so no two writers ever
  collide on a temp path) and publishes it with ``os.replace``; a reader
  can only ever observe a complete entry or none.  Concurrent writers of
  the same key are idempotent — content addressing means they are
  writing the same bytes, and the last rename wins.
* **Reads tolerate torn or foreign bytes.**  A ``get`` that finds a
  missing, truncated, or unpicklable file (possible on filesystems
  without atomic rename, or after a version skew) reports a miss rather
  than raising.
* **Stats are consistent.**  The per-instance counters are mutated and
  snapshotted under a lock, so :meth:`ResultCache.stats` is a coherent
  point-in-time :class:`CacheStats` even while other threads are mid
  lookup.  Counters are per-*instance*; for the cross-process truth, use
  :meth:`ResultCache.disk_stats`, which counts the (atomically
  published) entries on disk and is therefore correct under any number
  of concurrent writers.

Environment knobs
-----------------
``REPRO_CACHE_DIR``
    Root directory for cache files (default ``.repro_cache`` under the
    current working directory).
``REPRO_CACHE_DISABLE``
    Set to ``1`` to turn every lookup into a miss and every store into a
    no-op — the kill switch for suspicious re-runs.

Every lookup and store also increments the process-wide
``cache.hits`` / ``cache.misses`` / ``cache.stores`` counters in
:mod:`repro.obs.metrics`, so benchmarks report hit rates from telemetry
instead of re-deriving them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.metrics import get_metrics
from repro.provenance.manifest import stable_hash

__all__ = ["CacheStats", "DiskUsage", "ResultCache", "code_salt", "cache_key"]

_DISABLE_ENV = "REPRO_CACHE_DISABLE"
_DIR_ENV = "REPRO_CACHE_DIR"

#: Everything a torn, truncated, or version-skewed pickle can raise while
#: being loaded — any of these on ``get`` is a miss, never an error.
_TORN_READ_ERRORS = (
    OSError,
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
)


#: ``id(code object) -> (code object, salt)``.  Holding the code object
#: keeps its id from being reused while the entry lives.
_SALTS: dict[int, tuple[Any, str]] = {}


def code_salt(fn: Callable[..., Any]) -> str:
    """A salt that changes whenever the function's source changes.

    Computed once per process for each code object, so it describes the
    code this process runs: an edit on disk after the function was
    compiled does not change it, and a re-imported module gets new code
    objects and so a fresh salt.

    Falls back to a hash of the module name when source is unavailable
    (builtins, C extensions, interactively defined functions).
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    code = getattr(fn, "__code__", None)
    if code is not None and id(code) in _SALTS:
        return _SALTS[id(code)][1]
    try:
        salt = stable_hash(inspect.getsource(fn))
    except (OSError, TypeError):
        module = getattr(fn, "__module__", "unknown")
        salt = stable_hash(f"{module}:no-source")
    if code is not None:
        _SALTS[id(code)] = (code, salt)
    return salt


def _digestable(value: Any) -> Any:
    """Best-effort canonical form: fall back to ``repr`` for odd types."""
    try:
        stable_hash(value)
        return value
    except TypeError:
        return repr(value)


def cache_key(fn_name: str, config: Any, seed: Any, salt: str) -> str:
    """Content digest identifying one (function, config, seed, code) cell."""
    return stable_hash(
        {
            "fn": fn_name,
            "config": _digestable(config),
            "seed": _digestable(seed),
            "salt": salt,
        }
    )


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time hit/miss/volume counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_written: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class DiskUsage:
    """What is actually on disk under a cache root — the cross-process
    truth, independent of which instance (or process) wrote it."""

    entries: int = 0
    total_bytes: int = 0


class ResultCache:
    """Content-addressed pickle store under a root directory.

    Entries are sharded by digest prefix (``root/ab/abcdef....pkl``) and
    written atomically; see the module docstring for the full
    cross-process concurrency contract.

    Examples
    --------
    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> key = cache_key("f", {"x": 1}, 0, "salt")
    >>> cache.get(key)
    (False, None)
    >>> cache.put(key, 42)
    >>> cache.get(key)
    (True, 42)
    >>> cache.stats().hits, cache.stats().misses
    (1, 1)
    >>> cache.disk_stats().entries
    1
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root or os.environ.get(_DIR_ENV, ".repro_cache"))
        self._lock = threading.Lock()
        self._tmp_seq = itertools.count()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._bytes_written = 0

    @property
    def enabled(self) -> bool:
        """False when the ``REPRO_CACHE_DISABLE=1`` kill switch is set."""
        return os.environ.get(_DISABLE_ENV, "") != "1"

    def stats(self) -> CacheStats:
        """A coherent snapshot of this instance's running counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                bytes_written=self._bytes_written,
            )

    def disk_stats(self) -> DiskUsage:
        """Count the entries actually on disk under the root.

        Correct under concurrent writers: every entry is published
        atomically, so each file is either fully present or absent.
        Entries vanishing mid-walk (a concurrent :meth:`clear`) are
        skipped rather than raised.
        """
        entries = 0
        total = 0
        if self.root.exists():
            for entry in self.root.rglob("*.pkl"):
                try:
                    total += entry.stat().st_size
                except OSError:
                    continue
                entries += 1
        return DiskUsage(entries=entries, total_bytes=total)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _miss(self) -> tuple[bool, None]:
        with self._lock:
            self._misses += 1
        get_metrics().counter("cache.misses").inc()
        return False, None

    def get(self, key: str) -> tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, value)``.

        Any unreadable entry — absent, torn, truncated, or written by
        incompatible code — is a miss.
        """
        if not self.enabled:
            return self._miss()
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except _TORN_READ_ERRORS:
            return self._miss()
        with self._lock:
            self._hits += 1
        get_metrics().counter("cache.hits").inc()
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically (no-op when disabled)."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # pid + thread id + counter: unique even when many threads of many
        # processes store the same key into the same shard concurrently.
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}"
            f".{next(self._tmp_seq)}.tmp"
        )
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            with tmp.open("wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        with self._lock:
            self._stores += 1
            self._bytes_written += len(blob)
        metrics = get_metrics()
        metrics.counter("cache.stores").inc()
        metrics.counter("cache.bytes_written").inc(len(blob))

    def clear(self) -> int:
        """Delete every entry under the root; returns the count removed.

        Tolerates concurrent clearers/writers: an entry already deleted
        by someone else is skipped, not raised.
        """
        removed = 0
        if self.root.exists():
            for entry in self.root.rglob("*.pkl"):
                try:
                    entry.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed
