"""Resource sampling: watch RSS and CPU while a run is happening.

The paper's §3–§4 lesson is that the end-of-program GPU crunch was only
diagnosed *in hindsight* — nobody was watching utilization while runs
executed.  This module is the repo-side fix for its own workloads: a
stdlib-only daemon thread that periodically samples the coordinating
process (and any registered :func:`repro.parallel.pmap` worker pids) and
emits ``resource_sample`` events into the run's existing
:class:`repro.obs.events.EventLog`, where ``repro trace --utilization``
and ``repro watch`` can attribute peak RSS and CPU per worker and per
span.

Sources, in preference order:

* **procfs** — ``/proc/<pid>/status`` (``VmRSS``) and ``/proc/<pid>/stat``
  (``utime + stime`` ticks), which can observe *any* pid, so each pool
  worker gets its own samples;
* **getrusage** — ``resource.getrusage(RUSAGE_SELF)`` for the coordinator
  plus a single aggregated ``RUSAGE_CHILDREN`` sample for all (reaped)
  workers, on platforms without procfs.

Determinism caveat: sampler ticks land at wall-clock-determined points in
the stream, so a sampled run's event file is **not** byte-comparable to an
unsampled one — every measured quantity rides in the volatile ``wall``
section (the payload stays empty), but sequence numbers shift.  Sampling
is therefore strictly opt-in (``repro run --sample-resources`` or the
``REPRO_OBS_SAMPLE`` knob), and stream-comparison tooling should drop
``resource_sample`` records first (:func:`strip_samples`).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.metrics import get_metrics

__all__ = [
    "SAMPLE_KIND",
    "ResourceSampler",
    "forget_worker_pids",
    "note_worker_pids",
    "procfs_available",
    "sample_processes",
    "strip_samples",
    "worker_pids",
]

SAMPLE_KIND = "resource_sample"

#: Default sampling cadence; chosen so a seconds-long smoke experiment
#: still collects several samples without measurable overhead.
DEFAULT_INTERVAL_S = 0.25

_SAMPLE_ENV = "REPRO_OBS_SAMPLE"


def procfs_available() -> bool:
    """True when per-pid sampling via ``/proc`` is possible (Linux)."""
    return os.path.isdir("/proc/self")


# ---------------------------------------------------------------------------
# Worker pid roster
#
# pmap publishes its pool's pids here for the duration of each call; the
# sampler (running on its own thread) reads whatever is currently live.

_roster_lock = threading.Lock()
_roster: set[int] = set()


def note_worker_pids(pids: Iterable[int]) -> None:
    """Publish worker pids so an active sampler can observe them."""
    with _roster_lock:
        _roster.update(int(p) for p in pids)


def forget_worker_pids(pids: Iterable[int]) -> None:
    """Retire worker pids once their pool is gone."""
    with _roster_lock:
        _roster.difference_update(int(p) for p in pids)


def worker_pids() -> tuple[int, ...]:
    """The currently registered worker pids, sorted."""
    with _roster_lock:
        return tuple(sorted(_roster))


# ---------------------------------------------------------------------------
# Sampling primitives


def _procfs_sample(pid: int) -> dict[str, float] | None:
    """RSS bytes and cumulative CPU seconds of ``pid``, or ``None``.

    A vanished pid (worker already exited) is a normal race, never an
    error — the caller just skips it.
    """
    try:
        rss_kb = 0
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
        # Fields after the parenthesised comm (which may itself contain
        # spaces): state is field 3, utime/stime are fields 14/15.
        after = stat.rsplit(")", 1)[1].split()
        ticks = int(after[11]) + int(after[12])
        hz = os.sysconf("SC_CLK_TCK")
        return {"rss_bytes": float(rss_kb * 1024), "cpu_s": ticks / hz}
    except (OSError, ValueError, IndexError):
        return None


def _rusage_maxrss_bytes(ru_maxrss: int) -> float:
    # ru_maxrss is kilobytes on Linux/BSD but bytes on macOS.
    return float(ru_maxrss if sys.platform == "darwin" else ru_maxrss * 1024)


def _rusage_sample(who_children: bool = False) -> dict[str, float] | None:
    """getrusage fallback: peak RSS + CPU for self or aggregated children."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    who = resource.RUSAGE_CHILDREN if who_children else resource.RUSAGE_SELF
    usage = resource.getrusage(who)
    return {
        "rss_bytes": _rusage_maxrss_bytes(usage.ru_maxrss),
        "cpu_s": float(usage.ru_utime + usage.ru_stime),
    }


def sample_processes(
    extra_pids: Sequence[int] = (), *, use_procfs: bool | None = None
) -> list[dict[str, Any]]:
    """One sampling tick: coordinator + registered/extra worker pids.

    Returns a list of plain dicts, each with ``pid``, ``role``
    (``coordinator`` / ``worker`` / ``children``), ``source`` (``procfs``
    or ``rusage``), ``rss_bytes``, and cumulative ``cpu_s``.  On
    procfs-less platforms only the coordinator (``RUSAGE_SELF``) and one
    aggregated ``children`` sample are available.
    """
    procfs = procfs_available() if use_procfs is None else bool(use_procfs)
    own_pid = os.getpid()
    out: list[dict[str, Any]] = []

    if procfs:
        own = _procfs_sample(own_pid)
        source = "procfs"
    else:
        own = _rusage_sample()
        source = "rusage"
    if own is not None:
        out.append({"pid": own_pid, "role": "coordinator", "source": source, **own})

    workers = sorted(set(worker_pids()) | {int(p) for p in extra_pids})
    workers = [p for p in workers if p != own_pid]
    if procfs:
        for pid in workers:
            sample = _procfs_sample(pid)
            if sample is not None:
                out.append({"pid": pid, "role": "worker", "source": "procfs", **sample})
    elif workers:
        children = _rusage_sample(who_children=True)
        if children is not None:
            out.append({"pid": -1, "role": "children", "source": "rusage", **children})
    return out


def strip_samples(
    records: Iterable[Mapping[str, Any]]
) -> list[Mapping[str, Any]]:
    """Drop sampler-tick records (``resource_sample``, ``profile_sample``)
    — they sit outside the determinism contract: their *positions* in the
    stream are wall-clock-determined."""
    from repro.obs.events import VOLATILE_KINDS

    return [r for r in records if r.get("kind") not in VOLATILE_KINDS]


# ---------------------------------------------------------------------------
# The sampler thread


def resolve_sample_interval(value: Any = None) -> float:
    """Normalize a sampling knob to an interval in seconds (0 = off).

    ``None`` defers to the ``REPRO_OBS_SAMPLE`` environment variable:
    unset/empty/``0`` means off, a float means that interval, and the
    bare value ``1`` (indistinguishable from "on") means the default
    cadence.
    """
    if value is None:
        raw = os.environ.get(_SAMPLE_ENV, "").strip()
        if not raw:
            return 0.0
        try:
            value = float(raw)
        except ValueError:
            return DEFAULT_INTERVAL_S
        if value == 1.0:
            return DEFAULT_INTERVAL_S
    interval = float(value)
    return interval if interval > 0 else 0.0


class ResourceSampler:
    """Daemon thread emitting periodic ``resource_sample`` events.

    Parameters
    ----------
    interval_s:
        Seconds between ticks (also recorded in each sample's ``wall``).
    log:
        Event sink; defaults to the calling thread's logger at
        :meth:`start` time.  With no active logger the sampler is inert.

    The sampler writes through the log directly (not the module-level
    :func:`repro.obs.emit`), so samples keep flowing even while the
    serial pmap path holds :func:`repro.obs.quiet` — exactly the moments
    worth watching.  One tick fires immediately on start and one on stop,
    so even sub-interval runs record their peak.

    Examples
    --------
    >>> from repro.obs.events import EventLog
    >>> log = EventLog()
    >>> with ResourceSampler(interval_s=60, log=log):
    ...     pass
    >>> {r["kind"] for r in log.records}
    {'resource_sample'}
    """

    def __init__(
        self, interval_s: float = DEFAULT_INTERVAL_S, log: Any = None
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self._log = log
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.n_ticks = 0

    def _tick(self) -> None:
        log = self._log
        if log is None:
            return
        self.n_ticks += 1
        peak = 0.0
        for sample in sample_processes():
            peak = max(peak, sample["rss_bytes"])
            log.emit(
                SAMPLE_KIND,
                payload={},
                wall={**sample, "interval_s": self.interval_s},
            )
        if peak > 0:
            gauge = get_metrics().gauge("resources.peak_rss_bytes")
            prior = gauge.value
            if not prior == prior or peak > prior:  # NaN-safe max
                gauge.set(peak)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._tick()

    def start(self) -> "ResourceSampler":
        """Resolve the sink, take one sample, and launch the thread."""
        if self._thread is not None:
            return self
        if self._log is None:
            from repro.obs.events import get_logger

            self._log = get_logger()
        self._stop.clear()
        self._tick()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (captures the peak)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, 4 * self.interval_s))
        self._thread = None
        self._tick()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
