"""Trace analytics: the read side of the run-telemetry layer.

:mod:`repro.obs.events` writes schema-versioned JSONL streams; this module
reads them back and answers the questions the paper's §3–§4 resource
lesson was really about — *where did the time go, who was idle, and did
everything pile up at the end?*  A :class:`TraceReader` loads one
``events.jsonl`` (or the run directory containing it), validates it, and
derives:

* the **span tree** and its **critical path** — which nested region of
  the run dominates wall time;
* **per-worker utilization** for every :func:`repro.parallel.pmap` call —
  busy/idle fractions per worker pid, cell-duration tails, and straggler
  cells (the single slow trial that holds the pool hostage);
* **cluster contention** for every simulated scheduler run — GPU busy
  fraction, queue-depth peaks, and the tail-window utilization spike that
  is the end-of-program crunch in miniature;
* **cache attribution** — hit/miss/store counts per experiment, so a
  warm re-run can prove *which* experiment the cache actually served;
* **resource usage** — when the run was sampled
  (:mod:`repro.obs.resources`), peak RSS and CPU per pid (coordinator and
  each pool worker) and peak RSS per open span.

Beyond the single-run boundary, :class:`ServeTraceIndex` stitches a
serve root's ``access.jsonl`` (:mod:`repro.serve.access`) to its run
directories on ``trace_id``, powering ``repro trace --serve`` and the
``repro serve-report`` fleet aggregates.

Every reader loads with :meth:`repro.obs.stream.JsonlStream.read`, which
is forgiving in exactly one way: a truncated final line (the writer died
mid-record) is dropped and flagged, because an append-only log's last
record is the only one that can legally be torn.  Everything else — a
corrupt interior line, an unknown schema version — is a hard
:class:`TraceError`, never a silent skip.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TypeVar

from repro.obs.events import SCHEMA_VERSION
from repro.obs.profile import PROFILE_KIND, PROFILE_LOG_NAME
from repro.obs.stream import JsonlStream, TraceError
from repro.utils.tables import Table

__all__ = [
    "ACCESS_LOG_NAME",
    "PROFILE_LOG_NAME",
    "TraceError",
    "SpanNode",
    "PmapCall",
    "WorkerSlice",
    "ClusterContention",
    "CacheAttribution",
    "ResourceUsage",
    "Hotspot",
    "TraceReader",
    "ProfileReader",
    "ServeTraceIndex",
    "render_summary",
    "render_utilization",
    "render_critical_path",
    "render_hotspots",
    "render_serve_trace",
    "render_serve_report",
]

#: File name of the serve stack's access log under a serve root (write
#: side: :class:`repro.serve.access.AccessLog`).
ACCESS_LOG_NAME = "access.jsonl"

#: A cell counts as a straggler when it runs this many times the median.
STRAGGLER_FACTOR = 2.0

#: The "end of program" window: the last quarter of a cluster run.
TAIL_WINDOW_FRACTION = 0.25


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sequence (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def _median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


# ---------------------------------------------------------------------------
# Derived structures


@dataclass
class SpanNode:
    """One reconstructed span and its children (a node of the call tree)."""

    name: str
    path: str
    depth: int
    payload: dict[str, Any]
    dur_s: float | None = None  # None when the span never closed
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        """The span's duration, or the sum of its children when unclosed."""
        if self.dur_s is not None:
            return self.dur_s
        return sum(child.total_s for child in self.children)

    @property
    def self_s(self) -> float:
        """Time spent in this span outside any child span."""
        return max(0.0, self.total_s - sum(c.total_s for c in self.children))

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "dur_s": self.dur_s,
            "self_s": self.self_s,
            "children": [c.as_dict() for c in self.children],
        }


@dataclass(frozen=True)
class WorkerSlice:
    """One worker's share of one ``pmap`` call."""

    worker: str  # the worker pid as a string, or "?" on legacy streams
    cells: int
    busy_s: float

    def idle_fraction(self, wall_s: float) -> float:
        if wall_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_s / wall_s)


@dataclass
class PmapCall:
    """Utilization analytics for one ``pmap_start``..``pmap_finish`` frame."""

    fn: str
    n_cells: int
    n_executed: int
    n_cache_hits: int
    workers: int
    mode: str
    wall_s: float
    cell_durations: dict[int, float] = field(default_factory=dict)
    worker_slices: list[WorkerSlice] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return float(sum(self.cell_durations.values()))

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds (0..1)."""
        capacity = self.workers * self.wall_s
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_s / capacity)

    @property
    def median_cell_s(self) -> float:
        return _median(list(self.cell_durations.values()))

    @property
    def p95_cell_s(self) -> float:
        return _percentile(list(self.cell_durations.values()), 0.95)

    def stragglers(self, factor: float = STRAGGLER_FACTOR) -> list[dict[str, Any]]:
        """Cells whose duration exceeds ``factor`` x the median cell time."""
        median = self.median_cell_s
        if median <= 0:
            return []
        return [
            {"index": i, "dur_s": d, "ratio": d / median}
            for i, d in sorted(self.cell_durations.items())
            if d > factor * median
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "fn": self.fn,
            "n_cells": self.n_cells,
            "n_executed": self.n_executed,
            "n_cache_hits": self.n_cache_hits,
            "workers": self.workers,
            "mode": self.mode,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "median_cell_s": self.median_cell_s,
            "p95_cell_s": self.p95_cell_s,
            "stragglers": self.stragglers(),
            "per_worker": [
                {
                    "worker": w.worker,
                    "cells": w.cells,
                    "busy_s": w.busy_s,
                    "idle_fraction": w.idle_fraction(self.wall_s),
                }
                for w in self.worker_slices
            ],
        }


@dataclass
class ClusterContention:
    """Contention analytics for one simulated cluster run.

    All times are deterministic *simulation* hours (they ride in event
    payloads, not the volatile wall section), so these numbers are
    reproducible across hosts — the trace-side mirror of the paper's
    staged-collection remedy.
    """

    policy: str
    n_gpus: int
    n_jobs: int
    makespan: float
    busy_gpu_hours: float
    peak_queue_depth: int
    peak_queue_time: float
    mean_wait: float
    p95_wait: float
    tail_utilization: float  # utilization inside the final window
    # Reservation churn: how many times the scheduler revoked or pushed
    # back a held start-time promise (conservative/hybrid backfill under
    # priority reordering).  Zero for FIFO-ordered disciplines.
    n_preempts: int = 0

    @property
    def utilization(self) -> float:
        capacity = self.n_gpus * self.makespan
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_gpu_hours / capacity)

    def as_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "n_gpus": self.n_gpus,
            "n_jobs": self.n_jobs,
            "makespan": self.makespan,
            "utilization": self.utilization,
            "tail_utilization": self.tail_utilization,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_queue_time": self.peak_queue_time,
            "mean_wait": self.mean_wait,
            "p95_wait": self.p95_wait,
            "n_preempts": self.n_preempts,
        }


@dataclass
class CacheAttribution:
    """Cache traffic attributed to one experiment (or the run preamble)."""

    scope: str
    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "scope": self.scope,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResourceUsage:
    """Sampled resource footprint of one process across a run.

    ``cpu_s`` is the growth of the cumulative CPU counter between the
    first and last sample of the pid (procfs counters and getrusage are
    both cumulative), so it approximates CPU time spent *during* the
    sampled window.
    """

    pid: str
    role: str
    source: str
    n_samples: int
    peak_rss_bytes: float
    cpu_s: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "role": self.role,
            "source": self.source,
            "n_samples": self.n_samples,
            "peak_rss_bytes": self.peak_rss_bytes,
            "cpu_s": self.cpu_s,
        }


# ---------------------------------------------------------------------------
# Loading and validation


def _validate(records: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    for number, record in enumerate(records, start=1):
        schema = record.get("schema")
        if schema != SCHEMA_VERSION:
            raise TraceError(
                f"record {number} has event schema {schema!r}; this reader "
                f"understands schema {SCHEMA_VERSION} — re-record the run or "
                "upgrade repro"
            )
        if "kind" not in record or "seq" not in record:
            raise TraceError(f"record {number} is missing 'kind'/'seq' fields")
        out.append(dict(record))
    # Stable sort restores writer order even if concurrent appenders
    # interleaved lines; ties (distinct writers sharing seq) keep file order.
    out.sort(key=lambda r: r["seq"])
    return out


_Reader = TypeVar("_Reader", bound="_RunStreamReader")


class _RunStreamReader:
    """Load and validate one run stream: ``events.jsonl`` or ``profile.jsonl``."""

    #: The stream's file name inside a run directory.
    STREAM = ""
    #: The reader's "no stream" message; ``{path}`` is filled in.
    MISSING = ""

    def __init__(
        self,
        records: Sequence[Mapping[str, Any]],
        *,
        truncated: bool = False,
        source: str | None = None,
    ) -> None:
        self.events = _validate(records)
        self.truncated = truncated
        self.source = source

    @classmethod
    def load(cls: type[_Reader], source: str | os.PathLike) -> _Reader:
        """Read the stream from a file path or the run directory holding it."""
        stream = JsonlStream(source, name=cls.STREAM)
        try:
            records, truncated = stream.read()
        except FileNotFoundError:
            raise TraceError(cls.MISSING.format(path=stream.path)) from None
        return cls(records, truncated=truncated, source=str(stream.path))

    @classmethod
    def from_records(
        cls: type[_Reader], records: Sequence[Mapping[str, Any]]
    ) -> _Reader:
        """Wrap already-parsed records (validated the same way)."""
        return cls(records)


class TraceReader(_RunStreamReader):
    """Load one event stream and derive run analytics from it.

    Construct with :meth:`load` (a path to ``events.jsonl`` or to the run
    directory that contains it) or :meth:`from_records` (in-memory event
    dicts, e.g. from :func:`repro.obs.capture_events`).

    Examples
    --------
    >>> from repro import obs
    >>> with obs.capture_events() as events:
    ...     with obs.span("outer"):
    ...         with obs.span("inner"):
    ...             pass
    >>> reader = TraceReader.from_records(events)
    >>> [node.path for node in reader.span_tree()]
    ['outer']
    >>> [hop["path"] for hop in reader.critical_path()]
    ['outer', 'outer/inner']
    """

    STREAM = "events.jsonl"
    MISSING = "no event stream at {path}"

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> dict[str, int]:
        """Event count per kind, in first-appearance order."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts

    # -- span tree and critical path ------------------------------------

    def span_tree(self) -> list[SpanNode]:
        """Reconstruct the span forest from ``span_start``/``span_end`` pairs.

        A span left open by a truncated stream keeps ``dur_s=None`` and
        reports the sum of its children instead.
        """
        roots: list[SpanNode] = []
        stack: list[SpanNode] = []
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "span_start":
                node = SpanNode(
                    name=payload.get("span", "?"),
                    path=payload.get("path", payload.get("span", "?")),
                    depth=int(payload.get("depth", len(stack))),
                    payload={
                        k: v
                        for k, v in payload.items()
                        if k not in ("span", "path", "depth")
                    },
                )
                (stack[-1].children if stack else roots).append(node)
                stack.append(node)
            elif kind == "span_end":
                path = payload.get("path")
                # Pop to the matching span; tolerate ends whose starts were
                # lost to truncation by ignoring unmatched paths.
                while stack:
                    node = stack.pop()
                    if node.path == path:
                        wall = event.get("wall", {})
                        dur = wall.get("dur_s")
                        node.dur_s = float(dur) if dur is not None else None
                        break
        return roots

    def critical_path(self) -> list[dict[str, Any]]:
        """The heaviest root-to-leaf chain through the span tree.

        Spans on one stream run sequentially (only the coordinator emits),
        so the critical path follows, at each level, the child with the
        largest subtree duration.  Each hop reports its total and self
        time plus its fraction of the root.
        """
        roots = self.span_tree()
        if not roots:
            return []
        node = max(roots, key=lambda n: n.total_s)
        root_s = node.total_s
        hops: list[dict[str, Any]] = []
        while True:
            hops.append(
                {
                    "path": node.path,
                    "dur_s": node.total_s,
                    "self_s": node.self_s,
                    "fraction": node.total_s / root_s if root_s > 0 else 0.0,
                }
            )
            if not node.children:
                return hops
            node = max(node.children, key=lambda n: n.total_s)

    # -- pmap utilization -----------------------------------------------

    def pmap_calls(self) -> list[PmapCall]:
        """One :class:`PmapCall` per ``pmap_start``..``pmap_finish`` frame."""
        calls: list[PmapCall] = []
        cells: dict[int, float] = {}
        workers_of_cell: dict[int, str] = {}
        open_frame = False
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            wall = event.get("wall", {})
            if kind == "pmap_start":
                open_frame = True
                cells = {}
                workers_of_cell = {}
            elif kind == "cell_finish" and open_frame:
                index = int(payload.get("index", len(cells)))
                cells[index] = float(wall.get("dur_s", 0.0) or 0.0)
                pid = wall.get("pid")
                workers_of_cell[index] = str(pid) if pid is not None else "?"
            elif kind == "pmap_finish" and open_frame:
                open_frame = False
                by_worker: dict[str, list[float]] = {}
                for index, dur in cells.items():
                    by_worker.setdefault(workers_of_cell[index], []).append(dur)
                slices = [
                    WorkerSlice(worker=w, cells=len(durs), busy_s=sum(durs))
                    for w, durs in sorted(by_worker.items())
                ]
                calls.append(
                    PmapCall(
                        fn=payload.get("fn", "?"),
                        n_cells=int(payload.get("n_cells", len(cells))),
                        n_executed=int(payload.get("n_executed", len(cells))),
                        n_cache_hits=int(payload.get("n_cache_hits", 0)),
                        workers=int(wall.get("workers", 1) or 1),
                        mode=str(wall.get("mode", "?")),
                        wall_s=float(wall.get("wall_s", 0.0) or 0.0),
                        cell_durations=cells,
                        worker_slices=slices,
                    )
                )
        return calls

    # -- cluster contention ----------------------------------------------

    def cluster_runs(self) -> list[ClusterContention]:
        """One :class:`ClusterContention` per simulated scheduler run."""
        runs: list[ClusterContention] = []
        frame: dict[str, Any] | None = None
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "cluster_run_start":
                frame = {
                    "n_jobs": int(payload.get("n_jobs", 0)),
                    "n_gpus": int(payload.get("n_gpus", 0)),
                    "policy": str(payload.get("policy", "?")),
                    "gpus_of": {},
                    "starts": {},
                    "waits": [],
                    "intervals": [],
                    "queue_events": [],  # (t, +1 submit / -1 start)
                    "n_preempts": 0,
                }
            elif frame is None:
                continue
            elif kind == "job_submit":
                frame["gpus_of"][payload["job_id"]] = int(payload.get("n_gpus", 1))
                frame["queue_events"].append((float(payload["t"]), 1))
            elif kind == "job_start":
                frame["starts"][payload["job_id"]] = float(payload["t"])
                frame["waits"].append(float(payload.get("wait", 0.0)))
                frame["queue_events"].append((float(payload["t"]), -1))
            elif kind == "job_preempt":
                frame["n_preempts"] += 1
            elif kind == "job_finish":
                job_id = payload["job_id"]
                start = frame["starts"].get(job_id)
                if start is not None:
                    frame["intervals"].append(
                        (start, float(payload["t"]),
                         frame["gpus_of"].get(job_id, 1))
                    )
            elif kind == "cluster_run_finish":
                makespan = float(payload.get("makespan", 0.0))
                runs.append(self._fold_cluster(frame, makespan))
                frame = None
        return runs

    @staticmethod
    def _fold_cluster(
        frame: dict[str, Any], makespan: float
    ) -> ClusterContention:
        busy = sum(g * (end - start) for start, end, g in frame["intervals"])
        # Queue depth: submissions push, starts pop; starts sort first at
        # equal times so depth never counts a job both queued and running.
        depth = peak = 0
        peak_t = 0.0
        for t, delta in sorted(frame["queue_events"], key=lambda e: (e[0], e[1])):
            depth += delta
            if depth > peak:
                peak, peak_t = depth, t
        window = makespan * (1.0 - TAIL_WINDOW_FRACTION)
        tail_span = makespan - window
        tail_busy = sum(
            g * (min(end, makespan) - max(start, window))
            for start, end, g in frame["intervals"]
            if end > window
        )
        tail_capacity = frame["n_gpus"] * tail_span
        return ClusterContention(
            policy=frame["policy"],
            n_gpus=frame["n_gpus"],
            n_jobs=frame["n_jobs"],
            makespan=makespan,
            busy_gpu_hours=busy,
            peak_queue_depth=peak,
            peak_queue_time=peak_t,
            mean_wait=(
                sum(frame["waits"]) / len(frame["waits"]) if frame["waits"] else 0.0
            ),
            p95_wait=_percentile(frame["waits"], 0.95),
            tail_utilization=(
                min(1.0, tail_busy / tail_capacity) if tail_capacity > 0 else 0.0
            ),
            n_preempts=frame["n_preempts"],
        )

    # -- cache attribution ------------------------------------------------

    def cache_attribution(self) -> list[CacheAttribution]:
        """Cache hit/miss/store counts per experiment frame.

        Events outside any ``experiment_start``..``experiment_finish``
        frame are attributed to the ``"(run)"`` scope.
        """
        scopes: dict[str, CacheAttribution] = {}
        current = "(run)"

        def bucket(scope: str) -> CacheAttribution:
            if scope not in scopes:
                scopes[scope] = CacheAttribution(scope)
            return scopes[scope]

        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "experiment_start":
                current = str(payload.get("experiment", "?"))
            elif kind == "experiment_finish":
                current = "(run)"
            elif kind == "cache_hit":
                bucket(current).hits += 1
            elif kind == "cache_miss":
                bucket(current).misses += 1
            elif kind == "cache_store":
                bucket(current).stores += 1
        return list(scopes.values())

    # -- resource usage ----------------------------------------------------

    def resource_usage(self) -> list[ResourceUsage]:
        """Per-pid peak RSS and CPU growth from ``resource_sample`` events.

        Workers are distinguished from the coordinator by the ``role``
        the sampler stamped on each sample (``worker`` pids come from the
        pmap pool roster).  Returns one entry per pid, coordinator first.
        """
        per_pid: dict[str, dict[str, Any]] = {}
        for event in self.events:
            if event["kind"] != "resource_sample":
                continue
            wall = event.get("wall", {})
            pid = str(wall.get("pid", "?"))
            slot = per_pid.setdefault(
                pid,
                {
                    "role": str(wall.get("role", "?")),
                    "source": str(wall.get("source", "?")),
                    "n": 0,
                    "peak_rss": 0.0,
                    "cpu_first": None,
                    "cpu_last": None,
                },
            )
            slot["n"] += 1
            slot["peak_rss"] = max(
                slot["peak_rss"], float(wall.get("rss_bytes", 0.0) or 0.0)
            )
            cpu = wall.get("cpu_s")
            if cpu is not None:
                if slot["cpu_first"] is None:
                    slot["cpu_first"] = float(cpu)
                slot["cpu_last"] = float(cpu)

        def order(item: tuple[str, dict[str, Any]]) -> tuple[int, str]:
            return (0 if item[1]["role"] == "coordinator" else 1, item[0])

        out: list[ResourceUsage] = []
        for pid, slot in sorted(per_pid.items(), key=order):
            first, last = slot["cpu_first"], slot["cpu_last"]
            out.append(
                ResourceUsage(
                    pid=pid,
                    role=slot["role"],
                    source=slot["source"],
                    n_samples=slot["n"],
                    peak_rss_bytes=slot["peak_rss"],
                    cpu_s=(last - first) if first is not None else 0.0,
                )
            )
        return out

    def span_resources(self) -> dict[str, dict[str, Any]]:
        """Peak RSS attributed to the innermost span open at each sample.

        Samples arriving outside any span are attributed to ``"(run)"``.
        Only the coordinator's own samples count toward a span (worker
        processes outlive span boundaries), so this answers "which region
        of the run was resident memory highest in?".
        """
        open_paths: list[str] = []
        out: dict[str, dict[str, Any]] = {}
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "span_start":
                open_paths.append(payload.get("path", payload.get("span", "?")))
            elif kind == "span_end":
                path = payload.get("path")
                if path in open_paths:
                    del open_paths[open_paths.index(path):]
            elif kind == "resource_sample":
                wall = event.get("wall", {})
                if wall.get("role") not in (None, "coordinator"):
                    continue
                scope = open_paths[-1] if open_paths else "(run)"
                slot = out.setdefault(
                    scope, {"n_samples": 0, "peak_rss_bytes": 0.0}
                )
                slot["n_samples"] += 1
                slot["peak_rss_bytes"] = max(
                    slot["peak_rss_bytes"],
                    float(wall.get("rss_bytes", 0.0) or 0.0),
                )
        return out

    # -- experiments and summary ------------------------------------------

    def experiment_timings(self) -> dict[str, dict[str, Any]]:
        """Per-experiment wall time and verdict from the run framing events."""
        out: dict[str, dict[str, Any]] = {}
        for event in self.events:
            if event["kind"] != "experiment_finish":
                continue
            payload = event.get("payload", {})
            exp = str(payload.get("experiment", "?"))
            out[exp] = {
                "wall_s": float(event.get("wall", {}).get("dur_s", 0.0) or 0.0),
                "passed": payload.get("passed"),
            }
        return out

    def summary(self) -> dict[str, Any]:
        """The whole analysis as one JSON-able document."""
        calls = self.pmap_calls()
        total_cells = sum(c.n_cells for c in calls)
        executed = sum(c.n_executed for c in calls)
        utilizations = [c.utilization for c in calls if c.wall_s > 0]
        return {
            "schema": SCHEMA_VERSION,
            "source": self.source,
            "n_events": len(self.events),
            "truncated": self.truncated,
            "kinds": self.kinds(),
            "experiments": self.experiment_timings(),
            "critical_path": self.critical_path(),
            "pmap": {
                "n_calls": len(calls),
                "n_cells": total_cells,
                "n_executed": executed,
                "n_cache_hits": sum(c.n_cache_hits for c in calls),
                "mean_utilization": (
                    sum(utilizations) / len(utilizations) if utilizations else 0.0
                ),
                "n_stragglers": sum(len(c.stragglers()) for c in calls),
                "calls": [c.as_dict() for c in calls],
            },
            "cluster": [run.as_dict() for run in self.cluster_runs()],
            "cache": [a.as_dict() for a in self.cache_attribution()],
            "resources": {
                "per_pid": [u.as_dict() for u in self.resource_usage()],
                "per_span": self.span_resources(),
            },
        }


# ---------------------------------------------------------------------------
# Text renderers (used by ``repro trace``; returned, never printed)


def render_summary(reader: TraceReader) -> str:
    """The headline view: stream shape, experiments, cache attribution."""
    blocks: list[str] = []
    head = Table(["field", "value"], title="trace summary", decimals=4)
    head.add_row(["source", reader.source or "(in-memory)"])
    head.add_row(["events", len(reader)])
    head.add_row(["truncated tail", reader.truncated])
    for kind, count in reader.kinds().items():
        head.add_row([f"kind: {kind}", count])
    blocks.append(head.render())

    timings = reader.experiment_timings()
    if timings:
        exps = Table(["experiment", "wall s", "passed"],
                     title="experiments", decimals=3)
        for exp, info in timings.items():
            passed = info["passed"]
            exps.add_row([exp, info["wall_s"],
                          "-" if passed is None else passed])
        blocks.append(exps.render())

    attribution = reader.cache_attribution()
    if any(a.lookups or a.stores for a in attribution):
        cache = Table(["scope", "hits", "misses", "stores", "hit rate"],
                      title="cache attribution", decimals=3)
        for a in attribution:
            cache.add_row([a.scope, a.hits, a.misses, a.stores, a.hit_rate])
        blocks.append(cache.render())
    return "\n\n".join(blocks)


def render_utilization(reader: TraceReader) -> str:
    """Per-pmap-call worker utilization plus cluster contention tables."""
    blocks: list[str] = []
    calls = reader.pmap_calls()
    if calls:
        table = Table(
            ["fn", "cells", "workers", "mode", "wall s", "busy s",
             "util", "p95 cell s", "stragglers"],
            title="pmap utilization", decimals=3,
        )
        for call in calls:
            table.add_row([
                call.fn.rsplit(".", 1)[-1], call.n_cells, call.workers,
                call.mode, call.wall_s, call.busy_s, call.utilization,
                call.p95_cell_s, len(call.stragglers()),
            ])
        blocks.append(table.render())
        workers = Table(
            ["fn", "worker", "cells", "busy s", "idle frac"],
            title="per-worker timeline", decimals=3,
        )
        for call in calls:
            for w in call.worker_slices:
                workers.add_row([
                    call.fn.rsplit(".", 1)[-1], w.worker, w.cells,
                    w.busy_s, w.idle_fraction(call.wall_s),
                ])
        if workers.rows:
            blocks.append(workers.render())
    runs = reader.cluster_runs()
    if runs:
        table = Table(
            ["policy", "jobs", "GPUs", "makespan h", "util",
             "tail util", "peak queue", "p95 wait h", "preempts"],
            title="cluster contention", decimals=3,
        )
        for run in runs:
            table.add_row([
                run.policy, run.n_jobs, run.n_gpus, run.makespan,
                run.utilization, run.tail_utilization,
                run.peak_queue_depth, run.p95_wait, run.n_preempts,
            ])
        blocks.append(table.render())
    usage = reader.resource_usage()
    if usage:
        table = Table(
            ["pid", "role", "source", "samples", "peak RSS MB", "cpu s"],
            title="resource usage (sampled)", decimals=3,
        )
        for u in usage:
            table.add_row([
                u.pid, u.role, u.source, u.n_samples,
                u.peak_rss_bytes / (1024 * 1024), u.cpu_s,
            ])
        blocks.append(table.render())
        spans = reader.span_resources()
        if spans:
            table = Table(
                ["span", "samples", "peak RSS MB"],
                title="peak RSS by span", decimals=3,
            )
            for path, slot in sorted(
                spans.items(),
                key=lambda kv: kv[1]["peak_rss_bytes"], reverse=True,
            ):
                table.add_row([
                    path, slot["n_samples"],
                    slot["peak_rss_bytes"] / (1024 * 1024),
                ])
            blocks.append(table.render())
    if not blocks:
        return "no pmap, cluster, or resource events in this trace"
    return "\n\n".join(blocks)


def render_critical_path(reader: TraceReader) -> str:
    """The dominant root-to-leaf span chain as a table."""
    hops = reader.critical_path()
    if not hops:
        return "no spans in this trace"
    table = Table(["span path", "total s", "self s", "of root"],
                  title="critical path", decimals=3)
    for hop in hops:
        table.add_row([
            hop["path"], hop["dur_s"] if hop["dur_s"] is not None else 0.0,
            hop["self_s"], f"{100 * hop['fraction']:.0f}%",
        ])
    return table.render()


# ---------------------------------------------------------------------------
# Profile analytics: the read side of repro.obs.profile


@dataclass
class Hotspot:
    """One function's aggregated cost across a profile stream.

    Weights are approximate CPU seconds: each stack capture contributes
    its sampling interval.  ``self_weight``
    counts only samples whose *leaf* frame is this function (exclusive
    time); ``total_weight`` counts every sample the function appears in
    anywhere on the stack (inclusive time, recursion-safe).
    """

    func: str
    file: str
    line: int
    self_weight: float = 0.0
    total_weight: float = 0.0
    # Exclusive weight split per sampled process, keyed "role:pid" —
    # the per-worker view of where a pmap-heavy span burns its time.
    by_process: dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """The line-number-free identity ``file:func`` (edits above a
        function do not change it)."""
        return f"{self.file}:{self.func}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "func": self.func,
            "file": self.file,
            "line": self.line,
            "self_s": self.self_weight,
            "total_s": self.total_weight,
            "by_process": dict(sorted(self.by_process.items())),
        }


class ProfileReader(_RunStreamReader):
    """Load one ``profile.jsonl`` stream and derive hotspot analytics.

    Construct with :meth:`load` (a path to ``profile.jsonl`` or to the
    run directory that contains it) or :meth:`from_records` (in-memory
    records from a :class:`repro.obs.events.EventLog`).  The stream holds
    ``profile_sample`` stacks from the sampling profiler, coordinator and
    pmap workers interleaved.

    Span filters accept a path prefix: ``span="E6"`` matches samples
    stamped ``E6`` *and* any nested span under it (``E6/sweep/...``), so
    one experiment's whole subtree aggregates naturally.
    """

    STREAM = PROFILE_LOG_NAME
    MISSING = (
        "no profile stream at {path} — record one with "
        "'repro run ... --profile'"
    )

    @cached_property
    def samples(self) -> list[dict[str, Any]]:
        return [e for e in self.events if e["kind"] == PROFILE_KIND]

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mode(self) -> str:
        """``sampling``, or ``empty`` when no ticks landed."""
        return "sampling" if self.samples else "empty"

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    # -- span bookkeeping --------------------------------------------------

    @staticmethod
    def _span_of(wall: Mapping[str, Any]) -> str:
        return str(wall.get("span") or "") or "(run)"

    @staticmethod
    def _span_matches(span_filter: str | None, span: str) -> bool:
        if span_filter is None:
            return True
        return span == span_filter or span.startswith(span_filter + "/")

    @staticmethod
    def _sample_weight(wall: Mapping[str, Any]) -> float:
        interval = wall.get("interval_s")
        try:
            weight = float(interval) if interval is not None else 0.0
        except (TypeError, ValueError):
            weight = 0.0
        return weight if weight > 0 else 1.0

    def spans(self) -> dict[str, float]:
        """Exclusive weight per span path, heaviest first.

        Span paths are the *innermost* paths the profiler stamped;
        experiment-level aggregation happens via the prefix-matching
        span filter on :meth:`hotspots`.
        """
        out: dict[str, float] = {}
        for event in self.samples:
            wall = event.get("wall", {})
            span = self._span_of(wall)
            out[span] = out.get(span, 0.0) + self._sample_weight(wall)
        return dict(sorted(out.items(), key=lambda kv: kv[1], reverse=True))

    def total_weight(self, span: str | None = None) -> float:
        """The sum of exclusive weights inside a span subtree (or the run)."""
        return sum(
            weight
            for path, weight in self.spans().items()
            if self._span_matches(span, path)
        )

    # -- hotspots ----------------------------------------------------------

    def hotspots(self, span: str | None = None) -> list[Hotspot]:
        """Per-function costs inside a span subtree, largest self first."""
        table: dict[tuple[str, str, int], Hotspot] = {}

        def slot(func: str, file: str, line: int) -> Hotspot:
            key = (func, file, line)
            if key not in table:
                table[key] = Hotspot(func=func, file=file, line=line)
            return table[key]

        for event in self.samples:
            wall = event.get("wall", {})
            if not self._span_matches(span, self._span_of(wall)):
                continue
            stack = wall.get("stack") or []
            if not stack:
                continue
            weight = self._sample_weight(wall)
            process = f"{wall.get('role', '?')}:{wall.get('pid', '?')}"
            func, file, line = stack[-1]
            leaf = slot(str(func), str(file), int(line))
            leaf.self_weight += weight
            leaf.by_process[process] = leaf.by_process.get(process, 0.0) + weight
            seen: set[tuple[str, str, int]] = set()
            for func, file, line in stack:
                frame = (str(func), str(file), int(line))
                if frame in seen:
                    continue  # recursion: inclusive time counts once
                seen.add(frame)
                slot(*frame).total_weight += weight
        return sorted(
            table.values(),
            key=lambda h: (-h.self_weight, -h.total_weight, h.key),
        )

    def processes(self, span: str | None = None) -> list[dict[str, Any]]:
        """Per-process sample totals: the coordinator/worker split."""
        out: dict[str, dict[str, Any]] = {}
        for event in self.samples:
            wall = event.get("wall", {})
            if not self._span_matches(span, self._span_of(wall)):
                continue
            key = f"{wall.get('role', '?')}:{wall.get('pid', '?')}"
            slot = out.setdefault(
                key,
                {
                    "pid": str(wall.get("pid", "?")),
                    "role": str(wall.get("role", "?")),
                    "n_samples": 0,
                    "weight_s": 0.0,
                },
            )
            slot["n_samples"] += 1
            slot["weight_s"] += self._sample_weight(wall)

        def order(slot: dict[str, Any]) -> tuple[int, str]:
            return (0 if slot["role"] == "coordinator" else 1, slot["pid"])

        return sorted(out.values(), key=order)

    # -- flamegraph export -------------------------------------------------

    def collapsed(self, span: str | None = None) -> dict[str, float]:
        """Collapsed stacks: ``"frame;frame;frame" -> weight``."""
        out: dict[str, float] = {}
        for event in self.samples:
            wall = event.get("wall", {})
            if not self._span_matches(span, self._span_of(wall)):
                continue
            stack = wall.get("stack") or []
            if not stack:
                continue
            label = ";".join(
                f"{func} ({file}:{line})".replace(";", ",")
                for func, file, line in stack
            )
            out[label] = out.get(label, 0.0) + self._sample_weight(wall)
        return out

    def flamegraph(self, span: str | None = None) -> str:
        """The stream in collapsed-stack format (flamegraph.pl / speedscope).

        One ``stack count`` line per unique stack; counts are sample
        counts scaled back out of the weights, so the file stays valid
        for tooling that expects integers.
        """
        lines = []
        for label, weight in sorted(self.collapsed(span).items()):
            count = max(1, round(weight / DEFAULT_FLAME_UNIT_S))
            lines.append(f"{label} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- summary -----------------------------------------------------------

    def summary(self, top: int = 10) -> dict[str, Any]:
        """The whole profile analysis as one JSON-able document."""
        total = self.total_weight()
        return {
            "schema": SCHEMA_VERSION,
            "source": self.source,
            "mode": self.mode,
            "truncated": self.truncated,
            "n_samples": self.n_samples,
            "total_weight_s": total,
            "spans": self.spans(),
            "processes": self.processes(),
            "hotspots": [
                {
                    **h.as_dict(),
                    "self_frac": h.self_weight / total if total > 0 else 0.0,
                    "total_frac": h.total_weight / total if total > 0 else 0.0,
                }
                for h in self.hotspots()[:top]
            ],
        }


#: Weight-to-count unit for flamegraph export: one count per default
#: sampler tick, so a 5 ms-interval run exports its raw sample counts.
DEFAULT_FLAME_UNIT_S = 0.005


def render_hotspots(
    profile: ProfileReader, *, top: int = 10, span: str | None = None
) -> str:
    """Per-span hotspot tables (``repro profile``); returned, never printed."""
    blocks: list[str] = []
    head = Table(["field", "value"], title="profile summary", decimals=4)
    head.add_row(["source", profile.source or "(in-memory)"])
    head.add_row(["mode", profile.mode])
    head.add_row(["samples", profile.n_samples])
    head.add_row(["truncated tail", profile.truncated])
    if span is not None:
        head.add_row(["span filter", span])
    blocks.append(head.render())

    if profile.mode == "empty":
        blocks.append(
            "no profile ticks landed — the run finished inside one sampling "
            "interval; lower the interval (--profile 0.001)"
        )
        return "\n\n".join(blocks)

    spans = {
        path: weight
        for path, weight in profile.spans().items()
        if profile._span_matches(span, path)
    }
    run_total = sum(spans.values())
    if len(spans) > 1:
        table = Table(["span", "self s", "share"], title="spans", decimals=3)
        for path, weight in spans.items():
            table.add_row([
                path, weight,
                f"{100 * weight / run_total:.0f}%" if run_total > 0 else "-",
            ])
        blocks.append(table.render())

    total = profile.total_weight(span)
    hotspots = profile.hotspots(span)[:top]
    if hotspots:
        table = Table(
            ["function", "file:line", "self s", "self %", "total %", "procs"],
            title="hotspots" if span is None else f"hotspots — {span}",
            decimals=3,
        )
        for h in hotspots:
            table.add_row([
                h.func, f"{h.file}:{h.line}", h.self_weight,
                f"{100 * h.self_weight / total:.1f}" if total > 0 else "-",
                f"{100 * min(1.0, h.total_weight / total):.1f}"
                if total > 0 else "-",
                len(h.by_process),
            ])
        blocks.append(table.render())

    processes = profile.processes(span)
    if len(processes) > 1:
        table = Table(
            ["process", "role", "samples", "weight s", "share"],
            title="per-process split", decimals=3,
        )
        for slot in processes:
            table.add_row([
                slot["pid"], slot["role"], slot["n_samples"], slot["weight_s"],
                f"{100 * slot['weight_s'] / total:.0f}%" if total > 0 else "-",
            ])
        blocks.append(table.render())
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Serve-side stitching: access log ⋈ run directories


class ServeTraceIndex:
    """Stitch a serve root's access log to its run directories.

    The serving stack leaves two artifact families under one root: the
    ``access.jsonl`` request/terminal lines
    (:class:`repro.serve.access.AccessLog`) and one run directory per
    executed run (``events.jsonl``/``manifest.json``/``results.json``).
    This index joins them on ``trace_id``: an HTTP request line names the
    trace and the run it touched; the run's terminal line names *every*
    trace that joined the execution (coalescing); the run directory's
    events carry the same trace_id in their volatile half.  Stitching is
    therefore a two-hop walk — trace_id → terminal line → run directory —
    with the request lines as the per-hop timing source.

    Powers ``repro trace --serve <root>`` (per-request timelines) and
    ``repro serve-report`` (fleet aggregates).
    """

    def __init__(
        self,
        records: Sequence[Mapping[str, Any]],
        *,
        root: str | os.PathLike | None = None,
        truncated: bool = False,
        source: str | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.truncated = truncated
        self.source = source
        self.requests = [
            dict(r) for r in records if r.get("kind") == "request"
        ]
        self.terminals = [
            dict(r) for r in records if r.get("kind") == "terminal"
        ]
        self._terminal_by_run = {
            str(t["run_id"]): t for t in self.terminals if "run_id" in t
        }

    @classmethod
    def load(cls, source: str | os.PathLike) -> "ServeTraceIndex":
        """Read ``access.jsonl`` (``.1`` segment first) from a serve root
        directory or file path."""
        stream = JsonlStream(source, name=ACCESS_LOG_NAME)
        try:
            records, truncated = stream.read()
        except FileNotFoundError:
            raise TraceError(f"no access log at {stream.path}") from None
        return cls(records, root=stream.path.parent, truncated=truncated,
                   source=str(stream.path))

    def __len__(self) -> int:
        return len(self.requests) + len(self.terminals)

    # -- lookups ------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Every trace_id the log names, in first-appearance order."""
        seen: dict[str, None] = {}
        for request in self.requests:
            trace_id = request.get("trace_id")
            if trace_id:
                seen.setdefault(str(trace_id), None)
        for terminal in self.terminals:
            for trace_id in terminal.get("trace_ids", ()):
                seen.setdefault(str(trace_id), None)
        return list(seen)

    def requests_of(self, trace_id: str) -> list[dict[str, Any]]:
        """The HTTP request lines recorded under one trace."""
        return [r for r in self.requests if r.get("trace_id") == trace_id]

    def terminal_of(self, trace_id: str) -> dict[str, Any] | None:
        """The terminal line of the run a trace's work landed on.

        A coalesced joiner finds the *shared* run here: its trace_id is
        in the run's ``trace_ids`` even though another trace started it.
        """
        for terminal in self.terminals:
            if trace_id in terminal.get("trace_ids", ()):
                return terminal
        for request in self.requests_of(trace_id):
            run_id = request.get("run_id")
            if run_id in self._terminal_by_run:
                return self._terminal_by_run[run_id]
        return None

    def run_dir_of(self, run_id: str) -> Path | None:
        if self.root is None:
            return None
        candidate = self.root / run_id
        return candidate if candidate.is_dir() else None

    # -- stitching -----------------------------------------------------------

    def stitch(self) -> dict[str, dict[str, Any]]:
        """Join every run directory under the root to its trace_ids.

        Returns ``run_id -> {"trace_ids", "state", "run_dir",
        "has_events"}`` covering (a) every run the access log names and
        (b) every run directory on disk that holds an ``events.jsonl``,
        so a run nothing stitched to shows up with empty ``trace_ids`` —
        the CI gate asserts there are none.
        """
        out: dict[str, dict[str, Any]] = {}

        def entry(run_id: str) -> dict[str, Any]:
            if run_id not in out:
                run_dir = self.run_dir_of(run_id)
                out[run_id] = {
                    "trace_ids": [],
                    "state": None,
                    "run_dir": None if run_dir is None else str(run_dir),
                    "has_events": bool(
                        run_dir is not None
                        and (run_dir / "events.jsonl").exists()
                    ),
                }
            return out[run_id]

        for terminal in self.terminals:
            run_id = terminal.get("run_id")
            if not run_id:
                continue
            slot = entry(str(run_id))
            slot["state"] = terminal.get("state")
            for trace_id in terminal.get("trace_ids", ()):
                if trace_id not in slot["trace_ids"]:
                    slot["trace_ids"].append(trace_id)
        for request in self.requests:
            run_id, trace_id = request.get("run_id"), request.get("trace_id")
            if not run_id or not trace_id:
                continue
            # Cache answers never create a directory; only stitch
            # requests that touched a materialized run.
            if self.run_dir_of(str(run_id)) is None:
                continue
            slot = entry(str(run_id))
            if trace_id not in slot["trace_ids"]:
                slot["trace_ids"].append(trace_id)
        if self.root is not None and self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if child.is_dir() and (child / "events.jsonl").exists():
                    entry(child.name)
        return dict(sorted(out.items()))

    def timeline(self, trace_id: str) -> dict[str, Any]:
        """One request's end-to-end timeline: queue → execute → respond.

        Inlines the run's span critical path when the stitched run
        directory holds a readable event stream.
        """
        requests = self.requests_of(trace_id)
        terminal = self.terminal_of(trace_id)
        run_id = (
            str(terminal["run_id"]) if terminal and terminal.get("run_id")
            else next(
                (str(r["run_id"]) for r in requests if r.get("run_id")), None
            )
        )
        timeline: dict[str, Any] = {
            "trace_id": trace_id,
            "requests": requests,
            "terminal": terminal,
            "run_id": run_id,
            "state": terminal.get("state") if terminal else None,
            "queue_latency_s": (
                terminal.get("queue_latency_s") if terminal else None
            ),
            "execute_wall_s": terminal.get("wall_s") if terminal else None,
            "coalesced": any(r.get("coalesced") for r in requests),
            "cached": any(r.get("cached") for r in requests),
            "critical_path": None,
            "hotspots": None,
        }
        run_dir = self.run_dir_of(run_id) if run_id else None
        if run_dir is not None and (run_dir / "events.jsonl").exists():
            try:
                timeline["critical_path"] = (
                    TraceReader.load(run_dir).critical_path()
                )
            except TraceError:
                pass  # a torn worker stream must not sink the timeline
        if run_dir is not None and (run_dir / PROFILE_LOG_NAME).exists():
            # The run executed under --profile: inline its top hotspots so
            # `repro trace --serve` answers "why was this request slow"
            # down to the function level.
            try:
                profile = ProfileReader.load(run_dir)
                total = profile.total_weight()
                timeline["hotspots"] = [
                    {
                        **h.as_dict(),
                        "self_frac": (
                            h.self_weight / total if total > 0 else 0.0
                        ),
                    }
                    for h in profile.hotspots()[:5]
                ]
            except TraceError:
                pass  # a torn profile stream must not sink the timeline
        return timeline

    # -- fleet aggregates ----------------------------------------------------

    def fleet_report(self) -> dict[str, Any]:
        """Fleet-level aggregates over the whole access log.

        Request/queue latency histograms (with p50/p95/p99), HTTP status
        and run-state breakdowns, per-experiment cache/error attribution,
        and the stitching table — one JSON-able document, the same data
        ``repro serve-report`` renders as text.
        """
        from repro.obs.metrics import Histogram

        latency = Histogram("serve.request_latency")
        queue_latency = Histogram("serve.queue_latency")
        by_status: dict[str, int] = {}
        per_exp: dict[str, dict[str, int]] = {}

        def exp_slot(exp_id: str) -> dict[str, int]:
            return per_exp.setdefault(
                exp_id,
                {"requests": 0, "cache_hits": 0, "coalesced": 0, "failed": 0},
            )

        n_cached = n_coalesced = 0
        for request in self.requests:
            code = str(request.get("status"))
            by_status[code] = by_status.get(code, 0) + 1
            wall = request.get("wall_s")
            if isinstance(wall, (int, float)) and wall >= 0:
                # A held ``?wait=`` is waiting, not handling.
                held = request.get("wait_s")
                held = held if isinstance(held, (int, float)) else 0.0
                latency.observe(max(0.0, float(wall) - held))
            cached = bool(request.get("cached"))
            coalesced = bool(request.get("coalesced"))
            n_cached += cached
            n_coalesced += coalesced
            for exp_id in request.get("ids", ()):
                slot = exp_slot(str(exp_id))
                slot["requests"] += 1
                slot["cache_hits"] += cached
                slot["coalesced"] += coalesced
        runs_by_state: dict[str, int] = {}
        for terminal in self.terminals:
            state = str(terminal.get("state"))
            runs_by_state[state] = runs_by_state.get(state, 0) + 1
            queued = terminal.get("queue_latency_s")
            if isinstance(queued, (int, float)) and queued >= 0:
                queue_latency.observe(float(queued))
            if state == "failed":
                for exp_id in terminal.get("ids", ()):
                    exp_slot(str(exp_id))["failed"] += 1
        stitched = self.stitch()
        unstitched = [
            run_id for run_id, slot in stitched.items()
            if not slot["trace_ids"]
        ]
        return {
            "source": self.source,
            "truncated": self.truncated,
            "requests": {
                "total": len(self.requests),
                "by_status": dict(sorted(by_status.items())),
                "cached": n_cached,
                "coalesced": n_coalesced,
            },
            "request_latency": latency.snapshot(),
            "queue_latency": queue_latency.snapshot(),
            "runs": {
                "total": len(self.terminals),
                "by_state": dict(sorted(runs_by_state.items())),
            },
            "experiments": dict(sorted(per_exp.items())),
            "stitching": {
                "n_run_dirs": len(stitched),
                "n_trace_ids": len(self.trace_ids()),
                "unstitched": unstitched,
                "runs": {
                    run_id: slot["trace_ids"]
                    for run_id, slot in stitched.items()
                },
            },
        }


def _render_latency_table(name: str, snapshot: Mapping[str, Any]) -> str:
    """One histogram snapshot as a table: quantiles, then the buckets."""
    table = Table(["field", "value"], title=name, decimals=4)
    table.add_row(["count", snapshot["count"]])
    table.add_row(["sum s", snapshot["sum"]])
    for quantile in ("p50", "p95", "p99"):
        table.add_row([quantile, snapshot[quantile]])
    for bucket in snapshot["buckets"]:
        le = bucket["le"]
        label = le if isinstance(le, str) else f"{le:g}"
        table.add_row([f"le {label}", bucket["count"]])
    return table.render()


def render_serve_trace(
    index: ServeTraceIndex, trace_id: str | None = None
) -> str:
    """Per-request timelines from a serve root's stitched access log.

    Without ``trace_id``: one row per trace — the fleet at a glance.
    With it: that request's hop table, queue/execute timing, and the
    run's critical path inlined.
    """
    if trace_id is None:
        ids = index.trace_ids()
        if not ids:
            return "no traces in this access log"
        table = Table(
            ["trace id", "requests", "run", "state", "queue s",
             "exec s", "flags"],
            title="serve traces", decimals=3,
        )
        for tid in ids:
            timeline = index.timeline(tid)
            flags = ",".join(
                flag for flag, on in (
                    ("cached", timeline["cached"]),
                    ("coalesced", timeline["coalesced"]),
                ) if on
            ) or "-"
            table.add_row([
                tid, len(timeline["requests"]),
                timeline["run_id"] or "-", timeline["state"] or "-",
                timeline["queue_latency_s"]
                if timeline["queue_latency_s"] is not None else "-",
                timeline["execute_wall_s"]
                if timeline["execute_wall_s"] is not None else "-",
                flags,
            ])
        return table.render()
    timeline = index.timeline(trace_id)
    if not timeline["requests"] and timeline["terminal"] is None:
        return f"trace {trace_id} not found in this access log"
    blocks: list[str] = []
    head = Table(["field", "value"], title=f"trace {trace_id}", decimals=4)
    head.add_row(["run", timeline["run_id"] or "-"])
    head.add_row(["state", timeline["state"] or "-"])
    head.add_row(["queue latency s", timeline["queue_latency_s"]
                  if timeline["queue_latency_s"] is not None else "-"])
    head.add_row(["execute wall s", timeline["execute_wall_s"]
                  if timeline["execute_wall_s"] is not None else "-"])
    head.add_row(["cached", timeline["cached"]])
    head.add_row(["coalesced", timeline["coalesced"]])
    if timeline["terminal"] is not None:
        head.add_row([
            "joined traces",
            len(timeline["terminal"].get("trace_ids", ())),
        ])
    blocks.append(head.render())
    if timeline["requests"]:
        hops = Table(
            ["method", "path", "status", "wall s"],
            title="request hops", decimals=4,
        )
        for request in timeline["requests"]:
            hops.add_row([
                request.get("method", "?"), request.get("path", "?"),
                request.get("status", "-"), request.get("wall_s", 0.0),
            ])
        blocks.append(hops.render())
    if timeline["critical_path"]:
        path = Table(["span path", "total s", "of root"],
                     title="run critical path", decimals=3)
        for hop in timeline["critical_path"]:
            path.add_row([
                hop["path"], hop["dur_s"] if hop["dur_s"] is not None else 0.0,
                f"{100 * hop['fraction']:.0f}%",
            ])
        blocks.append(path.render())
    if timeline["hotspots"]:
        spots = Table(["function", "file:line", "self s", "self %"],
                      title="run hotspots", decimals=3)
        for h in timeline["hotspots"]:
            spots.add_row([
                h["func"], f"{h['file']}:{h['line']}", h["self_s"],
                f"{100 * h['self_frac']:.1f}",
            ])
        blocks.append(spots.render())
    return "\n\n".join(blocks)


def render_serve_report(index: ServeTraceIndex) -> str:
    """The fleet aggregates as text tables (``repro serve-report``)."""
    report = index.fleet_report()
    blocks: list[str] = []
    head = Table(["field", "value"], title="serve fleet report", decimals=3)
    head.add_row(["source", report["source"] or "(in-memory)"])
    head.add_row(["requests", report["requests"]["total"]])
    for code, count in report["requests"]["by_status"].items():
        head.add_row([f"http {code}", count])
    head.add_row(["cache answers", report["requests"]["cached"]])
    head.add_row(["coalesced joins", report["requests"]["coalesced"]])
    head.add_row(["executed runs", report["runs"]["total"]])
    for state, count in report["runs"]["by_state"].items():
        head.add_row([f"runs {state}", count])
    head.add_row(["run dirs stitched",
                  report["stitching"]["n_run_dirs"]
                  - len(report["stitching"]["unstitched"])])
    head.add_row(["run dirs unstitched",
                  len(report["stitching"]["unstitched"])])
    blocks.append(head.render())
    if report["request_latency"]["count"]:
        blocks.append(_render_latency_table(
            "request latency (s)", report["request_latency"]
        ))
    if report["queue_latency"]["count"]:
        blocks.append(_render_latency_table(
            "queue latency (s)", report["queue_latency"]
        ))
    if report["experiments"]:
        table = Table(
            ["experiment", "requests", "cache hits", "coalesced", "failed"],
            title="per-experiment breakdown", decimals=3,
        )
        for exp_id, slot in report["experiments"].items():
            table.add_row([
                exp_id, slot["requests"], slot["cache_hits"],
                slot["coalesced"], slot["failed"],
            ])
        blocks.append(table.render())
    return "\n\n".join(blocks)
