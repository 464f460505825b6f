"""repro.obs — structured run telemetry for every layer of the library.

Write side — three coordinated instruments, all no-ops until switched on:

* **Events** (:mod:`repro.obs.events`) — schema-versioned JSONL records
  appended atomically, split into a deterministic payload half and a
  volatile timestamp/wall half so serial and parallel runs of the same
  experiment emit byte-identical sequences once ``ts``/``wall`` are
  stripped.
* **Spans** (:mod:`repro.obs.spans`) — nested ``span_start``/``span_end``
  pairs with monotonic durations, reconstructing the run's call tree from
  the stream alone.
* **Metrics** (:mod:`repro.obs.metrics`) — process-local counters,
  gauges, and timing histograms with a text report renderer and a
  Prometheus exposition-format exporter
  (:mod:`repro.obs.prometheus`).

All four JSONL streams (``events.jsonl``, ``profile.jsonl``, the serve
``access.jsonl`` and ``runs_index.jsonl``) share one append/read contract,
:class:`repro.obs.stream.JsonlStream`.

Read side — what the streams are *for*:

* **Trace analytics** (:mod:`repro.obs.trace`) — :class:`TraceReader`
  loads a run's ``events.jsonl`` and derives the span tree, critical
  path, per-worker utilization, cluster contention, and per-experiment
  cache attribution (the ``repro trace`` subcommand).
* **Perf baselines** (:mod:`repro.obs.baseline`) — a JSON store of
  median-of-k experiment wall times with a noise-tolerant regression
  verdict (the ``repro bench`` subcommand and its CI gate).
* **Run history** (:mod:`repro.obs.history`) — :class:`RunRegistry`
  indexes every recorded run under a root, :class:`RunDiff` compares two
  runs structurally, and :func:`detect_flakiness` audits repeated runs
  for values that are not bit-identical (the ``repro runs`` subcommand).
* **Live watch** (:mod:`repro.obs.watch`) — follow an in-progress run's
  ``events.jsonl`` and render progress and resource usage in place (the
  ``repro watch`` subcommand).
* **Resource sampling** (:mod:`repro.obs.resources`) — an opt-in daemon
  thread emitting ``resource_sample`` events (RSS/CPU of the coordinator
  and pmap workers) into the run's event log; :class:`TraceReader`
  attributes peak RSS per worker and per span.
* **CPU profiling** (:mod:`repro.obs.profile`) — an opt-in sampling
  profiler writing per-span stack captures of the coordinator and pmap
  workers to ``profile.jsonl`` beside the event stream;
  :class:`ProfileReader` derives per-span hotspot tables and
  collapsed-stack flamegraphs (the ``repro profile`` subcommand).

Knobs: ``REPRO_OBS_DIR`` points the default logger at a directory
(``events.jsonl`` inside it); ``REPRO_OBS_DISABLE=1`` silences
everything.  With neither set, telemetry costs one dict lookup per emit.
"""

from repro.obs.baseline import (
    BaselineEntry,
    BaselineStore,
    Comparison,
    RegressionReport,
)
from repro.obs.events import (
    SCHEMA_VERSION,
    VOLATILE_FIELDS,
    VOLATILE_KINDS,
    EventLog,
    capture_events,
    configure,
    emit,
    enabled,
    get_logger,
    quiet,
    read_events,
    strip_volatile,
)
from repro.obs.history import (
    FlakinessReport,
    HistoryError,
    RunDiff,
    RunRecord,
    RunRegistry,
    detect_flakiness,
)
from repro.obs.context import (
    TRACEPARENT_HEADER,
    TraceContext,
    bind,
    current,
    new_context,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
    TimingHistogram,
    get_metrics,
)
from repro.obs.profile import (
    SamplingProfiler,
    attach_worker_profiler,
    resolve_profile,
)
from repro.obs.prometheus import escape_label_value, render_prometheus
from repro.obs.resources import (
    ResourceSampler,
    forget_worker_pids,
    note_worker_pids,
    sample_processes,
    strip_samples,
)
from repro.obs.spans import current_span_path, span
from repro.obs.trace import (
    ACCESS_LOG_NAME,
    PROFILE_LOG_NAME,
    Hotspot,
    ProfileReader,
    ResourceUsage,
    ServeTraceIndex,
    TraceError,
    TraceReader,
)
from repro.obs.watch import EventFollower, WatchState, watch_run

__all__ = [
    "SCHEMA_VERSION",
    "EventLog",
    "capture_events",
    "configure",
    "emit",
    "enabled",
    "get_logger",
    "quiet",
    "read_events",
    "strip_volatile",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Metrics",
    "TimingHistogram",
    "get_metrics",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "bind",
    "current",
    "new_context",
    "current_span_path",
    "span",
    "ACCESS_LOG_NAME",
    "PROFILE_LOG_NAME",
    "TraceError",
    "TraceReader",
    "ProfileReader",
    "Hotspot",
    "ServeTraceIndex",
    "ResourceUsage",
    "BaselineEntry",
    "BaselineStore",
    "Comparison",
    "RegressionReport",
    "VOLATILE_FIELDS",
    "VOLATILE_KINDS",
    "SamplingProfiler",
    "attach_worker_profiler",
    "resolve_profile",
    "render_prometheus",
    "escape_label_value",
    "RunRecord",
    "RunRegistry",
    "RunDiff",
    "FlakinessReport",
    "HistoryError",
    "detect_flakiness",
    "ResourceSampler",
    "sample_processes",
    "note_worker_pids",
    "forget_worker_pids",
    "strip_samples",
    "EventFollower",
    "WatchState",
    "watch_run",
]
