"""Per-span CPU profiling: where the time goes *inside* a span.

Spans (:mod:`repro.obs.spans`) say which region of a run was slow; this
module says which *function* inside it.  ROADMAP item 3 demands
order-of-magnitude wins in the ``repro.nn``/``repro.autotune`` hot paths,
and a perf claim without a function-level trail is guesswork — so every
profiled run records per-function cost as a machine-checkable artifact
(``profile.jsonl`` beside ``events.jsonl``) that ``repro profile`` can
read back and render as a hotspot table or a flamegraph.

The sampling profiler
---------------------
:class:`SamplingProfiler` (``repro run --profile``) is a stdlib-only
daemon thread that periodically captures the target thread's Python
stack via :func:`sys._current_frames` and emits one ``profile_sample``
record per tick.  Each sample carries the executing pid/role, the
profiled thread's open span path
(:func:`repro.obs.spans.current_span_path`), and the stack as
``[func, file, line]`` frames, root first.  Cheap enough to leave on
for a whole run (CI gates the overhead at <5%).  For exact call counts,
run the stdlib profiler instead: ``python -m cProfile -m repro run ...``.

Worker processes
----------------
:func:`repro.parallel.pmap` workers run with their event routing off,
but the profile stream is *volatile by construction*, so workers may
append to it directly: the coordinator publishes the profile file via
``REPRO_OBS_PROFILE_FILE`` (and the span path enclosing the pool via
``REPRO_OBS_PROFILE_SPAN`` at pool-creation time), and the pool
initializer calls :func:`attach_worker_profiler` to start a sampler
inside each worker.  A worker's sample carries that inherited path
joined with the worker's own open spans, so an experiment that runs in
a worker is sampled under its own span.  Appends are atomic lines
(:class:`repro.obs.stream.JsonlStream`), so any number of processes share
one ``profile.jsonl``.

Determinism contract
--------------------
Profile samples never touch ``events.jsonl``: they live in their own
stream, every measured quantity rides in the volatile ``wall`` half of
each record (payloads stay empty), and
:func:`repro.obs.resources.strip_samples` drops the samples from
in-memory captures.  A profiled run's stripped event stream, canonical
``results.json`` bytes, and request digest are byte-identical to an
unprofiled run's — the test suite enforces all three.

Knobs: ``--profile [sampling|SEC]`` on ``repro run``, or
``REPRO_OBS_PROFILE`` (``1``/``sampling`` for the default cadence, or a
float interval in seconds); any other value is a ``ValueError``.
Profiling needs a run directory: the samples land in its
``profile.jsonl``.  ``REPRO_OBS_DISABLE=1`` silences profiling like
every other instrument.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Callable

from repro.obs.events import EventLog, disabled
from repro.obs.spans import current_span_path

__all__ = [
    "PROFILE_KIND",
    "PROFILE_LOG_NAME",
    "PROFILE_ENV",
    "PROFILE_FILE_ENV",
    "PROFILE_SPAN_ENV",
    "DEFAULT_INTERVAL_S",
    "SamplingProfiler",
    "attach_worker_profiler",
    "resolve_profile",
    "short_file",
]

#: One periodic stack capture.
PROFILE_KIND = "profile_sample"
#: File name of the profile stream inside a run directory.
PROFILE_LOG_NAME = "profile.jsonl"

#: Default sampling cadence: 5 ms gives a seconds-long smoke experiment
#: hundreds of samples at well under the CI overhead budget.
DEFAULT_INTERVAL_S = 0.005

#: Stacks deeper than this are truncated at the root end — the leaf
#: (the executing function) is what hotspot attribution needs.
MAX_STACK_DEPTH = 80

PROFILE_ENV = "REPRO_OBS_PROFILE"
#: Published by the coordinator for the lifetime of a file-backed
#: profiled run so pool initializers can attach worker samplers.
PROFILE_FILE_ENV = "REPRO_OBS_PROFILE_FILE"
#: The span path open at pool-creation time, prefixed to worker samples.
PROFILE_SPAN_ENV = "REPRO_OBS_PROFILE_SPAN"


def resolve_profile(value: Any = None) -> tuple[str, float] | None:
    """Normalize a profile knob to ``(mode, interval_s)`` or ``None`` (off).

    ``None`` defers to the ``REPRO_OBS_PROFILE`` environment variable.
    Accepted values: ``"sampling"``/``"1"`` (default cadence), an off
    word (``"0"``/``"off"``/...), or a float — a sampling interval in
    seconds, where ``<= 0`` means off.  Anything else raises
    :class:`ValueError` naming the value, even under the
    ``REPRO_OBS_DISABLE=1`` kill switch, which otherwise turns profiling
    off like every other instrument.
    """
    name = "profile"
    if value is None:
        name, value = PROFILE_ENV, os.environ.get(PROFILE_ENV, "")
    text = str(value).strip().lower()
    if text in ("", "0", "off", "none", "false"):
        return None
    if text in ("1", "sampling", "on", "true"):
        interval = DEFAULT_INTERVAL_S
    else:
        try:
            interval = float(text)
        except ValueError:
            raise ValueError(
                f"{name} must be 'sampling' or an interval in seconds, "
                f"got {value!r}"
            ) from None
    if not interval > 0 or disabled():
        return None
    return ("sampling", interval)


def short_file(path: str) -> str:
    """The last two path components — stable across machines and checkouts."""
    parts = str(path).replace("\\", "/").split("/")
    return "/".join(parts[-2:])


def capture_stack(
    thread_ident: int, *, max_depth: int = MAX_STACK_DEPTH
) -> list[list[Any]] | None:
    """The Python stack of one thread as ``[func, file, line]`` frames.

    Root first, leaf (the currently executing function) last — the
    orientation collapsed-stack flamegraph lines use.  Returns ``None``
    when the thread has no frame (it exited between ticks).
    """
    frame = sys._current_frames().get(thread_ident)
    if frame is None:
        return None
    stack: list[list[Any]] = []
    while frame is not None and len(stack) < max_depth:
        code = frame.f_code
        stack.append([code.co_name, short_file(code.co_filename), code.co_firstlineno])
        frame = frame.f_back
    stack.reverse()
    return stack


class SamplingProfiler:
    """Daemon thread emitting periodic ``profile_sample`` records.

    Parameters
    ----------
    interval_s:
        Seconds between stack captures.
    log:
        Event sink (an :class:`EventLog` or a path).  The profiler writes
        through the log directly — never the module-level emitter — so
        samples keep flowing inside :func:`repro.obs.quiet` blocks and in
        pool workers, whose event routing is off.
    role:
        ``"coordinator"`` or ``"worker"``, stamped on every sample so the
        read side can split hotspots per process.
    span:
        A fixed span path to stamp, or ``None`` to read the profiled
        thread's live :func:`current_span_path` at each tick.
    prefix:
        The span path the process was started under (a pool worker's
        inherited path), joined before the live path.

    The profiled thread is the one that calls :meth:`start`.

    Examples
    --------
    >>> log = EventLog()
    >>> with SamplingProfiler(interval_s=0.001, log=log):
    ...     _ = sum(i * i for i in range(200_000))
    >>> all(r["kind"] == "profile_sample" for r in log.records)
    True
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        log: Any = None,
        *,
        role: str = "coordinator",
        span: str | None = None,
        prefix: str = "",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        if log is not None and not isinstance(log, EventLog):
            log = EventLog(log)
        self._log = log
        self.role = str(role)
        self.prefix = prefix
        self._span: Callable[[], str] = (
            self._live_span if span is None else (lambda: span)
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_ident: int | None = None
        self.n_samples = 0

    def _live_span(self) -> str:
        live = current_span_path(self._target_ident)
        return "/".join(part for part in (self.prefix, live) if part)

    def _tick(self) -> None:
        log, ident = self._log, self._target_ident
        if log is None or ident is None:
            return
        stack = capture_stack(ident)
        if stack is None:
            return
        self.n_samples += 1
        log.emit(
            PROFILE_KIND,
            payload={},
            wall={
                "pid": os.getpid(),
                "role": self.role,
                "span": self._span(),
                "stack": stack,
                "interval_s": self.interval_s,
            },
        )

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._tick()

    def start(self) -> "SamplingProfiler":
        """Profile the calling thread until :meth:`stop` (idempotent)."""
        if self._thread is not None:
            return self
        if self._log is None:
            from repro.obs.events import get_logger

            self._log = get_logger()
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, 100 * self.interval_s))
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Worker-side attach (called from the pmap pool initializer)


def attach_worker_profiler() -> SamplingProfiler | None:
    """Start a worker-role sampler when the coordinator published one.

    Reads ``REPRO_OBS_PROFILE_FILE`` (the shared ``profile.jsonl``,
    appended with atomic lines so any number of workers interleave
    safely), the interval from ``REPRO_OBS_PROFILE``, and the span path
    enclosing the pool from ``REPRO_OBS_PROFILE_SPAN``, which prefixes
    the worker's own live spans.  A no-op unless the coordinator is
    running a file-backed sampling profile.
    """
    path = os.environ.get(PROFILE_FILE_ENV, "")
    if not path:
        return None
    # The coordinator publishes PROFILE_FILE_ENV only for file-backed
    # sampling runs, with PROFILE_ENV holding the resolved interval.
    try:
        interval = float(os.environ.get(PROFILE_ENV, ""))
    except ValueError:
        interval = DEFAULT_INTERVAL_S
    if interval <= 0:
        interval = DEFAULT_INTERVAL_S
    profiler = SamplingProfiler(
        interval,
        log=EventLog(path),
        role="worker",
        prefix=os.environ.get(PROFILE_SPAN_ENV, ""),
    )
    profiler.start()
    # Stop the sampler as the worker exits: a thread killed by the exit
    # mid-write would leave a torn line inside the shared file.
    from multiprocessing import util

    util.Finalize(None, profiler.stop, exitpriority=0)
    return profiler
