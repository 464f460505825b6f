"""Nested span tracing over the event stream.

A span is a named region of a run — ``span("sweep")`` around a whole
sweep, ``span("epoch")`` around one training epoch — that emits paired
``span_start`` / ``span_end`` events and feeds its duration into the
metrics registry.  Spans nest: the emitted ``path`` is the ``/``-joined
chain of open spans, so the JSONL stream reconstructs the call tree
without any side table.

Durations are measured with :func:`time.perf_counter` (monotonic) and
travel in the volatile ``wall`` section of the event record, never in the
deterministic payload — so span-instrumented code keeps the
event-sequence determinism contract and cache keys stay free of timing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.events import emit
from repro.obs.metrics import get_metrics

__all__ = ["span", "current_span_path"]

# Open spans, one stack per thread id: a run in another thread must not
# nest under this thread's spans, and the CPU profiler's sampler thread
# reads the stack of the thread it profiles.  A forked child (a pmap pool
# worker) starts with none: its forking thread's ident would otherwise
# hand it the parent's open spans as its own.
_stacks: dict[int, list[str]] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_stacks.clear)


def current_span_path(thread_id: int | None = None) -> str:
    """The ``/``-joined path of open spans ('' at top level) on
    ``thread_id`` (default: the calling thread)."""
    if thread_id is None:
        thread_id = threading.get_ident()
    return "/".join(_stacks.get(thread_id, ()))


@contextmanager
def span(name: str, **payload: Any) -> Iterator[str]:
    """Trace the enclosed block as one named span.

    Extra keyword arguments ride in the payload of both endpoint events;
    they must be deterministic values (no timings — those belong to the
    ``wall`` section, which the span fills in itself).

    Examples
    --------
    >>> with span("sweep", cells=4) as path:
    ...     with span("report"):
    ...         pass
    >>> path
    'sweep'
    """
    if not name:
        raise ValueError("span name must be non-empty")
    thread_id = threading.get_ident()
    stack = _stacks.setdefault(thread_id, [])
    path = "/".join(stack + [name])
    emit(
        "span_start",
        payload={"span": name, "path": path, "depth": len(stack), **payload},
    )
    stack.append(name)
    start = time.perf_counter()
    try:
        yield path
    finally:
        dur_s = time.perf_counter() - start
        stack.pop()
        if not stack:
            _stacks.pop(thread_id, None)
        emit(
            "span_end",
            payload={"span": name, "path": path, "depth": len(stack), **payload},
            wall={"dur_s": dur_s},
        )
        get_metrics().timer(f"span.{path}").observe(dur_s)
