"""In-memory span tracing installed from outside ``repro``.

The traced pass wraps public entry points of each layer — class methods
and module functions — with :meth:`Tracer.wrap`.  Nothing in
``src/repro`` changes: the wrappers are attributes swapped in by this
module, before the program forks any worker, so forked workers inherit
them.

Each span records its name, start, end, parent span and request id (the
``repro.obs.context`` trace id bound on the calling thread, which the
serve stack carries from client to server to worker).  Self time is
accumulated online: a span's duration minus the durations of the spans
nested directly inside it on the same thread.  Spans stay in memory and
are written out by :meth:`Tracer.dump` when the run ends.  Very frequent
leaf calls (calendar queries, cache lookups) can be marked ``keep=False``:
they still count towards every aggregate and their parent's self time,
but no per-call record is kept.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

#: Stored span records per process beyond which only aggregates grow.
MAX_SPANS = 200_000

#: The layers a span name's first component maps to.
LAYERS = ("serve", "api", "parallel", "obs", "exp", "nn", "cluster")


class _Agg:
    __slots__ = ("count", "total", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_s = 0.0


class Tracer:
    """Span recorder for one process (threads each keep their own stack).

    Spans that start before :attr:`since` (a ``perf_counter`` reading,
    comparable across processes on one host) are not recorded, which
    keeps set-up work out of the measured window.  ``since`` lives in
    shared memory, so processes forked from the tracer's owner see it
    move.
    """

    def __init__(self, since: float = 0.0) -> None:
        import multiprocessing

        self.since = multiprocessing.RawValue("d", since)
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.aggregates: dict[str, _Agg] = {}
        #: Counters the wrappers' hooks add to.
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable[..., Any],
        *,
        keep: bool = True,
        hook: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``name`` may be a callable of the call's arguments (for spans
        named after their subject, such as ``exp.E8``).  ``hook(result,
        duration_s, *args, **kwargs)`` runs after each successful call to
        record counts the span alone cannot.
        """
        from repro.obs import context as trace_context

        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]  # span id, child time
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                label = name(*args, **kwargs) if callable(name) else name
                tracer._record(label, frame, parent, start, end, keep,
                               trace_context.current())
            if hook is not None and start >= tracer.since.value:
                hook(result, dur, *args, **kwargs)
            return result

        return traced

    def _record(self, label: str, frame: list, parent: list | None,
                start: float, end: float, keep: bool, ctx: Any) -> None:
        if start < self.since.value:
            return
        dur = end - start
        self_s = max(0.0, dur - frame[1])
        with self._lock:
            agg = self.aggregates.get(label)
            if agg is None:
                agg = self.aggregates[label] = _Agg()
            agg.count += 1
            agg.total += dur
            agg.self_s += self_s
            if not keep:
                return
            if len(self.spans) >= MAX_SPANS:
                self.dropped += 1
                return
            self.spans.append((
                label, start, end, self.pid, frame[0],
                parent[0] if parent is not None else None,
                ctx.trace_id if ctx is not None else None, self_s,
            ))

    # -- output ---------------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """Everything recorded, as plain data (crosses pipes and files)."""
        with self._lock:
            return {
                "spans": list(self.spans),
                "dropped": self.dropped,
                "aggregates": {
                    k: (a.count, a.total, a.self_s)
                    for k, a in self.aggregates.items()
                },
                "counts": dict(self.counts),
            }

    def dump(self, path: str) -> None:
        data = self.export()
        with open(path, "w") as fh:
            json.dump(data, fh)


def merge(exports: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold several processes' exports into one."""
    out: dict[str, Any] = {
        "spans": [], "dropped": 0, "aggregates": {}, "counts": {},
    }
    for data in exports:
        out["spans"].extend(data["spans"])
        out["dropped"] += data["dropped"]
        for key, (count, total, self_s) in data["aggregates"].items():
            c, t, s = out["aggregates"].get(key, (0, 0.0, 0.0))
            out["aggregates"][key] = (c + count, t + total, s + self_s)
        for key, value in data["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
    return out


def write_spans(data: dict[str, Any], path: str) -> None:
    """Write merged spans as JSON lines: name, start, end, pid, id, parent,
    request id, self seconds."""
    fields = ("name", "start", "end", "pid", "id", "parent", "request",
              "self_s")
    with open(path, "w") as fh:
        for span in data["spans"]:
            fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def layer_table(data: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per-layer call count, total seconds and self seconds."""
    table = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
             for layer in LAYERS}
    for name, (count, total, self_s) in data["aggregates"].items():
        row = table[name.split(".", 1)[0]]  # span names start with a layer
        row["calls"] += count
        row["total_s"] += total
        row["self_s"] += self_s
    return table


def agg(data: dict[str, Any], name: str) -> tuple[int, float, float]:
    """``(count, total_s, self_s)`` of one span name (zeros when absent)."""
    return tuple(data["aggregates"].get(name, (0, 0.0, 0.0)))  # type: ignore[return-value]


def mean_ms(data: dict[str, Any], name: str) -> float:
    count, total, _ = agg(data, name)
    return 1000.0 * total / count if count else 0.0


# -- installing wrappers --------------------------------------------------------


def patch_method(tracer: Tracer, cls: type, attr: str, name: Any,
                 **kwargs: Any) -> None:
    """Wrap ``cls.attr`` (plain method or classmethod) in place."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, **kwargs)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **kwargs))


def patch_function(tracer: Tracer, module: Any, attr: str, name: Any,
                   **kwargs: Any) -> None:
    """Wrap a module-level function and rebind every already imported
    ``from module import fn`` alias of it across loaded ``repro`` modules."""
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
