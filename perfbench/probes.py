"""Where the traced pass wraps ``repro``: one installer per process role.

Every wrapper goes around a public function or method of the layer it
names (plus ``ClusterSimulator._emit_preempt``, the one hook through
which the engine reports a revoked reservation, used only as a count).
Install before the program forks: the serve workers and ``pmap`` pools
inherit the wrapped classes.  Calls made inside ``pmap`` pool processes
are not recorded; the pool's own cost is read from ``events.jsonl``.
"""

from __future__ import annotations

import os
from typing import Any

from tracing import Tracer, patch_function, patch_method


def _load_catalog() -> None:
    """Import every experiment module, so module-level aliases exist
    before :func:`patch_function` rebinds them."""
    from repro.exp.registry import get_experiment, resolve_ids

    for exp_id in resolve_ids(["all"]):
        get_experiment(exp_id)


def _conv_flop(layer: Any, out_shape: tuple) -> float:
    """Multiply-adds of one forward conv, computed from shapes (x2 FLOP)."""
    positions = 1
    for dim in out_shape[:-1]:
        positions *= dim
    taps = layer.kernel_size ** (len(out_shape) - 2)
    return 2.0 * positions * taps * layer.in_channels * layer.out_channels


def install_common(tracer: Tracer) -> None:
    """api, parallel, obs, exp and nn: the layers every process runs."""
    _load_catalog()
    from repro.api import execution
    from repro.api.catalog import SERVE_STORE_DIRNAME
    from repro.api.types import RunRequest
    from repro.exp.registry import Experiment
    from repro.nn import conv, optim
    from repro.parallel import runner
    from repro.parallel.cache import ResultCache
    from repro.serve.access import AccessLog

    patch_method(tracer, RunRequest, "digest", "api.digest")
    patch_method(tracer, RunRequest, "from_dict", "api.from_dict")
    patch_function(tracer, execution, "execute_request", "api.execute")
    patch_method(tracer, Experiment, "run", lambda self, *a, **k: f"exp.{self.id}")

    def cache_kind(cache: Any) -> str:
        return "store" if cache.root.name == SERVE_STORE_DIRNAME else "cells"

    def on_get(result: Any, _dur: float, cache: Any, *_a: Any, **_k: Any) -> None:
        kind = cache_kind(cache)
        tracer.count(f"{kind}.lookups")
        if result[0]:
            tracer.count(f"{kind}.hits")

    patch_method(tracer, ResultCache, "get",
                 lambda cache, *a, **k: f"parallel.{cache_kind(cache)}.get",
                 keep=False, hook=on_get)
    patch_method(tracer, ResultCache, "put",
                 lambda cache, *a, **k: f"parallel.{cache_kind(cache)}.put",
                 keep=False)
    patch_function(tracer, runner, "pmap", "parallel.pmap")
    patch_method(tracer, AccessLog, "write", "obs.access.write", keep=False)

    def on_fwd(out: Any, _dur: float, layer: Any, *_a: Any, **_k: Any) -> None:
        tracer.count("nn.conv_fwd_flop", _conv_flop(layer, out.shape))

    def on_bwd(_res: Any, _dur: float, layer: Any, grad: Any, *_a: Any,
               **_k: Any) -> None:
        # Weight and input gradients: two GEMMs the size of the forward.
        tracer.count("nn.conv_bwd_flop", 2.0 * _conv_flop(layer, grad.shape))

    for cls in (conv.Conv1D, conv.Conv2D):
        patch_method(tracer, cls, "forward", "nn.conv.forward", keep=False,
                     hook=on_fwd)
        patch_method(tracer, cls, "backward", "nn.conv.backward", keep=False,
                     hook=on_bwd)
    for cls in vars(optim).values():
        if (isinstance(cls, type) and issubclass(cls, optim.Optimizer)
                and "step" in cls.__dict__ and cls is not optim.Optimizer):
            patch_method(tracer, cls, "step", "nn.optim.step", keep=False)


def install_server(tracer: Tracer, spans_dir: str) -> None:
    """The serve process: HTTP handler, queue, and the forked workers."""
    from repro.serve import queue, server

    for verb in ("do_GET", "do_POST"):
        patch_method(tracer, server._Handler, verb, "serve.http.handle")
    patch_method(tracer, queue.JobQueue, "submit", "serve.queue.submit")
    patch_method(tracer, queue.JobQueue, "results", "serve.queue.results")
    original = queue.worker_main

    def worker_main(tasks: Any, events: Any, root: str) -> None:
        # A forked worker starts from its own empty record and writes it
        # out when the pool stops it.
        tracer.reset()
        try:
            original(tasks, events, root)
        finally:
            tracer.dump(os.path.join(spans_dir, f"worker-{os.getpid()}.json"))

    queue.worker_main = worker_main


def install_client(tracer: Tracer) -> None:
    """The load generator: one span per HTTP call, response sizes."""
    from repro.serve import client

    patch_method(tracer, client.ServeClient, "_request", "serve.client.call")
    original = client._parse

    def parse(raw: bytes) -> Any:
        tracer.count("http.response_bytes", len(raw))
        tracer.count("http.responses")
        return original(raw)

    client._parse = parse


def install_cluster(tracer: Tracer) -> None:
    """The DES: engine loop, policy planning, calendar queries, preempts."""
    from repro.cluster import calendar, engine, scheduler, scheduling

    def on_run(fired: int, *_a: Any, **_k: Any) -> None:
        tracer.count("cluster.events_fired", fired)

    patch_method(tracer, engine.EventQueue, "run", "cluster.engine.run",
                 hook=on_run)
    for cls in vars(scheduling).values():
        if (isinstance(cls, type) and issubclass(cls, scheduling.SchedulingPolicy)
                and "plan" in cls.__dict__):
            patch_method(tracer, cls, "plan", "cluster.policy.plan", keep=False)
    patch_method(tracer, calendar.ReservationCalendar, "earliest_fit",
                 "cluster.calendar.earliest_fit", keep=False)
    patch_method(tracer, calendar.ReservationCalendar, "copy",
                 "cluster.calendar.copy", keep=False)

    def on_preempt(*_a: Any, **_k: Any) -> None:
        tracer.count("cluster.preempts")

    patch_method(tracer, scheduler.ClusterSimulator, "_emit_preempt",
                 "cluster.engine.preempt", keep=False, hook=on_preempt)
