"""Deterministic fan-out execution of experiment cells.

:func:`pmap` is the single execution primitive behind every multi-trial
loop in the library: it applies a function to a list of configurations,
optionally pairing each with an independent child seed, and returns the
results **in submission order**.  Determinism is achieved by construction
rather than by luck:

* all randomness a cell needs is decided *before* dispatch — child seeds
  come from :func:`repro.utils.rng.spawn_children`, a pure function of the
  root seed, never from worker-local state;
* workers communicate nothing back but their return value, and results are
  re-assembled by submission index, so completion order is irrelevant;
* the serial path runs the exact same ``(config, seed)`` cells through the
  exact same function.

Consequently ``pmap(fn, cfgs, seeds, workers=1)`` and ``workers=8`` are
bit-identical, which is what lets the test suite assert reproducibility
across worker counts and lets cached results be shared between serial and
parallel runs.

Process pools are used (not threads) because the hot cells are NumPy-heavy
and CPU-bound.  When the function or its arguments cannot cross a process
boundary (closures, lambdas), or ``REPRO_PARALLEL_DISABLE=1`` is set, the
runner falls back to the serial path — same results, one process — and
records the reason in the run's telemetry.

Telemetry
---------
Every ``pmap`` call narrates itself through :mod:`repro.obs`:
``pmap_start``, per-cell ``cache_hit``/``cache_miss``, paired
``cell_start``/``cell_finish``, ``cache_store``, and ``pmap_finish``
events, all emitted **from this process in submission order** regardless
of worker count or completion order.  Durations (measured inside the
executing process), the executing pid, worker counts, and the dispatch
mode travel in the volatile ``wall`` section, so the event
sequences of ``workers=1`` and ``workers=8`` runs are byte-identical once
volatile fields are stripped.  Worker processes are born with telemetry
disabled and the serial path mutes cell interiors with
:func:`repro.obs.quiet`, keeping the two paths' streams in lockstep.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro import obs
from repro.obs import profile as obs_profile
from repro.obs import resources as obs_resources
from repro.parallel.cache import ResultCache, cache_key, code_salt
from repro.utils import blas
from repro.utils.rng import spawn_children

__all__ = ["pmap", "resolve_workers"]

_DISABLE_ENV = "REPRO_PARALLEL_DISABLE"


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument to an effective worker count.

    ``None``/``0``/``1`` mean serial; the ``REPRO_PARALLEL_DISABLE=1``
    kill switch forces serial regardless of the argument.
    """
    if workers is None or workers <= 1:
        return 1
    if os.environ.get(_DISABLE_ENV, "") == "1":
        return 1
    return int(workers)


def _invoke(fn: Callable[..., Any], config: Any, seed: Any) -> Any:
    """Run one cell (module-level so it can be pickled to a worker).

    ``None`` is the "no seed" marker: it survives pickling to a worker,
    where a sentinel object would arrive as a different object.
    """
    if seed is None:
        return fn(config)
    return fn(config, seed)


def _invoke_timed(
    fn: Callable[..., Any], config: Any, seed: Any
) -> tuple[Any, int, float]:
    """Run one cell and report ``(value, worker_pid, dur_s)``.

    Measuring inside the worker gives the cell's true execution time (the
    coordinator can only observe gather latency); the pid lets trace
    analytics attribute busy time to individual workers.  Both travel in
    the volatile ``wall`` section of the cell events, outside the
    determinism contract.
    """
    start = time.perf_counter()
    value = _invoke(fn, config, seed)
    return value, os.getpid(), time.perf_counter() - start


def _worker_init() -> None:
    """Pool initializer: silence telemetry and pin BLAS to one thread.

    A forked worker inherits a running request's pin; a spawned one would
    start at the host's default thread count, so every worker pins itself.

    Cell interiors cannot emit in canonical order from workers, so the
    coordinator's per-cell events are the single record of the run.

    The CPU profiler is the one exception: its stream is volatile by
    construction (it never touches ``events.jsonl``), so when the
    coordinator published a profile file this worker self-samples into
    it — coordinators cannot capture another process's Python stacks.
    """
    os.environ["REPRO_OBS_DISABLE"] = "1"
    blas.pin_process()
    obs_profile.attach_worker_profiler()


def _describe(fn: Callable[..., Any]) -> str:
    """Stable dotted name for cache keys (partials unwrap to their base)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", fn.__class__.__name__)
    return f"{module}.{qualname}"


def _picklable(*values: Any) -> bool:
    try:
        for value in values:
            pickle.dumps(value)
        return True
    except Exception:
        return False


def pmap(
    fn: Callable[..., Any],
    configs: Sequence[Any],
    seeds: int | Sequence[int] | None = None,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    salt: str | None = None,
) -> list[Any]:
    """Apply ``fn`` to every config, deterministically, maybe in parallel.

    Parameters
    ----------
    fn:
        Called as ``fn(config, seed)`` when seeds are in play, else
        ``fn(config)``.  Must be picklable (module-level) for the parallel
        path; otherwise the serial fallback is used transparently.
    configs:
        One entry per cell, any picklable values.
    seeds:
        ``None`` (no seeding), an explicit per-cell seed list, or a single
        root ``int`` expanded to independent children via
        :func:`spawn_children` — the same children regardless of
        ``workers``, so results are reproducible under any worker count.
    workers:
        Process count; ``None``/``1`` runs serially in this process.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely, and
        fresh results are stored after execution.
    salt:
        Cache-key code salt; defaults to a hash of ``fn``'s source.

    Returns
    -------
    Results in the order of ``configs`` (never completion order).
    """
    configs = list(configs)
    n = len(configs)
    if n == 0:
        return []
    if seeds is None:
        cell_seeds: list[Any] = [None] * n
    elif isinstance(seeds, int):
        cell_seeds = list(spawn_children(seeds, n))
    else:
        cell_seeds = list(seeds)
        if len(cell_seeds) != n:
            raise ValueError(
                f"got {len(cell_seeds)} seeds for {n} configs"
            )

    fn_name = _describe(fn)
    start_s = time.perf_counter()
    obs.emit(
        "pmap_start",
        payload={
            "fn": fn_name,
            "n_cells": n,
            "seeded": seeds is not None,
            "cached": cache is not None,
        },
    )

    results: list[Any] = [None] * n
    pending: list[int] = []
    keys: list[str | None] = [None] * n
    if cache is not None:
        fn_salt = salt if salt is not None else code_salt(fn)
        for i in range(n):
            keys[i] = cache_key(fn_name, configs[i], cell_seeds[i], fn_salt)
            hit, value = cache.get(keys[i])
            if hit:
                results[i] = value
                obs.emit("cache_hit", payload={"index": i, "key": keys[i]})
            else:
                pending.append(i)
                obs.emit("cache_miss", payload={"index": i, "key": keys[i]})
    else:
        pending = list(range(n))

    mode = "cached"
    fallback: str | None = None
    n_workers = 1
    if pending:
        n_workers = resolve_workers(workers)
        executed: dict[int, Any] | None = None
        durations: dict[int, float] = {}
        cell_pids: dict[int, int] = {}
        if n_workers > 1 and len(pending) > 1 and _picklable(
            fn, *(configs[i] for i in pending[:1])
        ):
            try:
                if os.environ.get(obs_profile.PROFILE_FILE_ENV):
                    # Workers inherit env at fork: stamp the span path
                    # enclosing this pmap call so their profile samples
                    # attribute to the right region of the run.
                    os.environ[obs_profile.PROFILE_SPAN_ENV] = (
                        obs.current_span_path()
                    )
                with ProcessPoolExecutor(
                    max_workers=n_workers, initializer=_worker_init
                ) as pool:
                    futures = {
                        i: pool.submit(
                            _invoke_timed, fn, configs[i], cell_seeds[i]
                        )
                        for i in pending
                    }
                    # The submit loop spawned the pool's processes, so
                    # their pids exist now; publish them for the lifetime
                    # of the gather so an active ResourceSampler can
                    # attribute RSS/CPU to individual workers.
                    roster = tuple(sorted(getattr(pool, "_processes", None) or ()))
                    obs_resources.note_worker_pids(roster)
                    try:
                        executed = {}
                        for i, future in futures.items():
                            executed[i], cell_pids[i], durations[i] = future.result()
                    finally:
                        obs_resources.forget_worker_pids(roster)
                mode = "pool"
            except (BrokenProcessPool, pickle.PicklingError, TypeError, AttributeError) as exc:
                # Pool-level failure (unpicklable payload, dead worker):
                # fall through to the serial path, which by the determinism
                # contract produces the identical results.
                executed = None
                fallback = type(exc).__name__
        elif n_workers > 1:
            fallback = "unpicklable" if len(pending) > 1 else "single_cell"
        if executed is None:
            mode = "serial"
            executed = {}
            own_pid = os.getpid()
            for i in pending:
                cell_start = time.perf_counter()
                with obs.quiet():
                    executed[i] = _invoke(fn, configs[i], cell_seeds[i])
                durations[i] = time.perf_counter() - cell_start
                cell_pids[i] = own_pid
        # Per-cell events are replayed in submission order whatever the
        # completion order was — the determinism contract of the stream.
        for i in pending:
            obs.emit("cell_start", payload={"index": i, "seed": cell_seeds[i]})
            obs.emit(
                "cell_finish",
                payload={"index": i},
                wall={"dur_s": durations.get(i, 0.0), "pid": cell_pids.get(i)},
            )
        for i, value in executed.items():
            results[i] = value
            if cache is not None and keys[i] is not None:
                cache.put(keys[i], value)
                obs.emit("cache_store", payload={"index": i, "key": keys[i]})

    wall_s = time.perf_counter() - start_s
    obs.emit(
        "pmap_finish",
        payload={
            "fn": fn_name,
            "n_cells": n,
            "n_executed": len(pending),
            "n_cache_hits": n - len(pending),
        },
        wall={
            "wall_s": wall_s,
            "workers": n_workers,
            "mode": mode,
            "fallback": fallback,
        },
    )
    metrics = obs.get_metrics()
    metrics.counter("pmap.calls").inc()
    metrics.counter("pmap.cells").inc(n)
    metrics.counter("pmap.cells_executed").inc(len(pending))
    if fallback is not None:
        metrics.counter("pmap.serial_fallbacks").inc()
    metrics.timer("pmap.wall_s").observe(wall_s)

    return results
