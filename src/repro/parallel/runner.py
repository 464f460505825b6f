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

``workers=None`` is the automatic mode.  Cells run serially in this
process until the call has spent :data:`POOL_AFTER_S` of cell time; if
two or more cells are still left then, the rest go to a pool of
``min(usable CPUs, cells left)`` workers.  A pool costs tens of
milliseconds to start, so calls made of millisecond cells never pay for
one, and a call whose cells prove long gets every core.  Pool workers
exit on their own when the process that started them dies.

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
import threading
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

__all__ = ["POOL_AFTER_S", "pmap", "resolve_workers", "visible_cpus"]

_DISABLE_ENV = "REPRO_PARALLEL_DISABLE"

#: Serial cell time after which an automatic (``workers=None``) call
#: hands its remaining cells to a pool: about five times the 35–57 ms a
#: pool takes to start after a full catalog import on a 2-vCPU host.
POOL_AFTER_S = 0.25

#: How often a pool worker checks that the process that started it lives.
_ORPHAN_POLL_S = 0.2


def visible_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument to an effective worker count.

    ``None``/``0``/``1`` mean serial; the ``REPRO_PARALLEL_DISABLE=1``
    kill switch forces serial regardless of the argument.  (:func:`pmap`
    reads ``None`` as its automatic mode before it gets here.)
    """
    if workers is None or workers <= 1 or _disabled():
        return 1
    return int(workers)


def _disabled() -> bool:
    return os.environ.get(_DISABLE_ENV, "") == "1"


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


def _exit_with_parent(parent_pid: int) -> None:
    """End this worker once ``parent_pid`` is no longer its parent.

    A parent killed by a signal never shuts its pool down, and an idle
    worker would otherwise block on the call queue forever.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _worker_init(parent_pid: int) -> None:
    """Pool initializer: silence telemetry and pin BLAS to one thread.

    A forked worker inherits a running request's pin; a spawned one would
    start at the host's default thread count, so every worker pins itself.

    Cell interiors cannot emit in canonical order from workers, so the
    coordinator's per-cell events are the single record of the run.

    The CPU profiler is the one exception: its stream is volatile by
    construction (it never touches ``events.jsonl``), so when the
    coordinator published a profile file this worker self-samples into
    it — coordinators cannot capture another process's Python stacks.

    A daemon thread watches ``parent_pid`` and ends the worker when the
    coordinator dies without shutting the pool down.
    """
    os.environ["REPRO_OBS_DISABLE"] = "1"
    blas.pin_process()
    obs_profile.attach_worker_profiler()
    threading.Thread(
        target=_exit_with_parent, args=(parent_pid,),
        name="repro-pool-orphan-watch", daemon=True,
    ).start()


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


def _run_pool(
    fn: Callable[..., Any],
    configs: Sequence[Any],
    cell_seeds: Sequence[Any],
    indices: Sequence[int],
    n_workers: int,
) -> dict[int, tuple[Any, int, float]]:
    """Run the ``indices`` cells on a fresh pool: ``{i: (value, pid, dur_s)}``.

    Raises what the pool raises; the caller falls back to the serial path.
    """
    if os.environ.get(obs_profile.PROFILE_FILE_ENV):
        # Workers inherit env at fork: stamp the span path enclosing this
        # pmap call so their profile samples attribute to the right
        # region of the run.
        os.environ[obs_profile.PROFILE_SPAN_ENV] = obs.current_span_path()
    with ProcessPoolExecutor(
        max_workers=n_workers, initializer=_worker_init,
        initargs=(os.getpid(),),
    ) as pool:
        futures = {
            i: pool.submit(_invoke_timed, fn, configs[i], cell_seeds[i])
            for i in indices
        }
        # The submit loop spawned the pool's processes, so their pids
        # exist now; publish them for the lifetime of the gather so an
        # active ResourceSampler can attribute RSS/CPU to individual
        # workers.
        roster = tuple(sorted(getattr(pool, "_processes", None) or ()))
        obs_resources.note_worker_pids(roster)
        try:
            return {i: future.result() for i, future in futures.items()}
        finally:
            obs_resources.forget_worker_pids(roster)


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
        Process count.  ``1`` (or ``0``) runs serially in this process;
        ``N`` runs on a pool of ``N`` from the first cell.  ``None`` runs
        cells serially until the call has spent :data:`POOL_AFTER_S`
        (~0.25 s), then the rest on a pool of the usable CPUs.
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
    serial_cells = 0
    if pending:
        executed: dict[int, Any] = {}
        durations: dict[int, float] = {}
        cell_pids: dict[int, int] = {}
        own_pid = os.getpid()

        def run_here(i: int) -> None:
            cell_start = time.perf_counter()
            with obs.quiet():
                executed[i] = _invoke(fn, configs[i], cell_seeds[i])
            durations[i] = time.perf_counter() - cell_start
            cell_pids[i] = own_pid

        ran_here = 0
        if workers is not None:
            n_workers = resolve_workers(workers)
        elif not _disabled() and (cpus := visible_cpus()) > 1:
            # Automatic mode: pay for a pool only once this call's cells
            # have proven long enough to amortise one.
            spent = 0.0
            while len(pending) - ran_here > 1 and spent < POOL_AFTER_S:
                run_here(pending[ran_here])
                spent += durations[pending[ran_here]]
                ran_here += 1
            if len(pending) - ran_here > 1:
                n_workers = min(cpus, len(pending) - ran_here)
        todo = pending[ran_here:]
        pooled: dict[int, tuple[Any, int, float]] | None = None
        if n_workers > 1 and len(todo) > 1 and _picklable(fn, configs[todo[0]]):
            try:
                pooled = _run_pool(fn, configs, cell_seeds, todo, n_workers)
            except (BrokenProcessPool, pickle.PicklingError, TypeError, AttributeError) as exc:
                # Pool-level failure (unpicklable payload, dead worker):
                # fall through to the serial path, which by the determinism
                # contract produces the identical results.
                fallback = type(exc).__name__
        elif n_workers > 1:
            fallback = "unpicklable" if len(todo) > 1 else "single_cell"
        if pooled is not None:
            mode = "pool"
            for i in todo:
                executed[i], cell_pids[i], durations[i] = pooled[i]
        else:
            mode = "serial"
            for i in todo:
                run_here(i)
        serial_cells = ran_here if pooled is not None else len(pending)
        # Per-cell events are replayed in submission order whatever the
        # completion order was — the determinism contract of the stream.
        for i in pending:
            obs.emit("cell_start", payload={"index": i, "seed": cell_seeds[i]})
            obs.emit(
                "cell_finish",
                payload={"index": i},
                wall={"dur_s": durations[i], "pid": cell_pids[i]},
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
            "serial_cells": serial_cells,
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
