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
two or more cells are still left then, the rest go to a pool of up to
``min(usable CPUs, cells left)`` workers.  A pool costs tens of
milliseconds to start, so calls made of millisecond cells never pay for
one, and a call whose cells prove long gets every free core.  Pool
workers exit on their own when the process that started them dies.

One CPU budget
--------------
Automatic calls share one budget of :func:`visible_cpus` process tokens
across the whole process tree: a process running cells holds one.  A
pool of ``k`` workers takes ``k - 1`` more (its caller blocks, handing
its own token to a worker) and gives one back each time a worker runs
out of cells.  The top-level call finds the host free.  An automatic
call made inside a pool worker, once past :data:`POOL_AFTER_S`, takes
what tokens are free without blocking; with none, it moves its cells to
one worker on its own token and, while cells wait, checks the budget
every :data:`_TOKEN_POLL_S`, starting another worker the moment a token
comes free rather than at the end of a long cell.  So an experiment's
grid running in a worker takes a core as soon as a sibling's lane
drains, without oversubscribing the host, and no more than
``visible_cpus()`` processes run cells at once.  Explicit worker counts
ask the budget for nothing.

:func:`run_cells` is the automatic execution without the telemetry and
cache layers: :func:`repro.api.execute_request` fans a request's
experiments out through it.

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
volatile fields are stripped.  Worker processes run with their event
routing off and the serial path mutes cell interiors with
:func:`repro.obs.quiet`, keeping the two paths' streams in lockstep; a
cell that wants its interior kept records it into its own log and
returns it (as :func:`repro.api.execute_request`'s experiment cells do).
Whatever a pool cell records in :func:`repro.obs.get_metrics` travels
back with its value and is merged into this process's registry.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.obs import profile as obs_profile
from repro.obs import resources as obs_resources
from repro.parallel.cache import ResultCache, cache_key, code_salt
from repro.utils import blas
from repro.utils.rng import spawn_children

__all__ = ["POOL_AFTER_S", "pmap", "resolve_workers", "run_cells", "visible_cpus"]

_DISABLE_ENV = "REPRO_PARALLEL_DISABLE"

#: Serial cell time after which an automatic (``workers=None``) call
#: hands its remaining cells to a pool: about five times the 35–57 ms a
#: pool takes to start after a full catalog import on a 2-vCPU host.
POOL_AFTER_S = 0.25

#: How often a pool worker checks that the process that started it lives.
_ORPHAN_POLL_S = 0.2

#: How often a pooled automatic call with cells still waiting for a worker
#: checks the budget for a token that came free.
_TOKEN_POLL_S = 0.02

#: The token budget this process shares with the tree above it: set in
#: pool workers, ``None`` in a process no pool started.
_budget: Any = None
#: The span path the pool that started this worker was created under.
_span_prefix = ""

#: Pool-level failures after which the remaining cells run serially;
#: by the determinism contract the results are the same.
_POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError, TypeError, AttributeError)


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
) -> tuple[Any, int, float, obs.Metrics]:
    """Run one pool cell: ``(value, worker_pid, dur_s, metrics)``.

    Measuring inside the worker gives the cell's true execution time (the
    coordinator can only observe gather latency); the pid lets trace
    analytics attribute busy time to individual workers.  Both travel in
    the volatile ``wall`` section of the cell events, outside the
    determinism contract.  ``metrics`` is what the cell recorded in this
    worker's registry, which is emptied first.
    """
    metrics = obs.get_metrics()
    metrics.reset()
    start = time.perf_counter()
    value = _invoke(fn, config, seed)
    return value, os.getpid(), time.perf_counter() - start, metrics


def _exit_with_parent(parent_pid: int) -> None:
    """End this worker once ``parent_pid`` is no longer its parent.

    A parent killed by a signal never shuts its pool down, and an idle
    worker would otherwise block on the call queue forever.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _worker_init(parent_pid: int, budget: Any) -> None:
    """Pool initializer: mute routing, pin BLAS, join the token budget.

    A forked worker inherits a running request's pin; a spawned one would
    start at the host's default thread count, so every worker pins itself.

    Cell interiors cannot emit in canonical order from workers, so the
    worker's routing is off and the coordinator's per-cell events are the
    single record of the run.  A cell may still route its own emits into
    a log of its own and return the records.

    The CPU profiler's stream is volatile by construction (it never
    touches ``events.jsonl``), so when the coordinator published a
    profile file this worker self-samples into it — coordinators cannot
    capture another process's Python stacks.

    A daemon thread watches ``parent_pid`` and ends the worker when the
    coordinator dies without shutting the pool down.
    """
    global _budget, _span_prefix
    _budget = budget
    obs.configure(None)
    blas.pin_process()
    profiler = obs_profile.attach_worker_profiler()
    _span_prefix = profiler.prefix if profiler is not None else ""
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


class _Tokens:
    """The process tokens one automatic call holds of a shared budget.

    ``cap`` is the most processes the call may run cells in: its caller's
    own token plus ``held``.
    """

    def __init__(self, budget: Any, cap: int) -> None:
        self.budget = budget
        self.cap = cap
        self.held = 0

    def take(self, n: int) -> int:
        """Acquire up to ``n`` more tokens without blocking; returns how many."""
        got = 0
        while got < n and self.budget.acquire(block=False):
            got += 1
        self.held += got
        return got

    def give_back(self, keep: int = 0) -> None:
        """Release tokens until ``keep`` are held."""
        while self.held > keep:
            self.budget.release()
            self.held -= 1


@dataclass
class _Dispatch:
    """How one call's cells ran: the ``wall`` half of ``pmap_finish``."""

    mode: str = "serial"
    workers: int = 1
    fallback: str | None = None
    serial_cells: int = 0


def _run_pool(
    fn: Callable[..., Any],
    configs: Sequence[Any],
    seeds: Sequence[Any],
    todo: Sequence[int],
    size: int,
    tokens: _Tokens | None,
    dispatch: _Dispatch,
) -> Iterator[tuple[Any, int, float]]:
    """Run the ``todo`` cells on pool workers, yielding ``(value, pid,
    dur_s)`` in order.

    The call starts with ``size`` workers.  With ``tokens`` and fewer
    workers than their cap, it may grow: while cells wait it starts
    another pool as soon as a further token comes free.  With ``tokens``
    it gives one back each time a worker runs out of cells, and whatever
    it still holds at the end.  ``dispatch.workers`` counts the workers
    started.  Raises what the pool raises; the caller falls back to the
    serial path.
    """
    if os.environ.get(obs_profile.PROFILE_FILE_ENV):
        # Workers inherit env at fork: stamp the span path enclosing this
        # call so their profile samples attribute to the right region.
        os.environ[obs_profile.PROFILE_SPAN_ENV] = "/".join(
            part for part in (_span_prefix, obs.current_span_path()) if part
        )
    budget = tokens.budget if tokens is not None else _budget
    pools: list[ProcessPoolExecutor] = []
    rosters: list[tuple[int, ...]] = []
    free: list[ProcessPoolExecutor] = []  # one entry per cell a pool may take
    finished: queue.SimpleQueue = queue.SimpleQueue()
    ready: dict[int, tuple[Any, int, float, obs.Metrics]] = {}
    submitted = yielded = in_flight = 0

    def grow(n_workers: int, slots: int) -> None:
        pool = ProcessPoolExecutor(
            max_workers=n_workers, initializer=_worker_init,
            initargs=(os.getpid(), budget),
        )
        pools.append(pool)
        free.extend([pool] * slots)
        dispatch.workers += n_workers

    try:
        # A pool that will never grow takes every cell at once.  One that
        # may grow hands a cell out only to an idle worker, so that a
        # worker started later can take the rest.
        dispatch.workers = 0
        fixed = tokens is None or size >= tokens.cap
        grow(size, len(todo) if fixed else size)
        while yielded < len(todo):
            while free and submitted < len(todo):
                pool = free.pop()
                k = todo[submitted]
                future = pool.submit(_invoke_timed, fn, configs[k], seeds[k])
                future.add_done_callback(
                    lambda f, i=submitted, p=pool: finished.put((i, p, f))
                )
                submitted += 1
                in_flight += 1
            # A pool spawns its processes on first submit; publish their
            # pids so an active ResourceSampler can attribute RSS/CPU to
            # individual workers.
            for pool in pools[len(rosters):]:
                roster = tuple(sorted(getattr(pool, "_processes", None) or ()))
                rosters.append(roster)
                obs_resources.note_worker_pids(roster)
            waiting = submitted < len(todo)
            can_grow = (
                waiting and tokens is not None and dispatch.workers < tokens.cap
            )
            try:
                index, pool, future = finished.get(
                    timeout=_TOKEN_POLL_S if can_grow else None
                )
            except queue.Empty:
                got = tokens.take(
                    min(tokens.cap - dispatch.workers, len(todo) - submitted)
                )
                if got:
                    grow(got, got)
                continue
            in_flight -= 1
            free.append(pool)
            ready[index] = future.result()
            if tokens is not None and not waiting:
                # Workers out of cells hand their tokens on; the caller's
                # own token covers the last one running.
                tokens.give_back(max(0, min(in_flight, dispatch.workers) - 1))
            while yielded in ready:
                value, pid, dur_s, metrics = ready.pop(yielded)
                obs.get_metrics().merge(metrics)
                yielded += 1
                yield value, pid, dur_s
    finally:
        for roster in rosters:
            obs_resources.forget_worker_pids(roster)
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)
        if tokens is not None:
            tokens.give_back()


def _execute(
    fn: Callable[..., Any],
    configs: Sequence[Any],
    seeds: Sequence[Any],
    workers: int | None,
    dispatch: _Dispatch,
) -> Iterator[tuple[Any, int, float]]:
    """Run every cell; yield ``(value, pid, dur_s)`` in submission order.

    Records how the cells ran in ``dispatch``.  See the module docstring
    for the automatic mode and the token budget.
    """
    n = len(configs)
    own_pid = os.getpid()
    done = 0

    def here(k: int) -> tuple[Any, int, float]:
        start = time.perf_counter()
        with obs.quiet():
            value = _invoke(fn, configs[k], seeds[k])
        dispatch.serial_cells += 1
        return value, own_pid, time.perf_counter() - start

    tokens: _Tokens | None = None
    size = 1
    if workers is not None:
        size = dispatch.workers = resolve_workers(workers)
        if size > 1 and n < 2:
            dispatch.fallback, size = "single_cell", 1
        elif size > 1 and not _picklable(fn, configs[0]):
            dispatch.fallback, size = "unpicklable", 1
    elif not _disabled() and (cpus := visible_cpus()) > 1:
        # Automatic mode: pay for a pool only once this call's cells have
        # proven long enough to amortise one.
        spent = 0.0
        while n - done > 1 and spent < POOL_AFTER_S:
            cell = here(done)
            spent += cell[2]
            done += 1
            yield cell
        if n - done > 1:
            if _picklable(fn, configs[done]):
                # The top of the tree runs the only cells, so the rest of
                # the host is free; below it, the tree shares one budget.
                budget = _budget
                if budget is None:
                    budget = multiprocessing.Semaphore(cpus - 1)
                tokens = _Tokens(budget, min(cpus, n - done))
                # With no token free the caller's own still moves the rest
                # to one worker: a cell run here would keep the call from
                # growing until that cell ended.
                size = 1 + tokens.take(tokens.cap - 1)
                dispatch.workers = size
            else:
                dispatch.fallback = "unpicklable"
    if size > 1 or tokens is not None:
        dispatch.mode = "pool"
        try:
            for cell in _run_pool(
                fn, configs, seeds, range(done, n), size, tokens, dispatch
            ):
                done += 1
                yield cell
        except _POOL_FAILURES as exc:
            # Pool-level failure (unpicklable payload, dead worker): the
            # remaining cells run here, with identical results.
            dispatch.mode = "serial"
            dispatch.fallback = type(exc).__name__
    for k in range(done, n):
        yield here(k)


def run_cells(fn: Callable[[Any], Any], configs: Sequence[Any]) -> Iterator[Any]:
    """Yield ``fn(config)`` for every config, in order, as each is ready.

    The execution half of an automatic :func:`pmap` — the same serial
    prefix, pool and token budget — without its events, metrics or
    cache.  A cell whose interior must survive records it itself and
    returns it with its value.  Exhaust or ``close()`` the iterator: a
    pool is shut down (and its tokens returned) only then.
    """
    configs = list(configs)
    for value, _pid, _dur_s in _execute(
        fn, configs, [None] * len(configs), None, _Dispatch()
    ):
        yield value


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

    dispatch = _Dispatch(mode="cached")
    if pending:
        executed: dict[int, Any] = {}
        durations: dict[int, float] = {}
        cell_pids: dict[int, int] = {}
        dispatch.mode = "serial"
        cells = list(_execute(
            fn, [configs[i] for i in pending], [cell_seeds[i] for i in pending],
            workers, dispatch,
        ))
        for i, (value, pid, dur_s) in zip(pending, cells):
            executed[i], cell_pids[i], durations[i] = value, pid, dur_s
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
            "workers": dispatch.workers,
            "mode": dispatch.mode,
            "fallback": dispatch.fallback,
            "serial_cells": dispatch.serial_cells,
        },
    )
    metrics = obs.get_metrics()
    metrics.counter("pmap.calls").inc()
    metrics.counter("pmap.cells").inc(n)
    metrics.counter("pmap.cells_executed").inc(len(pending))
    if dispatch.fallback is not None:
        metrics.counter("pmap.serial_fallbacks").inc()
    metrics.timer("pmap.wall_s").observe(wall_s)

    return results
