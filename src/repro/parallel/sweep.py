"""The ``Sweep`` abstraction: config grid × seed list → records.

Every multi-trial experiment in the library has the same shape — evaluate
a cell function over the cross product of a configuration grid and a list
of trial seeds, then aggregate.  ``Sweep`` names that shape once: studies
and benchmarks declare *what* to run and :func:`repro.parallel.runner.pmap`
decides *how* (serial, process-parallel, cache-backed) without the results
changing by a single bit.

The same seed list is applied to every configuration, so comparisons
across configs are paired (each config sees identical draws) — the
discipline the robust-statistics study already follows by hand.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro import obs
from repro.parallel.cache import ResultCache, code_salt
from repro.parallel.runner import pmap
from repro.utils.rng import spawn_children

__all__ = ["grid", "SweepRecord", "SweepResult", "Sweep"]


def grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes, in deterministic row-major order.

    Examples
    --------
    >>> grid(d=[10, 20], eps=[0.1])
    [{'d': 10, 'eps': 0.1}, {'d': 20, 'eps': 0.1}]
    """
    names = list(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, values)) for values in combos]


def _call_cell(fn: Callable[..., Any], config: Mapping[str, Any], seed: Any = None) -> Any:
    """Module-level adapter so ``fn(**config, seed=...)`` survives pickling."""
    if seed is None:
        return fn(**config)
    return fn(**config, seed=seed)


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated cell."""

    config: dict[str, Any]
    seed: int | None
    value: Any


@dataclass(frozen=True)
class SweepResult:
    """All records of one sweep run plus its execution telemetry."""

    records: tuple[SweepRecord, ...]
    wall_s: float
    n_executed: int
    n_cache_hits: int
    sweep_name: str = ""

    def values(self) -> list[Any]:
        """Cell values in record order."""
        return [r.value for r in self.records]

    def by_config(self) -> list[tuple[dict[str, Any], list[Any]]]:
        """Group values per configuration, preserving grid order."""
        grouped: dict[tuple, tuple[dict[str, Any], list[Any]]] = {}
        for r in self.records:
            key = tuple(sorted((k, repr(v)) for k, v in r.config.items()))
            grouped.setdefault(key, (r.config, []))[1].append(r.value)
        return list(grouped.values())

    def select(self, **match: Any) -> list[Any]:
        """Values of every record whose config matches all of ``match``."""
        return [
            r.value
            for r in self.records
            if all(r.config.get(k) == v for k, v in match.items())
        ]


@dataclass
class Sweep:
    """A declarative multi-trial experiment.

    Parameters
    ----------
    fn:
        Cell function, called as ``fn(**config, seed=seed)`` (or just
        ``fn(**config)`` when the sweep is unseeded).  Must be a
        module-level function for the parallel path to engage.
    configs:
        Configuration dicts (see :func:`grid`).
    seeds:
        Per-trial seeds applied to *every* config (paired design), or
        ``None`` for a single unseeded pass per config.
    name:
        Label used in timing reports.

    Examples
    --------
    >>> def cell(x, seed):
    ...     return x * 10 + seed
    >>> sweep = Sweep(cell, grid(x=[1, 2]), seeds=[0, 1])
    >>> sweep.run().values()
    [10, 11, 20, 21]
    """

    fn: Callable[..., Any]
    configs: Sequence[Mapping[str, Any]]
    seeds: Sequence[int] | None = None
    name: str = ""
    _salt: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("configs must be non-empty")
        if self.seeds is not None and len(self.seeds) == 0:
            raise ValueError("seeds must be non-empty (or None)")
        if not self.name:
            self.name = getattr(self.fn, "__name__", "sweep")
        if not self._salt:
            self._salt = code_salt(self.fn)

    @classmethod
    def spawned(
        cls,
        fn: Callable[..., Any],
        configs: Sequence[Mapping[str, Any]],
        *,
        root_seed: int,
        n_trials: int,
        name: str = "",
    ) -> "Sweep":
        """Build a sweep whose trial seeds are spawned from one root."""
        return cls(fn, configs, seeds=spawn_children(root_seed, n_trials), name=name)

    def cells(self) -> list[tuple[dict[str, Any], int | None]]:
        """The (config, seed) cross product, in execution order."""
        seeds: Sequence[int | None] = self.seeds if self.seeds is not None else [None]
        return [
            (dict(config), seed) for config in self.configs for seed in seeds
        ]

    def run(
        self,
        *,
        workers: int | None = None,
        cache: ResultCache | None = None,
    ) -> SweepResult:
        """Evaluate every cell; identical records for any ``workers``."""
        cells = self.cells()
        cell_configs = [c for c, _ in cells]
        cell_seeds = [s for _, s in cells]
        hits_before = cache.stats().hits if cache is not None else 0
        with obs.span(
            "sweep",
            sweep=self.name,
            n_cells=len(cells),
            n_configs=len(self.configs),
            n_seeds=len(self.seeds) if self.seeds is not None else 0,
        ):
            start = time.perf_counter()
            values = pmap(
                partial(_call_cell, self.fn),
                cell_configs,
                None if self.seeds is None else [s for s in cell_seeds if s is not None],
                workers=workers,
                cache=cache,
                salt=self._salt,
            )
            wall_s = time.perf_counter() - start
        n_hits = (cache.stats().hits - hits_before) if cache is not None else 0
        records = tuple(
            SweepRecord(config=config, seed=seed, value=value)
            for (config, seed), value in zip(cells, values)
        )
        obs.emit(
            "sweep_finish",
            payload={
                "name": self.name,
                "n_cells": len(records),
                "n_executed": len(records) - n_hits,
                "n_cache_hits": n_hits,
            },
            wall={"wall_s": wall_s},
        )
        return SweepResult(
            records=records,
            wall_s=wall_s,
            n_executed=len(records) - n_hits,
            n_cache_hits=n_hits,
            sweep_name=self.name,
        )
