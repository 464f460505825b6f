"""P2 — the deterministic runner + result cache as a registered experiment.

The repo-side remedy to the paper's §3 resource lesson (end-of-program
sweeps saturating shared GPUs): deterministic fan-out plus a
content-addressed result cache.  The block functions reproduce
``benchmarks/bench_parallel.py``'s tables; the benchmark file keeps the
timing assertions and is a shim over this module.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro.exp.registry import Experiment, register
from repro.exp.result import Block, Check, ExpResult, Verdict
from repro.parallel.cache import ResultCache
from repro.parallel.runner import visible_cpus
from repro.parallel.sweep import Sweep, grid
from repro.robuststats.contamination import ContaminationModel, contaminated_gaussian
from repro.robuststats.estimators import filter_mean, sample_mean
from repro.utils.tables import Table

__all__ = ["robust_cell", "make_sweep", "p2_determinism", "p2_cache_rerun", "visible_cpus"]


def robust_cell(dim, eps, seed):
    """One d x eps cell: sample-mean and filter errors on a fresh draw."""
    n = max(200, 10 * dim)
    x, _, mu = contaminated_gaussian(
        ContaminationModel(n=n, dim=dim, eps=eps), seed=seed
    )
    return (
        float(np.linalg.norm(sample_mean(x) - mu)),
        float(np.linalg.norm(filter_mean(x, eps) - mu)),
    )


def make_sweep(dims=(50, 100, 200), eps_grid=(0.05, 0.1), n_trials: int = 3) -> Sweep:
    """The heaviest CPU sweep in the suite, seeded from root 0."""
    return Sweep.spawned(
        robust_cell,
        grid(dim=list(dims), eps=list(eps_grid)),
        root_seed=0,
        n_trials=n_trials,
        name="robuststats-dxeps",
    )


def p2_determinism(
    dims=(50, 100, 200), eps_grid=(0.05, 0.1), n_trials: int = 3,
    parallel_workers: int = 4,
) -> Block:
    """Serial vs multi-process runs of the same sweep, checked bit-for-bit."""
    n_cells = len(dims) * len(eps_grid) * n_trials
    start = time.perf_counter()
    serial = make_sweep(dims, eps_grid, n_trials).run(workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = make_sweep(dims, eps_grid, n_trials).run(workers=parallel_workers)
    parallel_s = time.perf_counter() - start
    identical = parallel.values() == serial.values()
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    table = Table(
        ["configuration", "wall s", "speedup"],
        title=(
            f"P2: robuststats d x eps sweep ({n_cells} cells, "
            f"{visible_cpus()} CPUs visible)"
        ),
    )
    table.add_row(["serial (workers=1)", serial_s, 1.0])
    table.add_row([f"workers={parallel_workers}", parallel_s, speedup])
    return Block(
        values={
            "n_cells": int(n_cells),
            "bit_identical": bool(identical),
            "speedup": float(speedup),
            "cpus_visible": visible_cpus(),
        },
        tables=(table.render(),),
    )


class _ProbeCache(ResultCache):
    """A private cache under test: the user-cache kill switch
    (``REPRO_CACHE_DISABLE``) guards the user's results, not a probe of
    the mechanism, so this one is always on."""

    @property
    def enabled(self) -> bool:
        return True


def p2_cache_rerun(
    dims=(50, 100, 200), eps_grid=(0.05, 0.1), n_trials: int = 3
) -> Block:
    """Cold vs 100%-cache-hit re-run of the same sweep, on a private cache."""
    n_cells = len(dims) * len(eps_grid) * n_trials
    with tempfile.TemporaryDirectory() as root:
        cache = _ProbeCache(root)
        sweep = make_sweep(dims, eps_grid, n_trials)
        start = time.perf_counter()
        cold = sweep.run(cache=cache)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = sweep.run(cache=cache)
        warm_s = time.perf_counter() - start
        stats = cache.stats()
    table = Table(
        ["run", "wall s", "executed", "cache hits"],
        title="P2: cold vs 100%-cache-hit re-run",
    )
    table.add_row(["cold", cold_s, cold.n_executed, cold.n_cache_hits])
    table.add_row(["warm", warm_s, warm.n_executed, warm.n_cache_hits])
    return Block(
        values={
            "n_cells": int(n_cells),
            "identical": bool(warm.values() == cold.values()),
            "cold_executed": int(cold.n_executed),
            "warm_executed": int(warm.n_executed),
            "warm_hits": int(warm.n_cache_hits),
            "warm_over_cold": float(warm_s / cold_s) if cold_s > 0 else 0.0,
            "stats_hits": int(stats.hits),
            "stats_misses": int(stats.misses),
            "bytes_written": int(stats.bytes_written),
        },
        tables=(
            table.render(),
            f"P2: cache hit-rate "
            f"{100 * stats.hits / (stats.hits + stats.misses):.1f}% "
            f"({stats.hits} hits / {stats.misses} misses, "
            f"{stats.bytes_written} bytes written)",
        ),
    )


@register
class ParallelRunnerExperiment(Experiment):
    id = "P2"
    title = "Deterministic parallel runner + result cache"
    section = "3"
    paper_claim = (
        "staging work instead of an end-of-program crunch: the repo-side "
        "remedy is deterministic fan-out whose results are bit-identical "
        "for any worker count, plus a content-addressed cache"
    )
    DEFAULT = {
        "dims": (50, 100, 200),
        "eps_grid": (0.05, 0.1),
        "n_trials": 3,
        "parallel_workers": 4,
    }
    SMOKE = {"dims": (50, 100), "n_trials": 2, "parallel_workers": 2}
    # Measured speedups and the warm/cold wall-time ratio are wall-clock
    # quantities; the *result values* they summarize stay deterministic.
    VOLATILE_VALUES = ("determinism.speedup", "cache.warm_over_cold")

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add(
            "determinism",
            p2_determinism(
                config["dims"], config["eps_grid"], config["n_trials"],
                config["parallel_workers"],
            ),
        )
        result.add(
            "cache",
            p2_cache_rerun(
                config["dims"], config["eps_grid"], config["n_trials"]
            ),
        )
        return result

    def check(self, result):
        det = result["determinism"]
        cached = result["cache"]
        checks = [
            Check(
                "serial and multi-process runs are bit-identical",
                {"bit_identical": det["bit_identical"],
                 "n_cells": det["n_cells"]},
                det["bit_identical"],
            ),
            Check(
                "the warm re-run executes nothing (100% cache hits)",
                {"warm_executed": cached["warm_executed"],
                 "warm_hits": cached["warm_hits"],
                 "n_cells": cached["n_cells"]},
                cached["identical"]
                and cached["warm_executed"] == 0
                and cached["warm_hits"] == cached["n_cells"],
            ),
        ]
        return Verdict(self.id, tuple(checks))
