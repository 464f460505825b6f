"""The error-versus-dimension experiment (E10).

``dimension_sweep`` follows the unified Study API
(:mod:`repro.parallel.study`): pass a :class:`DimensionSweepConfig` plus
``seeds=...`` and get a :class:`DimensionSweepResult` carrying per-cell
``records``, a ``summary()`` dict, and a ``to_table()`` rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.parallel.cache import ResultCache, code_salt
from repro.parallel.runner import pmap
from repro.parallel.study import StudyRecord, StudyResult, resolve_cache
from repro.provenance.manifest import stable_hash
from repro.robuststats.contamination import ContaminationModel, contaminated_gaussian
from repro.robuststats.estimators import (
    coordinate_median,
    filter_mean,
    sample_mean,
)
from repro.utils.tables import Table

__all__ = [
    "DimensionSweepConfig",
    "DimensionSweepResult",
    "dimension_sweep",
    "DEFAULT_ESTIMATORS",
]

Estimator = Callable[[np.ndarray], np.ndarray]


def DEFAULT_ESTIMATORS(eps: float) -> dict[str, Estimator]:
    """The three estimators the E10 table compares.

    ``filter`` is a :func:`functools.partial` rather than a lambda so the
    whole estimator table can cross a process boundary when the sweep runs
    on :func:`repro.parallel.pmap` workers.
    """
    return {
        "sample_mean": sample_mean,
        "coord_median": coordinate_median,
        "filter": partial(filter_mean, eps=eps),
    }


@dataclass(frozen=True)
class DimensionSweepConfig:
    """Everything that defines one E10 dimension sweep (except seeds).

    The sample size scales with the dimension (``n = max(min_samples,
    samples_per_dim * d)``), the standard regime in the robust-statistics
    literature: it pins the clean statistical error sqrt(d/n) to a
    constant, so any error *growth* across the sweep is attributable to
    the contamination.
    """

    dims: tuple[int, ...]
    eps: float = 0.1
    samples_per_dim: int = 10
    min_samples: int = 200
    adversary: str = "shifted_cluster"
    estimators: dict[str, Estimator] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be a non-empty list of positive ints")
        if sorted(self.dims) != list(self.dims):
            raise ValueError("dims must be sorted ascending")
        if self.samples_per_dim < 1 or self.min_samples < 10:
            raise ValueError("need samples_per_dim >= 1 and min_samples >= 10")
        if self.estimators is not None and "oracle" in self.estimators:
            raise ValueError("'oracle' is a reserved estimator name")

    def resolved_estimators(self) -> dict[str, Estimator]:
        return self.estimators or DEFAULT_ESTIMATORS(self.eps)

    def sample_size(self, dim: int) -> int:
        return max(self.min_samples, self.samples_per_dim * dim)


@dataclass(frozen=True)
class DimensionSweepResult(StudyResult):
    """L2 estimation errors over a dimension sweep.

    ``errors[name]`` has shape ``(len(dims), n_trials)``.
    """

    dims: tuple[int, ...]
    eps: float
    errors: dict[str, np.ndarray]
    trial_records: tuple[StudyRecord, ...] = field(default=(), repr=False)

    study_name = "robuststats.dimension_sweep"

    @property
    def records(self) -> tuple[StudyRecord, ...]:
        return self.trial_records

    def mean_error(self, name: str) -> np.ndarray:
        """Mean error per dimension for one estimator."""
        return self.errors[name].mean(axis=1)

    def growth_ratio(self, name: str) -> float:
        """Error at the largest dimension over error at the smallest.

        Near 1 for a dimension-free estimator; ~sqrt(d_max / d_min) for one
        whose error scales with sqrt(d).
        """
        means = self.mean_error(name)
        return float(means[-1] / means[0])

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "study": self.study_name,
            "n_records": len(self.records),
            "dims": list(self.dims),
            "eps": self.eps,
        }
        for name in self.errors:
            out[f"growth_ratio.{name}"] = self.growth_ratio(name)
        return out

    def to_table(self) -> str:
        table = Table(
            ["estimator", f"err@d={self.dims[0]}", f"err@d={self.dims[-1]}", "growth"],
            title=f"E10 dimension sweep (eps={self.eps})",
        )
        for name in self.errors:
            means = self.mean_error(name)
            table.add_row(
                [name, float(means[0]), float(means[-1]), self.growth_ratio(name)]
            )
        return table.render()


def _sweep_cell(
    estimators: dict[str, Estimator],
    config: dict,
    seed: int,
) -> dict[str, float]:
    """One (dimension, trial) cell: draw data, score every estimator.

    Module-level (with the estimator table partially applied) so the cell
    can run in a worker process; the trial seed arrives precomputed and
    everything else that shapes the draw rides in ``config``, so the cell
    is a pure function of ``(config, seed)`` — the property the result
    cache keys on.
    """
    x, is_outlier, mu = contaminated_gaussian(
        ContaminationModel(
            n=config["n"],
            dim=config["dim"],
            eps=config["eps"],
            adversary=config["adversary"],
        ),
        seed=seed,
    )
    out = {
        name: float(np.linalg.norm(estimator(x) - mu))
        for name, estimator in estimators.items()
    }
    out["oracle"] = float(np.linalg.norm(x[~is_outlier].mean(axis=0) - mu))
    return out


def dimension_sweep(
    config: DimensionSweepConfig,
    *,
    seeds: Sequence[int],
    workers: int | None = None,
    cache: bool | ResultCache | None = True,
) -> DimensionSweepResult:
    """Sweep the dimension at fixed contamination and record L2 errors.

    ::

        dimension_sweep(DimensionSweepConfig(dims=[10, 50]),
                        seeds=spawn_children(0, 5), workers=4)

    ``seeds`` is the per-trial seed list, applied to *every* dimension
    (paired design — each dimension sees the same draws), and the number
    of trials is ``len(seeds)``.  An ``"oracle"`` row (mean of the clean
    points only, using the ground-truth outlier labels) is always
    included as the floor.

    All trial seeds exist *before* dispatch and cells run through
    :func:`repro.parallel.pmap`, so ``workers=1`` and ``workers=8``
    produce bit-identical sweeps; ``cache`` defaults to the
    environment-rooted :class:`repro.parallel.ResultCache` so repeated
    sweeps re-execute nothing.  Unpicklable custom estimators
    transparently fall back to the in-process serial path.
    """
    trial_seeds = [int(s) for s in seeds]
    if not trial_seeds:
        raise ValueError("dimension_sweep requires a non-empty seeds sequence")
    n_trials = len(trial_seeds)
    configs = [
        {
            "dim": d,
            "n": config.sample_size(d),
            "eps": config.eps,
            "adversary": config.adversary,
        }
        for d in config.dims
        for _ in range(n_trials)
    ]
    cell_seeds = trial_seeds * len(config.dims)
    ests = config.resolved_estimators()
    # The estimator table is partial-bound rather than part of the config,
    # so its identity must reach the cache key through the salt.
    est_names = {
        name: getattr(getattr(e, "func", e), "__qualname__", repr(e))
        for name, e in ests.items()
    }
    salt = stable_hash({"code": code_salt(_sweep_cell), "estimators": est_names})
    cells = pmap(
        partial(_sweep_cell, ests),
        configs,
        cell_seeds,
        workers=workers,
        cache=resolve_cache(cache),
        salt=salt,
    )
    errors = {name: np.empty((len(config.dims), n_trials)) for name in ests}
    errors["oracle"] = np.empty((len(config.dims), n_trials))
    for index, cell in enumerate(cells):
        i, t = divmod(index, n_trials)
        for name, value in cell.items():
            errors[name][i, t] = value
    records = tuple(
        StudyRecord(config=cfg, seed=seed, value=cell)
        for cfg, seed, cell in zip(configs, cell_seeds, cells)
    )
    return DimensionSweepResult(
        dims=config.dims, eps=config.eps, errors=errors, trial_records=records
    )


def eps_cell(eps: float, seed: int, dim: int = 200, n: int = 2000):
    """One contamination level: sample-mean vs filter error at fixed d.

    Module-level so :class:`repro.parallel.Sweep` can ship it to worker
    processes.
    """
    model = ContaminationModel(n=n, dim=dim, eps=eps)
    x, _, mu = contaminated_gaussian(model, seed=seed)
    return (
        eps,
        float(np.linalg.norm(x.mean(axis=0) - mu)),
        float(np.linalg.norm(filter_mean(x, eps) - mu)),
    )


def e10_error_vs_dimension(
    dims=(10, 50, 100, 200, 400),
    eps: float = 0.1,
    n_seeds: int = 3,
    *,
    workers: int | None = None,
    cache: Any = None,
) -> "Block":
    """The canonical figure: L2 error vs dimension at fixed contamination."""
    from repro.exp.result import Block
    from repro.utils.rng import spawn_children

    sweep = dimension_sweep(
        DimensionSweepConfig(dims=tuple(dims), eps=eps),
        seeds=spawn_children(0, n_seeds),
        workers=workers,
        cache=cache,
    )
    estimators = ("sample_mean", "coord_median", "filter", "oracle")
    table = Table(
        ["estimator"] + [f"d={d}" for d in dims] + ["growth"],
        title=(
            f"E10: L2 estimation error vs dimension (eps = {eps}, "
            "shifted-cluster adversary)"
        ),
    )
    values: dict[str, Any] = {"growth": {}, "mean_error": {}}
    for name in estimators:
        errors = sweep.mean_error(name)
        table.add_row([name, *errors.tolist(), sweep.growth_ratio(name)])
        values["growth"][name] = float(sweep.growth_ratio(name))
        values["mean_error"][name] = [float(e) for e in errors]
    return Block(values=values, tables=(table.render(),))


def e10_contamination_sweep(
    eps_levels=(0.05, 0.1, 0.2),
    dim: int = 200,
    n: int = 2000,
    seed: int = 1,
    *,
    workers: int | None = None,
    cache: Any = None,
) -> "Block":
    """Error vs contamination level at fixed dimension."""
    from repro.exp.result import Block
    from repro.parallel import Sweep, grid

    sweep = Sweep(eps_cell, grid(eps=list(eps_levels), dim=[dim], n=[n]), seeds=[seed])
    rows = sweep.run(workers=workers, cache=resolve_cache(cache)).values()
    table = Table(
        ["eps", "sample mean error", "filter error"],
        title=f"E10: error vs contamination level (d = {dim})",
    )
    for r in rows:
        table.add_row(list(r))
    return Block(
        values={
            "cells": [
                {"eps": float(eps), "mean_error": float(m), "filter_error": float(f)}
                for eps, m, f in rows
            ]
        },
        tables=(table.render(),),
    )


def _register_experiment() -> None:
    """Register E10 (deferred import keeps repro.exp optional here)."""
    from repro.exp.registry import Experiment, register
    from repro.exp.result import Check, ExpResult, Verdict

    @register
    class RobustStatsExperiment(Experiment):
        id = "E10"
        title = "Robust mean estimation in high dimension"
        section = "2.10"
        paper_claim = (
            "the filter algorithm stays near the oracle while the sample "
            "mean and coordinate median grow like sqrt(d)"
        )
        DEFAULT = {
            "dims": (10, 50, 100, 200, 400),
            "eps": 0.1,
            "n_seeds": 3,
            "eps_levels": (0.05, 0.1, 0.2),
            "eps_dim": 200,
            "eps_n": 2000,
            "eps_seed": 1,
        }
        SMOKE = {
            "dims": (10, 50, 100),
            "n_seeds": 2,
            "eps_levels": (0.05, 0.2),
            "eps_dim": 100,
            "eps_n": 800,
        }

        def _run(self, config, *, workers, cache):
            result = ExpResult(self.id, config)
            result.add(
                "dimension",
                e10_error_vs_dimension(
                    config["dims"], config["eps"], config["n_seeds"],
                    workers=workers, cache=cache,
                ),
            )
            result.add(
                "contamination",
                e10_contamination_sweep(
                    config["eps_levels"], config["eps_dim"], config["eps_n"],
                    config["eps_seed"], workers=workers, cache=cache,
                ),
            )
            return result

        def check(self, result):
            growth = result["dimension"]["growth"]
            mean_error = result["dimension"]["mean_error"]
            ratio_ok = all(
                f < 2.0 * o
                for f, o in zip(mean_error["filter"], mean_error["oracle"])
            )
            cells = result["contamination"]["cells"]
            mean_growth = cells[-1]["mean_error"] / cells[0]["mean_error"]
            filter_growth = cells[-1]["filter_error"] / cells[0]["filter_error"]
            checks = [
                Check(
                    "filter error growth < half the sample mean's",
                    {"filter": growth["filter"],
                     "sample_mean": growth["sample_mean"]},
                    growth["filter"] < 0.5 * growth["sample_mean"],
                ),
                Check(
                    "filter stays within 2x of the oracle at every dimension",
                    {"filter": mean_error["filter"],
                     "oracle": mean_error["oracle"]},
                    ratio_ok,
                ),
                Check(
                    "filter beats the sample mean at every contamination level",
                    cells,
                    all(c["filter_error"] < c["mean_error"] for c in cells),
                ),
                Check(
                    "sample-mean error grows with eps; the filter's barely moves",
                    {"mean_growth": mean_growth, "filter_growth": filter_growth},
                    mean_growth > 1.5 and filter_growth < mean_growth,
                ),
            ]
            return Verdict(self.id, tuple(checks))


_register_experiment()
