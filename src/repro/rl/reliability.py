"""Reliability metrics: performance that holds with high probability.

"RL agents ... often do so unreliably, i.e. they may not exhibit acceptable
performance with high probability."  The study therefore trains several
independent seeds per (environment, estimator family) cell and reports,
besides the mean of average rewards, distributional reliability numbers:
the fraction of seeds exceeding an acceptability threshold and the lower
quartile of final performance (a CVaR-flavoured tail statistic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.parallel.runner import pmap
from repro.parallel.cache import ResultCache
from repro.parallel.study import StudyRecord, StudyResult, resolve_cache
from repro.rl.agents import DQNConfig, train_agent
from repro.utils.tables import Table

__all__ = [
    "ReliabilityReport",
    "ReliabilityStudyConfig",
    "ReliabilityResult",
    "reliability_study",
]


def _train_cell(config: dict, seed: int) -> float:
    """Train one (env, family, seed) cell and return its greedy return.

    Module-level and float-returning so the cell can run in a worker
    process and come back over the pipe cheaply (the trained agent stays
    in the worker).
    """
    agent, _ = train_agent(
        config["env"],
        config["family"],
        config=config["config"],
        size=config["size"],
        width=config["width"],
        seed=seed,
    )
    return float(agent.evaluate(config["eval_episodes"]))


@dataclass(frozen=True)
class ReliabilityReport:
    """Cross-seed performance summary for one (env, family) cell."""

    env: str
    family: str
    per_seed_returns: tuple[float, ...]
    threshold: float

    @property
    def mean_return(self) -> float:
        return float(np.mean(self.per_seed_returns))

    @property
    def reliability(self) -> float:
        """Fraction of seeds whose greedy return beats the threshold."""
        arr = np.asarray(self.per_seed_returns)
        return float((arr >= self.threshold).mean())

    @property
    def lower_quartile(self) -> float:
        """25th percentile of final performance — the unlucky-seed view."""
        return float(np.percentile(self.per_seed_returns, 25))

    def as_dict(self) -> dict[str, float | str]:
        return {
            "env": self.env,
            "family": self.family,
            "mean_return": self.mean_return,
            "reliability": self.reliability,
            "lower_quartile": self.lower_quartile,
        }


@dataclass(frozen=True)
class ReliabilityStudyConfig:
    """Everything that defines one E8 reliability grid (except seeds)."""

    env_names: tuple[str, ...]
    families: tuple[str, ...]
    threshold: float = 0.0
    dqn: DQNConfig | None = None
    size: int = 6
    width: int = 12
    eval_episodes: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(self, "env_names", tuple(self.env_names))
        object.__setattr__(self, "families", tuple(self.families))
        if not self.env_names or not self.families:
            raise ValueError("env_names and families must be non-empty")


@dataclass(frozen=True)
class ReliabilityResult(StudyResult):
    """Unified result of one reliability study: the E8 table plus records."""

    reports: tuple[ReliabilityReport, ...]
    trial_records: tuple[StudyRecord, ...] = field(default=(), repr=False)

    study_name = "rl.reliability_study"

    @property
    def records(self) -> tuple[StudyRecord, ...]:
        return self.trial_records

    def summary(self) -> dict[str, Any]:
        return {
            "study": self.study_name,
            "n_records": len(self.records),
            "n_cells": len(self.reports),
            "mean_return": float(
                np.mean([r.mean_return for r in self.reports])
            ),
            "mean_reliability": float(
                np.mean([r.reliability for r in self.reports])
            ),
            "worst_lower_quartile": float(
                min(r.lower_quartile for r in self.reports)
            ),
        }

    def to_table(self) -> str:
        table = Table(
            ["env", "family", "mean return", "reliability", "lower quartile"],
            title="E8 reliability study",
        )
        for report in self.reports:
            table.add_row(
                [
                    report.env,
                    report.family,
                    report.mean_return,
                    report.reliability,
                    report.lower_quartile,
                ]
            )
        return table.render()


def reliability_study(
    config: ReliabilityStudyConfig,
    *,
    seeds: Sequence[int],
    workers: int | None = None,
    cache: bool | ResultCache | None = True,
) -> ReliabilityResult:
    """Train every (env, family, seed) cell and summarize reliability::

        reliability_study(
            ReliabilityStudyConfig(env_names=["catch"], families=["cnn"]),
            seeds=spawn_children(0, 3), workers=4,
        )

    ``seeds`` is shared across every (env, family) cell, so the
    cross-seed comparison is paired and — because all seeds exist before
    dispatch — the study is bit-identical whether the grid trains
    serially or across ``workers`` processes.  Returns a
    :class:`ReliabilityResult` whose ``reports`` hold one
    :class:`ReliabilityReport` per (env, family) pair in input order —
    the table of experiment E8.
    """
    trial_seeds = [int(s) for s in seeds]
    if not trial_seeds:
        raise ValueError("reliability_study requires a non-empty seeds sequence")
    n_seeds = len(trial_seeds)
    grid = [(env, family) for env in config.env_names for family in config.families]
    configs = [
        {
            "env": env_name,
            "family": family,
            "config": config.dqn,
            "size": config.size,
            "width": config.width,
            "eval_episodes": config.eval_episodes,
        }
        for env_name, family in grid
        for _ in trial_seeds
    ]
    finals = pmap(
        _train_cell,
        configs,
        trial_seeds * len(grid),
        workers=workers,
        cache=resolve_cache(cache),
    )
    reports: list[ReliabilityReport] = []
    for cell_index, (env_name, family) in enumerate(grid):
        returns = finals[cell_index * n_seeds : (cell_index + 1) * n_seeds]
        reports.append(
            ReliabilityReport(
                env=env_name,
                family=family,
                per_seed_returns=tuple(returns),
                threshold=config.threshold,
            )
        )
    records = tuple(
        StudyRecord(config=cell, seed=seed, value=value)
        for cell, seed, value in zip(configs, trial_seeds * len(grid), finals)
    )
    return ReliabilityResult(reports=tuple(reports), trial_records=records)
