"""k-fold cross-validation harness for the E7 configuration comparisons.

``kfold_evaluate`` follows the unified Study API
(:mod:`repro.parallel.study`): pass a :class:`KFoldConfig` plus
``seeds=...`` and each seed drives one independent fold split — repeated
k-fold cross-validation — returning a :class:`KFoldResult` with per-fold
``records``, a ``summary()``, and ``to_table()``.  One split's
:class:`FoldScore` is ``kfold_evaluate(cfg, seeds=[s]).scores[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.histopath.data import PatchDataset
from repro.histopath.metrics import count_mae, dice_score
from repro.histopath.model import MultiTaskModel
from repro.parallel.runner import pmap
from repro.parallel.study import StudyRecord, StudyResult
from repro.utils.rng import as_generator
from repro.utils.tables import Table

__all__ = ["FoldScore", "KFoldConfig", "KFoldResult", "kfold_evaluate"]


def _fold_cell(
    dataset: PatchDataset,
    train_fn: Callable[[PatchDataset, int], MultiTaskModel],
    config: dict,
) -> tuple[float, float]:
    """Train and score one fold; returns ``(dice, mae)``.

    Folds are independent given their index sets, so each can run in its
    own worker process (a closure ``train_fn`` transparently falls back to
    the serial path).
    """
    model = train_fn(dataset.subset(config["train_idx"]), config["fold"])
    test = dataset.subset(config["test_idx"])
    dice = dice_score(model.predict_mask(test.images), test.tissue_masks)
    mae = count_mae(model.predict_count(test.images), test.cell_counts)
    return float(dice), float(mae)


@dataclass(frozen=True)
class FoldScore:
    """Per-fold metrics for one configuration."""

    dice: tuple[float, ...]
    mae: tuple[float, ...]

    @property
    def mean_dice(self) -> float:
        return float(np.mean(self.dice))

    @property
    def mean_mae(self) -> float:
        return float(np.mean(self.mae))


@dataclass(frozen=True)
class KFoldConfig:
    """Everything that defines one E7 cross-validation (except seeds).

    ``train_fn(train_subset, fold_index)`` must return a trained model;
    the harness evaluates Dice (segmentation) and count MAE on the
    held-out fold.
    """

    dataset: PatchDataset
    train_fn: Callable[[PatchDataset, int], MultiTaskModel]
    n_folds: int = 3

    def __post_init__(self) -> None:
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {self.n_folds}")
        if len(self.dataset) < self.n_folds:
            raise ValueError(
                f"{len(self.dataset)} samples cannot fill {self.n_folds} folds"
            )


@dataclass(frozen=True)
class KFoldResult(StudyResult):
    """Repeated k-fold scores: one :class:`FoldScore` per split seed."""

    scores: tuple[FoldScore, ...]
    seeds: tuple[int, ...]
    trial_records: tuple[StudyRecord, ...] = field(default=(), repr=False)

    study_name = "histopath.kfold_evaluate"

    @property
    def records(self) -> tuple[StudyRecord, ...]:
        return self.trial_records

    @property
    def mean_dice(self) -> float:
        """Mean Dice across every fold of every repeat."""
        return float(np.mean([d for s in self.scores for d in s.dice]))

    @property
    def mean_mae(self) -> float:
        """Mean count MAE across every fold of every repeat."""
        return float(np.mean([m for s in self.scores for m in s.mae]))

    def summary(self) -> dict[str, Any]:
        return {
            "study": self.study_name,
            "n_records": len(self.records),
            "n_repeats": len(self.scores),
            "n_folds": len(self.scores[0].dice) if self.scores else 0,
            "mean_dice": self.mean_dice,
            "mean_mae": self.mean_mae,
        }

    def to_table(self) -> str:
        table = Table(
            ["split seed", "mean dice", "mean mae"],
            title="E7 repeated k-fold cross-validation",
        )
        for split_seed, score in zip(self.seeds, self.scores):
            table.add_row([split_seed, score.mean_dice, score.mean_mae])
        return table.render()


def _evaluate_split(
    cfg: KFoldConfig,
    seed: int,
    workers: int | None,
) -> tuple[FoldScore, list[StudyRecord]]:
    """One k-fold split: deterministic fold assignment, fan-out training."""
    rng = as_generator(seed)
    order = rng.permutation(len(cfg.dataset))
    folds = np.array_split(order, cfg.n_folds)
    configs = [
        {
            "fold": f,
            "test_idx": test_idx,
            "train_idx": np.concatenate(
                [folds[g] for g in range(cfg.n_folds) if g != f]
            ),
        }
        for f, test_idx in enumerate(folds)
    ]
    scores = pmap(
        partial(_fold_cell, cfg.dataset, cfg.train_fn), configs, workers=workers
    )
    score = FoldScore(
        dice=tuple(s[0] for s in scores), mae=tuple(s[1] for s in scores)
    )
    records = [
        StudyRecord(config={"fold": c["fold"]}, seed=None, value=value)
        for c, value in zip(configs, scores)
    ]
    return score, records


def kfold_evaluate(
    config: KFoldConfig,
    *,
    seeds: Sequence[int],
    workers: int | None = None,
) -> KFoldResult:
    """Cross-validate a training configuration::

        kfold_evaluate(KFoldConfig(dataset, train_fn, n_folds=3),
                       seeds=[0, 1], workers=4)

    Each seed deterministically drives one independent fold split, so the
    result is repeated k-fold cross-validation; fold training fans out
    over ``workers`` processes with identical scores either way (the fold
    split and each fold's training are fixed before dispatch).  There is
    no ``cache`` keyword: ``train_fn`` is typically a closure over
    hyper-parameters, which cannot be content-addressed soundly, so fold
    training always re-executes.
    """
    split_seeds = tuple(int(s) for s in seeds)
    if not split_seeds:
        raise ValueError("kfold_evaluate requires a non-empty seeds sequence")
    scores: list[FoldScore] = []
    records: list[StudyRecord] = []
    for split_seed in split_seeds:
        score, split_records = _evaluate_split(config, split_seed, workers)
        scores.append(score)
        records.extend(
            StudyRecord(
                config={**r.config, "split_seed": split_seed},
                seed=split_seed,
                value=r.value,
            )
            for r in split_records
        )
    return KFoldResult(
        scores=tuple(scores),
        seeds=split_seeds,
        trial_records=tuple(records),
    )
