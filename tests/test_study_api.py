"""The unified Study API contract across all five multi-trial entry points.

Every study accepts ``(config, *, seeds, workers=None, cache=...)``
(``kfold_evaluate`` and ``random_search`` take no ``cache``) and returns a
:class:`repro.parallel.StudyResult` with ``records`` / ``summary()`` /
``to_table()``.
"""

from __future__ import annotations

import pytest

from repro.parallel import StudyRecord, StudyResult
from repro.parallel.study import resolve_cache
from repro.parallel.cache import ResultCache


def _check_contract(result):
    """The three members every unified study result must provide."""
    assert isinstance(result, StudyResult)
    assert len(result.records) > 0
    assert all(isinstance(r, StudyRecord) for r in result.records)
    summary = result.summary()
    assert summary["study"] == type(result).study_name
    assert summary["n_records"] == len(result.records)
    text = result.to_table()
    assert isinstance(text, str) and text


class TestResolveCache:
    def test_true_and_default_build_env_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert isinstance(resolve_cache(True), ResultCache)

    def test_false_and_none_disable(self):
        assert resolve_cache(False) is None
        assert resolve_cache(None) is None

    def test_instance_passes_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache


class TestDimensionSweep:
    def test_unified_form(self):
        from repro.robuststats import DimensionSweepConfig, dimension_sweep

        result = dimension_sweep(
            DimensionSweepConfig(dims=(5, 10), min_samples=40),
            seeds=[0, 1],
            cache=False,
        )
        _check_contract(result)
        assert len(result.records) == 4  # 2 dims x 2 seeds
        assert result.errors["sample_mean"].shape == (2, 2)

    def test_unified_requires_seeds(self):
        from repro.robuststats import DimensionSweepConfig, dimension_sweep

        with pytest.raises(ValueError, match="seeds"):
            dimension_sweep(DimensionSweepConfig(dims=(5,)), seeds=[])


class TestCollectionPlanSweep:
    def test_unified_form(self):
        from repro.core import (
            AttritionPlan,
            CollectionPlanConfig,
            collection_plan_sweep,
        )

        result = collection_plan_sweep(
            CollectionPlanConfig(plans=(("base", AttritionPlan()),)),
            seeds=(0, 1),
            cache=False,
        )
        _check_contract(result)
        assert result.summary()["best_plan"] == "base"
        assert result.comparisons[0].complete_counts == tuple(
            r.value["complete"] for r in result.records
        )


class TestKFoldEvaluate:
    @staticmethod
    def _train(train_subset, fold):
        from repro.histopath import train_model

        return train_model(train_subset, epochs=1, seed=fold)

    def test_unified_form_repeats_per_seed(self):
        from repro.histopath import KFoldConfig, kfold_evaluate, make_patches

        ds = make_patches(n=12, seed=0)
        result = kfold_evaluate(
            KFoldConfig(ds, self._train, n_folds=3), seeds=[0, 1]
        )
        _check_contract(result)
        assert len(result.scores) == 2
        assert len(result.records) == 6  # 2 splits x 3 folds
        assert result.summary()["n_folds"] == 3

    def test_config_validation_preserved(self):
        from repro.histopath import KFoldConfig, make_patches

        ds = make_patches(n=12, seed=0)
        with pytest.raises(ValueError, match="n_folds"):
            KFoldConfig(ds, self._train, n_folds=1)
        small = make_patches(n=2, seed=0)
        with pytest.raises(ValueError, match="cannot fill"):
            KFoldConfig(small, self._train, n_folds=3)


class TestRandomSearch:
    def _fixtures(self):
        from repro.autotune import CostModel, TVM_LIKE, matvec_kernel
        from repro.perf.roofline import A100_LIKE

        return matvec_kernel(64, 64), CostModel(A100_LIKE, n_workers=108), TVM_LIKE

    def test_unified_form_one_search_per_seed(self):
        from repro.autotune import RandomSearchConfig, random_search

        kernel, cost_model, framework = self._fixtures()
        result = random_search(
            RandomSearchConfig(kernel, cost_model, framework, n_trials=6),
            seeds=[0, 1, 2],
        )
        _check_contract(result)
        assert len(result.per_seed) == 3
        assert result.best.best_estimate.total_s == min(
            r.best_estimate.total_s for r in result.per_seed
        )


class TestReliabilityStudy:
    def test_unified_form(self):
        from repro.rl import (
            DQNConfig,
            ReliabilityResult,
            ReliabilityStudyConfig,
            reliability_study,
        )
        from repro.utils.rng import spawn_children

        dqn = DQNConfig(episodes=4, warmup_transitions=10)
        cfg = ReliabilityStudyConfig(
            env_names=("catch",),
            families=("cnn",),
            dqn=dqn,
            size=5,
            width=6,
            eval_episodes=3,
        )
        seeds = spawn_children(0, 2)
        result = reliability_study(cfg, seeds=seeds, cache=False)
        _check_contract(result)
        assert isinstance(result, ReliabilityResult)
        assert len(result.reports) == 1
        assert len(result.records) == 2
        assert result.reports[0].per_seed_returns == tuple(
            r.value for r in result.records
        )

    def test_unified_rejects_mixed_legacy_kwargs(self):
        from repro.rl import DQNConfig, ReliabilityStudyConfig, reliability_study

        cfg = ReliabilityStudyConfig(env_names=("catch",), families=("cnn",))
        with pytest.raises(TypeError):
            reliability_study(cfg, seeds=[0], config=DQNConfig())
