"""Tests for the robust-statistics substrate (section 2.10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robuststats import (
    ContaminationModel,
    DimensionSweepConfig,
    contaminated_gaussian,
    coordinate_median,
    coordinate_trimmed_mean,
    dimension_sweep,
    filter_mean,
    geometric_median,
    sample_mean,
)
from repro.utils.rng import spawn_children


class TestContamination:
    def test_outlier_fraction(self):
        model = ContaminationModel(n=200, dim=10, eps=0.1)
        _, is_outlier, _ = contaminated_gaussian(model, seed=0)
        assert is_outlier.sum() == 20

    def test_clean_when_eps_zero(self):
        model = ContaminationModel(n=100, dim=5, eps=0.0)
        x, is_outlier, mu = contaminated_gaussian(model, seed=1)
        assert is_outlier.sum() == 0
        assert np.linalg.norm(x.mean(axis=0) - mu) < 0.6

    def test_custom_true_mean(self):
        model = ContaminationModel(n=400, dim=3, eps=0.0)
        mu_in = np.array([5.0, -2.0, 1.0])
        x, _, mu = contaminated_gaussian(model, true_mean=mu_in, seed=2)
        np.testing.assert_array_equal(mu, mu_in)
        assert np.linalg.norm(x.mean(axis=0) - mu_in) < 0.5

    @pytest.mark.parametrize("adv", ["far_point", "shifted_cluster", "subtle"])
    def test_adversaries_shift_sample_mean(self, adv):
        model = ContaminationModel(n=500, dim=50, eps=0.15, adversary=adv)
        x, is_outlier, mu = contaminated_gaussian(model, seed=3)
        clean_err = np.linalg.norm(x[~is_outlier].mean(axis=0) - mu)
        full_err = np.linalg.norm(x.mean(axis=0) - mu)
        assert full_err > clean_err

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            ContaminationModel(n=10, dim=2, eps=0.6)

    def test_rejects_unknown_adversary(self):
        with pytest.raises(ValueError):
            ContaminationModel(n=10, dim=2, eps=0.1, adversary="chaos")


class TestEstimators:
    def test_all_agree_on_clean_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(800, 10)) + 2.0
        target = np.full(10, 2.0)
        for est in (sample_mean, coordinate_median, geometric_median):
            assert np.linalg.norm(est(x) - target) < 0.3
        assert np.linalg.norm(filter_mean(x, 0.1) - target) < 0.3

    def test_median_resists_far_point(self):
        model = ContaminationModel(n=300, dim=20, eps=0.2, adversary="far_point")
        x, _, mu = contaminated_gaussian(model, seed=1)
        assert np.linalg.norm(coordinate_median(x) - mu) < np.linalg.norm(
            sample_mean(x) - mu
        )

    def test_filter_beats_mean_on_shifted_cluster(self):
        model = ContaminationModel(n=600, dim=100, eps=0.1)
        x, _, mu = contaminated_gaussian(model, seed=2)
        assert np.linalg.norm(filter_mean(x, 0.1) - mu) < 0.5 * np.linalg.norm(
            sample_mean(x) - mu
        )

    def test_trimmed_mean_basic(self):
        x = np.concatenate([np.zeros((18, 2)), np.full((2, 2), 100.0)])
        np.testing.assert_allclose(coordinate_trimmed_mean(x, 0.2), 0.0)

    def test_trimmed_mean_rejects_half_trim(self):
        with pytest.raises(ValueError):
            coordinate_trimmed_mean(np.zeros((4, 2)), 0.5)

    def test_geometric_median_minimizes_l1_sum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 4))
        gm = geometric_median(x)
        cost_gm = np.linalg.norm(x - gm, axis=1).sum()
        for _ in range(10):
            probe = gm + rng.normal(0, 0.2, size=4)
            assert cost_gm <= np.linalg.norm(x - probe, axis=1).sum() + 1e-6

    def test_geometric_median_handles_coincident_point(self):
        x = np.zeros((5, 3))
        x[0] = [1.0, 0.0, 0.0]
        out = geometric_median(x)
        assert np.all(np.isfinite(out))

    def test_filter_validates_eps(self):
        with pytest.raises(ValueError):
            filter_mean(np.zeros((10, 2)), 0.9)

    @given(st.integers(2, 30), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_filter_error_bounded_on_clean_data(self, dim, seed):
        """On uncontaminated Gaussians the filter is ~as good as the mean."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(300, dim))
        err_filter = np.linalg.norm(filter_mean(x, 0.05, seed=seed))
        err_mean = np.linalg.norm(sample_mean(x))
        assert err_filter <= err_mean + 3.0 * np.sqrt(dim / 300)


class TestDimensionSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return dimension_sweep(
            DimensionSweepConfig(dims=(10, 50, 150), eps=0.1),
            seeds=spawn_children(0, 4),
            cache=False,
        )

    def test_contains_oracle(self, sweep):
        assert "oracle" in sweep.errors
        assert sweep.errors["oracle"].shape == (3, 4)

    def test_filter_near_dimension_free(self, sweep):
        assert sweep.growth_ratio("filter") < 0.5 * sweep.growth_ratio("sample_mean")

    def test_sample_mean_error_grows_like_sqrt_d(self, sweep):
        growth = sweep.growth_ratio("sample_mean")
        expected = np.sqrt(150 / 10)
        assert 0.5 * expected < growth < 2.0 * expected

    def test_filter_tracks_oracle(self, sweep):
        ratio = sweep.mean_error("filter") / sweep.mean_error("oracle")
        assert np.all(ratio < 2.0)

    def test_rejects_unsorted_dims(self):
        with pytest.raises(ValueError):
            DimensionSweepConfig(dims=(50, 10))

    def test_rejects_reserved_name(self):
        with pytest.raises(ValueError, match="reserved"):
            DimensionSweepConfig(dims=(10,), estimators={"oracle": sample_mean})
