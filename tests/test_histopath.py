"""Tests for the histopathology substrate (section 2.7)."""

import numpy as np
import pytest

from repro.histopath import (
    augment_dataset,
    build_model,
    count_mae,
    KFoldConfig,
    dice_score,
    kfold_evaluate,
    make_patches,
    pretrain_trunk,
    train_model,
)


@pytest.fixture(scope="module")
def patches():
    return make_patches(n=40, seed=0)


class TestData:
    def test_shapes(self, patches):
        assert patches.images.shape == (40, 24, 24, 1)
        assert patches.tissue_masks.shape == (40, 24, 24)
        assert patches.cell_counts.shape == (40,)

    def test_pixel_range(self, patches):
        assert patches.images.min() >= 0.0
        assert patches.images.max() <= 1.0

    def test_tissue_fraction_near_target(self, patches):
        frac = patches.tissue_masks.mean()
        assert 0.3 < frac < 0.6

    def test_cells_mostly_in_tissue(self):
        # With high bias, bright spots should coincide with tissue.
        ds = make_patches(n=30, in_tissue_bias=0.95, noise=0.0, seed=1)
        in_tissue_brightness = ds.images[..., 0][ds.tissue_masks == 1].mean()
        out_brightness = ds.images[..., 0][ds.tissue_masks == 0].mean()
        assert in_tissue_brightness > out_brightness

    def test_subset(self, patches):
        sub = patches.subset(np.array([0, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.images[1], patches.images[3])

    def test_counts_are_nonnegative_ints(self, patches):
        assert np.all(patches.cell_counts >= 0)
        np.testing.assert_array_equal(
            patches.cell_counts, patches.cell_counts.astype(int)
        )


class TestMetrics:
    def test_dice_perfect(self):
        m = np.zeros((2, 8, 8), dtype=int)
        m[:, 2:5, 2:5] = 1
        assert dice_score(m, m) == 1.0

    def test_dice_disjoint(self):
        a = np.zeros((8, 8), dtype=int)
        b = np.zeros((8, 8), dtype=int)
        a[:2], b[6:] = 1, 1
        assert dice_score(a, b) == 0.0

    def test_dice_empty_pair_is_one(self):
        z = np.zeros((4, 4), dtype=int)
        assert dice_score(z, z) == 1.0

    def test_dice_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice_score(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_count_mae(self):
        assert count_mae(np.array([1.0, 3.0]), np.array([2.0, 5.0])) == 1.5


class TestModel:
    def test_forward_shapes(self, patches):
        model = build_model(width=6, seed=0)
        seg, count = model.forward(patches.images[:4])
        assert seg.shape == (4, 24, 24, 2)
        assert count.shape == (4,)

    def test_heads_parameter_selection(self):
        model = build_model(width=6, seed=0)
        both = len(model.parameters(heads="both"))
        seg = len(model.parameters(heads="seg"))
        count = len(model.parameters(heads="count"))
        assert both > seg
        assert both > count
        with pytest.raises(ValueError):
            model.parameters(heads="nope")

    def test_backward_requires_some_gradient(self, patches):
        model = build_model(width=6, seed=0)
        model.forward(patches.images[:2])
        with pytest.raises(ValueError):
            model.backward(None, None)

    def test_trunk_state_round_trip(self, patches):
        a = build_model(width=6, seed=0)
        b = build_model(width=6, seed=99)
        b.load_trunk_state(a.trunk_state())
        fa = a.trunk.forward(patches.images[:2])
        fb = b.trunk.forward(patches.images[:2])
        np.testing.assert_allclose(fa, fb)


class TestTraining:
    def test_multitask_learns_both_tasks(self, patches):
        model = train_model(patches, mode="multitask", epochs=20, seed=1)
        dice = dice_score(model.predict_mask(patches.images), patches.tissue_masks)
        mae = count_mae(model.predict_count(patches.images), patches.cell_counts)
        assert dice > 0.8
        assert mae < 3.0

    def test_single_task_seg_ignores_count_head(self, patches):
        model = train_model(patches, mode="seg", epochs=15, seed=2)
        dice = dice_score(model.predict_mask(patches.images), patches.tissue_masks)
        assert dice > 0.7

    def test_multitask_segmentation_beats_count_only(self, patches):
        count_only = train_model(patches, mode="count", epochs=12, seed=3)
        multi = train_model(patches, mode="multitask", epochs=12, seed=3)
        d_count = dice_score(
            count_only.predict_mask(patches.images), patches.tissue_masks
        )
        d_multi = dice_score(multi.predict_mask(patches.images), patches.tissue_masks)
        assert d_multi > d_count

    def test_pretraining_accelerates_convergence(self, patches):
        pre = make_patches(n=80, seed=7)
        state = pretrain_trunk(pre, epochs=12, seed=8)
        scratch = train_model(patches, mode="multitask", epochs=5, seed=9)
        warm = build_model(seed=9)
        warm.load_trunk_state(state)
        warm = train_model(patches, mode="multitask", epochs=5, seed=9, model=warm)
        d_scratch = dice_score(
            scratch.predict_mask(patches.images), patches.tissue_masks
        )
        d_warm = dice_score(warm.predict_mask(patches.images), patches.tissue_masks)
        assert d_warm >= d_scratch - 0.02

    def test_invalid_mode_rejected(self, patches):
        with pytest.raises(ValueError):
            train_model(patches, mode="bogus", epochs=1)


class TestAugmentation:
    def test_factor_expands(self, patches):
        aug = augment_dataset(patches, factor=3, seed=0)
        assert len(aug) == 3 * len(patches)

    def test_originals_preserved(self, patches):
        aug = augment_dataset(patches, factor=2, seed=0)
        np.testing.assert_array_equal(aug.images[: len(patches)], patches.images)

    def test_counts_invariant(self, patches):
        aug = augment_dataset(patches, factor=3, seed=0)
        for k in range(3):
            np.testing.assert_array_equal(
                aug.cell_counts[k * len(patches) : (k + 1) * len(patches)],
                patches.cell_counts,
            )

    def test_masks_follow_images(self, patches):
        # Augmented tissue fraction is preserved (dihedral ops are bijections).
        aug = augment_dataset(patches, factor=2, seed=1)
        orig_frac = patches.tissue_masks.mean()
        aug_frac = aug.tissue_masks[len(patches) :].mean()
        assert aug_frac == pytest.approx(orig_frac)

    def test_factor_one_is_identity(self, patches):
        aug = augment_dataset(patches, factor=1, seed=0)
        assert len(aug) == len(patches)


class TestCrossValidation:
    def test_kfold_runs(self, patches):
        score = kfold_evaluate(
            KFoldConfig(
                patches,
                lambda train, fold: train_model(
                    train, mode="multitask", epochs=6, seed=fold
                ),
                n_folds=3,
            ),
            seeds=[0],
        ).scores[0]
        assert len(score.dice) == 3
        assert score.mean_dice > 0.5

    def test_kfold_rejects_too_many_folds(self, patches):
        with pytest.raises(ValueError):
            kfold_evaluate(
                KFoldConfig(patches.subset(np.arange(2)), lambda t, f: None, n_folds=5),
                seeds=[0],
            )


class TestPostprocessing:
    def test_label_single_blob(self):
        from repro.histopath import label_components

        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:4] = True
        labels = label_components(mask)
        assert labels.max() == 1
        assert (labels > 0).sum() == 4

    def test_label_two_separated_blobs(self):
        from repro.histopath import label_components

        mask = np.zeros((8, 8), dtype=bool)
        mask[0:2, 0:2] = True
        mask[5:7, 5:7] = True
        assert label_components(mask).max() == 2

    def test_diagonal_connectivity(self):
        from repro.histopath import label_components

        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert label_components(mask, connectivity=4).max() == 2
        assert label_components(mask, connectivity=8).max() == 1

    def test_u_shape_merges_via_equivalence(self):
        """A U shape forces label equivalence resolution in pass 2."""
        from repro.histopath import label_components

        mask = np.array(
            [
                [1, 0, 1],
                [1, 0, 1],
                [1, 1, 1],
            ],
            dtype=bool,
        )
        assert label_components(mask).max() == 1

    def test_count_blobs_min_size_filter(self):
        from repro.histopath import count_blobs

        mask = np.zeros((8, 8), dtype=bool)
        mask[0:3, 0:3] = True   # 9 px
        mask[6, 6] = True       # 1 px speck
        assert count_blobs(mask, min_size=1) == 2
        assert count_blobs(mask, min_size=2) == 1

    def test_empty_mask(self):
        from repro.histopath import count_blobs

        assert count_blobs(np.zeros((5, 5), dtype=bool)) == 0

    def test_counting_baseline_tracks_truth(self, patches):
        from repro.histopath import counting_baseline

        estimates = counting_baseline(patches)
        mae = float(np.mean(np.abs(estimates - patches.cell_counts)))
        assert mae < 3.0  # classical pipeline is competitive on clean patches

    def test_counting_baseline_on_noiseless_patches(self):
        from repro.histopath import counting_baseline
        from repro.histopath.data import make_patches as mk

        clean = mk(n=12, noise=0.01, mean_cells=4.0, seed=11)
        estimates = counting_baseline(clean)
        mae = float(np.mean(np.abs(estimates - clean.cell_counts)))
        assert mae < 1.5


class TestMemory:
    def test_smoke_e7_peak_allocation_is_bounded(self):
        """E7 at smoke tier peaks at <= 40 MB of traced allocations.

        A conv layer keeps one patch matrix per tag, for its training
        batch only, and drops it on its first eval forward; keeping one
        per batch shape ever seen peaked near 68 MB.  tracemalloc counts
        bytes, so the bound holds on any host.
        """
        import tracemalloc

        from repro.exp.registry import get_experiment

        tracemalloc.start()
        try:
            get_experiment("E7").run(smoke=True, workers=1, cache=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20, f"E7 peaked at {peak / 2**20:.1f} MB"
