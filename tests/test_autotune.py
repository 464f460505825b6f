"""Tests for the autotuning substrate (section 2.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import (
    CostModel,
    GeneticTuner,
    MLIR_LIKE,
    Parallelize,
    RandomSearchConfig,
    Schedule,
    TVM_LIKE,
    Tile,
    Unroll,
    Vectorize,
    conv1d_kernel,
    conv2d_kernel,
    default_schedule,
    lesson_kernels,
    matmul_kernel,
    matvec_kernel,
    random_search,
    replay_schedule,
)
from repro.perf.roofline import A100_LIKE


@pytest.fixture(scope="module")
def cm():
    return CostModel(A100_LIKE, n_workers=108)


class TestKernels:
    def test_lesson_set_has_five(self):
        names = [k.name for k in lesson_kernels()]
        assert names == ["matvec", "conv1d", "conv2d", "matmul", "matmul_t"]

    def test_matvec_is_memory_lean(self):
        k = matvec_kernel(1024, 1024)
        assert k.arithmetic_intensity < 1.0  # FLOP per byte: memory bound

    def test_matmul_intensity_grows_with_size(self):
        small = matmul_kernel(64, 64, 64)
        large = matmul_kernel(1024, 1024, 1024)
        assert large.arithmetic_intensity > small.arithmetic_intensity

    def test_tiled_traffic_at_full_tiles_is_compulsory_ish(self):
        k = matmul_kernel(256, 256, 256)
        full = k.tiled_traffic({"i": 256, "j": 256, "k": 256})
        assert full == pytest.approx(k.compulsory_bytes, rel=0.5)

    def test_smaller_tiles_more_traffic(self):
        k = matmul_kernel(256, 256, 256)
        assert k.tiled_traffic({"i": 16, "j": 16}) > k.tiled_traffic(
            {"i": 128, "j": 128}
        )

    @pytest.mark.parametrize(
        "kernel,args",
        [
            (matvec_kernel(32, 16), (np.random.default_rng(0).normal(size=(32, 16)),
                                     np.random.default_rng(1).normal(size=16))),
            (matmul_kernel(8, 9, 10), (np.random.default_rng(0).normal(size=(8, 10)),
                                       np.random.default_rng(1).normal(size=(10, 9)))),
        ],
    )
    def test_reference_implementations_match_numpy(self, kernel, args):
        if kernel.name == "matvec":
            np.testing.assert_allclose(kernel.reference(*args), args[0] @ args[1])
        else:
            np.testing.assert_allclose(kernel.reference(*args), args[0] @ args[1])

    def test_conv1d_reference_correct(self):
        k = conv1d_kernel(32, 4)
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=32), rng.normal(size=4)
        expected = np.array(
            [np.dot(x[i : i + 4], w) for i in range(29)]
        )
        np.testing.assert_allclose(k.reference(x, w), expected, atol=1e-12)

    def test_conv2d_reference_shape(self):
        k = conv2d_kernel(10, 12, 3, 5, 3)
        rng = np.random.default_rng(3)
        out = k.reference(rng.normal(size=(10, 12, 3)), rng.normal(size=(3, 3, 3, 5)))
        assert out.shape == (8, 10, 5)

    def test_clamp_tiles(self):
        k = matvec_kernel(64, 64)
        tiles = k.clamp_tiles({"i": 1000, "j": 0})
        assert tiles == {"i": 64, "j": 1}


class TestScheduleLanguage:
    def test_validate_accepts_default(self):
        k = matmul_kernel(64, 64, 64)
        default_schedule(k).validate(k)

    def test_unknown_loop_rejected(self):
        k = matvec_kernel(32, 32)
        with pytest.raises(ValueError, match="unknown loop"):
            Schedule((Tile("z", 4),)).validate(k)

    def test_parallel_reduction_rejected(self):
        k = matmul_kernel(64, 64, 64)
        with pytest.raises(ValueError, match="reduction"):
            Schedule((Parallelize("k"),)).validate(k)

    def test_double_tile_rejected(self):
        k = matvec_kernel(32, 32)
        with pytest.raises(ValueError, match="tiled twice"):
            Schedule((Tile("i", 4), Tile("i", 8))).validate(k)

    def test_two_vectorize_rejected(self):
        k = matvec_kernel(32, 32)
        with pytest.raises(ValueError, match="one Vectorize"):
            Schedule((Vectorize("j", 4), Vectorize("i", 4))).validate(k)

    def test_lanes_exceeding_extent_rejected(self):
        k = matvec_kernel(32, 4)
        with pytest.raises(ValueError, match="lanes"):
            Schedule((Vectorize("j", 8),)).validate(k)

    def test_describe_stable(self):
        s = Schedule((Tile("i", 8), Parallelize("i"), Vectorize("j", 4), Unroll("j", 2)))
        assert s.describe() == "tile(i,8);parallel(i);vectorize(j,4);unroll(j,2)"

    def test_tile_sizes_default_to_extent(self):
        k = matmul_kernel(64, 32, 16)
        assert Schedule(()).tile_sizes(k) == {"i": 64, "j": 32, "k": 16}


class TestCostModel:
    def test_vectorization_helps_compute_bound(self, cm):
        k = matmul_kernel(512, 512, 512)
        plain = Schedule((Parallelize("i"),))
        vec = Schedule((Parallelize("i"), Vectorize("k", 8)))
        assert cm.estimate(k, vec, TVM_LIKE).total_s < cm.estimate(
            k, plain, TVM_LIKE
        ).total_s

    def test_parallelization_helps(self, cm):
        k = matmul_kernel(512, 512, 512)
        serial = Schedule((Vectorize("k", 8),))
        parallel = Schedule((Parallelize("i"), Vectorize("k", 8)))
        assert cm.estimate(k, parallel, TVM_LIKE).total_s < cm.estimate(
            k, serial, TVM_LIKE
        ).total_s

    def test_matvec_memory_bound(self, cm):
        k = matvec_kernel(4096, 4096)
        est = cm.estimate(k, default_schedule(k), TVM_LIKE)
        assert est.bound == "memory"

    def test_matmul_compute_bound(self, cm):
        k = matmul_kernel(1536, 1536, 1536)
        est = cm.estimate(k, default_schedule(k), TVM_LIKE)
        assert est.bound == "compute"

    def test_gflops_below_peak(self, cm):
        for k in lesson_kernels(0.5):
            est = cm.estimate(k, default_schedule(k), TVM_LIKE)
            assert est.gflops <= A100_LIKE.peak_gflops

    def test_unroll_reduces_overhead(self, cm):
        k = matvec_kernel(4096, 4096)
        base = Schedule((Tile("i", 8), Parallelize("i"), Vectorize("j", 8)))
        unrolled = Schedule(
            (Tile("i", 8), Parallelize("i"), Vectorize("j", 8), Unroll("j", 8))
        )
        assert cm.estimate(k, unrolled, TVM_LIKE).overhead_s < cm.estimate(
            k, base, TVM_LIKE
        ).overhead_s


class TestSearch:
    def test_genetic_improves_over_generations(self, cm):
        k = matmul_kernel(512, 512, 512)
        res = GeneticTuner(cm, TVM_LIKE, population=16, generations=8, seed=0).tune(k)
        assert res.history[-1] <= res.history[0]
        assert res.evaluations == 16 * 9

    def test_genetic_beats_or_matches_default(self, cm):
        k = conv2d_kernel(128, 128, 32, 32, 3)
        res = GeneticTuner(cm, TVM_LIKE, population=20, generations=10, seed=1).tune(k)
        default_cost = cm.estimate(k, default_schedule(k), TVM_LIKE).total_s
        assert res.best_estimate.total_s <= default_cost * 1.05

    def test_genetic_beats_random_at_equal_budget(self, cm):
        k = matmul_kernel(1024, 1024, 1024)
        ga = GeneticTuner(cm, TVM_LIKE, population=16, generations=9, seed=2).tune(k)
        rs = random_search(
            RandomSearchConfig(k, cm, TVM_LIKE, n_trials=160), seeds=[2]
        ).per_seed[0]
        assert ga.best_estimate.total_s <= rs.best_estimate.total_s * 1.10

    def test_best_schedule_is_valid(self, cm):
        for k in lesson_kernels(0.25):
            res = GeneticTuner(cm, TVM_LIKE, population=8, generations=3, seed=3).tune(k)
            res.best_schedule.validate(k)  # must not raise

    def test_deterministic_given_seed(self, cm):
        k = matvec_kernel(2048, 2048)
        a = GeneticTuner(cm, TVM_LIKE, population=8, generations=4, seed=5).tune(k)
        b = GeneticTuner(cm, TVM_LIKE, population=8, generations=4, seed=5).tune(k)
        assert a.best_estimate.total_s == b.best_estimate.total_s

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_genomes_always_valid(self, seed):
        cm = CostModel(A100_LIKE, n_workers=108)
        tuner = GeneticTuner(cm, TVM_LIKE, seed=seed)
        for k in lesson_kernels(0.1):
            genome = tuner._random_genome(k)
            tuner._to_schedule(genome, k).validate(k)


class TestReplicationExperiment:
    """E5: replay TVM-tuned schedules on the MLIR-like backend."""

    def test_matvec_mlir_exceeds_tvm(self, cm):
        k = matvec_kernel(8192, 8192)
        res = GeneticTuner(cm, TVM_LIKE, population=24, generations=12, seed=7).tune(k)
        src, tgt = replay_schedule(res.best_schedule, k, cm, TVM_LIKE, MLIR_LIKE)
        assert tgt.gflops > src.gflops  # the paper's headline crossover

    def test_matmul_gap_remains(self, cm):
        k = matmul_kernel(1536, 1536, 1536)
        res = GeneticTuner(cm, TVM_LIKE, population=24, generations=12, seed=7).tune(k)
        src, tgt = replay_schedule(res.best_schedule, k, cm, TVM_LIKE, MLIR_LIKE)
        assert tgt.gflops < src.gflops

    def test_schedule_transfers_verbatim(self, cm):
        k = conv2d_kernel(128, 128, 32, 32, 3)
        sched = default_schedule(k)
        src, tgt = replay_schedule(sched, k, cm, TVM_LIKE, MLIR_LIKE)
        assert src.schedule == tgt.schedule == sched.describe()


class TestReorder:
    """The Reorder primitive and its stride-penalty semantics."""

    def test_reorder_permutation_required(self):
        from repro.autotune import Reorder

        k = matmul_kernel(64, 64, 64)
        with pytest.raises(ValueError, match="permutation"):
            Schedule((Reorder(("i", "j")),)).validate(k)

    def test_reorder_duplicate_rejected(self):
        from repro.autotune import Reorder

        with pytest.raises(ValueError, match="duplicate"):
            Reorder(("i", "i", "j"))

    def test_vectorize_must_hit_innermost(self):
        from repro.autotune import Reorder

        k = matmul_kernel(64, 64, 64)
        # After reorder, 'j' is innermost; vectorizing 'k' is invalid.
        bad = Schedule((Reorder(("i", "k", "j")), Vectorize("k", 4)))
        with pytest.raises(ValueError, match="innermost"):
            bad.validate(k)
        good = Schedule((Reorder(("i", "k", "j")), Vectorize("j", 4)))
        good.validate(k)

    def test_stride_penalty_applied(self, cm):
        from repro.autotune import Reorder

        k = matvec_kernel(4096, 4096)
        unit = Schedule((Parallelize("i"), Vectorize("j", 8)))
        strided = Schedule((Reorder(("j", "i")), Parallelize("i"), Vectorize("i", 8)))
        t_unit = cm.estimate(k, unit, TVM_LIKE)
        t_strided = cm.estimate(k, strided, TVM_LIKE)
        assert t_strided.memory_s > t_unit.memory_s

    def test_describe_includes_reorder(self):
        from repro.autotune import Reorder

        s = Schedule((Reorder(("j", "i")),))
        assert s.describe() == "reorder(j,i)"

    def test_unit_stride_query(self):
        from repro.autotune import Reorder

        k = matmul_kernel(8, 8, 8)
        assert Schedule(()).unit_stride_innermost(k)
        assert not Schedule((Reorder(("k", "j", "i")),)).unit_stride_innermost(k)


class TestScheduleParser:
    """Text round-trip: describe() <-> parse_schedule()."""

    def test_naive_round_trip(self):
        from repro.autotune import parse_schedule

        assert parse_schedule("<naive>") == Schedule(())

    def test_full_round_trip(self):
        from repro.autotune import Reorder, parse_schedule

        schedule = Schedule(
            (
                Reorder(("i", "k", "j")),
                Tile("i", 64),
                Parallelize("i"),
                Vectorize("j", 8),
                Unroll("j", 4),
            )
        )
        assert parse_schedule(schedule.describe()) == schedule

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_property_ga_schedules_round_trip(self, seed):
        """Every schedule the tuner can emit survives the text round-trip."""
        from repro.autotune import parse_schedule

        cm = CostModel(A100_LIKE, n_workers=108)
        tuner = GeneticTuner(cm, TVM_LIKE, seed=seed)
        for k in lesson_kernels(0.1):
            genome = tuner._random_genome(k)
            schedule = tuner._to_schedule(genome, k)
            assert parse_schedule(schedule.describe()) == schedule

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "tile(i)",
            "tile(i,8,2)",
            "warp(i,8)",
            "vectorize(j,abc)",
            "tile(i,8);;parallel(i)",
            "reorder()",
            "tile(2 invalid,8)",
        ],
    )
    def test_malformed_rejected(self, bad):
        from repro.autotune import ScheduleParseError, parse_schedule

        with pytest.raises(ScheduleParseError):
            parse_schedule(bad)

    def test_primitive_constraints_surface_as_parse_errors(self):
        from repro.autotune import ScheduleParseError, parse_schedule

        with pytest.raises(ScheduleParseError):
            parse_schedule("tile(i,0)")  # Tile rejects size < 1
        with pytest.raises(ScheduleParseError):
            parse_schedule("unroll(i,1)")  # Unroll rejects factor < 2

    def test_parsed_schedule_replays_identically(self):
        """A schedule stored as text reproduces the same cost estimate."""
        from repro.autotune import parse_schedule

        cm = CostModel(A100_LIKE, n_workers=108)
        k = matmul_kernel(512, 512, 512)
        original = default_schedule(k)
        parsed = parse_schedule(original.describe())
        a = cm.estimate(k, original, TVM_LIKE)
        b = cm.estimate(k, parsed, TVM_LIKE)
        assert a.total_s == b.total_s
