"""Cross-module integration tests.

These exercise the seams the paper's story depends on: a simulated season
feeding the GPU-cluster experiment, provenance wrapping real experiments,
and the nn substrate powering several project substrates at once.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    evaluate_schedule,
    generate_workload,
    naive_deadline_submission,
    staged_batch_submission,
)
from repro.cluster.workload import default_reu_projects
from repro.core import REUProgram, narrative_stats
from repro.provenance import (
    ExperimentManifest,
    verify_deterministic,
)
from repro.utils.rng import SeedSequenceLedger


class TestSeasonToCluster:
    """The program's 11 projects drive the R1 contention experiment."""

    def test_project_roster_matches_paper_section_count(self):
        outcome = REUProgram().run_season(seed=0)
        projects = default_reu_projects()
        assert len(projects) == 11  # sections 2.1-2.11
        # Season simulated the same world the workload models.
        assert narrative_stats(outcome).n_applicants == 85

    def test_full_pipeline_naive_vs_staged(self):
        projects = default_reu_projects()
        results = {}
        for label, times in (
            ("naive", naive_deadline_submission(projects, seed=3)),
            ("staged", staged_batch_submission(projects)),
        ):
            jobs = generate_workload(projects, submit_times=times, seed=11)
            sim = ClusterSimulator(6, policy="backfill")
            results[label] = evaluate_schedule(sim.run(jobs))
        assert results["staged"].total_lateness < results["naive"].total_lateness
        # Staging pays bounded makespan: within 10% of naive.
        assert results["staged"].makespan < results["naive"].makespan * 1.1

    def test_contention_vanishes_with_a_bigger_pool(self):
        """The paper's alternative remedy (more GPUs) also works here."""
        projects = default_reu_projects()
        times = naive_deadline_submission(projects, seed=3)
        late = {}
        for n_gpus in (6, 24):
            jobs = generate_workload(projects, submit_times=times, seed=11)
            sim = ClusterSimulator(n_gpus, policy="backfill")
            late[n_gpus] = evaluate_schedule(sim.run(jobs)).missed_deadlines
        assert late[24] < late[6]


class TestProvenanceOverExperiments:
    def test_season_is_deterministic_per_manifest(self):
        def experiment(seed):
            outcome = REUProgram().run_season(seed=seed)
            stats = narrative_stats(outcome)
            return {
                "phd_pre": stats.phd_intent_apriori_mean,
                "phd_post": stats.phd_intent_posthoc_mean,
                "goals_all": stats.goals_accomplished_by_all,
            }

        report = verify_deterministic(experiment, seed=7)
        assert report.reproducible

    def test_manifest_chains_multiple_experiments(self):
        manifest = ExperimentManifest("season-sweep")
        ledger = SeedSequenceLedger(0)
        for seed in range(3):
            outcome = REUProgram().run_season(seed=seed)
            stats = narrative_stats(outcome)
            manifest.record(
                f"season-{seed}",
                {"seed": seed},
                ledger.audit(),
                result={"goals_all": stats.goals_accomplished_by_all},
            )
        assert manifest.verify_chain()
        restored = ExperimentManifest.from_json(manifest.to_json())
        assert restored.verify_chain()

    def test_particle_filter_run_is_reproducible(self):
        from repro.particlefilter import Performance, make_schedule, track

        def experiment(seed):
            schedule = make_schedule(6, seed=seed)
            pos, obs = Performance(schedule, seed=seed + 1).simulate()
            res = track(schedule, pos, obs, n_particles=64, seed=seed + 2)
            return {"mae": res.mean_abs_error, "resamples": res.n_resamples}

        assert verify_deterministic(experiment, seed=5)


class TestNNAcrossSubstrates:
    def test_shared_substrate_trains_distinct_tasks(self):
        """One nn stack powers detection, malware, and unlearning models."""
        from repro.detect import extract_frames, make_field_strip, train_detector
        from repro.malware import OpcodeDatasetSpec, build_cnn_classifier
        from repro.unlearning import make_class_blobs, train_classifier

        strip = make_field_strip(total_width=256, seed=0)
        frames = extract_frames(strip, 4, 32, stride=32)
        detector = train_detector(frames, epochs=2, width=4, seed=0)
        assert detector.n_parameters > 0

        x, y = make_class_blobs(n_classes=2, n_per_class=30, dim=6, seed=0)
        clf = train_classifier(x, y, 2, epochs=3, seed=0)
        assert clf.gradient_updates > 0

        cnn = build_cnn_classifier(16, seed=0)
        out = cnn.predict(np.zeros((2, 32), dtype=int))
        assert out.shape == (2, 2)

    def test_perf_module_times_nn_kernels(self):
        from repro.nn import Dense
        from repro.perf import measure

        layer = Dense(64, 64, seed=0)
        x = np.random.default_rng(0).normal(size=(32, 64))
        m = measure(lambda: layer.forward(x), repeats=3, warmup=1)
        assert m.minimum > 0

    def test_autotune_roofline_consistency(self):
        """The autotune cost model and perf roofline agree on boundedness."""
        from repro.autotune import CostModel, TVM_LIKE, default_schedule, matvec_kernel
        from repro.perf import roofline_analysis
        from repro.perf.roofline import A100_LIKE

        kernel = matvec_kernel(8192, 8192)
        roof = roofline_analysis(
            A100_LIKE, kernel.name, kernel.flops, kernel.compulsory_bytes
        )
        est = CostModel(A100_LIKE, n_workers=108).estimate(
            kernel, default_schedule(kernel), TVM_LIKE
        )
        assert roof.bound == est.bound == "memory"
        # The cost model can never beat the roofline.
        assert est.gflops <= roof.attainable_gflops * 1.01


class TestCostModelCalibration:
    """The analytic model's qualitative claims hold on this machine's BLAS.

    Absolute GF/s are out of scope (the model targets nominal hardware),
    but the *ordering* it predicts — compute-bound matmul achieves far
    higher arithmetic throughput than memory-bound matvec at equal operand
    scale — is a hardware fact the model must agree with.
    """

    @staticmethod
    def _best_gflops(fn, flops, trials=5):
        import time

        fn()  # warmup
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return flops / best / 1e9

    def test_measured_ordering_matches_model(self):
        from repro.autotune import (
            CostModel,
            TVM_LIKE,
            default_schedule,
            matmul_kernel,
            matvec_kernel,
        )
        from repro.perf.roofline import A100_LIKE

        rng = np.random.default_rng(0)
        n = 768
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        x = rng.normal(size=n)
        measured_matmul = self._best_gflops(lambda: a @ b, 2.0 * n**3)
        measured_matvec = self._best_gflops(lambda: a @ x, 2.0 * n**2)
        # Hardware fact: the compute-bound kernel sustains far more FLOP/s.
        assert measured_matmul > 2.0 * measured_matvec

        cm = CostModel(A100_LIKE, n_workers=108)
        k_mm = matmul_kernel(n, n, n)
        k_mv = matvec_kernel(n, n)
        est_mm = cm.estimate(k_mm, default_schedule(k_mm), TVM_LIKE)
        est_mv = cm.estimate(k_mv, default_schedule(k_mv), TVM_LIKE)
        # The model agrees on the ordering and on who is memory-bound.
        assert est_mm.gflops > est_mv.gflops
        assert est_mv.bound == "memory"
        assert est_mm.bound == "compute"
