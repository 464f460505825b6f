"""R1 — end-of-program GPU contention and the staged-batch remedy (section 3/4).

Paper: "an array of ML/AI projects finishing at the same time resulted in
GPU availability issues — something that needs to be addressed by staging
GPU result collection across non-overlapping batches".  The harness runs
the 11-project season workload on a small GPU pool under three submission
policies and two scheduler disciplines, and prints the A2 ablation.

Registered as experiment ``R1``: the logic lives in
:mod:`repro.cluster.study`; run it standalone with
``python -m repro run R1``.
"""

from conftest import emit

from repro.cluster import (
    ClusterSimulator,
    generate_workload,
    naive_deadline_submission,
)
from repro.cluster.workload import default_reu_projects
from repro.cluster.study import (
    r1_pool_size_sweep,
    r1_scheduler_ablation,
    r1_submission_policies,
)

PROJECTS = default_reu_projects()
N_GPUS = 6


def test_submission_policies(benchmark):
    block = benchmark.pedantic(r1_submission_policies, rounds=1, iterations=1)
    for text in block.tables:
        emit(text)
    naive = block.values["naive deadline"]
    staged = block.values["staged batches"]
    assert naive["missed_deadlines"] > 0     # the paper's observed crunch
    assert staged["missed_deadlines"] == 0   # the paper's proposed remedy
    assert staged["p95_wait"] < naive["p95_wait"]
    assert staged["final_week_wait"] < naive["final_week_wait"]


def test_scheduler_discipline_ablation(benchmark):
    """A2: FIFO vs EASY backfill under the naive crunch."""
    block = benchmark.pedantic(r1_scheduler_ablation, rounds=1, iterations=1)
    for text in block.tables:
        emit(text)
    metrics = block.values
    assert metrics["backfill"]["mean_wait"] <= metrics["fifo"]["mean_wait"]
    # No discipline alone fixes the crunch — planning (staging) does.
    for m in metrics.values():
        assert m["missed_deadlines"] > 0


def test_pool_size_sweep(benchmark):
    """How many GPUs would the naive policy need? (the 'ablate the planet'
    cost of not planning)"""
    block = benchmark.pedantic(r1_pool_size_sweep, rounds=1, iterations=1)
    for text in block.tables:
        emit(text)
    rows = block.values["rows"]
    assert rows[0]["missed_deadlines"] >= rows[-1]["missed_deadlines"]


def test_simulator_event_throughput(benchmark):
    times = naive_deadline_submission(PROJECTS, seed=1)
    jobs = generate_workload(PROJECTS, submit_times=times, seed=42)

    def run():
        sim = ClusterSimulator(N_GPUS, policy="backfill")
        sim.run(list(jobs))
        return sim.events.events_fired

    benchmark(run)
