"""Golden schedule fingerprints: the policy engine is a refactor, not a fork.

These SHA-256 fingerprints were captured from the pre-engine simulator
(enum dispatch, linear running-list) over the seed workloads: every
(submission plan, legacy policy, pool size) cell hashes the full
``job_id start end`` schedule.  The rebuilt engine — reservation
calendar, one reservation sweep at every policy depth, pluggable
policies — must reproduce each one byte for byte.  A mismatch here
means observable scheduling behaviour changed, which is exactly what
the refactor promised not to do.  What the engine's decisions cost is
pinned separately, as exact operation counts, in
``test_cluster_opcounts.py``.

Pools 2 and 3 are included because EASY backfill only diverges from FIFO
when the pool is tight (at 6 GPUs the seed workloads happen to schedule
identically under fifo/backfill/edf).
"""

import hashlib

import pytest

from repro.cluster import (
    ClusterSimulator,
    default_reu_projects,
    generate_workload,
    naive_deadline_submission,
    staged_batch_submission,
    uniform_submission,
)

WORKLOAD_SEED = 42
SUBMIT_SEED = 1

GOLDEN = {
    ("naive", "fifo", 2): "0358c1efe28b8774",
    ("naive", "backfill", 2): "0358c1efe28b8774",
    ("naive", "edf", 2): "0358c1efe28b8774",
    ("naive", "fairshare", 2): "35b397ff1bf855a7",
    ("staged", "fifo", 2): "b8826960723f4c7b",
    ("staged", "backfill", 2): "bb490db73f5c249a",
    ("staged", "edf", 2): "b8826960723f4c7b",
    ("staged", "fairshare", 2): "a983e04cf3d07d3e",
    ("uniform", "fifo", 2): "87e52024a35c34af",
    ("uniform", "backfill", 2): "7bac6beb89d4bde8",
    ("uniform", "edf", 2): "87e52024a35c34af",
    ("uniform", "fairshare", 2): "8db9f7f3fa3d384a",
    ("naive", "fifo", 3): "82f1953d7d60f4ca",
    ("naive", "backfill", 3): "87a8fd4cd8b19e27",
    ("naive", "edf", 3): "82f1953d7d60f4ca",
    ("naive", "fairshare", 3): "86743c778142e4d7",
    ("staged", "fifo", 3): "d59716202475aadd",
    ("staged", "backfill", 3): "d2f26dd0b99800b6",
    ("staged", "edf", 3): "d59716202475aadd",
    ("staged", "fairshare", 3): "6c069e30877c093a",
    ("uniform", "fifo", 3): "bc66c4930b92af3a",
    ("uniform", "backfill", 3): "8bbfe9d3085ea12c",
    ("uniform", "edf", 3): "bc66c4930b92af3a",
    ("uniform", "fairshare", 3): "ccd9f87112094e4a",
    ("naive", "fifo", 6): "2e61efdc897a7c47",
    ("naive", "backfill", 6): "2e61efdc897a7c47",
    ("naive", "edf", 6): "2e61efdc897a7c47",
    ("naive", "fairshare", 6): "6f4ba9f9c5dfd4bd",
    ("staged", "fifo", 6): "589d721f4f3e0dc9",
    ("staged", "backfill", 6): "589d721f4f3e0dc9",
    ("staged", "edf", 6): "589d721f4f3e0dc9",
    ("staged", "fairshare", 6): "0c5ea1b2fb7c40b7",
    ("uniform", "fifo", 6): "9f7548e36b458973",
    ("uniform", "backfill", 6): "9f7548e36b458973",
    ("uniform", "edf", 6): "9f7548e36b458973",
    ("uniform", "fairshare", 6): "9f7548e36b458973",
}


def _plans():
    projects = default_reu_projects()
    return projects, {
        "naive": naive_deadline_submission(projects, seed=SUBMIT_SEED),
        "staged": staged_batch_submission(projects),
        "uniform": uniform_submission(projects, seed=SUBMIT_SEED),
    }


def _fingerprint(records):
    text = "\n".join(
        f"{r.job.job_id} {r.start_time!r} {r.end_time!r}" for r in records
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("plan", ["naive", "staged", "uniform"])
@pytest.mark.parametrize("n_gpus", [2, 3, 6])
def test_golden_schedules_bit_identical(plan, n_gpus):
    projects, plans = _plans()
    jobs = generate_workload(
        projects, submit_times=plans[plan], seed=WORKLOAD_SEED
    )
    for policy in ("fifo", "backfill", "edf", "fairshare"):
        sim = ClusterSimulator(n_gpus, policy=policy)
        got = _fingerprint(sim.run(jobs))
        assert got == GOLDEN[(plan, policy, n_gpus)], (
            f"{plan}/{policy}/{n_gpus} schedule changed"
        )


def test_golden_easy_alias_matches_backfill():
    projects, plans = _plans()
    jobs = generate_workload(
        projects, submit_times=plans["naive"], seed=WORKLOAD_SEED
    )
    easy = ClusterSimulator(3, policy="easy").run(jobs)
    assert _fingerprint(easy) == GOLDEN[("naive", "backfill", 3)]
