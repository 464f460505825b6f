"""Scheduling-engine throughput: simulated jobs per wall second, per policy.

A standalone reporter (``python benchmarks/bench_cluster.py``), default
up to one million jobs.  It drives :func:`synthetic_workload`'s
steady-state arrival stream — bounded queue depth, so the measurement
isolates per-job engine cost — through every policy family member and
prints jobs/s beside calendar segments (scanned plus copied) per job,
which stays flat as the stream grows.  It gates nothing: exact work
counts are pinned in ``tests/test_cluster_opcounts.py``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.cluster import ClusterSimulator, synthetic_workload
from repro.exp.reporting import rows_table

N_GPUS = 32
POLICIES = ("fifo", "backfill", "edf", "fairshare", "conservative",
            "hybrid-4")


def measure(policy: str, n_jobs: int, n_gpus: int = N_GPUS,
            seed: int = 0) -> dict:
    """One timed simulation; telemetry quieted so the engine is what's timed."""
    jobs = synthetic_workload(n_jobs, n_gpus, mix="mixed", seed=seed)
    sim = ClusterSimulator(n_gpus, policy=policy)
    with obs.quiet():
        t0 = time.perf_counter()
        records = sim.run(jobs)
        wall = time.perf_counter() - t0
    assert len(records) == n_jobs
    ops = sim.op_counts()
    return {
        "policy": policy,
        "n_jobs": n_jobs,
        "wall_s": wall,
        "jobs_per_s": n_jobs / wall if wall > 0 else 0.0,
        "segments_per_job":
            (ops["segments_scanned"] + ops["segments_copied"]) / n_jobs,
    }


def throughput_table(rows: list[dict], n_gpus: int) -> str:
    return rows_table(
        ["policy", "jobs", "wall s", "jobs/s", "segments/job"],
        [[r["policy"], r["n_jobs"], r["wall_s"], round(r["jobs_per_s"]),
          r["segments_per_job"]]
         for r in rows],
        title=f"cluster engine throughput ({n_gpus} GPUs, mixed stream)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cluster scheduling-engine throughput sweep"
    )
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10_000, 100_000, 1_000_000])
    parser.add_argument("--policies", nargs="+", default=list(POLICIES))
    parser.add_argument("--n-gpus", type=int, default=N_GPUS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-policy-size", type=int, default=100_000,
        help="cap per-policy sizes; only the reference policy (backfill) "
             "runs the sizes above it",
    )
    args = parser.parse_args(argv)

    rows: list[dict] = []
    for n_jobs in args.sizes:
        for policy in args.policies:
            if n_jobs > args.max_policy_size and policy != "backfill":
                continue
            row = measure(policy, n_jobs, args.n_gpus, args.seed)
            rows.append(row)
            print(
                f"{policy:>14} {n_jobs:>9} jobs: {row['wall_s']:8.2f}s "
                f"({row['jobs_per_s']:>9.0f} jobs/s, "
                f"{row['segments_per_job']:6.2f} segments/job)",
                flush=True,
            )
    print()
    print(throughput_table(rows, args.n_gpus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
