"""Scheduling-engine throughput: simulated jobs per wall second, per policy.

The engine rebuild (a reservation calendar of future capacity, with
completions as events) trades the seed's O(n^2) completion path for
near-linear event processing; this bench is the receipt.  It drives :func:`synthetic_workload`'s
steady-state arrival stream — bounded queue depth, so the measurement
isolates per-job engine cost — through every policy family member and
reports jobs/sec at increasing workload sizes.

Two entry points:

* **pytest** (CI): modest sizes, asserts the throughput floor and the
  sub-linear degradation contract alongside the other benchmarks.
* **standalone** (``python benchmarks/bench_cluster.py``): the full
  sweep, default up to one million jobs, with ``--record``/``--against``
  wiring into the same :class:`repro.obs.baseline.BaselineStore` file
  the ``repro bench`` CI gate uses (tier ``cluster-throughput``, keys
  ``<policy>@<n_jobs>``).
"""

from __future__ import annotations

import argparse
import sys
import time

from conftest import emit

from repro import obs
from repro.cluster import ClusterSimulator, synthetic_workload
from repro.exp.reporting import rows_table
from repro.obs.baseline import BaselineStore

N_GPUS = 32
POLICIES = ("fifo", "backfill", "edf", "fairshare", "conservative",
            "hybrid-4")
BASELINE_TIER = "cluster-throughput"


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
    return {
        "policy": policy,
        "n_jobs": n_jobs,
        "wall_s": wall,
        "jobs_per_s": n_jobs / wall if wall > 0 else 0.0,
    }


def throughput_table(rows: list[dict]) -> str:
    return rows_table(
        ["policy", "jobs", "wall s", "jobs/s"],
        [[r["policy"], r["n_jobs"], r["wall_s"], round(r["jobs_per_s"])]
         for r in rows],
        title=f"cluster engine throughput ({N_GPUS} GPUs, mixed stream)",
    )


# -- pytest entry points ----------------------------------------------------


def test_policy_throughput_floor(benchmark):
    """Every policy family member clears a conservative jobs/sec floor."""
    rows = benchmark.pedantic(
        lambda: [measure(p, 5_000) for p in POLICIES], rounds=1, iterations=1
    )
    emit(throughput_table(rows))
    # ~20k jobs/s locally; 500/s is the "something went quadratic" alarm,
    # not a performance target, so CI hardware variance cannot trip it.
    for row in rows:
        assert row["jobs_per_s"] > 500, row


def test_throughput_degrades_sublinearly(benchmark):
    """10x the jobs must cost well under 10x the wall time."""
    small, large = benchmark.pedantic(
        lambda: (measure("backfill", 5_000), measure("backfill", 50_000)),
        rounds=1, iterations=1,
    )
    emit(throughput_table([small, large]))
    assert large["jobs_per_s"] > small["jobs_per_s"] / 4.0


# -- standalone sweep -------------------------------------------------------


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
    parser.add_argument("--record", metavar="PATH",
                        help="record medians into this baseline store")
    parser.add_argument("--against", metavar="PATH",
                        help="compare against this baseline store")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="regression threshold for --against")
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
                f"({row['jobs_per_s']:>9.0f} jobs/s)",
                flush=True,
            )
    print()
    print(throughput_table(rows))

    timings = {f"{r['policy']}@{r['n_jobs']}": [r["wall_s"]] for r in rows}
    status = 0
    if args.against:
        report = BaselineStore.load(args.against).compare(
            BASELINE_TIER, timings, threshold=args.threshold
        )
        print()
        print(report.to_table())
        status = 0 if report.passed else 1
    if args.record:
        store = BaselineStore.load(args.record)
        for key, samples in timings.items():
            store.record(BASELINE_TIER, key, samples)
        store.save()
        print(f"\nrecorded {len(timings)} baselines to {args.record}")
    return status


if __name__ == "__main__":
    sys.exit(main())
