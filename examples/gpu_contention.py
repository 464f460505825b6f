#!/usr/bin/env python
"""Scenario: plan the season's GPU usage to avoid the poster-week crunch.

Run:
    python examples/gpu_contention.py [n_gpus]

Reproduces the paper's resource story interactively: the 11 student
projects submit their final result-collection jobs to a small shared GPU
pool.  Under the naive everybody-waits-until-the-deadline pattern the
queue explodes in the final week ("others who were even slightly late to
launch were stuck"); the staged-batch plan the paper proposes absorbs the
same demand with zero missed poster deadlines.
"""

import sys

from repro.cluster import (
    ClusterSimulator,
    evaluate_schedule,
    generate_workload,
    naive_deadline_submission,
    staged_batch_submission,
    uniform_submission,
)
from repro.cluster.workload import default_reu_projects
from repro.utils.tables import Table


def main(n_gpus: int = 6) -> None:
    projects = default_reu_projects()
    print(f"Season workload: {len(projects)} projects on a {n_gpus}-GPU pool")
    print(f"GPU-hungry projects: {[p.name for p in projects if p.gpu_hungry]}")
    print()

    policies = {
        "naive deadline rush": naive_deadline_submission(projects, seed=1),
        "uniform (no plan)": uniform_submission(projects, seed=1),
        "staged batches (the paper's remedy)": staged_batch_submission(projects),
    }

    table = Table(
        ["policy", "mean wait h", "p95 wait h", "missed deadlines", "makespan h"],
        title="Submission policy comparison (EASY-backfill scheduler)",
    )
    for name, times in policies.items():
        jobs = generate_workload(projects, submit_times=times, seed=42)
        sim = ClusterSimulator(n_gpus, policy="backfill")
        m = evaluate_schedule(sim.run(jobs))
        table.add_row([name, m.mean_wait, m.p95_wait, m.missed_deadlines, m.makespan])
    print(table.render())

    print()
    print("Per-project lateness under the naive policy:")
    jobs = generate_workload(
        projects, submit_times=policies["naive deadline rush"], seed=42
    )
    sim = ClusterSimulator(n_gpus, policy="backfill")
    records = sim.run(jobs)
    lateness: dict[str, float] = {}
    for record in records:
        lateness[record.job.project] = lateness.get(record.job.project, 0.0) + record.lateness
    for project, hours in sorted(lateness.items(), key=lambda kv: -kv[1]):
        marker = "  <- poster at risk" if hours > 0 else ""
        print(f"  {project:16s} {hours:7.1f} h late{marker}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
