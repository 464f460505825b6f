"""R1 — end-of-program GPU contention as a registered experiment.

Reproduces ``benchmarks/bench_r1_gpu_contention.py`` string-for-string;
the benchmark file is now a shim over this module.
"""

from __future__ import annotations

import time

from repro import obs
from repro.cluster.metrics import (
    evaluate_schedule,
    fairness_spread,
    tail_utilization,
    wait_percentiles,
)
from repro.cluster.policies import (
    naive_deadline_submission,
    staged_batch_submission,
    uniform_submission,
)
from repro.cluster.scheduler import ClusterSimulator
from repro.cluster.workload import (
    default_reu_projects,
    generate_workload,
    synthetic_workload,
)
from repro.exp.registry import Experiment, register
from repro.exp.reporting import rows_table
from repro.exp.result import Block, Check, ExpResult, Verdict

__all__ = [
    "r1_submission_policies",
    "r1_scheduler_ablation",
    "r1_pool_size_sweep",
    "r1_policy_shootout",
    "c1_throughput_sweep",
    "run_policy",
    "run_policy_traced",
]


def _season(times, n_gpus, policy, seed, projects):
    projects = default_reu_projects() if projects is None else projects
    jobs = generate_workload(projects, submit_times=times, seed=seed)
    sim = ClusterSimulator(n_gpus, policy=policy)
    return sim, sim.run(jobs)


def run_policy(times, n_gpus: int = 6, policy="backfill",
               seed: int = 42, projects=None):
    """One season workload under one submission-time plan and discipline."""
    return evaluate_schedule(_season(times, n_gpus, policy, seed, projects)[1])


def run_policy_traced(times, n_gpus: int = 6,
                      policy="backfill", seed: int = 42,
                      projects=None):
    """Like :func:`run_policy`, plus contention analytics.

    :meth:`ClusterSimulator.contention` folds the simulator's job records
    into utilization / queue-depth analytics.  ``repro trace`` reads the
    same fold from the run's ``cluster_run_finish`` record, so both
    report the same numbers, and telemetry being on or off changes
    neither.  With telemetry on, the run has already folded once and
    this reads that fold back.

    Returns ``(ScheduleMetrics, Contention)``.
    """
    sim, records = _season(times, n_gpus, policy, seed, projects)
    return evaluate_schedule(records), sim.contention()


def r1_submission_policies(n_gpus: int = 6, submit_seed: int = 1,
                           workload_seed: int = 42) -> Block:
    """Naive deadline crunch vs uniform vs the paper's staged remedy.

    Besides the queue-wait metrics the rendered table shows, each
    policy's values carry contention analytics (GPU utilization,
    tail-window utilization, peak queue depth): the simulator's own fold,
    which ``repro trace`` reads from a recorded run's
    ``cluster_run_finish`` records.
    """
    projects = default_reu_projects()
    plans = {
        "naive deadline": naive_deadline_submission(projects, seed=submit_seed),
        "uniform": uniform_submission(projects, seed=submit_seed),
        "staged batches": staged_batch_submission(projects),
    }
    metrics = {}
    analytics = {}
    for name, times in plans.items():
        metrics[name], analytics[name] = run_policy_traced(
            times, n_gpus, seed=workload_seed, projects=projects
        )
    return Block(
        values={
            name: {"mean_wait": float(m.mean_wait),
                   "p95_wait": float(m.p95_wait),
                   "final_week_wait": float(m.mean_wait_final_week),
                   "missed_deadlines": int(m.missed_deadlines),
                   "total_lateness": float(m.total_lateness),
                   "contention": analytics[name].as_dict()}
            for name, m in metrics.items()
        },
        tables=(
            rows_table(
                ["policy", "mean wait h", "p95 wait h", "final-week wait h",
                 "missed", "lateness h"],
                [
                    [name, m.mean_wait, m.p95_wait, m.mean_wait_final_week,
                     m.missed_deadlines, m.total_lateness]
                    for name, m in metrics.items()
                ],
                title=(
                    f"R1: submission policy vs contention ({n_gpus}-GPU "
                    f"pool, {len(projects)} projects)"
                ),
            ),
        ),
    )


def r1_scheduler_ablation(n_gpus: int = 6, submit_seed: int = 1,
                          workload_seed: int = 42) -> Block:
    """A2: FIFO vs EASY backfill vs EDF under the naive crunch."""
    projects = default_reu_projects()
    times = naive_deadline_submission(projects, seed=submit_seed)
    metrics = {
        name: run_policy(times, n_gpus, name, seed=workload_seed,
                         projects=projects)
        for name in ("fifo", "backfill", "edf")
    }
    return Block(
        values={
            name: {"mean_wait": float(m.mean_wait),
                   "p95_wait": float(m.p95_wait),
                   "missed_deadlines": int(m.missed_deadlines),
                   "total_lateness": float(m.total_lateness)}
            for name, m in metrics.items()
        },
        tables=(
            rows_table(
                ["scheduler", "mean wait h", "p95 wait h", "missed", "lateness h"],
                [
                    [name, m.mean_wait, m.p95_wait, m.missed_deadlines,
                     m.total_lateness]
                    for name, m in metrics.items()
                ],
                title="A2 ablation: queue discipline under the end-of-program crunch",
            ),
        ),
    )


def r1_pool_size_sweep(pool_sizes=(4, 6, 8, 12, 16), submit_seed: int = 1,
                       workload_seed: int = 42) -> Block:
    """How many GPUs would the naive policy need?"""
    projects = default_reu_projects()
    times = naive_deadline_submission(projects, seed=submit_seed)
    rows = []
    for n in pool_sizes:
        jobs = generate_workload(projects, submit_times=times, seed=workload_seed)
        sim = ClusterSimulator(n, policy="backfill")
        m = evaluate_schedule(sim.run(jobs))
        rows.append((n, m.missed_deadlines, m.p95_wait))
    return Block(
        values={
            "rows": [
                {"n_gpus": int(n), "missed_deadlines": int(miss),
                 "p95_wait": float(p95)}
                for n, miss, p95 in rows
            ]
        },
        tables=(
            rows_table(
                ["GPUs", "missed deadlines", "p95 wait h"],
                rows,
                title="R1: pool size needed to absorb the naive crunch",
            ),
        ),
    )


def r1_policy_shootout(
    policies=("fifo", "backfill", "edf", "fairshare", "conservative",
              "hybrid-2"),
    n_gpus: int = 6,
    submit_seed: int = 1,
    workload_seed: int = 42,
    shootout_jobs: int = 240,
) -> Block:
    """Every scheduling policy against every workload shape.

    Workloads: the three REU submission plans (naive crunch, uniform,
    staged batches) plus an ``llm_heavy`` open-arrival stream — the
    skewed mix where one project's long multi-GPU jobs dominate, which
    is where backfilling families and fair-share actually separate.

    Per cell: wait p50/p95/p99 (the median-vs-tail trade), utilization
    over the last quarter of the makespan (how well the discipline packs
    the end-of-program window), and the per-project fairness spread.
    """
    projects = default_reu_projects()
    workloads = {
        "naive": generate_workload(
            projects,
            submit_times=naive_deadline_submission(projects, seed=submit_seed),
            seed=workload_seed,
        ),
        "uniform": generate_workload(
            projects,
            submit_times=uniform_submission(projects, seed=submit_seed),
            seed=workload_seed,
        ),
        "staged": generate_workload(
            projects,
            submit_times=staged_batch_submission(projects),
            seed=workload_seed,
        ),
        "llm_heavy": synthetic_workload(
            shootout_jobs, n_gpus, mix="llm_heavy", seed=workload_seed
        ),
    }
    values: dict[str, dict[str, dict[str, float]]] = {}
    tables = []
    for plan, jobs in workloads.items():
        values[plan] = {}
        rows = []
        for policy in policies:
            sim = ClusterSimulator(n_gpus, policy=policy)
            records = sim.run(jobs)
            pcts = wait_percentiles(records)
            cell = {
                "p50_wait": pcts["p50"],
                "p95_wait": pcts["p95"],
                "p99_wait": pcts["p99"],
                "tail_utilization": tail_utilization(records, n_gpus),
                "fairness_spread": fairness_spread(records),
                "makespan": float(max(r.end_time for r in records)),
            }
            values[plan][str(policy)] = cell
            rows.append(
                [policy, cell["p50_wait"], cell["p95_wait"], cell["p99_wait"],
                 cell["tail_utilization"], cell["fairness_spread"]]
            )
        tables.append(
            rows_table(
                ["policy", "p50 wait h", "p95 wait h", "p99 wait h",
                 "tail util", "fairness spread h"],
                rows,
                title=f"R1 policy shoot-out: {plan} workload ({n_gpus} GPUs)",
            )
        )
    return Block(values=values, tables=tuple(tables))


def _segments_per_job(row) -> float:
    """Calendar segments scanned or copied per simulated job."""
    ops = row["ops"]
    return (ops["segments_scanned"] + ops["segments_copied"]) / row["n_jobs"]


def c1_throughput_sweep(
    sizes=(10_000, 100_000),
    n_gpus: int = 32,
    policy: str = "backfill",
    mix: str = "mixed",
    seed: int = 0,
) -> Block:
    """Engine work and throughput vs workload size.

    Workloads come from :func:`synthetic_workload`'s steady-state stream,
    so queue depth stays bounded and the engine's work per job should
    stay flat as the stream grows.  Each row's values carry the run's
    exact :meth:`ClusterSimulator.op_counts`, the same on any host; only
    the rendered table shows wall seconds and jobs/s.  Telemetry is
    quieted for the run, so the table times the engine alone.
    """
    rows = []
    walls = []
    for n_jobs in sizes:
        jobs = synthetic_workload(int(n_jobs), n_gpus, mix=mix, seed=seed)
        sim = ClusterSimulator(n_gpus, policy=policy)
        with obs.quiet():
            t0 = time.perf_counter()
            records = sim.run(jobs)
            walls.append(time.perf_counter() - t0)
        rows.append(
            {
                "n_jobs": int(n_jobs),
                "completed": int(len(records)),
                "makespan": float(sim.makespan),
                "ops": sim.op_counts(),
            }
        )
    return Block(
        values={"rows": rows},
        tables=(
            rows_table(
                ["jobs", "completed", "segments/job", "wall s", "jobs/s",
                 "makespan h"],
                [
                    [r["n_jobs"], r["completed"], _segments_per_job(r), wall,
                     r["n_jobs"] / wall if wall > 0 else 0.0, r["makespan"]]
                    for r, wall in zip(rows, walls)
                ],
                title=(
                    f"C1: scheduling-engine throughput ({policy}, "
                    f"{mix} mix, {n_gpus} GPUs)"
                ),
            ),
        ),
    )


@register
class ContentionExperiment(Experiment):
    id = "R1"
    title = "GPU contention and staged batches"
    section = "3-4"
    paper_claim = (
        "an array of ML/AI projects finishing at the same time resulted "
        "in GPU availability issues; staging GPU result collection "
        "across non-overlapping batches addresses it"
    )
    DEFAULT = {
        "n_gpus": 6,
        "submit_seed": 1,
        "workload_seed": 42,
        "pool_sizes": (4, 6, 8, 12, 16),
        "policies": ("fifo", "backfill", "edf", "fairshare",
                     "conservative", "hybrid-2"),
        "shootout_jobs": 240,
    }
    SMOKE = {
        "pool_sizes": (4, 8),
        "policies": ("fifo", "backfill", "conservative"),
        "shootout_jobs": 60,
    }

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add(
            "policies",
            r1_submission_policies(
                config["n_gpus"], config["submit_seed"], config["workload_seed"]
            ),
        )
        result.add(
            "disciplines",
            r1_scheduler_ablation(
                config["n_gpus"], config["submit_seed"], config["workload_seed"]
            ),
        )
        result.add(
            "pool_sizes",
            r1_pool_size_sweep(
                config["pool_sizes"], config["submit_seed"],
                config["workload_seed"],
            ),
        )
        result.add(
            "shootout",
            r1_policy_shootout(
                config["policies"], config["n_gpus"], config["submit_seed"],
                config["workload_seed"], config["shootout_jobs"],
            ),
        )
        return result

    def check(self, result):
        policies = result["policies"]
        naive = policies["naive deadline"]
        staged = policies["staged batches"]
        disciplines = result["disciplines"]
        pool = result["pool_sizes"]["rows"]
        checks = [
            Check(
                "the naive crunch misses deadlines; staging misses none",
                {"naive": naive["missed_deadlines"],
                 "staged": staged["missed_deadlines"]},
                naive["missed_deadlines"] > 0
                and staged["missed_deadlines"] == 0,
            ),
            Check(
                "staging cuts p95 and final-week waits",
                {"naive": {"p95": naive["p95_wait"],
                           "final_week": naive["final_week_wait"]},
                 "staged": {"p95": staged["p95_wait"],
                            "final_week": staged["final_week_wait"]}},
                staged["p95_wait"] < naive["p95_wait"]
                and staged["final_week_wait"] < naive["final_week_wait"],
            ),
            Check(
                "no queue discipline alone fixes the crunch",
                {name: m["missed_deadlines"] for name, m in disciplines.items()},
                disciplines["backfill"]["mean_wait"]
                <= disciplines["fifo"]["mean_wait"]
                and all(m["missed_deadlines"] > 0 for m in disciplines.values()),
            ),
            Check(
                "bigger pools absorb the crunch",
                pool,
                pool[0]["missed_deadlines"] >= pool[-1]["missed_deadlines"],
            ),
        ]
        shootout = result["shootout"]
        checks.append(
            Check(
                "every policy completes every shoot-out workload",
                {plan: sorted(cells) for plan, cells in shootout.items()},
                all(
                    0.0 <= cell["tail_utilization"] <= 1.0 + 1e-9
                    and cell["p50_wait"] <= cell["p95_wait"] <= cell["p99_wait"]
                    for cells in shootout.values()
                    for cell in cells.values()
                ),
            )
        )
        return Verdict(self.id, tuple(checks))


@register
class ThroughputExperiment(Experiment):
    id = "C1"
    title = "Scheduling-engine throughput at scale"
    section = "3"
    paper_claim = (
        "reasoning about end-of-program GPU contention requires simulating "
        "whole seasons of cluster load; the discrete-event engine must "
        "sustain large synthetic workloads for the studies to be cheap to "
        "re-run"
    )
    DEFAULT = {
        "sizes": (10_000, 100_000),
        "n_gpus": 32,
        "policy": "backfill",
        "mix": "mixed",
        "seed": 0,
    }
    SMOKE = {"sizes": (200, 1_800)}  # 9x apart, as the check needs two

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add(
            "throughput",
            c1_throughput_sweep(
                config["sizes"], config["n_gpus"], config["policy"],
                config["mix"], config["seed"],
            ),
        )
        return result

    def check(self, result):
        rows = result["throughput"]["rows"]
        per_job = [_segments_per_job(r) for r in rows]
        checks = [
            Check(
                "every job in every sweep size completes",
                [{r["n_jobs"]: r["completed"]} for r in rows],
                all(r["completed"] == r["n_jobs"] for r in rows),
            ),
            Check(
                "calendar work per job at most doubles from the smallest "
                "sweep size to the largest",
                [{r["n_jobs"]: round(w, 2)} for r, w in zip(rows, per_job)],
                # A scan over all jobs or all past breakpoints would grow
                # with the size ratio instead.
                len(rows) >= 2 and per_job[-1] <= 2.0 * per_job[0],
            ),
        ]
        return Verdict(self.id, tuple(checks))
