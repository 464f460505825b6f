"""The in-process workloads: the smoke catalog and the cluster DES."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import canonical_bytes, median, peak_rss_mb, percentile
import workloads

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The DES's set-up (stream generation) takes ~0.06 s, so it is repeated
#: more often than the catalog's ~2 s interpreter starts.
DES_SETUP_REPEATS = 15
#: Experiment kept out of the catalog's end-to-end time: its process-pool
#: ``pmap`` swings between ~2 s and ~9 s from run to run (README.md).
CATALOG_EXCLUDED = "P2"
#: Where a checkout remembers its first catalog result, for the
#: run-to-run identity gate.
CATALOG_STATE = Path(".perfbench") / "catalog-identity.json"

#: Schedule fingerprints (the golden-schedule recipe) of the DES stream,
#: pinned per policy: a change that moves any job's start or end fails.
DES_FINGERPRINTS = {
    "backfill": "23c2e7eb3b96707b",
    "conservative": "d85829af2d09b201",
}


# -- the smoke catalog ----------------------------------------------------------------

_IMPORT_PROBE = (
    "from repro.api import execute_request\n"
    "from repro.exp.registry import get_experiment, resolve_ids\n"
    "[get_experiment(i) for i in resolve_ids(['all'])]\n"
)


def _import_seconds() -> float:
    """A fresh interpreter importing the API and the whole catalog."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True, timeout=120)
    return time.perf_counter() - start


def catalog_pass(tmp: Path, k: int) -> dict[str, Any]:
    """``repro run all --smoke`` into a fresh run directory with an empty
    cell cache."""
    from repro.api import RunRequest, execute_request

    os.environ["REPRO_CACHE_DIR"] = str(tmp / f"cells-{k}")
    out_dir = tmp / "runs" / f"pass-{k}"
    start = time.perf_counter()
    summary = execute_request(RunRequest(ids=["all"], smoke=True), out_dir=out_dir)
    wall = time.perf_counter() - start
    timings = summary.timings()
    return {
        "wall_s": wall,
        "timings": timings,
        "measured_s": wall - timings.get(CATALOG_EXCLUDED, 0.0),
        "measured_n": len(timings) - (CATALOG_EXCLUDED in timings),
        "canonical": hashlib.sha256(canonical_bytes(summary.as_dict())).hexdigest(),
        "out_dir": out_dir,
    }


def catalog_identity(passes: list[dict[str, Any]], state: Path) -> int:
    """Passes whose canonical results (verdicts included) differ from this
    checkout's first recorded pass (recorded now when there is none)."""
    if state.exists():
        first = json.loads(state.read_text())["canonical"]
    else:
        first = passes[0]["canonical"]
        state.parent.mkdir(parents=True, exist_ok=True)
        state.write_text(json.dumps({"canonical": first}))
    return sum(p["canonical"] != first for p in passes)


def run_catalog(seed: int, seconds: float, tmp: Path, traced: bool) -> dict[str, Any]:
    del seed  # the catalog's input is fixed: every experiment at the smoke tier
    setups = [_import_seconds() for _ in range(SETUP_REPEATS)]
    tracer = None
    if traced:
        import probes
        from tracing import Tracer

        tracer = Tracer()
        probes.install_common(tracer)
        # R1 and C1 run the cluster layer, which des alone would not gate.
        probes.install_cluster(tracer)
    passes: list[dict[str, Any]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(catalog_pass(tmp, len(passes)))
        if len(passes) == 1:
            # Memory of one pass, whatever number of passes fits the run.
            rss_mb = peak_rss_mb()
        if traced:
            break
    bad = catalog_identity(passes, CATALOG_STATE)
    measured = [p["measured_s"] for p in passes]
    # The fastest pass, for the reason given in run_des.
    fastest = passes[measured.index(min(measured))]
    result = {
        "attempted": len(passes),
        "failed": bad,
        "correct": bad == 0,
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": rss_mb,
            "latency_ms": 1000.0 * fastest["measured_s"],
            "throughput_per_s": fastest["measured_n"] / fastest["measured_s"],
        },
        "tail": {"latency_p95_ms": 1000.0 * percentile(measured, 95),
                 "latency_p99_ms": 1000.0 * percentile(measured, 99)},
        "load": {"attempted": len(passes), "succeeded": len(passes) - bad,
                 "failed": bad, "timed_out": 0, "mismatched": bad},
        "report": {
            "passes": [{"wall_s": p["wall_s"], "measured_s": p["measured_s"],
                        CATALOG_EXCLUDED: p["timings"].get(CATALOG_EXCLUDED)}
                       for p in passes],
            "timings": passes[-1]["timings"],
        },
    }
    if tracer is not None:
        result["trace"] = tracer.export()
        result["layers"] = catalog_layers(result["trace"], passes[-1])
    return result


def catalog_layers(data: dict[str, Any], last: dict[str, Any]) -> dict[str, float]:
    from artifacts import event_stats, tree_bytes
    from serving import common_layers, pmap_layers
    from tracing import mean_ms

    events = event_stats(last["out_dir"])
    exec_ms = mean_ms(data, "api.execute")
    compute_ms = 1000.0 * sum(last["timings"].values())
    layers = {
        "exec.runs": 1.0,
        "exec.wall_ms": exec_ms,
        "exec.compute_ms": compute_ms,
        "exec.artifacts_ms": max(0.0, exec_ms - compute_ms),
        "exec.bytes_written": float(tree_bytes(last["out_dir"])),
        "obs.events_per_run": float(events["events"]),
    }
    layers.update(pmap_layers(events))
    layers.update(common_layers(data))
    return layers


# -- the cluster DES ----------------------------------------------------------------------


def fingerprint(records: list[Any]) -> str:
    """The golden-schedule test's recipe over ``(job, start, end)``."""
    text = "\n".join(f"{r.job.job_id} {r.start_time!r} {r.end_time!r}" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def simulate(jobs: list[Any], policy: str) -> tuple[float, str, int]:
    """One policy over the stream: seconds, fingerprint, record count."""
    from repro.cluster import ClusterSimulator

    sim = ClusterSimulator(workloads.DES_GPUS, policy=policy)
    # Collect the previous repeat's garbage outside the timed region, so
    # every repeat starts the collector from the same state.
    gc.collect()
    start = time.perf_counter()
    records = sim.run(jobs)
    return time.perf_counter() - start, fingerprint(records), len(records)


def run_des(seed: int, seconds: float, tmp: Path, traced: bool) -> dict[str, Any]:
    del seed, tmp  # the stream is pinned (workloads.py); the DES writes nothing
    from repro.cluster import synthetic_workload

    setups = []
    for _ in range(DES_SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        jobs = synthetic_workload(workloads.DES_JOBS, workloads.DES_GPUS,
                                  mix="mixed", seed=workloads.DES_STREAM_SEED)
        setups.append(time.perf_counter() - start)
    failed = 0
    tracer = None
    if traced:
        import probes
        from tracing import Tracer

        tracer = Tracer()
        probes.install_cluster(tracer)
    reps: list[float] = []
    per_policy: dict[str, list[float]] = {p: [] for p in workloads.DES_POLICIES}
    layers: dict[str, float] = {}
    exports: list[dict[str, Any]] = []
    attempted = 0
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        rep = 0.0
        for policy in workloads.DES_POLICIES:
            if tracer is not None:
                tracer.reset()
            took, fp, n = simulate(jobs, policy)
            attempted += 1
            failed += n != len(jobs) or fp != DES_FINGERPRINTS[policy]
            per_policy[policy].append(took)
            rep += took
            if tracer is not None:
                exports.append(tracer.export())
                layers.update(cluster_layers(exports[-1], policy, took))
        reps.append(rep)
        if traced:
            break
    # The fastest repeat, not the median one, is the gated time.  On a
    # shared 2-vCPU host the simulation's speed drifts by up to 1.6x over
    # tens of seconds with no CPU steal to account for it: over eight 20 s
    # windows the median repeat spread 0.31 of its median (IQR), the
    # fastest 0.12.  Noise only slows a repeat, so the fastest is the
    # closest to the code's own cost.
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms": 1000.0 * min(reps),
            "throughput_per_s": len(workloads.DES_POLICIES) * len(jobs) / min(reps),
        },
        "tail": {"latency_p95_ms": 1000.0 * percentile(reps, 95),
                 "latency_p99_ms": 1000.0 * percentile(reps, 99)},
        "load": {"attempted": attempted, "succeeded": attempted - failed,
                 "failed": failed, "timed_out": 0, "mismatched": failed},
        "report": {
            "n_jobs": len(jobs), "repeats": len(reps),
            "repeat_p50_ms": 1000.0 * median(reps),
            "jobs_per_s": {p: len(jobs) / min(t) for p, t in per_policy.items()},
        },
    }
    if tracer is not None:
        from serving import common_layers
        from tracing import merge

        result["trace"] = merge(exports)
        layers.update(common_layers(result["trace"]))
        result["layers"] = layers
    return result


def cluster_layers(data: dict[str, Any], policy: str, took: float) -> dict[str, float]:
    from tracing import agg

    counts = data["counts"]
    plan_calls, plan_s, _ = agg(data, "cluster.policy.plan")
    fit_calls, fit_s, _ = agg(data, "cluster.calendar.earliest_fit")
    prefix = f"cluster.{policy}"
    return {
        f"{prefix}.events_fired": float(counts.get("cluster.events_fired", 0)),
        f"{prefix}.plan_calls": float(plan_calls),
        f"{prefix}.plan_s": plan_s,
        f"{prefix}.calendar_earliest_fit_calls": float(fit_calls),
        f"{prefix}.calendar_earliest_fit_s": fit_s,
        f"{prefix}.calendar_copy_calls": float(agg(data, "cluster.calendar.copy")[0]),
        f"{prefix}.preempts": float(counts.get("cluster.preempts", 0)),
        f"{prefix}.traced_s": took,
    }
