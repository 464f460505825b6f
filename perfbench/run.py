"""One benchmark for ``repro``: served catalog, smoke catalog, cluster DES.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then traced, and reports
the per-layer metrics, the per-layer self-time table, and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every correctness gate held, 1
when one failed, 2 when the program under test is missing.

Every run works in a fresh directory under ``./.perfbench`` (serve
root, ``REPRO_CACHE_DIR``, ``REPRO_RUNS_DIR``) and removes it at the
end, after every process the run started has ended and been reaped
(``children.py``).  BLAS thread settings are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

WORKLOADS = ("serve-hot", "serve-cold", "catalog", "des")

#: End-to-end metrics, reported by every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
)

EXPERIMENTS = ("T1", "T2", "T3", "N1", "F1", "E1", "E2", "E3", "E4", "E5",
               "E6", "E7", "E8", "E9", "E10", "E11", "R1", "C1", "P1", "P2", "P3")
LAYERS = ("serve", "api", "parallel", "obs", "exp", "nn", "cluster")
POLICIES = ("backfill", "conservative")

#: Per-layer metrics of the traced run: (name, unit, better).  A layer a
#: workload does not exercise reports 0.
PER_LAYER = (
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"layer.{layer}.calls", "count", "lower") for layer in LAYERS),
    ("http.handler_ms", "ms", "lower"),
    ("http.client_overhead_ms", "ms", "lower"),
    ("http.response_bytes", "bytes", "lower"),
    ("http.requests", "count", "higher"),
    ("api.digest_ms", "ms", "lower"),
    ("api.digest_calls_per_request", "ratio", "lower"),
    ("api.from_dict_ms", "ms", "lower"),
    ("store.get_ms", "ms", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.lookups", "count", "higher"),
    ("store.put_ms", "ms", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("cells.get_ms", "ms", "lower"),
    ("cells.hit_ratio", "ratio", "higher"),
    ("cells.lookups", "count", "higher"),
    ("cells.put_ms", "ms", "lower"),
    ("queue.submit_ms", "ms", "lower"),
    ("queue.wait_p50_ms", "ms", "lower"),
    ("queue.wait_p99_ms", "ms", "lower"),
    ("queue.executions_per_request", "ratio", "lower"),
    ("queue.jobs_retained", "count", "lower"),
    ("exec.runs", "count", "higher"),
    ("exec.wall_ms", "ms", "lower"),
    ("exec.compute_ms", "ms", "lower"),
    ("exec.artifacts_ms", "ms", "lower"),
    ("exec.bytes_written", "bytes", "lower"),
    ("obs.events_per_run", "count", "lower"),
    ("obs.access_bytes_per_request", "bytes", "lower"),
    *((f"exp.{exp_id}_s", "s", "lower") for exp_id in EXPERIMENTS),
    ("pmap.calls", "count", "lower"),
    ("pmap.cells", "count", "lower"),
    ("pmap.pool_calls", "count", "lower"),
    ("pmap.pool_wall_s", "s", "lower"),
    ("pmap.pool_efficiency", "ratio", "higher"),
    ("nn.conv_fwd_s", "s", "lower"),
    ("nn.conv_bwd_s", "s", "lower"),
    ("nn.conv_gflop", "GFLOP", "lower"),
    ("nn.optim_step_s", "s", "lower"),
    *((f"cluster.{policy}.{name}", unit, better)
      for policy in POLICIES
      for name, unit, better in (
          ("jobs_per_s", "1/s", "higher"),
          ("events_fired", "count", "lower"),
          ("plan_calls", "count", "lower"),
          ("plan_s", "s", "lower"),
          ("calendar_earliest_fit_calls", "count", "lower"),
          ("calendar_earliest_fit_s", "s", "lower"),
          ("calendar_copy_calls", "count", "lower"),
          ("preempts", "count", "lower"),
          ("traced_s", "s", "lower"),
      )),
    ("load.succeeded", "count", "higher"),
    ("load.failed", "count", "lower"),
    ("load.timed_out", "count", "lower"),
    ("load.latency_p95_ms", "ms", "lower"),
    ("load.latency_p99_ms", "ms", "lower"),
    ("load.late_p99_ms", "ms", "lower"),
    ("load.max_rps", "1/s", "higher"),
    ("load.generator_behind", "flag", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Each ratio's base, printed beside it.
RATIO_BASES = {
    "store.hit_ratio": "store.lookups",
    "cells.hit_ratio": "cells.lookups",
    "api.digest_calls_per_request": "load.succeeded",
    "queue.executions_per_request": "load.succeeded",
    "pmap.pool_efficiency": "pmap.pool_wall_s",
}


def _run(workload: str, seed: int, seconds: float, tmp: Path,
         traced: bool) -> dict[str, Any]:
    import compute
    import serving

    tmp.mkdir(parents=True)
    if workload == "serve-hot":
        return serving.run_hot(seed, seconds, tmp, traced)
    if workload == "serve-cold":
        return serving.run_cold(seed, seconds, tmp, traced)
    if workload == "catalog":
        return compute.run_catalog(seed, seconds, tmp, traced)
    return compute.run_des(seed, seconds, tmp, traced)


def layer_metrics(plain: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric of a traced run (0 for an idle layer)."""
    layers = {name: 0.0 for name, _unit, _better in PER_LAYER}
    layers.update({k: float(v) for k, v in traced.get("layers", {}).items()
                   if k in layers})
    for policy, rate in plain["report"].get("jobs_per_s", {}).items():
        layers[f"cluster.{policy}.jobs_per_s"] = rate
    load = plain["load"]
    layers["load.succeeded"] = float(load["succeeded"])
    layers["load.failed"] = float(load["failed"])
    layers["load.timed_out"] = float(load["timed_out"])
    layers["load.late_p99_ms"] = float(load.get("late_p99_ms", 0.0))
    layers["load.latency_p95_ms"] = plain["tail"]["latency_p95_ms"]
    layers["load.latency_p99_ms"] = plain["tail"]["latency_p99_ms"]
    layers["load.max_rps"] = float(load.get("max_rps", 0.0))
    layers["load.generator_behind"] = float(bool(load.get("generator_behind")))
    base = plain["e2e"]["latency_ms"]
    layers["trace.overhead_pct"] = (
        100.0 * (traced["e2e"]["latency_ms"] - base) / base if base else 0.0)
    return layers


def _print_report(workload: str, args: Any, env: dict[str, Any],
                  plain: dict[str, Any], traced: dict[str, Any] | None,
                  layers: dict[str, float] | None) -> None:
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("load " + json.dumps(plain["load"], sort_keys=True))
    for key, value in plain["report"].items():
        print(f"report.{key} " + json.dumps(value, sort_keys=True, default=str))
    for name, unit in END_TO_END:
        print(f"{name:<20} {plain['e2e'][name]:>14.4f} {unit}")
    for name, value in plain["tail"].items():
        print(f"{name:<20} {value:>14.4f} ms (not gated: see README.md)")
    if traced is None or layers is None:
        return
    print(f"traced latency_ms {traced['e2e']['latency_ms']:.4f} ms "
          f"(untraced {plain['e2e']['latency_ms']:.4f} ms, overhead "
          f"{layers['trace.overhead_pct']:.2f} %)")
    print(f"{'layer':<10} {'calls':>10} {'self_s':>12}")
    for layer in LAYERS:
        print(f"{layer:<10} {layers[f'layer.{layer}.calls']:>10.0f} "
              f"{layers[f'layer.{layer}.self_s']:>12.4f}")
    for name, unit, _better in PER_LAYER:
        line = f"{name:<44} {layers[name]:>14.4f} {unit}"
        if name in RATIO_BASES:
            base = RATIO_BASES[name]
            line += f"  (base {base} = {layers[base]:.4f})"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = Path(__file__).resolve().parent.parent
    src = repo / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    import children
    from common import environment_stamp
    from tracing import write_spans

    children.become_subreaper()
    workdir = Path.cwd() / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    os.environ["REPRO_RUNS_DIR"] = str(tmp / "runs")
    try:
        plain = _run(args.workload, args.seed, args.seconds, tmp / "plain", False)
        traced = layers = None
        if args.trace:
            traced = _run(args.workload, args.seed, args.seconds, tmp / "traced",
                          True)
            layers = layer_metrics(plain, traced)
    finally:
        children.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)

    _print_report(args.workload, args, environment_stamp(str(repo)), plain,
                  traced, layers)
    if traced is not None:
        spans = workdir / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        write_spans(traced["trace"], str(spans))
        print(f"spans written to {spans}")
    runs = [plain] + ([traced] if traced is not None else [])
    correct = all(r["correct"] for r in runs)
    if layers is not None:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
    else:
        metrics = {name: {"value": plain["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
