"""Helpers every workload shares: statistics, memory, the environment stamp."""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from typing import Any, Sequence

import numpy as np

#: BLAS/OpenMP thread knobs recorded (never set) by the benchmark.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def canonical_bytes(document: dict[str, Any]) -> bytes:
    """``canonical_results_bytes`` with the verdicts of volatile
    experiments reduced to their claims.

    ``canonical_results`` masks an experiment's declared volatile values
    but not a verdict check that reads one.  P1's "vectorization speedup
    > 10x" check carries the measured speedup, so two runs of P1 differ
    there; P3's GEMM-versus-naive check passes in one pass and fails in
    the next on a busy host.  For experiments that declare volatile
    values, each check keeps its ``claim`` and loses ``observed`` and
    ``passed``; every other verdict is compared whole.
    """
    from repro.api import canonical_results

    doc = canonical_results(document)
    for entry in doc.get("experiments", []):
        verdict = entry.get("verdict")
        if entry.get("volatile_values") and verdict:
            entry["verdict"] = [check.get("claim") for check in verdict.get("checks", [])]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    config = getattr(np.__config__, "CONFIG", None)
    if isinstance(config, dict):
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        if name:
            return f"{name} {blas.get('version', '')}".strip()
    return "unknown"


def _git_commit(root: str) -> str:
    # The ceiling keeps git from searching above the checkout for a repo.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp(root: str) -> dict[str, Any]:
    """What a reader needs to compare two results: machine, runtimes,
    BLAS and its thread settings, and the code's commit."""
    return {
        "cpu_model": _cpu_model(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
    }
