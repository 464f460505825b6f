"""P1 — the performance-measurement lesson module as an experiment.

Reproduces ``benchmarks/bench_p1_perf_lessons.py`` string-for-string;
the benchmark file is now a shim over this module.
"""

from __future__ import annotations

import numpy as np

from repro.exp.registry import Experiment, register
from repro.exp.reporting import rows_table
from repro.exp.result import Block, Check, ExpResult, Verdict
from repro.perf.roofline import A100_LIKE, EPYC_LIKE, roofline_analysis
from repro.perf.scaling import (
    amdahl_speedup,
    efficiency,
    gustafson_speedup,
    karp_flatt_metric,
)
from repro.perf.timers import MIN_VERDICT_REPEATS, loops_for, measure_pair

__all__ = [
    "p1_roofline_of_lesson_kernels",
    "p1_scaling_laws",
    "p1_vectorization_speedup",
]


def p1_roofline_of_lesson_kernels() -> Block:
    """Roofline placement of the five ML primitives on both machines."""
    from repro.autotune.kernels import lesson_kernels

    rows = []
    for machine in (A100_LIKE, EPYC_LIKE):
        for kernel in lesson_kernels():
            point = roofline_analysis(
                machine, kernel.name, kernel.flops, kernel.compulsory_bytes
            )
            rows.append(
                (machine.name, kernel.name, point.intensity,
                 point.attainable_gflops, point.bound)
            )
    return Block(
        values={
            "points": [
                {"machine": m, "kernel": k, "intensity": float(i),
                 "attainable_gflops": float(g), "bound": str(b)}
                for m, k, i, g, b in rows
            ]
        },
        tables=(
            rows_table(
                ["machine", "kernel", "FLOP/byte", "attainable GF/s", "bound"],
                rows,
                title="P1: roofline placement of the five lesson kernels",
            ),
        ),
    )


def p1_scaling_laws(
    serial_fraction: float = 0.05,
    worker_counts=(1, 2, 4, 8, 16, 32, 64),
) -> Block:
    """Amdahl/Gustafson scaling with the Karp-Flatt diagnostic."""
    workers = np.array(list(worker_counts))
    amdahl = amdahl_speedup(serial_fraction, workers)
    gustafson = gustafson_speedup(serial_fraction, workers)
    kf = karp_flatt_metric(float(amdahl[-1]), int(workers[-1]))
    return Block(
        values={
            "serial_fraction": float(serial_fraction),
            "karp_flatt": float(kf),
            "rows": [
                {"workers": int(w), "amdahl": float(a),
                 "efficiency": float(efficiency(a, w)), "gustafson": float(g)}
                for w, a, g in zip(workers, amdahl, gustafson)
            ],
        },
        tables=(
            rows_table(
                ["workers", "Amdahl speedup", "efficiency", "Gustafson speedup"],
                [
                    [int(w), float(a), float(efficiency(a, w)), float(g)]
                    for w, a, g in zip(workers, amdahl, gustafson)
                ],
                title=(
                    "P1: scaling laws at "
                    f"{serial_fraction:.0%} serial fraction"
                ),
            ),
            f"P1 Karp-Flatt recovered serial fraction: {kf:.3f} "
            f"(true {serial_fraction:.3f})",
        ),
    )


def p1_vectorization_speedup(
    n: int = 256, repeats: int = 3, warmup: int = 1
) -> Block:
    """A live lesson: vectorized NumPy vs a Python loop on the same matvec.

    Each side's samples are sized to last at least 1 ms, and the speedup
    is read from the best of at least five interleaved repeats: one
    ~10 µs matvec sample is too short to survive a single scheduler stall.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, n))
    x = rng.normal(size=n)

    def python_loop():
        out = np.zeros(n)
        for i in range(n):
            s = 0.0
            for j in range(n):
                s += a[i, j] * x[j]
            out[i] = s
        return out

    def vectorized():
        return a @ x

    _, _, speedup = measure_pair(
        python_loop, vectorized,
        repeats=max(repeats, MIN_VERDICT_REPEATS), warmup=warmup,
        inner_loops=(loops_for(python_loop), loops_for(vectorized)),
    )
    return Block(
        values={"speedup": float(speedup)},
        tables=(
            f"P1 vectorization speedup on {n}x{n} matvec: {speedup:.0f}x",
        ),
    )


@register
class PerfLessonExperiment(Experiment):
    id = "P1"
    title = "Performance-measurement lesson module"
    section = "4"
    paper_claim = (
        "one lesson module for wider adoption: how to conduct "
        "performance measurement of parallel computations"
    )
    DEFAULT = {
        "serial_fraction": 0.05,
        "worker_counts": (1, 2, 4, 8, 16, 32, 64),
        "matvec_n": 256,
        "repeats": 3,
        "warmup": 1,
    }
    SMOKE = {"matvec_n": 96, "repeats": 1, "warmup": 0}
    # The vectorization lesson times real code; the measured speedup is
    # wall-clock-derived and legitimately varies between runs.
    VOLATILE_VALUES = ("vectorization.speedup",)

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add("roofline", p1_roofline_of_lesson_kernels())
        result.add(
            "scaling",
            p1_scaling_laws(config["serial_fraction"], config["worker_counts"]),
        )
        result.add(
            "vectorization",
            p1_vectorization_speedup(
                config["matvec_n"], config["repeats"], config["warmup"]
            ),
        )
        return result

    def check(self, result):
        bounds = {
            (p["machine"], p["kernel"]): p["bound"]
            for p in result["roofline"]["points"]
        }
        scaling = result["scaling"]
        last = scaling["rows"][-1]
        checks = [
            Check(
                "matvec is memory-bound and matmul compute-bound on the GPU",
                {"matvec": bounds[(A100_LIKE.name, "matvec")],
                 "matmul": bounds[(A100_LIKE.name, "matmul")]},
                bounds[(A100_LIKE.name, "matvec")] == "memory"
                and bounds[(A100_LIKE.name, "matmul")] == "compute",
            ),
            Check(
                "Karp-Flatt recovers the true serial fraction",
                {"karp_flatt": scaling["karp_flatt"],
                 "true": scaling["serial_fraction"]},
                abs(scaling["karp_flatt"] - scaling["serial_fraction"]) < 1e-9,
            ),
            Check(
                "Gustafson >= Amdahl at every worker count",
                {"amdahl@max": last["amdahl"], "gustafson@max": last["gustafson"]},
                all(r["gustafson"] >= r["amdahl"] for r in scaling["rows"]),
            ),
            Check(
                "vectorization speedup > 10x",
                result["vectorization"]["speedup"],
                result["vectorization"]["speedup"] > 10,
            ),
        ]
        return Verdict(self.id, tuple(checks))
