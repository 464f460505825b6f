"""P3 support: the repo's own conv shapes, measured and cost-modelled.

The GEMM rewrite of :mod:`repro.nn.conv` is itself a scheduling decision,
so we dogfood :mod:`repro.autotune` on it: every Conv2D shape the
experiment suite actually trains (the E6 grid detector, the E7 histopath
trunk, the E8 gridworld Q-network) is

* **measured** — wall-clock forward+backward of the retained naive
  einsum/tap-loop path vs the im2col GEMM path, interleaved via
  :func:`repro.perf.timers.measure_pair`;
* **tuned** — its im2col GEMM expressed as a
  :func:`repro.autotune.kernels.matmul_kernel` spec and block/tile
  parameters searched with the genetic tuner, reported against the
  default hand schedule;
* **placed on the roofline** — arithmetic intensity of the direct
  convolution vs its im2col GEMM, which makes the trade explicit: im2col
  *lowers* intensity (the patch matrix duplicates the input K² times) and
  still wins on real hardware because it trades redundant traffic for
  BLAS-rate arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autotune.costmodel import CostModel
from repro.autotune.frameworks import TVM_LIKE
from repro.autotune.kernels import KernelSpec, conv2d_kernel, matmul_kernel
from repro.autotune.schedule import default_schedule
from repro.autotune.search import GeneticTuner
from repro.nn.conv import Conv2D
from repro.nn.kernels import use_naive
from repro.perf.roofline import EPYC_LIKE
from repro.perf.timers import MIN_VERDICT_REPEATS, loops_for, measure_pair

__all__ = ["ConvCase", "conv2d_cases", "measure_case", "tune_case"]


@dataclass(frozen=True)
class ConvCase:
    """One Conv2D workload as the experiment suite actually runs it."""

    label: str
    batch: int
    height: int
    width: int
    in_channels: int
    out_channels: int
    kernel: int

    @property
    def gemm_m(self) -> int:
        """Rows of the im2col patch matrix ('same' padding, stride 1)."""
        return self.batch * self.height * self.width

    @property
    def gemm_k(self) -> int:
        """Columns of one patch: C * K * K."""
        return self.in_channels * self.kernel * self.kernel

    def gemm_spec(self) -> KernelSpec:
        """The im2col GEMM as an autotune kernel spec."""
        return matmul_kernel(self.gemm_m, self.out_channels, self.gemm_k)

    def direct_spec(self) -> KernelSpec:
        """The direct (un-lowered) convolution spec for the same shape."""
        return conv2d_kernel(
            height=self.height + self.kernel - 1,  # 'same' padding restored
            width=self.width + self.kernel - 1,
            channels=self.in_channels,
            filters=self.out_channels,
            ksize=self.kernel,
        )


def conv2d_cases() -> list[ConvCase]:
    """The Conv2D shapes trained by E6, E7, and E8."""
    return [
        ConvCase("E6 detect 3->12", batch=8, height=32, width=32,
                 in_channels=3, out_channels=12, kernel=3),
        ConvCase("E7 histopath 1->8", batch=16, height=24, width=24,
                 in_channels=1, out_channels=8, kernel=3),
        ConvCase("E8 gridworld 3->12", batch=32, height=6, width=6,
                 in_channels=3, out_channels=12, kernel=3),
    ]


def measure_case(
    case: ConvCase, *, repeats: int = 5, warmup: int = 2, seed: int = 0
) -> dict[str, float]:
    """Wall-clock naive vs im2col forward+backward for one case.

    Returns median seconds per pass for each backend and the speedup
    (>1 means the GEMM path is faster), read from the best of at least
    five interleaved samples of at least 1 ms each.  All three numbers
    are wall-derived and must be declared volatile by callers.
    """
    rng = np.random.default_rng(seed)
    layer = Conv2D(case.in_channels, case.out_channels, case.kernel, seed=7)
    x = rng.standard_normal(
        (case.batch, case.height, case.width, case.in_channels)
    )
    grad = rng.standard_normal(
        (case.batch, case.height, case.width, case.out_channels)
    )

    def naive_pass() -> None:
        with use_naive():
            layer.forward(x)
            layer.backward(grad)

    def gemm_pass() -> None:
        layer.forward(x)
        layer.backward(grad)

    naive_m, gemm_m, speedup = measure_pair(
        naive_pass, gemm_pass,
        repeats=max(repeats, MIN_VERDICT_REPEATS), warmup=warmup,
        inner_loops=(loops_for(naive_pass), loops_for(gemm_pass)),
    )
    return {
        "naive_ms": float(naive_m.median * 1e3),
        "gemm_ms": float(gemm_m.median * 1e3),
        "speedup": float(speedup),
    }


def tune_case(
    case: ConvCase,
    *,
    population: int = 16,
    generations: int = 8,
    seed: int = 13,
    n_workers: int = 32,
) -> dict[str, float | str]:
    """Search im2col block/tile parameters for one case's GEMM.

    Pure cost-model arithmetic — deterministic given the seed — comparing
    the default hand schedule against the genetic tuner's best, plus the
    arithmetic-intensity bookkeeping for the roofline table.

    The default schedule is kept as the search *incumbent*: the deployed
    schedule is whichever of {hand default, tuner best} the cost model
    rates faster.  This mirrors real autotuners, which measure the
    baseline alongside candidates and never deploy a regression — and it
    matters here, because the untiled default is *outside* the tuner's
    genome space whenever a loop extent is not a power of two (the genome
    always emits a tile for such loops).
    """
    spec = case.gemm_spec()
    direct = case.direct_spec()
    cost_model = CostModel(EPYC_LIKE, n_workers=n_workers)
    default_est = cost_model.estimate(spec, default_schedule(spec), TVM_LIKE)
    tuned = GeneticTuner(
        cost_model, TVM_LIKE, population=population,
        generations=generations, seed=seed,
    ).tune(spec)
    searched_wins = tuned.best_estimate.total_s < default_est.total_s
    deployed_est = tuned.best_estimate if searched_wins else default_est
    deployed_schedule = (
        tuned.best_schedule if searched_wins else default_schedule(spec)
    )
    return {
        "default_gflops": float(default_est.gflops),
        "searched_gflops": float(tuned.best_estimate.gflops),
        "deployed_gflops": float(deployed_est.gflops),
        "deployed": "searched" if searched_wins else "default",
        "deployed_bound": str(deployed_est.bound),
        "schedule": deployed_schedule.describe(),
        "gemm_intensity": float(spec.arithmetic_intensity),
        "direct_intensity": float(direct.arithmetic_intensity),
    }
