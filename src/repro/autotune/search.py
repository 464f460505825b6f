"""Schedule search: a genetic autotuner (Ansor-like) and a random baseline.

Ansor "uses genetic algorithms to generate potential candidates"; the tuner
here follows the same skeleton: a population of schedules encoded as genes
(per-loop tile exponents + vectorize/parallel/unroll choices), tournament
selection, single-point crossover, per-gene mutation, and elitism, with the
analytic cost model as the fitness oracle.

Fitness evaluation is *batched*: each generation's population (and the
random baseline's whole candidate list) goes through one
:func:`repro.parallel.pmap` call, so the measurement loop — the hot path
Ansor itself parallelizes across hardware — fans out over worker processes
when ``workers`` is set.  Genome generation stays on the tuner's single
RNG stream, so results for a fixed seed are bit-identical under any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.autotune.costmodel import CostModel, TimeEstimate
from repro.autotune.frameworks import FrameworkProfile
from repro.autotune.kernels import KernelSpec
from repro.autotune.schedule import Parallelize, Schedule, Tile, Unroll, Vectorize
from repro.parallel.runner import pmap
from repro.parallel.study import StudyRecord, StudyResult
from repro.utils.rng import as_generator
from repro.utils.tables import Table

__all__ = [
    "TuneResult",
    "GeneticTuner",
    "RandomSearchConfig",
    "RandomSearchResult",
    "random_search",
]


def _schedule_cost(
    cost_model: CostModel,
    kernel: KernelSpec,
    framework: FrameworkProfile,
    schedule: Schedule,
) -> float:
    """Total estimated seconds for one candidate (picklable worker cell)."""
    return cost_model.estimate(kernel, schedule, framework).total_s


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning run."""

    kernel: str
    best_schedule: Schedule
    best_estimate: TimeEstimate
    evaluations: int
    history: tuple[float, ...]  # best total_s after each generation/step


@dataclass(frozen=True)
class _Genome:
    """Integer-coded schedule: tile exponent per loop, and flags."""

    tile_exp: tuple[int, ...]  # per loop, tile = 2**exp (capped at extent)
    vectorize: bool
    lanes_exp: int  # lanes = 2**lanes_exp in {2,4,8,16,32}
    parallel_loop: int  # index into loops
    unroll_exp: int  # 0 = no unroll, else factor 2**unroll_exp


class GeneticTuner:
    """Genetic schedule search for one kernel on one backend.

    Parameters
    ----------
    cost_model:
        Fitness oracle.
    framework:
        Lowering profile the tuner optimizes for (Ansor tunes *for TVM*).
    population, generations:
        Search effort; evaluations = population * (generations + 1).
    mutation_rate:
        Per-gene mutation probability.
    workers:
        Worker processes for the batched fitness evaluations; ``None``
        (the default) evaluates serially.  The search result is the same
        either way.
    """

    def __init__(
        self,
        cost_model: CostModel,
        framework: FrameworkProfile,
        *,
        population: int = 24,
        generations: int = 15,
        mutation_rate: float = 0.2,
        seed: int | np.random.Generator | None = 0,
        workers: int | None = None,
    ) -> None:
        if population < 4:
            raise ValueError(f"population must be >= 4, got {population}")
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must lie in [0,1], got {mutation_rate}")
        self.cost_model = cost_model
        self.framework = framework
        self.population = int(population)
        self.generations = int(generations)
        self.mutation_rate = float(mutation_rate)
        self.workers = workers
        self._rng = as_generator(seed)

    # -- genome <-> schedule ------------------------------------------------

    def _max_exp(self, extent: int) -> int:
        return int(np.floor(np.log2(max(extent, 1))))

    def _parallelizable(self, kernel: KernelSpec) -> list[int]:
        loops = list(kernel.loops)
        ok = [i for i, name in enumerate(loops) if name not in kernel.reduction]
        if not ok:
            raise ValueError(f"kernel {kernel.name} has no parallelizable loop")
        return ok

    def _random_genome(self, kernel: KernelSpec) -> _Genome:
        rng = self._rng
        extents = list(kernel.loops.values())
        tile_exp = tuple(
            int(rng.integers(0, self._max_exp(e) + 1)) for e in extents
        )
        par_ok = self._parallelizable(kernel)
        return _Genome(
            tile_exp=tile_exp,
            vectorize=bool(rng.random() < 0.8),
            lanes_exp=int(rng.integers(1, 6)),
            parallel_loop=int(rng.choice(par_ok)),
            unroll_exp=int(rng.integers(0, 4)),
        )

    def _to_schedule(self, genome: _Genome, kernel: KernelSpec) -> Schedule:
        loops = list(kernel.loops)
        prims: list = []
        for name, exp in zip(loops, genome.tile_exp):
            size = min(2**exp, kernel.loops[name])
            if size < kernel.loops[name]:
                prims.append(Tile(name, size))
        prims.append(Parallelize(loops[genome.parallel_loop]))
        inner = loops[-1]
        lanes = 2**genome.lanes_exp
        if genome.vectorize and lanes <= kernel.loops[inner]:
            prims.append(Vectorize(inner, lanes))
        if genome.unroll_exp > 0:
            prims.append(Unroll(inner, 2**genome.unroll_exp))
        return Schedule(tuple(prims))

    def _fitness(self, genome: _Genome, kernel: KernelSpec) -> float:
        est = self.cost_model.estimate(
            kernel, self._to_schedule(genome, kernel), self.framework
        )
        return est.total_s

    def _batch_costs(self, genomes: list[_Genome], kernel: KernelSpec) -> np.ndarray:
        """Evaluate a whole candidate batch through one ``pmap`` call.

        This is the measurement loop of the search; no RNG is consumed, so
        the serial and process-parallel paths return identical costs.
        """
        schedules = [self._to_schedule(g, kernel) for g in genomes]
        costs = pmap(
            partial(_schedule_cost, self.cost_model, kernel, self.framework),
            schedules,
            workers=self.workers,
        )
        return np.asarray(costs, dtype=float)

    def _mutate(self, genome: _Genome, kernel: KernelSpec) -> _Genome:
        rng = self._rng
        extents = list(kernel.loops.values())
        tile_exp = list(genome.tile_exp)
        for i, extent in enumerate(extents):
            if rng.random() < self.mutation_rate:
                tile_exp[i] = int(rng.integers(0, self._max_exp(extent) + 1))
        return _Genome(
            tile_exp=tuple(tile_exp),
            vectorize=(
                not genome.vectorize
                if rng.random() < self.mutation_rate
                else genome.vectorize
            ),
            lanes_exp=(
                int(rng.integers(1, 6))
                if rng.random() < self.mutation_rate
                else genome.lanes_exp
            ),
            parallel_loop=(
                int(rng.choice(self._parallelizable(kernel)))
                if rng.random() < self.mutation_rate
                else genome.parallel_loop
            ),
            unroll_exp=(
                int(rng.integers(0, 4))
                if rng.random() < self.mutation_rate
                else genome.unroll_exp
            ),
        )

    def _crossover(self, a: _Genome, b: _Genome) -> _Genome:
        rng = self._rng
        cut = int(rng.integers(0, len(a.tile_exp) + 1))
        return _Genome(
            tile_exp=a.tile_exp[:cut] + b.tile_exp[cut:],
            vectorize=a.vectorize if rng.random() < 0.5 else b.vectorize,
            lanes_exp=a.lanes_exp if rng.random() < 0.5 else b.lanes_exp,
            parallel_loop=a.parallel_loop if rng.random() < 0.5 else b.parallel_loop,
            unroll_exp=a.unroll_exp if rng.random() < 0.5 else b.unroll_exp,
        )

    # -- search --------------------------------------------------------------

    def tune(self, kernel: KernelSpec) -> TuneResult:
        """Run the genetic search; returns the best schedule found."""
        rng = self._rng
        pop = [self._random_genome(kernel) for _ in range(self.population)]
        costs = self._batch_costs(pop, kernel)
        evaluations = len(pop)
        history = [float(costs.min())]
        for _ in range(self.generations):
            new_pop: list[_Genome] = []
            # Elitism: carry the two best forward unchanged.
            elite_idx = np.argsort(costs)[:2]
            new_pop.extend(pop[i] for i in elite_idx)
            while len(new_pop) < self.population:
                # Tournament selection of two parents.
                def pick() -> _Genome:
                    i, j = rng.integers(0, len(pop), size=2)
                    return pop[i] if costs[i] <= costs[j] else pop[j]

                child = self._crossover(pick(), pick())
                child = self._mutate(child, kernel)
                new_pop.append(child)
            pop = new_pop
            costs = self._batch_costs(pop, kernel)
            evaluations += len(pop)
            history.append(float(min(history[-1], costs.min())))
        best = int(np.argmin(costs))
        best_schedule = self._to_schedule(pop[best], kernel)
        best_est = self.cost_model.estimate(kernel, best_schedule, self.framework)
        # The running best may have been an elite from a prior generation;
        # history is monotone, so the final entry is the true optimum seen.
        return TuneResult(
            kernel=kernel.name,
            best_schedule=best_schedule,
            best_estimate=best_est,
            evaluations=evaluations,
            history=tuple(history),
        )


@dataclass(frozen=True)
class RandomSearchConfig:
    """Everything that defines one E5 random-search baseline (except seeds)."""

    kernel: KernelSpec
    cost_model: CostModel
    framework: FrameworkProfile
    n_trials: int = 200

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")


@dataclass(frozen=True)
class RandomSearchResult(StudyResult):
    """Unified result: one independent random search per seed."""

    per_seed: tuple[TuneResult, ...]
    seeds: tuple[int, ...]
    trial_records: tuple[StudyRecord, ...] = field(default=(), repr=False)

    study_name = "autotune.random_search"

    @property
    def records(self) -> tuple[StudyRecord, ...]:
        return self.trial_records

    @property
    def best(self) -> TuneResult:
        """The best-costed search across all seeds."""
        return min(self.per_seed, key=lambda r: r.best_estimate.total_s)

    def summary(self) -> dict[str, Any]:
        totals = [r.best_estimate.total_s for r in self.per_seed]
        return {
            "study": self.study_name,
            "n_records": len(self.records),
            "n_seeds": len(self.per_seed),
            "kernel": self.per_seed[0].kernel if self.per_seed else "",
            "best_total_s": float(min(totals)) if totals else float("nan"),
            "mean_best_total_s": float(np.mean(totals)) if totals else float("nan"),
        }

    def to_table(self) -> str:
        table = Table(
            ["seed", "best total_s", "evaluations"],
            title="E5 random-search baseline",
        )
        for search_seed, result in zip(self.seeds, self.per_seed):
            table.add_row(
                [search_seed, result.best_estimate.total_s, result.evaluations]
            )
        return table.render()


def _random_search_once(
    cfg: RandomSearchConfig,
    seed: int,
    workers: int | None,
) -> TuneResult:
    """One seeded random search — the original E5 baseline, unchanged."""
    tuner = GeneticTuner(cfg.cost_model, cfg.framework, seed=seed, workers=workers)
    genomes = [tuner._random_genome(cfg.kernel) for _ in range(cfg.n_trials)]
    costs = tuner._batch_costs(genomes, cfg.kernel)
    # Running best with first-occurrence tie-breaking, matching the strict
    # `<` update rule of the original serial loop.
    history = np.minimum.accumulate(costs)
    best = int(np.argmin(costs))
    best_schedule = tuner._to_schedule(genomes[best], cfg.kernel)
    best_est = cfg.cost_model.estimate(cfg.kernel, best_schedule, cfg.framework)
    return TuneResult(
        kernel=cfg.kernel.name,
        best_schedule=best_schedule,
        best_estimate=best_est,
        evaluations=cfg.n_trials,
        history=tuple(float(c) for c in history),
    )


def random_search(
    config: RandomSearchConfig,
    *,
    seeds: Sequence[int],
    workers: int | None = None,
) -> RandomSearchResult:
    """Uniform random schedule search — the ablation baseline for E5::

        random_search(RandomSearchConfig(kernel, cost_model, framework),
                      seeds=[0, 1, 2], workers=4)

    Each seed drives one fully independent search (its own genome stream),
    so the :class:`RandomSearchResult` characterizes the baseline's
    seed-to-seed variance; ``best`` picks the overall winner.  Candidate
    genomes are drawn up front on a single seeded stream, then costed
    through the same batched fitness path as the genetic tuner, so every
    search returns the identical result under any worker count.  There is
    no ``cache`` keyword: analytic cost evaluations are microseconds each,
    far below the cache's round-trip cost.
    """
    search_seeds = tuple(int(s) for s in seeds)
    if not search_seeds:
        raise ValueError("random_search requires a non-empty seeds sequence")
    per_seed = tuple(_random_search_once(config, s, workers) for s in search_seeds)
    records = tuple(
        StudyRecord(
            config={"kernel": config.kernel.name, "n_trials": config.n_trials},
            seed=s,
            value=float(result.best_estimate.total_s),
        )
        for s, result in zip(search_seeds, per_seed)
    )
    return RandomSearchResult(
        per_seed=per_seed, seeds=search_seeds, trial_records=records
    )
