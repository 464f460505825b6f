"""Workload inputs as pure functions of the seed.

Nothing here imports ``repro`` or reads a clock: the same ``(seed,
seconds)`` always yields the same request mix, arrival schedule, seed
overrides and DES parameters, which is what the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Smoke experiments cheap enough to serve: the hot request pool.
HOT_IDS = ("T1", "T2", "T3", "P1", "N1")
#: Experiments the cold workload executes, each with a fresh seed.
COLD_IDS = ("T1", "T3", "N1")

#: Open-loop rates (requests/s) of the hot workload, lowest first; the
#: first is the reference rate its latency is reported at.
HOT_LADDER = (80.0, 120.0, 160.0, 200.0, 240.0)
#: Share of the hot run spent at the reference rate.
HOT_REFERENCE_SHARE = 0.55
#: Share of the hot run spent measuring capacity: both connections busy.
HOT_CAPACITY_SHARE = 0.2
#: Rounds the reference and capacity phases alternate in, so a slow
#: moment of the host touches a part of each rather than all of one.
HOT_ROUNDS = 3
#: Share of hot requests that name several experiments.
HOT_MULTI_SHARE = 0.2
#: The multi-experiment requests of the hot pool, drawn evenly: the
#: digest's cost grows with the experiments a request names.
HOT_MULTI = (("T1", "T3"), ("T1", "T2", "N1"), ("T3", "P1", "N1"), HOT_IDS)
#: Zipf exponent of the single-experiment draw (T1 most popular).
ZIPF_S = 1.1
#: Arrivals are paced at the step's rate, each moved by up to this share
#: of the mean gap, so a run's latency reflects the server rather than
#: the burstiness of one draw.
HOT_JITTER = 0.5

#: DES pool size, stream and the two policies compared.  The stream is
#: fixed: across ``synthetic_workload`` seeds the same-length stream's
#: simulation cost varies by more than 2x (conservative: 0.96-2.47 s of
#: CPU over eight seeds), which would drown any change to the engine.
DES_GPUS = 32
DES_JOBS = 8000
DES_STREAM_SEED = 20231112
DES_POLICIES = ("backfill", "conservative")


def _rng(seed: int, workload: str) -> np.random.Generator:
    # Each workload draws from its own stream of the one seed.
    return np.random.default_rng([int(seed), sum(map(ord, workload))])


def _request(ids: tuple[str, ...], overrides: dict | None = None) -> dict:
    body: dict = {"ids": list(ids), "smoke": True}
    if overrides:
        body["overrides"] = overrides
    return body


@dataclass(frozen=True)
class HotStep:
    rate: float
    #: Due times in seconds from the step's start.
    offsets: tuple[float, ...]
    #: Index into :attr:`HotPlan.pool` of each arrival's request.
    picks: tuple[int, ...]


@dataclass(frozen=True)
class HotPlan:
    pool: tuple[dict, ...]
    #: One reference-rate step per round.
    reference: tuple[HotStep, ...]
    #: Pool indices each round's capacity phase sends, back to back.
    capacity: tuple[tuple[int, ...], ...]
    #: The ladder's rates above the reference, once each.
    ladder: tuple[HotStep, ...]


def hot_plan(seed: int, seconds: float) -> HotPlan:
    """Zipf singles plus multi-experiment requests, paced and jittered
    arrivals at each ladder rate."""
    rng = _rng(seed, "serve-hot")
    singles = [(exp_id,) for exp_id in HOT_IDS]
    pool = tuple(_request(ids) for ids in singles + list(HOT_MULTI))
    weights = 1.0 / np.arange(1, len(singles) + 1) ** ZIPF_S
    weights /= weights.sum()

    def draw(n: int) -> tuple[int, ...]:
        multi = rng.random(n) < HOT_MULTI_SHARE
        single_pick = rng.choice(len(singles), size=n, p=weights)
        multi_pick = len(singles) + rng.integers(0, len(HOT_MULTI), size=n)
        return tuple(int(p) for p in np.where(multi, multi_pick, single_pick))

    def step(rate: float, duration: float) -> HotStep:
        n = max(1, int(rate * duration))
        jitter = rng.uniform(-HOT_JITTER / 2, HOT_JITTER / 2, size=n)
        offsets = (np.arange(n) + 0.5 + jitter) / rate
        return HotStep(rate, tuple(float(t) for t in offsets), draw(n))

    reference_s = seconds * HOT_REFERENCE_SHARE / HOT_ROUNDS
    capacity_n = int(seconds * HOT_CAPACITY_SHARE / HOT_ROUNDS * 500) + 50
    rounds = [(step(HOT_LADDER[0], reference_s), draw(capacity_n))
              for _ in range(HOT_ROUNDS)]
    ladder_s = (seconds * (1.0 - HOT_REFERENCE_SHARE - HOT_CAPACITY_SHARE)
                / (len(HOT_LADDER) - 1))
    return HotPlan(
        pool,
        tuple(r for r, _ in rounds),
        tuple(c for _, c in rounds),
        tuple(step(rate, ladder_s) for rate in HOT_LADDER[1:]),
    )


def cold_requests(seed: int, seconds: float) -> tuple[dict, ...]:
    """More never-seen requests than a run can finish: one experiment
    each, with a distinct ``seed`` override."""
    rng = _rng(seed, "serve-cold")
    n = int(seconds * 200) + 100
    seeds = rng.choice(2**31 - 1, size=n, replace=False)
    picks = rng.integers(0, len(COLD_IDS), size=n)
    return tuple(
        _request((COLD_IDS[p],), {COLD_IDS[p]: {"seed": int(s)}})
        for p, s in zip(picks, seeds)
    )


def sample_indices(seed: int, n: int, k: int) -> tuple[int, ...]:
    """``k`` of ``n`` indices, chosen by the seed (the verified sample)."""
    if n <= k:
        return tuple(range(n))
    rng = _rng(seed, "verify")
    return tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))
