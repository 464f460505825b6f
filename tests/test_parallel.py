"""Tests for repro.parallel: deterministic fan-out + result cache."""

import os
import pickle
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.parallel import runner
from repro.parallel import (
    ResultCache,
    Sweep,
    cache_key,
    code_salt,
    compare_workers,
    grid,
    pmap,
    resolve_workers,
    time_sweep,
)
from repro.utils.rng import spawn_children


# Module-level cells so they can cross process boundaries.
def double_cell(config):
    return config * 2


def seeded_cell(config, seed):
    rng = np.random.default_rng(seed)
    return (config, float(rng.random()))


def sweep_cell(x, y, seed):
    rng = np.random.default_rng(seed)
    return x * 100 + y * 10 + float(rng.random())


def unseeded_sweep_cell(x):
    return x + 1


def sleepy_cell(config):
    time.sleep(config)
    return config * 2


@pytest.fixture
def eager_auto(monkeypatch):
    """``workers=None`` hands every call to a 2-worker pool at once."""
    monkeypatch.setattr(runner, "POOL_AFTER_S", 0.0)
    monkeypatch.setattr(runner, "visible_cpus", lambda: 2)


def _finish(events):
    (finish,) = [e for e in events if e["kind"] == "pmap_finish"]
    return finish["wall"]


class TestSpawnChildren:
    def test_deterministic(self):
        assert spawn_children(7, 5) == spawn_children(7, 5)

    def test_children_distinct(self):
        children = spawn_children(0, 8)
        assert len(set(children)) == 8

    def test_different_roots_differ(self):
        assert spawn_children(1, 3) != spawn_children(2, 3)

    def test_prefix_stability(self):
        """The first k children do not depend on how many are spawned."""
        assert spawn_children(3, 8)[:3] == spawn_children(3, 3)

    def test_accepts_seedsequence(self):
        root = np.random.SeedSequence(5)
        assert spawn_children(root, 2) == spawn_children(5, 2)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must be"):
            spawn_children(0, 0)


class TestPmap:
    def test_preserves_submission_order(self):
        assert pmap(double_cell, [3, 1, 2]) == [6, 2, 4]

    def test_empty_configs(self):
        assert pmap(double_cell, []) == []

    def test_root_seed_expansion_matches_spawn_children(self):
        out = pmap(seeded_cell, ["a", "b"], 11)
        seeds = spawn_children(11, 2)
        expected = [seeded_cell("a", seeds[0]), seeded_cell("b", seeds[1])]
        assert out == expected

    def test_workers_do_not_change_results(self, eager_auto):
        serial = pmap(seeded_cell, list(range(6)), 0, workers=1)
        parallel = pmap(seeded_cell, list(range(6)), 0, workers=4)
        auto = pmap(seeded_cell, list(range(6)), 0)
        assert serial == parallel == auto

    def test_explicit_seed_list(self):
        out = pmap(seeded_cell, ["x", "y"], [5, 5])
        assert out[0][1] == out[1][1]

    def test_seed_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="seeds"):
            pmap(seeded_cell, ["x", "y"], [1])

    def test_unseeded_call_runs_in_the_pool(self):
        """The "no seed" marker must survive pickling to a worker."""
        with obs.capture_events() as events:
            out = pmap(double_cell, [1, 2, 3, 4], workers=2)
        assert out == pmap(double_cell, [1, 2, 3, 4]) == [2, 4, 6, 8]
        (finish,) = [e for e in events if e["kind"] == "pmap_finish"]
        assert finish["wall"]["mode"] == "pool"
        assert finish["wall"]["fallback"] is None

    def test_unpicklable_fn_falls_back_to_serial(self):
        bound = 3
        out = pmap(lambda c: c + bound, [1, 2], workers=4)
        assert out == [4, 5]

    def test_kill_switch_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_DISABLE", "1")
        assert resolve_workers(8) == 1
        assert pmap(double_cell, [1, 2], workers=8) == [2, 4]

    def test_resolve_workers_serial_values(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1


class TestAutoWorkers:
    """``workers=None``: serial until a call proves long, then a pool."""

    def test_long_call_hands_the_rest_to_a_pool(self, monkeypatch):
        monkeypatch.setattr(runner, "POOL_AFTER_S", 0.1)
        monkeypatch.setattr(runner, "visible_cpus", lambda: 2)
        # The budget runs out during the second cell, whatever the host's
        # sleep overshoot.
        durations = [0.0, 0.2, 0.01, 0.01, 0.01, 0.01]
        with obs.capture_events() as events:
            out = pmap(sleepy_cell, durations)
        assert out == [2 * d for d in durations]
        wall = _finish(events)
        assert wall["mode"] == "pool" and wall["fallback"] is None
        assert wall["serial_cells"] == 2 and wall["workers"] == 2
        pids = [e["wall"]["pid"] for e in events if e["kind"] == "cell_finish"]
        assert pids[:2] == [os.getpid()] * 2
        assert os.getpid() not in pids[2:]

    def test_millisecond_cells_never_start_a_pool(self, monkeypatch):
        monkeypatch.setattr(runner, "visible_cpus", lambda: 2)
        with obs.capture_events() as events:
            assert pmap(double_cell, list(range(50))) == [2 * c for c in range(50)]
        wall = _finish(events)
        assert wall["mode"] == "serial" and wall["fallback"] is None
        assert wall["serial_cells"] == 50 and wall["workers"] == 1
        assert obs.get_metrics().counter("pmap.serial_fallbacks").value == 0

    def test_kill_switch_keeps_a_long_call_serial(self, eager_auto, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_DISABLE", "1")
        with obs.capture_events() as events:
            assert pmap(sleepy_cell, [0.01] * 4) == [0.02] * 4
        wall = _finish(events)
        assert wall["mode"] == "serial" and wall["workers"] == 1
        assert wall["fallback"] is None

    def test_one_usable_cpu_keeps_a_long_call_serial(self, monkeypatch):
        monkeypatch.setattr(runner, "POOL_AFTER_S", 0.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with obs.capture_events() as events:
            assert pmap(sleepy_cell, [0.01] * 4) == [0.02] * 4
        wall = _finish(events)
        assert wall["mode"] == "serial" and wall["workers"] == 1

    def test_explicit_one_worker_stays_serial(self, eager_auto):
        with obs.capture_events() as events:
            pmap(sleepy_cell, [0.01] * 4, workers=1)
        assert _finish(events)["mode"] == "serial"

    def test_reliability_study_identical_at_auto_and_one_worker(self, eager_auto):
        from repro.rl.agents import DQNConfig
        from repro.rl.reliability import ReliabilityStudyConfig, reliability_study

        cfg = ReliabilityStudyConfig(
            env_names=("catch",), families=("cnn",),
            dqn=DQNConfig(episodes=3, epsilon_decay_episodes=2,
                          warmup_transitions=8, batch_size=8),
            size=4, eval_episodes=2,
        )
        seeds = spawn_children(0, 2)
        with obs.capture_events() as events:
            auto = reliability_study(cfg, seeds=seeds, cache=False)
        serial = reliability_study(cfg, seeds=seeds, workers=1, cache=False)
        assert _finish(events)["mode"] == "pool"
        assert auto.reports == serial.reports


def timed_leaf(seconds):
    """Sleep; report ``(pid, start, end)`` on the host-wide monotonic clock."""
    start = time.monotonic()
    time.sleep(seconds)
    return os.getpid(), start, time.monotonic()


def leaf_or_nested(config):
    """A sleep leaf, or a nested automatic call over sleep leaves."""
    kind, arg = config
    if kind == "leaf":
        return [timed_leaf(arg)]
    return pmap(timed_leaf, arg)


def _max_overlap(intervals):
    edges = sorted(
        [(start, 1) for _, start, _ in intervals]
        + [(end, -1) for _, _, end in intervals]
    )
    running = peak = 0
    for _, step in edges:
        running += step
        peak = max(peak, running)
    return peak


class TestCpuBudget:
    """Automatic calls share ``visible_cpus()`` process tokens."""

    def test_nested_call_takes_the_core_its_sibling_frees(self, eager_auto):
        with obs.capture_events() as events:
            sibling, nested = pmap(
                leaf_or_nested, [("leaf", 0.4), ("nested", [0.1] * 8)]
            )
        assert _finish(events)["mode"] == "pool"
        (_, _, sibling_end), = sibling
        leaves = sibling + nested
        # Never more processes running cells than the budget's 2 tokens.
        assert _max_overlap(leaves) <= 2
        overlapping = [
            max(a[1], b[1]) for k, a in enumerate(nested) for b in nested[k + 1:]
            if a[1] < b[2] and b[1] < a[2]
        ]
        # The nested call ran cells side by side, but only once the
        # sibling had finished and handed its token on.
        assert overlapping, "the nested call never used the freed core"
        assert min(overlapping) >= sibling_end
        assert len({pid for pid, _, _ in nested}) >= 2

    def test_run_cells_yields_in_order_without_events(self, eager_auto):
        with obs.capture_events() as events:
            out = list(runner.run_cells(double_cell, [3, 1, 2, 5]))
        assert out == [6, 2, 4, 10]
        assert events == []

    def test_pool_cells_metrics_merge_into_the_caller(self, eager_auto):
        obs.get_metrics().reset()
        pmap(counting_cell, [1, 2, 3, 4], workers=1)
        serial = obs.get_metrics().snapshot()["counters"]
        obs.get_metrics().reset()
        with obs.capture_events() as events:
            pmap(counting_cell, [1, 2, 3, 4])
        assert _finish(events)["mode"] == "pool"
        assert obs.get_metrics().snapshot()["counters"] == serial
        assert serial["test.cell_units"] == 10


def counting_cell(config):
    obs.get_metrics().counter("test.cell_units").inc(config)
    return config


def test_concurrent_nested_calls_stay_inside_the_budget(eager_auto):
    """Three nested calls on two tokens lend and take theirs back while
    the others run: up to six workers, never more than two leaves."""
    calls = pmap(leaf_or_nested, [("nested", [0.05] * 6)] * 3)
    assert [len(leaves) for leaves in calls] == [6, 6, 6]
    assert _max_overlap([leaf for leaves in calls for leaf in leaves]) <= 2


def leaf_or_explicit(config):
    """A sleep leaf, or a nested call over sleep leaves on two workers."""
    kind, arg = config
    if kind == "leaf":
        return [timed_leaf(arg)]
    return pmap(timed_leaf, arg, workers=2)


def test_explicit_worker_counts_take_no_tokens(eager_auto):
    sibling, explicit = pmap(
        leaf_or_explicit, [("leaf", 1.0), ("explicit", [0.2] * 4)]
    )
    (_, _, sibling_end), = sibling
    # The budget's 2 tokens are held by the two cells; the explicit pool's
    # two workers run beside them without waiting for one.
    assert _max_overlap(sibling + explicit) == 3
    assert explicit[0][2] < sibling_end


_DEAD_WORKER_SCRIPT = """
import os
from repro import obs
from repro.parallel import pmap, runner

runner.POOL_AFTER_S = 0.0
runner.visible_cpus = lambda: 2

def die_off_home(config):
    home_pid, x = config
    if os.getpid() != home_pid:
        os._exit(1)
    return 2 * x

def quick_or_dying(config):
    kind, n = config
    if kind == "quick":
        return [n]
    return pmap(die_off_home, [(os.getpid(), x) for x in range(n)])

with obs.capture_events() as events:
    top = pmap(die_off_home, [(os.getpid(), x) for x in range(4)])
(finish,) = [e for e in events if e["kind"] == "pmap_finish"]
print(top, finish["wall"]["fallback"])
print(pmap(quick_or_dying, [("quick", 0), ("dying", 4)]))
"""


def test_pool_whose_workers_die_falls_back_to_serial():
    """At the top level and nested, without waiting on the lost tokens."""
    src = str(Path(runner.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _DEAD_WORKER_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[0, 2, 4, 6] BrokenProcessPool",
        "[[0], [0, 2, 4, 6]]",
    ]


def test_p2_cache_probe_ignores_the_user_cache_kill_switch(monkeypatch):
    """P2 measures a private cache; the switch guards the user's cache."""
    from repro.parallel.selfcheck import p2_cache_rerun

    def values():
        block = p2_cache_rerun(dims=(5,), eps_grid=(0.1,), n_trials=2)
        return {k: v for k, v in block.values.items() if k != "warm_over_cold"}

    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    on = values()
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    assert values() == on
    assert on["warm_hits"] == on["n_cells"] == 2


_ORPHAN_SCRIPT = """
import os, sys, time
from repro.parallel import pmap

def cell(config):
    print(os.getpid(), flush=True)
    time.sleep(config)

pmap(cell, [60.0] * 2, workers=2)
"""


def _pid_gone(pid):
    """True once ``pid`` no longer runs (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False


def _read_lines(stream, n, timeout_s):
    """The first ``n`` lines a child writes, or fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    buf = b""
    while buf.count(b"\n") < n:
        left = deadline - time.monotonic()
        assert left > 0 and select.select([stream], [], [], left)[0], (
            f"child wrote {buf!r} in {timeout_s} s"
        )
        chunk = os.read(stream.fileno(), 4096)
        assert chunk, f"child closed its stdout after {buf!r}"
        buf += chunk
    return buf.decode().splitlines()[:n]


def test_pool_workers_exit_when_their_parent_is_killed():
    src = str(Path(runner.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT], stdout=subprocess.PIPE, env=env,
    )
    pids = []
    try:
        pids = [int(line) for line in _read_lines(parent.stdout, 2, 30.0)]
        assert parent.pid not in pids
        parent.send_signal(signal.SIGTERM)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and not all(map(_pid_gone, pids)):
            time.sleep(0.05)
        assert all(map(_pid_gone, pids)), f"pool workers outlived their parent: {pids}"
    finally:
        parent.kill()
        parent.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("f", {"a": 1}, 0, "s")
        assert cache.get(key) == (False, None)
        cache.put(key, {"x": np.arange(3)})
        hit, value = cache.get(key)
        assert hit
        np.testing.assert_array_equal(value["x"], np.arange(3))

    def test_stats_count_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("f", 1, 2, "s")
        cache.get(key)
        cache.put(key, 9)
        cache.get(key)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        assert stats.bytes_written > 0

    def test_kill_switch(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        key = cache_key("f", 1, 2, "s")
        cache.put(key, 9)
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert not cache.enabled
        assert cache.get(key) == (False, None)
        cache.put(key, 10)  # no-op
        monkeypatch.delenv("REPRO_CACHE_DISABLE")
        assert cache.get(key) == (True, 9)

    def test_env_dir_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ResultCache().root == tmp_path / "alt"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("f", 1, 2, "s")
        cache.put(key, 9)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key("f", 1, 0, "s"), 1)
        cache.put(cache_key("f", 2, 0, "s"), 2)
        assert cache.clear() == 2
        assert cache.get(cache_key("f", 1, 0, "s")) == (False, None)

    def test_key_sensitivity(self):
        base = cache_key("f", {"a": 1}, 0, "salt")
        assert cache_key("g", {"a": 1}, 0, "salt") != base
        assert cache_key("f", {"a": 2}, 0, "salt") != base
        assert cache_key("f", {"a": 1}, 1, "salt") != base
        assert cache_key("f", {"a": 1}, 0, "other") != base

    def test_key_ignores_dict_order(self):
        assert cache_key("f", {"a": 1, "b": 2}, 0, "s") == cache_key(
            "f", {"b": 2, "a": 1}, 0, "s"
        )

    def test_code_salt_unwraps_partials(self):
        from functools import partial

        assert code_salt(partial(double_cell, 1)) == code_salt(double_cell)

    def test_pmap_cache_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = pmap(seeded_cell, list(range(4)), 0, cache=cache)
        assert cache.stats().misses == 4 and cache.stats().stores == 4
        warm = pmap(seeded_cell, list(range(4)), 0, cache=cache)
        assert warm == cold
        assert cache.stats().hits == 4
        assert cache.stats().stores == 4  # nothing re-executed, nothing re-stored

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = pmap(seeded_cell, list(range(4)), 0, workers=4, cache=cache)
        warm = pmap(seeded_cell, list(range(4)), 0, workers=1, cache=cache)
        assert warm == cold
        assert cache.stats().hits == 4


class TestSweep:
    def test_grid_row_major_order(self):
        assert grid(a=[1, 2], b=["x"]) == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_records_cover_cross_product(self):
        result = Sweep(sweep_cell, grid(x=[1, 2], y=[3]), seeds=[0, 1]).run()
        assert len(result.records) == 4
        assert [(r.config["x"], r.seed is not None) for r in result.records] == [
            (1, True), (1, True), (2, True), (2, True)
        ]

    def test_workers_do_not_change_records(self):
        sweep = Sweep(sweep_cell, grid(x=[1, 2], y=[3, 4]), seeds=[0, 1, 2])
        assert sweep.run(workers=1).values() == sweep.run(workers=4).values()

    def test_unseeded_sweep(self):
        result = Sweep(unseeded_sweep_cell, grid(x=[1, 2])).run()
        assert result.values() == [2, 3]

    def test_select_and_by_config(self):
        result = Sweep(sweep_cell, grid(x=[1, 2], y=[0]), seeds=[0, 1]).run()
        assert len(result.select(x=1)) == 2
        groups = result.by_config()
        assert [cfg["x"] for cfg, _ in groups] == [1, 2]
        assert all(len(vals) == 2 for _, vals in groups)

    def test_spawned_seed_discipline(self):
        sweep = Sweep.spawned(
            sweep_cell, grid(x=[1], y=[0]), root_seed=9, n_trials=3
        )
        assert list(sweep.seeds) == spawn_children(9, 3)

    def test_cached_rerun_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = Sweep(sweep_cell, grid(x=[1, 2], y=[3]), seeds=[0, 1])
        cold = sweep.run(cache=cache)
        warm = sweep.run(cache=cache)
        assert warm.values() == cold.values()
        assert cold.n_executed == 4 and cold.n_cache_hits == 0
        assert warm.n_executed == 0 and warm.n_cache_hits == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sweep(sweep_cell, [])
        with pytest.raises(ValueError):
            Sweep(sweep_cell, grid(x=[1]), seeds=[])


class TestTiming:
    def test_time_sweep_measurement(self):
        sweep = Sweep(unseeded_sweep_cell, grid(x=[1, 2, 3]))
        timing = time_sweep(sweep, repeats=2)
        assert timing.measurement.repeats == 2
        assert timing.wall_s > 0
        assert timing.result.values() == [2, 3, 4]

    def test_compare_workers_keys(self):
        sweep = Sweep(unseeded_sweep_cell, grid(x=[1, 2]))
        timings = compare_workers(sweep, [1, 2])
        assert set(timings) == {1, 2}
        assert timings[2].result.values() == timings[1].result.values()

    def test_time_sweep_rejects_zero_repeats(self):
        sweep = Sweep(unseeded_sweep_cell, grid(x=[1]))
        with pytest.raises(ValueError):
            time_sweep(sweep, repeats=0)


class TestStudyDeterminism:
    """The ISSUE's headline contract: worker count never changes science."""

    def test_robuststats_sweep_identical_across_workers(self, eager_auto):
        from repro.robuststats import DimensionSweepConfig, dimension_sweep

        cfg = DimensionSweepConfig(dims=(5, 10), min_samples=40)
        seeds = spawn_children(0, 2)
        serial = dimension_sweep(cfg, seeds=seeds, workers=1, cache=False)
        for workers in (4, None):
            parallel = dimension_sweep(cfg, seeds=seeds, workers=workers, cache=False)
            assert serial.errors.keys() == parallel.errors.keys()
            for name in serial.errors:
                np.testing.assert_array_equal(serial.errors[name], parallel.errors[name])

    def test_robuststats_cached_rerun_identical_with_zero_executions(self, tmp_path):
        from repro.robuststats import DimensionSweepConfig, dimension_sweep

        cache = ResultCache(tmp_path)
        cfg = DimensionSweepConfig(dims=(5, 10), min_samples=40)
        seeds = spawn_children(0, 2)
        cold = dimension_sweep(cfg, seeds=seeds, cache=cache)
        executed = cache.stats().misses
        warm = dimension_sweep(cfg, seeds=seeds, cache=cache)
        assert cache.stats().misses == executed  # zero new executions
        assert cache.stats().hits == executed
        for name in cold.errors:
            np.testing.assert_array_equal(cold.errors[name], warm.errors[name])

    def test_autotuner_identical_across_workers(self, eager_auto):
        from repro.autotune import (
            CostModel,
            GeneticTuner,
            RandomSearchConfig,
            TVM_LIKE,
            random_search,
        )
        from repro.autotune.kernels import matmul_kernel
        from repro.perf.roofline import A100_LIKE

        cm = CostModel(A100_LIKE, n_workers=108)
        kernel = matmul_kernel(128, 128, 128)
        serial = GeneticTuner(
            cm, TVM_LIKE, population=8, generations=2, seed=4, workers=1
        ).tune(kernel)
        rs_cfg = RandomSearchConfig(kernel, cm, TVM_LIKE, n_trials=24)
        rs_serial = random_search(rs_cfg, seeds=[4], workers=1).per_seed[0]
        for workers in (4, None):
            parallel = GeneticTuner(
                cm, TVM_LIKE, population=8, generations=2, seed=4, workers=workers
            ).tune(kernel)
            assert serial == parallel
            rs_parallel = random_search(rs_cfg, seeds=[4], workers=workers).per_seed[0]
            assert rs_serial == rs_parallel

    def test_kfold_identical_across_workers(self, eager_auto):
        from repro.histopath import make_patches, train_model
        from repro.histopath.crossval import KFoldConfig, kfold_evaluate

        dataset = make_patches(n=12, seed=0)

        def train(subset, fold):
            return train_model(subset, mode="multitask", epochs=2, seed=fold)

        cfg = KFoldConfig(dataset, train, n_folds=2)
        serial = kfold_evaluate(cfg, seeds=[0], workers=1).scores[0]
        assert serial == kfold_evaluate(cfg, seeds=[0], workers=4).scores[0]
        assert serial == kfold_evaluate(cfg, seeds=[0]).scores[0]
