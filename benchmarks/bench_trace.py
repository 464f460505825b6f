"""Trace analytics on recorded event streams (`repro.obs.trace`).

The read side of the telemetry layer has to keep up with the write side:
a full-catalog smoke run emits a few thousand events, and `repro trace`
should analyze it interactively.  Two harnesses:

* a **live capture** — run a real cached `pmap` sweep plus a cluster
  simulation under `obs.capture_events`, then assert the reader recovers
  the ground truth (cell counts, cache hits, contention numbers) from
  the stream alone;
* a **parse throughput** check — a synthetic 10k-event `events.jsonl`
  must load, validate, and summarize in well under a second.
"""

import json

from conftest import emit

from repro import obs
from repro.cluster.study import run_policy_traced
from repro.obs.trace import TraceReader, render_summary
from repro.parallel import ResultCache, pmap

N_CELLS = 12
N_SYNTHETIC = 10_000


def _cell(config, seed):
    return config["x"] * 2 + seed % 3


def _capture_sweep(tmp_path):
    configs = [{"x": i} for i in range(N_CELLS)]
    cache = ResultCache(tmp_path / "cache")
    with obs.capture_events() as events:
        pmap(_cell, configs, seeds=0, cache=cache)   # cold: all misses
        pmap(_cell, configs, seeds=0, cache=cache)   # warm: all hits
    return events


def test_trace_reader_recovers_a_live_sweep(benchmark, tmp_path):
    events = _capture_sweep(tmp_path)

    reader = benchmark.pedantic(
        TraceReader.from_records, args=(events,), rounds=1, iterations=1
    )
    cold, warm = reader.pmap_calls()
    assert cold.n_cells == N_CELLS and cold.n_cache_hits == 0
    assert warm.n_cache_hits == N_CELLS and warm.n_executed == 0
    attribution = reader.cache_attribution()
    assert sum(a.hits for a in attribution) == N_CELLS
    assert sum(a.misses for a in attribution) == N_CELLS
    emit(render_summary(reader))


def test_trace_reader_recovers_cluster_contention(benchmark):
    def run():
        return run_policy_traced([5.0] * 8, n_gpus=2,
                                 policy="fifo")

    metrics, contention = benchmark.pedantic(run, rounds=1, iterations=1)
    assert contention is not None
    assert contention.n_jobs == metrics.n_jobs
    assert contention.makespan == metrics.makespan
    assert 0.0 < contention.utilization <= 1.0
    emit(
        f"trace: cluster run recovered from the event stream — "
        f"{contention.n_jobs} jobs, makespan {contention.makespan:.1f} h, "
        f"utilization {contention.utilization:.2f}, "
        f"tail {contention.tail_utilization:.2f}"
    )


def test_parse_throughput_on_synthetic_stream(benchmark, tmp_path):
    path = tmp_path / "events.jsonl"
    with path.open("w") as fh:
        for seq in range(N_SYNTHETIC):
            # Alternating span frames: a flat forest of tiny two-event trees.
            start = seq % 2 == 0
            record = {
                "schema": obs.SCHEMA_VERSION,
                "seq": seq,
                "kind": "span_start" if start else "span_end",
                "ts": float(seq),
                "payload": {"name": f"s{seq // 2}", "path": f"s{seq // 2}",
                            "depth": 0},
                "wall": {} if start else {"dur_s": 0.001},
            }
            fh.write(json.dumps(record) + "\n")

    def load_and_summarize():
        reader = TraceReader.load(path)
        return reader, reader.summary()

    reader, summary = benchmark.pedantic(load_and_summarize, rounds=1, iterations=1)
    assert summary["n_events"] == N_SYNTHETIC
    assert not reader.truncated
    assert len(reader.span_tree()) == N_SYNTHETIC // 2
    emit(
        f"trace: parsed + summarized {N_SYNTHETIC} events "
        f"({N_SYNTHETIC // 2} spans) from {path.name}"
    )
