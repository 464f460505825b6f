"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import run  # noqa: E402
import serving  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_generation_is_a_pure_function_of_the_seed():
    assert workloads.hot_plan(7, 15) == workloads.hot_plan(7, 15)
    assert workloads.hot_plan(7, 15) != workloads.hot_plan(8, 15)
    assert workloads.cold_requests(7, 15) == workloads.cold_requests(7, 15)
    assert workloads.cold_requests(7, 15) != workloads.cold_requests(8, 15)
    assert workloads.sample_indices(7, 500, 24) == workloads.sample_indices(7, 500, 24)


def test_cold_requests_are_all_distinct():
    bodies = workloads.cold_requests(3, 15)
    assert len({serving.request_key(b) for b in bodies}) == len(bodies)


def test_hot_plan_mixes_single_and_multi_requests():
    plan = workloads.hot_plan(1, 15)
    assert [s.rate for s in plan.ladder] == list(workloads.HOT_LADDER[1:])
    assert len(plan.reference) == len(plan.capacity) == workloads.HOT_ROUNDS
    picks = [p for step in plan.reference + plan.ladder for p in step.picks]
    multi = sum(len(plan.pool[p]["ids"]) > 1 for p in picks) / len(picks)
    assert 0.1 < multi < 0.3


def test_catalogue_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER)
    # serve-hot and des run on demand but are not gated: see README.md.
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in run.WORKLOADS if w not in ("serve-hot", "des")]


def test_corrupted_served_document_fails_the_gate():
    from repro.api import RunRequest, execute_request

    body = {"ids": ["T1"], "smoke": True}
    refs = serving.references([body])
    doc = execute_request(RunRequest.from_dict(body)).as_dict()
    good = serving.Outcome(0.0, 0.0, 0.0, True, False, body, doc)
    assert serving.mismatches([good], refs) == 0 and good.ok

    corrupted = json.loads(json.dumps(doc))
    values = corrupted["experiments"][0]["values"]
    values[next(iter(values))] = "corrupted"
    bad = serving.Outcome(0.0, 0.0, 0.0, True, False, body, corrupted)
    assert serving.mismatches([bad], refs) == 1
    assert not bad.ok


def test_max_rate_interpolates_between_ladder_steps():
    def step(rate, ms):
        return {"rate": rate, "effective_ms": ms,
                "meets_limit": ms <= serving.LIMIT_MS}

    limit = serving.LIMIT_MS
    assert serving.max_rate([step(100, 10), step(200, 10)]) == 200
    assert serving.max_rate([step(100, 10), step(200, limit + (limit - 10))]) == 150
    # A hiccup on a low step does not hide a higher step that passed.
    assert serving.max_rate([step(100, 2 * limit), step(200, 10), step(300, 10)]) == 300
    assert serving.max_rate([step(100, 2 * limit)]) == 50


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    out = _bench("--workload", "des", "--seed", "1", "--seconds", "1",
                 "--trace", "1")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cluster.conservative.calendar_earliest_fit_calls"]["value"] > 0


def _session_members(sid: int) -> list[str]:
    """Processes, zombies included, whose session is ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # it ended while we looked
            continue
        # Fields follow the command name, which may hold spaces or ')'.
        head, tail = stat.rsplit(")", 1)
        fields = tail.split()
        if int(fields[3]) == sid:
            members.append(f"{entry.name} {fields[0]} {head.split('(', 1)[1]}")
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_serve_run_leaves_no_process_behind():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err[-2000:]
    assert _session_members(proc.pid) == []


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "des", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
