"""Exact work counts of the scheduling engine.

``ClusterSimulator.op_counts()`` reports what a run cost as plain
integers: the reservation calendar's calls, the segments its window
scans visit and its copies duplicate, the policy's ``plan`` calls and the
events fired.  The counts are the same on any host, so they are pinned
exactly here, per policy, on one 5,000-job steady-state stream.  An
extra scan in ``earliest_fit``, a lost ``prune`` or a second plan per
dispatch changes a count and fails this file, where a wall-clock gate
would need a slower run than a noisy host's spread to notice.

The 36 golden fingerprints in ``test_cluster_golden.py`` pin what the
engine decides; this file pins what it costs to decide it.
"""

import json

import pytest

from repro import obs
from repro.api import RunRequest, canonical_results, canonical_results_bytes, \
    execute_request
from repro.cluster import ClusterSimulator, ReservationCalendar, \
    synthetic_workload
from repro.cluster import scheduler
from repro.cluster.calendar import CalendarOps

N_GPUS = 32

#: ``op_counts()`` of one run of ``synthetic_workload(5_000, 32,
#: mix="mixed", seed=0)`` under each policy.
OPS = {
    "fifo": {
        "earliest_fit_calls": 0, "fits_calls": 0, "add_calls": 5000,
        "copy_calls": 0, "prune_calls": 5000, "segments_scanned": 0,
        "segments_copied": 0, "plan_calls": 5036, "events_fired": 20000,
    },
    "backfill": {
        "earliest_fit_calls": 4868, "fits_calls": 13268, "add_calls": 10369,
        "copy_calls": 4868, "prune_calls": 5000, "segments_scanned": 70813,
        "segments_copied": 60912, "plan_calls": 4868, "events_fired": 20000,
    },
    "edf": {
        "earliest_fit_calls": 0, "fits_calls": 0, "add_calls": 5000,
        "copy_calls": 0, "prune_calls": 5000, "segments_scanned": 0,
        "segments_copied": 0, "plan_calls": 4734, "events_fired": 20000,
    },
    "fairshare": {
        "earliest_fit_calls": 0, "fits_calls": 0, "add_calls": 5000,
        "copy_calls": 0, "prune_calls": 5000, "segments_scanned": 0,
        "segments_copied": 0, "plan_calls": 4857, "events_fired": 20000,
    },
    "conservative": {
        "earliest_fit_calls": 104268, "fits_calls": 0, "add_calls": 109268,
        "copy_calls": 4883, "prune_calls": 5000, "segments_scanned": 2412606,
        "segments_copied": 61152, "plan_calls": 4883, "events_fired": 20000,
    },
    "hybrid-4": {
        "earliest_fit_calls": 17964, "fits_calls": 12368, "add_calls": 23142,
        "copy_calls": 4883, "prune_calls": 5000, "segments_scanned": 178797,
        "segments_copied": 61152, "plan_calls": 4883, "events_fired": 20000,
    },
}


def _run(policy, n_jobs):
    sim = ClusterSimulator(N_GPUS, policy=policy)
    sim.run(synthetic_workload(n_jobs, N_GPUS, mix="mixed", seed=0))
    return sim.op_counts()


def _segments_per_job(ops, n_jobs):
    return (ops["segments_scanned"] + ops["segments_copied"]) / n_jobs


@pytest.mark.parametrize("policy", list(OPS))
def test_op_counts_are_pinned(policy):
    assert _run(policy, 5_000) == OPS[policy]


def test_backfill_work_per_job_stays_flat():
    # 8x the jobs: a scan over every job or every past breakpoint would
    # grow the per-job work ~8x; the engine's stays flat.
    small = _segments_per_job(_run("backfill", 1_000), 1_000)
    large = _segments_per_job(_run("backfill", 8_000), 8_000)
    assert large <= 2.0 * small, (small, large)


def test_copies_add_to_their_original_counts():
    cal = ReservationCalendar(4)
    cal.add(0.0, 10.0, 3)
    overlay = cal.copy()
    assert overlay.earliest_fit(2, 5.0, 0.0) == 10.0
    assert overlay.fits(0.0, 5.0, 1)
    # earliest_fit visits [0, 10) and [10, inf); fits visits [0, 10).
    assert cal.ops == CalendarOps(
        earliest_fit_calls=1, fits_calls=1, add_calls=1, copy_calls=1,
        segments_scanned=3, segments_copied=2,
    )


def test_a_failing_fit_counts_the_segment_that_failed():
    cal = ReservationCalendar(4)
    cal.add(10.0, 20.0, 4)
    assert not cal.fits(0.0, 15.0, 1)
    assert cal.ops.segments_scanned == 2


def test_counts_do_not_depend_on_telemetry():
    with obs.quiet():
        quiet = _run("hybrid-4", 1_000)
    with obs.capture_events() as events:
        traced = _run("hybrid-4", 1_000)
    assert [e["kind"] for e in events] == ["cluster_run_finish"]
    assert quiet == traced


# -- R1 folds each simulator run once ---------------------------------------


@pytest.mark.parametrize("telemetry,folds", [(True, 20), (False, 3)])
def test_r1_folds_each_run_at_most_once(telemetry, folds, monkeypatch,
                                        tmp_path):
    """R1's smoke tier simulates 20 runs.  With telemetry on, each run
    folds once for its ``cluster_run_finish``; with it off, only the
    three runs whose fold R1 reports (its ``policies`` block) fold."""
    for name in ("REPRO_OBS_DISABLE", "REPRO_OBS_DIR", "REPRO_OBS_SAMPLE",
                 "REPRO_OBS_PROFILE"):
        monkeypatch.delenv(name, raising=False)
    if not telemetry:
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
    made = []
    fold = scheduler.contention

    def counting(*args, **kwargs):
        made.append(kwargs["policy"])
        return fold(*args, **kwargs)

    monkeypatch.setattr(scheduler, "contention", counting)
    execute_request(RunRequest(ids=["R1"], smoke=True, workers=1, cache=False),
                    out_dir=tmp_path / "run")
    assert len(made) == folds


# -- C1 rests on the counts ------------------------------------------------


def test_c1_results_are_identical_across_runs():
    """C1 declares no volatile values, so its values and its verdict's
    ``observed`` are compared whole, and two runs agree byte for byte."""
    documents = [
        execute_request(RunRequest(ids=["C1"], smoke=True, workers=workers,
                                   cache=False)).as_dict()
        for workers in (1, None)
    ]
    entry = canonical_results(documents[0])["experiments"][0]
    assert entry["volatile_values"] == []
    assert entry["verdict"]["passed"] is True
    assert all(isinstance(check["observed"], list)
               for check in entry["verdict"]["checks"])
    assert "wall_s" not in json.dumps(entry["values"])
    assert canonical_results_bytes(documents[0]) == \
        canonical_results_bytes(documents[1])
