"""``python -m repro`` — the command-line front door to the catalog.

Subcommands
-----------
``list``
    Every registered experiment: id, paper section, title.
``run <ids|all>``
    Execute experiments; writes ``events.jsonl`` + ``manifest.json`` +
    ``results.json`` under a per-run directory and prints each
    experiment's regenerated tables and verdict.
``report <ids|all>``
    Print only the regenerated paper-vs-ours tables (this regenerates
    ``bench_tables.txt``: ``python -m repro report > bench_tables.txt``).
``check <ids|all>``
    Evaluate every paper-shape claim; exit non-zero if any fails.
``trace <run-dir>``
    Analyze a recorded run's ``events.jsonl``: summary plus cache
    attribution by default, ``--utilization`` and ``--critical-path``
    tables on demand, the whole analysis as JSON via ``--json``.  With
    ``--serve`` the argument is a *serve root*: its ``access.jsonl`` is
    stitched to run directories and rendered as per-request timelines
    (``--trace-id`` narrows to one request, inlining the run's critical
    path).
``profile <run-dir>``
    Per-span CPU hotspots from a run recorded with ``--profile``: reads
    the run's ``profile.jsonl`` and prints function-level self/total
    time shares with the coordinator/worker split (``--span`` narrows to
    one experiment's subtree, ``--top`` sizes the table,
    ``--flamegraph`` exports collapsed stacks, ``--json`` the whole
    analysis).
``bench <ids|all>``
    Time experiments (median of ``--repeats``, cell cache off) and
    either ``--record`` the baselines or gate ``--against`` them,
    exiting non-zero on regression (``--record-missing`` bootstraps
    absent entries).
``runs list|diff|flaky``
    Cross-run history via :mod:`repro.obs.history`: list every indexed
    run under ``--root`` (default ``REPRO_RUNS_DIR`` or ``runs/``),
    structurally diff two runs (exit 1 on deterministic-value deltas or
    verdict flips), or audit repeated runs for flaky values (exit 1 when
    any non-volatile value is not bit-identical across reruns).
``watch <run-dir|run-id>``
    Live view of an in-progress run: follows ``events.jsonl`` and renders
    progress, cache counters, and sampled resource usage in place.  A run
    id (e.g. one returned by ``POST /runs``) is resolved to its directory
    under ``--root`` via the run index.
``serve``
    Long-running HTTP/JSON service over the catalog: ``POST /runs``
    queues work onto a pool of worker processes; repeat requests are
    answered from the shared content-addressed result store.
``serve-report <root>``
    Fleet aggregates from a serve root's access log: request/queue
    latency histograms (p50/p95/p99), per-experiment cache and error
    breakdown, and the trace-stitching table (``--require-stitched``
    exits 1 if any run directory stitches to no trace).

Every run-shaped subcommand is a thin adapter over :mod:`repro.api`: it
packs its arguments into a :class:`repro.api.RunRequest` and hands it to
the :class:`repro.api.Catalog` facade — the same object ``repro serve``
exposes over HTTP — so CLI and service behavior cannot drift.

Shared options: ``--smoke`` selects each experiment's CI-scale config
tier; ``--seeds N`` overrides the trial-seed count where an experiment
has one; ``--workers N`` and ``--no-cache`` flow to every
:mod:`repro.parallel` call (without ``--workers``, a call goes from
serial to a pool of the usable CPUs once its cells have taken ~0.25 s); ``--json OUT`` writes the machine-readable
results/verdicts.  Two options belong to ``repro run`` alone, because
they write into its run directory: ``--sample-resources [SEC]`` starts
the :class:`repro.obs.resources.ResourceSampler` for the run, and
``--profile [sampling|SEC]`` attaches the sampling CPU profiler
(:mod:`repro.obs.profile`), writing ``profile.jsonl`` beside the event
stream.

Every invocation starts from a clean process-wide metrics registry, so
cache counters and ``ResultCache.stats()``-style numbers reported by one
command are that command's own, not process-lifetime accumulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import repro
from repro import obs
from repro.obs.baseline import BaselineStore, median
from repro.obs.history import HistoryError, RunDiff, RunRegistry, detect_flakiness
from repro.obs.profile import resolve_profile
from repro.obs.resources import DEFAULT_INTERVAL_S
from repro.obs.watch import watch_run
from repro.obs.trace import (
    ProfileReader,
    ServeTraceIndex,
    TraceError,
    TraceReader,
    render_critical_path,
    render_hotspots,
    render_serve_report,
    render_serve_trace,
    render_summary,
    render_utilization,
)
from repro.api import Catalog, RunRequest, RunSummary
from repro.exp.registry import all_experiments
from repro.exp.reporting import rows_table, verdict_table

__all__ = ["build_parser", "main"]


def _profile_arg(text: str) -> str:
    """Validate ``--profile`` at parse time, so a typo exits 2."""
    try:
        resolve_profile(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run, report, and check the paper's experiment catalog.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {repro.package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every registered experiment")

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("ids", nargs="*", default=["all"], metavar="ID",
                       help="experiment ids (default: all)")
        p.add_argument("--smoke", action="store_true",
                       help="use each experiment's CI-scale config tier")
        p.add_argument("--seeds", type=int, default=None, metavar="N",
                       help="override the trial-seed count where supported")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-pool size for repro.parallel calls "
                            "(1: serial).  Omitted, each call runs its cells "
                            "serially until it has spent ~0.25 s, then on a "
                            "pool of the usable CPUs")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed result cache")
        p.add_argument("--json", dest="json_out", metavar="OUT",
                       help="write machine-readable output to this file")

    run = sub.add_parser("run", help="run experiments and write run artifacts")
    add_run_options(run)
    run.add_argument("--out", metavar="DIR", default=None,
                     help="run directory (default: runs/<timestamp>)")
    run.add_argument("--no-artifacts", action="store_true",
                     help="skip the per-run events/manifest/results files")
    run.add_argument("--sample-resources", nargs="?", type=float,
                     const=DEFAULT_INTERVAL_S, default=None, metavar="SEC",
                     help="sample RSS/CPU of the run into events.jsonl "
                          f"every SEC seconds (bare flag: every "
                          f"{DEFAULT_INTERVAL_S}s; also via "
                          "REPRO_OBS_SAMPLE)")
    run.add_argument("--profile", nargs="?", type=_profile_arg,
                     const="sampling", default=None, metavar="MODE",
                     help="attach the sampling CPU profiler: 'sampling' "
                          "(bare flag) or an interval in seconds; writes "
                          "profile.jsonl beside events.jsonl (also via "
                          "REPRO_OBS_PROFILE)")

    report = sub.add_parser("report", help="print regenerated-vs-paper tables")
    add_run_options(report)

    check = sub.add_parser("check", help="evaluate paper-shape claims; exit 1 on failure")
    add_run_options(check)

    trace = sub.add_parser(
        "trace", help="analyze a recorded run's events.jsonl"
    )
    trace.add_argument("run_dir", metavar="RUN_DIR",
                       help="run directory (or the events.jsonl itself)")
    trace.add_argument("--utilization", action="store_true",
                       help="per-worker utilization and cluster contention")
    trace.add_argument("--critical-path", action="store_true",
                       help="the dominant span chain through the run")
    trace.add_argument("--json", dest="json_out", nargs="?", const="-",
                       metavar="OUT",
                       help="emit the full analysis as JSON (to stdout, "
                            "or to OUT when given)")
    trace.add_argument("--serve", action="store_true",
                       help="treat RUN_DIR as a serve root: stitch its "
                            "access.jsonl to run directories and show "
                            "per-request timelines")
    trace.add_argument("--trace-id", default=None, metavar="TRACE_ID",
                       help="with --serve: one request's full timeline "
                            "(queue latency, execution wall, inlined "
                            "critical path)")

    profile = sub.add_parser(
        "profile", help="per-span CPU hotspots from a recorded profile.jsonl"
    )
    profile.add_argument("run_dir", metavar="RUN_DIR",
                         help="run directory recorded with --profile (or "
                              "the profile.jsonl itself)")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="rows in the hotspot table (default 10)")
    profile.add_argument("--span", default=None, metavar="SPAN",
                         help="restrict to one span subtree (e.g. an "
                              "experiment id; prefix match)")
    profile.add_argument("--flamegraph", nargs="?", const="-", default=None,
                         metavar="OUT",
                         help="emit collapsed stacks for flamegraph.pl / "
                              "speedscope (to stdout, or to OUT when given)")
    profile.add_argument("--json", dest="json_out", nargs="?", const="-",
                         metavar="OUT",
                         help="emit the full hotspot analysis as JSON (to "
                              "stdout, or to OUT when given)")

    bench = sub.add_parser(
        "bench",
        help="time experiments against BENCH_baselines.json; exit 1 on regression",
    )
    add_run_options(bench)
    bench.add_argument("--repeats", type=int, default=3, metavar="K",
                       help="timing repeats per experiment (median-of-K, "
                            "default 3)")
    bench.add_argument("--record", metavar="FILE",
                       help="record baselines into FILE and exit")
    bench.add_argument("--against", metavar="FILE",
                       help="compare against the baselines in FILE")
    bench.add_argument("--threshold", type=float, default=None, metavar="R",
                       help="relative regression threshold (default 0.25)")
    bench.add_argument("--record-missing", action="store_true",
                       help="with --against: record entries for experiments "
                            "the baseline file lacks (bootstraps a fresh "
                            "file) instead of reporting them as new")

    runs = sub.add_parser(
        "runs", help="cross-run history: list, diff, and flakiness audit"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def add_runs_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", metavar="DIR", default=None,
                       help="runs root (default: $REPRO_RUNS_DIR or runs/)")
        p.add_argument("--json", dest="json_out", nargs="?", const="-",
                       metavar="OUT",
                       help="emit machine-readable output (to stdout, or "
                            "to OUT when given)")

    runs_list = runs_sub.add_parser("list", help="every indexed run")
    add_runs_options(runs_list)

    runs_diff = runs_sub.add_parser(
        "diff",
        help="structural diff of two runs; exit 1 on deterministic drift",
    )
    runs_diff.add_argument("run_a", metavar="RUN_A",
                           help="run id or run directory")
    runs_diff.add_argument("run_b", metavar="RUN_B",
                           help="run id or run directory")
    add_runs_options(runs_diff)

    runs_flaky = runs_sub.add_parser(
        "flaky",
        help="audit repeated runs for non-bit-identical values; exit 1 "
             "when any are found",
    )
    add_runs_options(runs_flaky)

    watch = sub.add_parser(
        "watch", help="live view of an in-progress run's events.jsonl"
    )
    watch.add_argument("run_dir", metavar="RUN",
                       help="run directory, its events.jsonl, or a run id "
                            "resolvable under --root")
    watch.add_argument("--root", metavar="DIR", default=None,
                       help="runs root for run-id resolution (default: "
                            "$REPRO_RUNS_DIR or runs/)")
    watch.add_argument("--interval", type=float, default=0.5, metavar="SEC",
                       help="poll cadence in seconds (default 0.5)")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit (scriptable)")
    watch.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="stop after SEC seconds; exit 2 if no events "
                            "arrived by then")

    serve = sub.add_parser(
        "serve", help="serve the catalog over HTTP (POST /runs, GET /metrics, …)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port (default 8321; 0 picks a free port)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker processes executing queued runs "
                            "(default 2)")
    serve.add_argument("--root", metavar="DIR", default=None,
                       help="directory for run artifacts and the shared "
                            "result store (default: $REPRO_RUNS_DIR or "
                            "runs/)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")

    serve_report = sub.add_parser(
        "serve-report",
        help="fleet aggregates from a serve root's access log: latency "
             "histograms, cache/error breakdown, trace stitching",
    )
    serve_report.add_argument("root", metavar="ROOT",
                              help="serve root directory (or the "
                                   "access.jsonl itself)")
    serve_report.add_argument("--json", dest="json_out", nargs="?", const="-",
                              metavar="OUT",
                              help="emit the fleet report as JSON (to "
                                   "stdout, or to OUT when given)")
    serve_report.add_argument("--require-stitched", action="store_true",
                              help="exit 1 unless every run directory "
                                   "stitches to at least one trace_id")
    return parser


def _request_from(args: argparse.Namespace) -> RunRequest:
    """Pack a run-shaped subcommand's arguments into the API request."""
    return RunRequest(
        ids=tuple(args.ids),
        smoke=args.smoke,
        seeds=args.seeds,
        workers=args.workers,
        cache=not args.no_cache,
        sample_resources=getattr(args, "sample_resources", None),
        profile=getattr(args, "profile", None),
    )


def _execute(args: argparse.Namespace, *, out_dir: Path | None) -> RunSummary:
    return Catalog().execute(_request_from(args), out_dir=out_dir)


def _write_json(path: str, payload: dict[str, Any]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2))


def _cmd_list() -> int:
    rows = [(e.id, e.section or "-", e.title) for e in all_experiments()]
    print(rows_table(["id", "section", "title"], rows,
                     title=f"experiment catalog ({len(rows)} registered)"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    out_dir: Path | None = None
    if not args.no_artifacts:
        out_dir = Path(args.out) if args.out else (
            Path("runs") / time.strftime("run-%Y%m%d-%H%M%S")
        )
    summary = _execute(args, out_dir=out_dir)
    for record in summary.records:
        exp = record.experiment
        print(f"\n=== {exp.id} · {exp.title} [{record.seconds:.1f}s] ===")
        print(record.result.report())
        if record.verdict is not None:
            n_pass = sum(c.passed for c in record.verdict.checks)
            status = "PASS" if record.verdict.passed else "FAIL"
            print(f"{exp.id} verdict: {status} "
                  f"({n_pass}/{len(record.verdict.checks)} claims)")
    if out_dir is not None:
        print(f"\nrun artifacts: {out_dir}/{{events.jsonl,manifest.json,results.json}}")
    if args.json_out:
        _write_json(args.json_out, summary.as_dict())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    summary = _execute(args, out_dir=None)
    for record in summary.records:
        exp = record.experiment
        print(f"## {exp.id} — {exp.title}\n")
        print(record.result.report())
        print()
    if args.json_out:
        _write_json(args.json_out, summary.as_dict())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    summary = _execute(args, out_dir=None)
    verdicts = summary.verdicts()
    print(verdict_table(verdicts))
    n_failed = sum(not v.passed for v in verdicts)
    checked = ", ".join(v.experiment for v in verdicts)
    print(f"\nchecked {len(verdicts)} experiments ({checked}): "
          f"{len(verdicts) - n_failed} passed, {n_failed} failed")
    if args.json_out:
        _write_json(args.json_out, {
            "smoke": summary.smoke,
            "verdicts": [v.as_dict() for v in verdicts],
        })
    return 1 if n_failed else 0


def _telemetry_disabled(run_dir: str) -> str | None:
    """Explain a missing stream when the run itself clearly happened.

    A directory holding ``results.json``/``manifest.json`` but no
    ``events.jsonl`` is a run recorded with telemetry switched off
    (``REPRO_OBS_DISABLE=1``) — the honest diagnosis, as opposed to a
    wrong path or a corrupt stream.
    """
    path = Path(run_dir)
    if not path.is_dir():
        return None
    ran = any((path / name).exists() for name in ("results.json", "manifest.json"))
    if ran and not (path / "events.jsonl").exists():
        return (
            f"telemetry was disabled for this run (REPRO_OBS_DISABLE=1): "
            f"{path} has run artifacts but no event stream; re-record "
            f"without the kill switch to trace or profile it"
        )
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.serve:
        return _cmd_trace_serve(args)
    if args.trace_id:
        print("repro trace: --trace-id requires --serve", file=sys.stderr)
        return 2
    try:
        reader = TraceReader.load(args.run_dir)
    except TraceError as exc:
        hint = _telemetry_disabled(args.run_dir)
        print(f"repro trace: {hint or exc}", file=sys.stderr)
        return 2
    if args.json_out:
        payload = reader.summary()
        if args.json_out == "-":
            print(json.dumps(payload, indent=2))
        else:
            _write_json(args.json_out, payload)
        return 0
    sections = [render_summary(reader)]
    if args.critical_path:
        sections.append(render_critical_path(reader))
    if args.utilization:
        sections.append(render_utilization(reader))
    print("\n\n".join(sections))
    return 0


def _cmd_trace_serve(args: argparse.Namespace) -> int:
    """``repro trace --serve <root>``: stitched per-request timelines."""
    try:
        index = ServeTraceIndex.load(args.run_dir)
    except TraceError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        if args.trace_id:
            payload: dict[str, Any] = index.timeline(args.trace_id)
        else:
            payload = {
                "traces": [index.timeline(t) for t in index.trace_ids()]
            }
        if args.json_out == "-":
            print(json.dumps(payload, indent=2))
        else:
            _write_json(args.json_out, payload)
        return 0
    print(render_serve_trace(index, args.trace_id))
    return 0


def _cmd_serve_report(args: argparse.Namespace) -> int:
    try:
        index = ServeTraceIndex.load(args.root)
    except TraceError as exc:
        print(f"repro serve-report: {exc}", file=sys.stderr)
        return 2
    report = index.fleet_report()
    if args.json_out:
        if args.json_out == "-":
            print(json.dumps(report, indent=2))
        else:
            _write_json(args.json_out, report)
    else:
        print(render_serve_report(index))
    unstitched = report["stitching"]["unstitched"]
    if args.require_stitched and unstitched:
        print(
            f"repro serve-report: {len(unstitched)} run dir(s) stitch to no "
            f"trace_id: {', '.join(unstitched)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        profile = ProfileReader.load(args.run_dir)
    except TraceError as exc:
        hint = _telemetry_disabled(args.run_dir)
        print(f"repro profile: {hint or exc}", file=sys.stderr)
        return 2
    if args.flamegraph is not None:
        collapsed = profile.flamegraph(span=args.span)
        if args.flamegraph == "-":
            sys.stdout.write(collapsed)
        else:
            Path(args.flamegraph).write_text(collapsed)
            print(f"collapsed stacks -> {args.flamegraph} "
                  f"(render with flamegraph.pl or speedscope)")
        return 0
    if args.json_out:
        _emit_json(args.json_out, profile.summary(top=args.top))
        return 0
    print(render_hotspots(profile, top=args.top, span=args.span))
    return 0


def _bench_timings(args: argparse.Namespace) -> dict[str, list[float]]:
    """Median-of-k source data: each repeat's event-derived wall times,
    with the cell cache off whatever the flags, so no repeat times a
    cache replay.  Each experiment is its own request: a request of one
    runs alone in this process, so a sample never shares the host with
    a sibling experiment."""
    repeats = max(1, args.repeats)
    request = dataclasses.replace(_request_from(args), cache=False)
    timings: dict[str, list[float]] = {}
    for _ in range(repeats):
        for exp_id in request.resolved_ids():
            summary = Catalog().execute(dataclasses.replace(request, ids=(exp_id,)))
            for timed_id, seconds in summary.timings().items():
                timings.setdefault(timed_id, []).append(seconds)
    return timings


def _cmd_bench(args: argparse.Namespace) -> int:
    if bool(args.record) == bool(args.against):
        print("repro bench: pass exactly one of --record FILE / --against FILE",
              file=sys.stderr)
        return 2
    tier = "smoke" if args.smoke else "default"
    timings = _bench_timings(args)

    if args.record:
        store = BaselineStore.load(args.record)
        for exp_id, samples in sorted(timings.items()):
            store.record(tier, exp_id, samples)
        store.save()
        rows = [(e, f"{min(s):.3f}", f"{median(s):.3f}")
                for e, s in sorted(timings.items())]
        print(rows_table(
            ["experiment", "min s", "median s"], rows,
            title=f"recorded {len(rows)} baselines (tier={tier}) -> {args.record}",
        ))
        return 0

    store = BaselineStore.load(args.against)
    kwargs: dict[str, Any] = {}
    if args.threshold is not None:
        kwargs["threshold"] = args.threshold
    report = store.compare(tier, timings, **kwargs)
    if args.record_missing and report.new:
        for comparison in report.new:
            store.record(tier, comparison.experiment,
                         timings[comparison.experiment])
        store.save()
        print(f"bootstrapped {len(report.new)} baseline entries "
              f"into {args.against}")
    print(report.to_table())
    n_reg = len(report.regressions)
    print(f"\nperf gate: {'PASS' if report.passed else 'FAIL'} "
          f"({n_reg} regression{'s' if n_reg != 1 else ''}, "
          f"{len(report.new)} new)")
    if args.json_out:
        _write_json(args.json_out, report.as_dict())
    return 1 if report.regressions else 0


def _emit_json(json_out: str, payload: Any) -> None:
    if json_out == "-":
        print(json.dumps(payload, indent=2))
    else:
        _write_json(json_out, payload)


def _cmd_runs(args: argparse.Namespace) -> int:
    registry = RunRegistry(args.root)

    if args.runs_command == "list":
        records = registry.scan()
        if args.json_out:
            _emit_json(args.json_out, {
                "root": str(registry.root),
                "stale": registry.stale,
                "unparseable": registry.unparseable,
                "runs": [r.as_dict() for r in records],
            })
            return 0
        rows = [
            (r.run_id, r.tier, f"{r.total_wall_s:.1f}",
             f"{r.n_passed}/{r.n_checked}", len(r.experiments),
             r.repro_version or "-")
            for r in records
        ]
        print(rows_table(
            ["run", "tier", "wall s", "passed", "exps", "version"], rows,
            title=f"{len(rows)} runs under {registry.root}",
        ))
        for label, names in (("stale (indexed, now gone)", registry.stale),
                             ("unparseable", registry.unparseable)):
            if names:
                print(f"{label}: {', '.join(names)}")
        return 0

    if args.runs_command == "diff":
        try:
            diff = RunDiff.between(registry.get(args.run_a),
                                   registry.get(args.run_b))
        except HistoryError as exc:
            print(f"repro runs diff: {exc}", file=sys.stderr)
            return 2
        if args.json_out:
            _emit_json(args.json_out, diff.as_dict())
        else:
            print(diff.to_table())
        return 0 if diff.clean else 1

    if args.runs_command == "flaky":
        report = detect_flakiness(registry.scan())
        if args.json_out:
            _emit_json(args.json_out, report.as_dict())
        else:
            print(report.to_table())
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled runs command {args.runs_command!r}")


def _cmd_watch(args: argparse.Namespace) -> int:
    return watch_run(
        args.run_dir,
        interval_s=args.interval,
        once=args.once,
        timeout_s=args.timeout,
        root=args.root,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CatalogServer

    server = CatalogServer(
        args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        verbose=args.verbose,
    )
    server.start()
    print(f"repro serve listening on {server.url} "
          f"({args.workers} workers, root={server.queue.root})")
    print("endpoints: GET /experiments · POST /runs · GET /runs[/<id>"
          "[/results]] · POST /runs/<id>/cancel · GET /metrics")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Per-invocation observability: cache/pmap counters and the metrics
    # report must describe this command, not the process's lifetime (a
    # REPL or test process may drive several invocations back to back).
    obs.get_metrics().reset()
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-report":
        return _cmd_serve_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
