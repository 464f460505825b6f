"""The one orchestration path every front door shares.

:func:`execute_request` is the one way to run catalog experiments: given
a validated :class:`~repro.api.types.RunRequest` it runs each resolved experiment,
stamps provenance, logs telemetry, and (when given a run directory)
writes the artifact set atomically.  Experiments run with the loaded BLAS
held at one thread (:mod:`repro.utils.blas`) rather than the host's
default BLAS thread count:

* ``events.jsonl`` — ``run_start`` / ``experiment_start`` /
  ``experiment_finish`` / ``run_finish`` framing whatever the
  experiment's own :func:`repro.parallel.pmap` calls emit;
* ``manifest.json`` — a hash-chained :class:`ExperimentManifest` with
  configs, seed ledgers, result digests, the captured environment
  (including the BLAS and the thread count runs hold it at), and the
  originating request-trace context (:mod:`repro.obs.context`);
* ``results.json`` — values, verdicts, declared volatile-value globs,
  and per-experiment wall times;
* ``metrics.prom`` — the metrics registry in Prometheus text format;
* the cross-run index — the finished run registers itself with
  :class:`repro.obs.history.RunRegistry`, from the results and manifest
  documents it has just serialized rather than a re-read of the files.

Experiments overlap.  In a request of two or more experiments with
automatic workers (``workers=None``), the experiments that declare no
``VOLATILE_VALUES`` are the cells of one :func:`repro.parallel.runner.run_cells`
fan-out, on the same CPU budget their own ``pmap`` calls share.  A smoke
request is planned from the smoke medians committed in the repository's
``BENCH_baselines.json``: its experiments are submitted longest first
(ids without a median follow in resolved order), so the longest one
starts at once instead of ending the run alone, and when their medians
add up past :data:`~repro.parallel.runner.POOL_AFTER_S` the fan-out
pools from its first cell.  Otherwise the fan-out keeps ``pmap``'s own
serial prefix, so millisecond experiments start no pool.  A full-tier
request (the file measures only the smoke tier), or one without a
readable file, as in an installed package, is not planned: resolved
order and the serial prefix.  Each records its events into an in-memory log and returns
them with its result.  The coordinator holds outcomes that arrive
before their turn and replays them in resolved order, each between its
own ``experiment_start`` and ``experiment_finish``, with fresh ``seq``
numbers and the original ``ts`` and ``wall``, in one write.  The stream
therefore matches a ``workers=1`` run's once volatile fields are
stripped; ``experiment_finish.wall.pid`` names the process the
experiment ran in.  Experiments with volatile values time themselves,
so they run one at a time in this process once the fan-out has
drained.  A request of one experiment, or with an explicit worker
count, runs its experiments here one after another.

The CLI (``repro run/report/check``), the serving worker pool
(:mod:`repro.serve.queue`), and the test suite all call this one
function, so a run's on-disk shape cannot drift between entry points —
the serving layer's bit-identity guarantee rests on that.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
from repro import obs
from repro.api.types import RunRequest
from repro.obs import context as trace_context
from repro.obs.events import disabled as obs_disabled
from repro.obs.profile import (
    PROFILE_ENV,
    PROFILE_FILE_ENV,
    PROFILE_LOG_NAME,
    PROFILE_SPAN_ENV,
    SamplingProfiler,
    resolve_profile,
)
from repro.obs.resources import ResourceSampler, resolve_sample_interval
from repro.parallel import runner as parallel_runner
from repro.parallel.runner import run_cells
from repro.utils import blas
from repro.provenance.env import capture_environment
from repro.provenance.manifest import ExperimentManifest

__all__ = ["RunRecord", "RunSummary", "execute_request", "seed_ledger"]

#: The committed baselines whose smoke medians plan a fan-out.  Beside
#: ``src/`` in a checkout; absent from an installed package.
_BASELINES = Path(__file__).resolve().parents[3] / "BENCH_baselines.json"


@dataclass
class RunRecord:
    """One executed experiment inside a run."""

    experiment: Any  # repro.exp.registry.Experiment
    result: Any      # repro.exp.result.ExpResult
    verdict: Any     # repro.exp.result.Verdict | None
    seconds: float


@dataclass
class RunSummary:
    """Everything a run produced, plus where its artifacts landed."""

    records: list[RunRecord]
    smoke: bool
    out_dir: Path | None = None
    manifest: ExperimentManifest | None = None
    #: The trace context the run executed under (repro.obs.context) —
    #: recorded into manifest.json so a served result names the request
    #: that caused it.
    trace: dict[str, Any] | None = None

    def verdicts(self) -> list[Any]:
        return [r.verdict for r in self.records if r.verdict is not None]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts())

    def timings(self) -> dict[str, float]:
        """Per-experiment wall seconds — the run's single timing source.

        The same numbers ride in each ``experiment_finish`` event's
        ``wall.dur_s``, so ``repro trace`` and ``repro bench`` agree with
        ``results.json`` to the digit.
        """
        return {r.experiment.id: r.seconds for r in self.records}

    def as_dict(self) -> dict[str, Any]:
        return {
            "smoke": self.smoke,
            "repro_version": repro.package_version(),
            "timings": self.timings(),
            "experiments": [
                {
                    **record.result.as_dict(),
                    "title": record.experiment.title,
                    "seconds": record.seconds,
                    "wall_s": record.seconds,
                    # Declared wall-clock-derived values ride with the data,
                    # so `repro runs diff/flaky` can exempt them without
                    # importing the experiment class.
                    "volatile_values": list(record.experiment.VOLATILE_VALUES),
                    "verdict": record.verdict.as_dict() if record.verdict else None,
                }
                for record in self.records
            ],
        }


def seed_ledger(config: dict[str, Any]) -> dict[str, int]:
    """Every seed-like knob of a config, for the manifest's seed audit."""
    return {
        key: int(value)
        for key, value in config.items()
        if "seed" in key and isinstance(value, (int, bool)) and not isinstance(value, bool)
    }


def execute_request(
    request: RunRequest, *, out_dir: str | os.PathLike | None = None
) -> RunSummary:
    """Run one :class:`RunRequest`; returns its :class:`RunSummary`.

    When ``out_dir`` is given the run writes ``events.jsonl``,
    ``manifest.json``, and ``results.json`` beneath it; the calling
    thread's telemetry routing is restored to its previous sink afterwards.  A positive
    ``request.sample_resources`` (or ``REPRO_OBS_SAMPLE``) starts a
    :class:`ResourceSampler` for the duration of the run.  A
    ``request.profile`` (or ``REPRO_OBS_PROFILE``) attaches the sampling
    profiler (:mod:`repro.obs.profile`) when there is a run directory:
    samples land in a separate ``profile.jsonl`` beside the event stream,
    so ``events.jsonl`` and the results stay byte-identical to an
    unprofiled run.
    """
    from repro.exp.registry import get_experiment

    resolved = request.resolved_ids()
    experiments = [get_experiment(exp_id) for exp_id in resolved]
    # Experiments that time themselves run alone, in this process; the
    # rest of an automatic multi-experiment request overlap.
    fanned = [
        k for k, exp in enumerate(experiments)
        if request.workers is None and not exp.VOLATILE_VALUES
    ]
    if len(fanned) < 2:
        fanned = []
    out_path = Path(out_dir) if out_dir is not None else None
    manifest = ExperimentManifest("repro-run")
    # The run executes under the caller's trace when one is bound (the
    # serving worker binds the context it was handed across the fork);
    # a bare CLI run roots a fresh trace from the request's own digest.
    ctx = trace_context.current()
    if ctx is None:
        ctx = trace_context.new_context(request.digest())
    previous_log: Any = None
    run_log: obs.EventLog | None = None
    sampler: ResourceSampler | None = None
    profiler: SamplingProfiler | None = None
    profile_log: obs.EventLog | None = None
    saved_profile_env: dict[str, str | None] = {}
    if out_path is not None:
        # Resolved before any side effect, so a bad knob leaves nothing
        # behind.
        profile_mode = resolve_profile(request.profile)
        out_path.mkdir(parents=True, exist_ok=True)
        # The trace is pinned to the log (not just thread-bound) so the
        # resource sampler's daemon-thread emits carry it too.
        run_log = obs.EventLog(out_path / "events.jsonl", trace=ctx)
        previous_log = obs.configure(run_log)
        interval = resolve_sample_interval(request.sample_resources)
        if interval > 0:
            # A direct log reference, so samples keep flowing even while
            # obs.quiet() silences the module-level emitter inside cells.
            sampler = ResourceSampler(interval, log=run_log)
            sampler.start()
        if profile_mode is not None:
            _, profile_interval = profile_mode
            profile_path = out_path / PROFILE_LOG_NAME
            # Eagerly create the stream so a run too fast to catch one
            # sample still reads as "profiled, empty" (not "no stream").
            profile_path.touch()
            profile_log = obs.EventLog(profile_path, trace=ctx)
            # Publish the stream so pmap pool initializers attach
            # worker-side samplers (fork inherits this env); restored
            # in the finally below.
            saved_profile_env = {
                key: os.environ.get(key)
                for key in (PROFILE_ENV, PROFILE_FILE_ENV, PROFILE_SPAN_ENV)
            }
            os.environ[PROFILE_FILE_ENV] = str(profile_path)
            os.environ[PROFILE_ENV] = str(profile_interval)
            profiler = SamplingProfiler(profile_interval, log=profile_log)
            profiler.start()
    order, long_enough = _plan_fan_out([resolved[k] for k in fanned], request.smoke)
    submitted = [fanned[i] for i in order]
    fan_out = run_cells(
        _experiment_cell,
        [(resolved[k], request) for k in submitted],
        serial_prefix=not long_enough,
    )
    # Outcomes come back in submission order; each waits here until its
    # experiment's turn in resolved order.
    arrivals = zip(submitted, fan_out)
    arrived: dict[int, Any] = {}
    try:
        with trace_context.bind(ctx), blas.single_thread():
            obs.emit(
                "run_start", {"experiments": resolved, "smoke": request.smoke}
            )
            records: list[RunRecord] = []
            for k, exp in enumerate(experiments):
                obs.emit("experiment_start", {"experiment": exp.id})
                if k in fanned:
                    while k not in arrived:
                        position, outcome = next(arrivals)
                        arrived[position] = outcome
                    result, captured, elapsed, pid = arrived.pop(k)
                    log = obs.get_logger()
                    if log is not None:
                        log.extend(captured)
                else:
                    # Drain the fan-out first: a busy sibling must not move
                    # a timing verdict.
                    arrived.update(arrivals)
                    result, elapsed = _run_experiment(exp, request)
                    pid = os.getpid()
                verdict = exp.check(result)
                manifest.record(
                    exp.id,
                    dict(result.config),
                    seed_ledger(result.config),
                    result=result.values,
                )
                obs.emit(
                    "experiment_finish",
                    {
                        "experiment": exp.id,
                        "n_blocks": len(result.values),
                        "passed": None if verdict is None else verdict.passed,
                    },
                    {"dur_s": elapsed, "pid": pid},
                )
                records.append(RunRecord(exp, result, verdict, elapsed))
            obs.emit("run_finish", {"n_experiments": len(records)})
    finally:
        fan_out.close()
        if sampler is not None:
            sampler.stop()
        if profiler is not None:
            profiler.stop()
        for key, value in saved_profile_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        if out_path is not None:
            obs.configure(previous_log)
        # Closed only once nothing can emit into them: a serve worker
        # would otherwise keep one descriptor per run it ever executed.
        for log in (run_log, profile_log):
            if log is not None:
                log.close()
    summary = RunSummary(
        records, request.smoke, out_path, manifest, trace=ctx.as_dict()
    )
    if out_path is not None:
        results, manifest_doc = _write_artifacts(summary, out_path)
        _register_run(out_path, results, manifest_doc)
    return summary


def _plan_fan_out(exp_ids: list[str], smoke: bool) -> tuple[list[int], bool]:
    """How to fan ``exp_ids`` out: ``(submission order, pool at once)``.

    The order lists positions in ``exp_ids``: descending committed smoke
    median first, then the ids without one in their own order.  The
    flag is true when those medians add up past ``POOL_AFTER_S``.  Only
    a smoke request is planned from the medians — the repository's
    ``BENCH_baselines.json`` measures no other tier — so a full-tier
    request, or any request without a readable file (an installed
    package has none), keeps resolved order and ``pmap``'s serial
    prefix.
    """
    from repro.obs.baseline import BaselineStore

    medians: dict[str, float] = {}
    if smoke and len(exp_ids) > 1:
        try:
            entries = BaselineStore.load(_BASELINES).entries("smoke")
        except (OSError, ValueError, KeyError, TypeError):
            entries = {}
        medians = {exp_id: entry.median_s for exp_id, entry in entries.items()}
    order = sorted(
        range(len(exp_ids)),
        key=lambda k: (exp_ids[k] not in medians, -medians.get(exp_ids[k], 0.0)),
    )
    known_s = sum(medians.get(exp_id, 0.0) for exp_id in exp_ids)
    return order, known_s > parallel_runner.POOL_AFTER_S


def _run_experiment(exp: Any, request: RunRequest) -> tuple[Any, float]:
    """Run one experiment of ``request``: ``(result, wall seconds)``."""
    start = time.perf_counter()
    # The span makes each experiment a node of the run's call tree, so
    # `repro trace --critical-path` names the dominant one.
    with obs.span(exp.id):
        result = exp.run(
            request.overrides_for(exp.id),
            smoke=request.smoke,
            seeds=request.seeds,
            workers=request.workers,
            cache=request.cache,
        )
    return result, time.perf_counter() - start


def _experiment_cell(
    job: tuple[str, RunRequest],
) -> tuple[Any, list[dict[str, Any]], float, int]:
    """One fanned-out experiment: ``(result, events, seconds, pid)``.

    The experiment records into an in-memory log of its own (none under
    ``REPRO_OBS_DISABLE=1``), which the coordinator replays in the
    experiment's place in the run.
    """
    from repro.exp.registry import get_experiment

    exp_id, request = job
    log = None if obs_disabled() else obs.EventLog()
    previous = obs.configure(log)
    try:
        result, seconds = _run_experiment(get_experiment(exp_id), request)
    finally:
        obs.configure(previous)
    return result, [] if log is None else log.records, seconds, os.getpid()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` so readers only ever see the old or the new file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _register_run(
    out_path: Path, results: dict[str, Any], manifest: dict[str, Any]
) -> None:
    """Index the finished run so ``repro runs`` sees it without a rescan.

    The record is built from the documents just written, not re-read.
    """
    from repro.obs.history import RunRegistry

    root = os.environ.get("REPRO_RUNS_DIR") or out_path.parent
    try:
        RunRegistry(root).register(out_path, results=results, manifest=manifest)
    except (OSError, ValueError):
        pass  # an unwritable index must never fail the run itself


def _write_artifacts(
    summary: RunSummary, out_path: Path
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Write the run's artifacts; the results and manifest documents
    that ``results.json`` and ``manifest.json`` serialize."""
    manifest = summary.manifest
    assert manifest is not None
    manifest_doc = {
        "environment": capture_environment().as_dict(),
        "smoke": summary.smoke,
        "repro_version": repro.package_version(),
        "chain_verified": manifest.verify_chain(),
        "manifest": json.loads(manifest.to_json()),
    }
    if summary.trace is not None:
        # Provenance: which request trace caused this run (volatile, like
        # the environment block — not part of the results identity).
        manifest_doc["trace"] = summary.trace
    _atomic_write_text(out_path / "manifest.json", json.dumps(manifest_doc, indent=2))
    results = summary.as_dict()
    _atomic_write_text(out_path / "results.json", json.dumps(results, indent=2))
    prom = obs.render_prometheus(
        obs.get_metrics(),
        labels={"run_id": out_path.name, "tier": "smoke" if summary.smoke else "default"},
    )
    if prom:
        _atomic_write_text(out_path / "metrics.prom", prom)
    return results, manifest_doc
