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
  :class:`repro.obs.history.RunRegistry`.

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
from repro.obs.profile import (
    PROFILE_ENV,
    PROFILE_FILE_ENV,
    PROFILE_LOG_NAME,
    PROFILE_SPAN_ENV,
    SamplingProfiler,
    resolve_profile,
)
from repro.obs.resources import ResourceSampler, resolve_sample_interval
from repro.utils import blas
from repro.provenance.env import capture_environment
from repro.provenance.manifest import ExperimentManifest

__all__ = ["RunRecord", "RunSummary", "execute_request", "seed_ledger"]


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
    ``manifest.json``, and ``results.json`` beneath it; telemetry routing
    is restored to its previous sink afterwards.  A positive
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
    try:
        with trace_context.bind(ctx), blas.single_thread():
            obs.emit(
                "run_start", {"experiments": resolved, "smoke": request.smoke}
            )
            records: list[RunRecord] = []
            for exp_id in resolved:
                exp = get_experiment(exp_id)
                obs.emit("experiment_start", {"experiment": exp.id})
                start = time.perf_counter()
                # The span makes each experiment a node of the run's call
                # tree, so `repro trace --critical-path` names the dominant
                # one.
                with obs.span(exp.id):
                    result = exp.run(
                        request.overrides_for(exp.id),
                        smoke=request.smoke,
                        seeds=request.seeds,
                        workers=request.workers,
                        cache=request.cache,
                    )
                elapsed = time.perf_counter() - start
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
                    {"dur_s": elapsed},
                )
                records.append(RunRecord(exp, result, verdict, elapsed))
            obs.emit("run_finish", {"n_experiments": len(records)})
    finally:
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
        _write_artifacts(summary, out_path)
        _register_run(out_path)
    return summary


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` so readers only ever see the old or the new file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _register_run(out_path: Path) -> None:
    """Index the finished run so ``repro runs`` sees it without a rescan."""
    from repro.obs.history import RunRegistry

    root = os.environ.get("REPRO_RUNS_DIR") or out_path.parent
    try:
        RunRegistry(root).register(out_path)
    except (OSError, ValueError):
        pass  # an unwritable index must never fail the run itself


def _write_artifacts(summary: RunSummary, out_path: Path) -> None:
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
    _atomic_write_text(out_path / "results.json", json.dumps(summary.as_dict(), indent=2))
    prom = obs.render_prometheus(
        obs.get_metrics(),
        labels={"run_id": out_path.name, "tier": "smoke" if summary.smoke else "default"},
    )
    if prom:
        _atomic_write_text(out_path / "metrics.prom", prom)
