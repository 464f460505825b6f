"""Typed request/status/result objects — the catalog's wire format.

Everything that used to be an argparse namespace or a loose kwargs bundle
is one of three dataclasses here:

* :class:`RunRequest` — *what to run*: experiment ids, config tier,
  per-experiment overrides, and execution knobs.  A request knows its own
  :meth:`~RunRequest.canonical` form — the resolved experiment configs
  plus a code salt per experiment — and therefore its content
  :meth:`~RunRequest.digest`.  Two requests that would produce the same
  ``results.json`` values digest equally (``workers``/``cache``/
  ``sample_resources``/``profile`` are excluded: by the determinism
  contract they change *how* the run executes, never *what* it
  computes), which is the key the serving layer's shared result store
  answers repeats from.
* :class:`RunStatus` — *where a submitted run is*: its lifecycle state
  (``queued → running → done | failed | cancelled``), timestamps, the run
  directory, and whether it was answered from the shared cache.
* :class:`RunResult` — *what a finished run produced*: the same document
  ``results.json`` holds, plus accessors for verdicts and values.

:exc:`RequestError` is the validation failure type — a malformed body,
an unknown experiment id, or an unknown config key.  The HTTP layer maps
it to a 4xx; the CLI lets it surface as the same :exc:`KeyError`-shaped
message it always printed.

:func:`canonical_results` is the determinism projection of a results
document: wall-clock fields (``timings``, per-experiment ``seconds`` /
``wall_s``) are dropped and declared-volatile values are masked, exactly
mirroring what ``repro runs diff``/``flaky`` exempt.  Two runs of the
same :class:`RunRequest` — one via the CLI, one via the server — are
byte-identical under :func:`canonical_results_bytes`; that equality is
what the serving test suite enforces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Mapping, Sequence

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "STATES",
    "TERMINAL_STATES",
    "ConflictError",
    "RequestError",
    "UnknownRunError",
    "RunRequest",
    "RunStatus",
    "RunResult",
    "canonical_results",
    "canonical_results_bytes",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every legal lifecycle state, in order.
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
#: States a run never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class RequestError(ValueError, KeyError):
    """A malformed or unsatisfiable run request.

    The HTTP layer maps it to a 400.  It subclasses :exc:`KeyError` as
    well as :exc:`ValueError` because the registry's unknown-experiment
    failure has always been a ``KeyError`` — callers that guarded on
    either type keep working.
    """

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return str(self.args[0]) if self.args else ""


class UnknownRunError(KeyError):
    """No run with the given id is known to the backend (an HTTP 404)."""


class ConflictError(RuntimeError):
    """The run exists but is in the wrong state for the operation — e.g.
    cancelling an already-finished run, or asking a queued run for its
    results (an HTTP 409)."""


_REQUEST_FIELDS = {
    "ids", "smoke", "seeds", "workers", "cache", "overrides",
    "sample_resources", "profile",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


@dataclass(frozen=True)
class RunRequest:
    """One unit of catalog work: which experiments, at which tier, how.

    ``ids`` follows the CLI's token rules (explicit ids, case-insensitive,
    or ``"all"``).  ``overrides`` maps experiment id → config-key
    overrides for that experiment; unknown keys are rejected exactly as
    ``Experiment.resolve_config`` rejects them.  ``seeds`` overrides the
    trial-seed count wherever an experiment declares ``n_seeds``.
    """

    ids: tuple[str, ...] = ("all",)
    smoke: bool = False
    seeds: int | None = None
    workers: int | None = None
    cache: Any = True
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    sample_resources: float | None = None
    #: CPU profiling knob: ``None`` (defer to ``REPRO_OBS_PROFILE``),
    #: ``"sampling"``, or a sampling interval in seconds as a string; it
    #: takes effect only for runs with a run directory.  Like the other
    #: execution knobs it is excluded from :meth:`canonical`/:meth:`digest`
    #: — the profiler writes a separate volatile stream and cannot change
    #: result values.
    profile: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Any) -> "RunRequest":
        """Build and validate a request from a JSON-shaped mapping.

        Every malformation raises :exc:`RequestError` with a message
        naming the offending field — the server's 400 bodies are these
        messages verbatim.
        """
        _require(isinstance(raw, Mapping), "request body must be a JSON object")
        unknown = set(raw) - _REQUEST_FIELDS
        _require(
            not unknown,
            f"unknown request field(s) {sorted(unknown)} "
            f"(known: {sorted(_REQUEST_FIELDS)})",
        )
        ids = raw.get("ids", ["all"])
        _require(
            isinstance(ids, Sequence) and not isinstance(ids, (str, bytes))
            and all(isinstance(i, str) for i in ids) and len(ids) > 0,
            "'ids' must be a non-empty list of experiment id strings",
        )
        smoke = raw.get("smoke", False)
        _require(isinstance(smoke, bool), "'smoke' must be a boolean")
        seeds = raw.get("seeds")
        _require(
            seeds is None or (isinstance(seeds, int) and not isinstance(seeds, bool)
                              and seeds > 0),
            "'seeds' must be a positive integer",
        )
        workers = raw.get("workers")
        _require(
            workers is None or (isinstance(workers, int)
                                and not isinstance(workers, bool) and workers >= 0),
            "'workers' must be a non-negative integer",
        )
        cache = raw.get("cache", True)
        _require(isinstance(cache, bool), "'cache' must be a boolean")
        overrides = raw.get("overrides", {})
        _require(
            isinstance(overrides, Mapping)
            and all(isinstance(k, str) and isinstance(v, Mapping)
                    for k, v in overrides.items()),
            "'overrides' must map experiment id -> {config key: value}",
        )
        sample = raw.get("sample_resources")
        _require(
            sample is None or (isinstance(sample, (int, float))
                               and not isinstance(sample, bool) and sample >= 0),
            "'sample_resources' must be a non-negative number of seconds",
        )
        profile = raw.get("profile")
        if profile is not None:
            _require(
                isinstance(profile, (str, int, float))
                and not isinstance(profile, bool),
                "'profile' must be 'sampling' or a sampling interval in seconds",
            )
            profile = str(profile)
            if profile != "sampling":
                try:
                    ok = float(profile) > 0
                except ValueError:
                    ok = False
                _require(
                    ok,
                    "'profile' must be 'sampling' or a positive sampling "
                    "interval in seconds",
                )
        return cls(
            ids=tuple(ids),
            smoke=smoke,
            seeds=seeds,
            workers=workers,
            cache=cache,
            overrides={k: dict(v) for k, v in overrides.items()},
            sample_resources=None if sample is None else float(sample),
            profile=profile,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "ids": list(self.ids),
            "smoke": self.smoke,
            "seeds": self.seeds,
            "workers": self.workers,
            "cache": bool(self.cache) if isinstance(self.cache, bool) else True,
            "overrides": {k: dict(v) for k, v in self.overrides.items()},
            "sample_resources": self.sample_resources,
            "profile": self.profile,
        }

    # -- resolution against the registry -----------------------------------

    def resolved_ids(self) -> list[str]:
        """Expand ``ids`` to catalog ids; unknown ids are request errors."""
        from repro.exp.registry import resolve_ids

        try:
            resolved = resolve_ids(self.ids)
        except KeyError as exc:
            raise RequestError(str(exc.args[0]) if exc.args else str(exc)) from exc
        for exp_id in self.overrides:
            _require(
                exp_id in resolved,
                f"overrides name experiment {exp_id!r} which is not in the "
                f"requested set {resolved}",
            )
        return resolved

    def overrides_for(self, exp_id: str) -> dict[str, Any]:
        return dict(self.overrides.get(exp_id, {}))

    def resolved_config(self, exp_id: str) -> dict[str, Any]:
        """The exact config one experiment would run under this request."""
        from repro.exp.registry import get_experiment

        exp = get_experiment(exp_id)
        try:
            config = exp.resolve_config(self.overrides_for(exp.id), smoke=self.smoke)
        except KeyError as exc:
            raise RequestError(str(exc.args[0]) if exc.args else str(exc)) from exc
        if self.seeds is not None and "n_seeds" in config:
            config["n_seeds"] = int(self.seeds)
        return config

    def canonical(self) -> dict[str, Any]:
        """The content identity of this request: what determines its values.

        Resolved ids in resolution order (the order the results document
        will list them), each with its fully resolved config
        and a salt over the experiment's ``_run`` source, so editing an
        experiment invalidates its served results the same way it
        invalidates its :class:`~repro.parallel.cache.ResultCache` cells.
        Execution knobs (``workers``, ``cache``, ``sample_resources``,
        ``profile``) are deliberately absent — the determinism contract
        guarantees they cannot change the result.
        """
        from repro.exp.registry import get_experiment
        from repro.parallel.cache import code_salt

        entries = []
        for exp_id in self.resolved_ids():
            exp = get_experiment(exp_id)
            entries.append({
                "id": exp.id,
                "config": self.resolved_config(exp_id),
                "salt": code_salt(type(exp)._run),
            })
        return {"smoke": self.smoke, "experiments": entries}

    def digest(self) -> str:
        """SHA-256 content digest of :meth:`canonical` — the shared-store key."""
        from repro.provenance.manifest import stable_hash

        return stable_hash(self.canonical())


@dataclass
class RunStatus:
    """Where one submitted run stands in its lifecycle."""

    run_id: str
    state: str
    request: RunRequest
    cached: bool = False
    queued_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    run_dir: str | None = None
    #: The trace that *caused* this run (repro.obs.context).  Coalesced
    #: submitters receive the original submitter's trace_id here — a
    #: mismatch with their own context is how they learn they joined an
    #: in-flight execution instead of starting one.
    trace_id: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def wait_s(self) -> float | None:
        """Queue latency: submission to execution start (None until known)."""
        if self.queued_at is None or self.started_at is None:
            return None
        return self.started_at - self.queued_at

    def as_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "state": self.state,
            "cached": self.cached,
            "queued_at": self.queued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "run_dir": self.run_dir,
            "trace_id": self.trace_id,
            "request": self.request.as_dict(),
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "RunStatus":
        return cls(
            run_id=str(raw["run_id"]),
            state=str(raw["state"]),
            request=RunRequest.from_dict(raw.get("request", {})),
            cached=bool(raw.get("cached", False)),
            queued_at=raw.get("queued_at"),
            started_at=raw.get("started_at"),
            finished_at=raw.get("finished_at"),
            error=raw.get("error"),
            run_dir=raw.get("run_dir"),
            trace_id=raw.get("trace_id"),
        )


@dataclass
class RunResult:
    """A finished run's results document plus provenance of how it arrived.

    ``document`` is exactly the dict ``results.json`` serializes — the
    HTTP results endpoint, the CLI's ``--json`` output, and the shared
    result store all carry this one shape.
    """

    run_id: str
    document: dict[str, Any]
    cached: bool = False

    @property
    def experiments(self) -> list[str]:
        return [str(e.get("experiment")) for e in self.document.get("experiments", [])]

    def values(self, exp_id: str) -> dict[str, Any]:
        for entry in self.document.get("experiments", []):
            if entry.get("experiment") == exp_id:
                return dict(entry.get("values", {}))
        raise KeyError(f"experiment {exp_id!r} not in run {self.run_id}")

    def verdicts(self) -> dict[str, bool | None]:
        return {
            str(e.get("experiment")): (e.get("verdict") or {}).get("passed")
            for e in self.document.get("experiments", [])
        }

    @property
    def all_passed(self) -> bool:
        return all(v for v in self.verdicts().values() if v is not None)

    def canonical_bytes(self) -> bytes:
        """The document's determinism projection (see :func:`canonical_results`)."""
        return canonical_results_bytes(self.document)

    def as_dict(self) -> dict[str, Any]:
        return {"run_id": self.run_id, "cached": self.cached,
                "document": self.document}


# ---------------------------------------------------------------------------
# The determinism projection of a results document

#: Per-experiment wall-clock fields of ``results.json``, outside the
#: determinism contract (the same exemption ``repro runs diff`` applies).
_WALL_CLOCK_FIELDS = ("seconds", "wall_s")

_VOLATILE_MASK = "<volatile>"


def _mask_volatile(values: Any, globs: Sequence[str], prefix: str = "") -> Any:
    """Replace every leaf whose dotted key matches a volatile glob."""
    if isinstance(values, Mapping):
        return {
            key: _mask_volatile(value, globs,
                                f"{prefix}.{key}" if prefix else str(key))
            for key, value in values.items()
        }
    if isinstance(values, (list, tuple)):
        return [
            _mask_volatile(value, globs, f"{prefix}[{index}]")
            for index, value in enumerate(values)
        ]
    if any(fnmatchcase(prefix, glob) for glob in globs):
        return _VOLATILE_MASK
    return values


def canonical_results(document: Mapping[str, Any]) -> dict[str, Any]:
    """A results document with everything wall-clock-derived removed.

    Drops the run-level ``timings`` map and each experiment's ``seconds``
    / ``wall_s``, and masks values matching the experiment's declared
    ``volatile_values`` globs.  An experiment that declares volatile
    values also has each verdict check's ``observed`` masked, since a
    check may quote a measured figure; its ``claim`` and ``passed`` stay
    in the comparison.  What remains is the deterministic half —
    identical for any two runs of the same :class:`RunRequest` on the
    same code, whether executed by the CLI or by a server worker.
    """
    doc = json.loads(json.dumps(document))  # deep copy; asserts JSON-native
    doc.pop("timings", None)
    for entry in doc.get("experiments", []):
        for fld in _WALL_CLOCK_FIELDS:
            entry.pop(fld, None)
        globs = tuple(str(g) for g in entry.get("volatile_values", ()))
        if not globs:
            continue
        if "values" in entry:
            entry["values"] = _mask_volatile(entry["values"], globs)
        for check in (entry.get("verdict") or {}).get("checks", ()):
            if "observed" in check:
                check["observed"] = _VOLATILE_MASK
    return doc


def canonical_results_bytes(document: Mapping[str, Any]) -> bytes:
    """Canonical JSON encoding of :func:`canonical_results` — the byte string
    the served-vs-CLI bit-identity check compares."""
    return json.dumps(
        canonical_results(document), sort_keys=True, separators=(",", ":")
    ).encode()
