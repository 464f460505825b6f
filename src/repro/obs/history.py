"""Cross-run history: the registry, diffing, and flakiness detection.

Every ``repro run`` leaves a self-describing directory behind
(``events.jsonl`` + ``manifest.json`` + ``results.json``), but until now
each directory was an island: answering "did the rerun reproduce the
claim?" — the question all eleven of the paper's student projects hinge
on — meant opening JSON files by hand.  This module makes run history a
first-class object:

* :class:`RunRegistry` discovers every run directory under a root
  (``REPRO_RUNS_DIR``, default ``runs/``), parses each into a compact
  :class:`RunRecord`, and persists the index as an append-only
  ``runs_index.jsonl`` with staleness detection — a deleted run drops out
  of the view (and is reported), a re-written run is re-parsed, an
  unchanged run is served from the index without touching its directory.
* :class:`RunDiff` structurally compares two runs: config / environment /
  seed-ledger / provenance-chain drift, per-experiment numeric value
  deltas (with relative change), and loudly-flagged verdict flips.
* :func:`detect_flakiness` groups runs of the same experiment + config +
  seed ledger and flags **any** value that is not bit-identical across
  the group, with its spread.  Determinism is this repository's contract,
  so flakiness detection is a correctness tool, not a statistics one.

Wall-clock-derived values (a measured speedup, a cache warm/cold ratio)
are exempted the same way events exempt their ``wall`` section: an
experiment declares them in ``VOLATILE_VALUES`` and ``results.json``
carries the declaration, so the reader needs no access to the code that
produced the run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.stream import JsonlStream
from repro.utils.tables import Table

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "HistoryError",
    "ExperimentSnapshot",
    "RunRecord",
    "RunRegistry",
    "RunDiff",
    "FlakyValue",
    "FlakinessReport",
    "detect_flakiness",
    "flatten_values",
]

INDEX_SCHEMA_VERSION = 1

RUNS_DIR_ENV = "REPRO_RUNS_DIR"
INDEX_NAME = "runs_index.jsonl"


class HistoryError(ValueError):
    """A run directory or index record could not be parsed."""


def _digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form (inputs are JSON-native here)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def flatten_values(values: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten nested dicts/lists to dotted scalar leaves.

    ``{"a": {"b": [1, 2]}}`` becomes ``{"a.b[0]": 1, "a.b[1]": 2}`` —
    the key space the diff and flakiness tools operate on (and the key
    space ``VOLATILE_VALUES`` globs match against).
    """
    out: dict[str, Any] = {}
    if isinstance(values, Mapping):
        for key, value in values.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_values(value, path))
    elif isinstance(values, (list, tuple)):
        for index, value in enumerate(values):
            out.update(flatten_values(value, f"{prefix}[{index}]"))
    else:
        out[prefix or "(value)"] = values
    return out


def _is_volatile(key: str, patterns: Sequence[str]) -> bool:
    return any(fnmatchcase(key, pattern) for pattern in patterns)


# ---------------------------------------------------------------------------
# Records


@dataclass
class ExperimentSnapshot:
    """One experiment's footprint inside one recorded run."""

    experiment: str
    wall_s: float
    passed: bool | None
    config: dict[str, Any]
    config_digest: str
    seeds: dict[str, int]
    values: dict[str, Any]  # flattened scalar leaves
    volatile: tuple[str, ...] = ()
    result_digest: str | None = None

    @property
    def group_key(self) -> tuple[str, str, str]:
        """Identity for flakiness grouping: experiment + config + seeds."""
        return (self.experiment, self.config_digest, _digest(self.seeds))

    def deterministic_values(self) -> dict[str, Any]:
        """The flattened values minus the declared-volatile keys."""
        return {
            k: v for k, v in self.values.items()
            if not _is_volatile(k, self.volatile)
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "wall_s": self.wall_s,
            "passed": self.passed,
            "config": self.config,
            "config_digest": self.config_digest,
            "seeds": self.seeds,
            "values": self.values,
            "volatile": list(self.volatile),
            "result_digest": self.result_digest,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ExperimentSnapshot":
        return cls(
            experiment=str(raw["experiment"]),
            wall_s=float(raw.get("wall_s", 0.0)),
            passed=raw.get("passed"),
            config=dict(raw.get("config", {})),
            config_digest=str(raw.get("config_digest", "")),
            seeds={k: int(v) for k, v in dict(raw.get("seeds", {})).items()},
            values=dict(raw.get("values", {})),
            volatile=tuple(raw.get("volatile", ())),
            result_digest=raw.get("result_digest"),
        )


@dataclass
class RunRecord:
    """The compact, index-resident summary of one run directory."""

    run_id: str
    path: str
    mtime: float  # results.json mtime — the staleness sentinel
    timestamp: float
    smoke: bool
    repro_version: str | None
    environment: dict[str, Any]
    env_fingerprint: str
    chain_verified: bool | None
    experiments: dict[str, ExperimentSnapshot] = field(default_factory=dict)

    @property
    def total_wall_s(self) -> float:
        return sum(e.wall_s for e in self.experiments.values())

    @property
    def n_passed(self) -> int:
        return sum(1 for e in self.experiments.values() if e.passed is True)

    @property
    def n_checked(self) -> int:
        return sum(1 for e in self.experiments.values() if e.passed is not None)

    @property
    def tier(self) -> str:
        return "smoke" if self.smoke else "default"

    @classmethod
    def from_dir(cls, run_dir: str | os.PathLike) -> "RunRecord":
        """Parse a run directory's ``results.json`` (+ optional manifest)."""
        path = Path(run_dir)
        results_path = path / "results.json"
        if not results_path.is_file():
            raise HistoryError(f"no results.json under {path}")
        try:
            results = json.loads(results_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise HistoryError(f"unreadable results.json in {path}: {exc}") from exc
        if not isinstance(results, Mapping) or "experiments" not in results:
            raise HistoryError(f"{results_path} is not a run results document")

        environment: dict[str, Any] = {}
        chain_verified: bool | None = None
        seed_audits: dict[str, dict[str, int]] = {}
        result_digests: dict[str, str] = {}
        manifest_path = path / "manifest.json"
        if manifest_path.is_file():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise HistoryError(
                    f"unreadable manifest.json in {path}: {exc}"
                ) from exc
            environment = dict(manifest.get("environment", {}))
            chain_verified = manifest.get("chain_verified")
            for entry in manifest.get("manifest", {}).get("entries", []):
                name = str(entry.get("name", ""))
                seed_audits[name] = {
                    k: int(v)
                    for k, v in dict(entry.get("seed_audit", {})).items()
                }
                if entry.get("result_digest"):
                    result_digests[name] = str(entry["result_digest"])

        experiments: dict[str, ExperimentSnapshot] = {}
        for raw in results.get("experiments", []):
            exp_id = str(raw.get("experiment", "?"))
            config = dict(raw.get("config", {}))
            experiments[exp_id] = ExperimentSnapshot(
                experiment=exp_id,
                wall_s=float(raw.get("wall_s", raw.get("seconds", 0.0)) or 0.0),
                passed=(raw.get("verdict") or {}).get("passed"),
                config=config,
                config_digest=_digest(config),
                seeds=seed_audits.get(exp_id, {}),
                values=flatten_values(raw.get("values", {})),
                volatile=tuple(raw.get("volatile_values", ())),
                result_digest=result_digests.get(exp_id),
            )

        stat = results_path.stat()
        return cls(
            run_id=path.name,
            path=str(path),
            mtime=stat.st_mtime,
            timestamp=stat.st_mtime,
            smoke=bool(results.get("smoke", False)),
            repro_version=results.get("repro_version"),
            environment=environment,
            env_fingerprint=_digest(environment),
            chain_verified=chain_verified,
            experiments=experiments,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": INDEX_SCHEMA_VERSION,
            "run_id": self.run_id,
            "path": self.path,
            "mtime": self.mtime,
            "timestamp": self.timestamp,
            "smoke": self.smoke,
            "repro_version": self.repro_version,
            "environment": self.environment,
            "env_fingerprint": self.env_fingerprint,
            "chain_verified": self.chain_verified,
            "experiments": {
                exp_id: snap.as_dict()
                for exp_id, snap in self.experiments.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "RunRecord":
        schema = raw.get("schema")
        if schema != INDEX_SCHEMA_VERSION:
            raise HistoryError(
                f"index record has schema {schema!r}; this reader understands "
                f"schema {INDEX_SCHEMA_VERSION} — delete the index file and "
                "rescan"
            )
        return cls(
            run_id=str(raw["run_id"]),
            path=str(raw["path"]),
            mtime=float(raw["mtime"]),
            timestamp=float(raw["timestamp"]),
            smoke=bool(raw.get("smoke", False)),
            repro_version=raw.get("repro_version"),
            environment=dict(raw.get("environment", {})),
            env_fingerprint=str(raw.get("env_fingerprint", "")),
            chain_verified=raw.get("chain_verified"),
            experiments={
                exp_id: ExperimentSnapshot.from_dict(snap)
                for exp_id, snap in dict(raw.get("experiments", {})).items()
            },
        )


# ---------------------------------------------------------------------------
# The registry


class RunRegistry:
    """Discover, index, and serve every run directory under one root.

    The index (``<root>/runs_index.jsonl``) is append-only: a rescanned
    run whose ``results.json`` changed appends a fresh record (last line
    per run id wins), and a deleted run's lines simply stop being served
    — :attr:`stale` lists the run ids that were indexed but have vanished
    since, so callers can surface the fact instead of silently shrinking.

    Examples
    --------
    >>> import tempfile
    >>> registry = RunRegistry(tempfile.mkdtemp())
    >>> registry.scan()
    []
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(
            root if root is not None
            else os.environ.get(RUNS_DIR_ENV) or "runs"
        )
        self.index_path = self.root / INDEX_NAME
        #: Run ids present in the index but no longer on disk (set by scan).
        self.stale: list[str] = []
        #: Run directories that exist but failed to parse (set by scan).
        self.unparseable: list[str] = []

    # -- index persistence -------------------------------------------------

    def _load_index(self) -> dict[str, RunRecord]:
        """Indexed records, last line per run id winning (append-only).

        Torn, corrupt and foreign-schema lines are skipped, not fatal.
        """
        records: dict[str, RunRecord] = {}
        for raw in JsonlStream(self.index_path).poll():
            try:
                record = RunRecord.from_dict(raw)
            except (HistoryError, KeyError):
                continue
            records[record.run_id] = record
        return records

    def _append(self, records: Iterable[RunRecord]) -> None:
        stream = JsonlStream(self.index_path)
        try:
            for record in records:
                stream.append(record.as_dict())
        finally:
            stream.close()

    # -- discovery ---------------------------------------------------------

    def _discover_dirs(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            child for child in self.root.iterdir()
            if child.is_dir() and (child / "results.json").is_file()
        )

    def scan(self) -> list[RunRecord]:
        """Reconcile the index with the directory tree; return live records.

        Unchanged runs (same ``results.json`` mtime) are served straight
        from the index; new or modified runs are parsed and appended;
        vanished runs are dropped from the result and listed in
        :attr:`stale`.  Records come back oldest-first.
        """
        indexed = self._load_index()
        live: dict[str, RunRecord] = {}
        fresh: list[RunRecord] = []
        self.unparseable = []
        for run_dir in self._discover_dirs():
            run_id = run_dir.name
            try:
                mtime = (run_dir / "results.json").stat().st_mtime
            except OSError:
                continue
            prior = indexed.get(run_id)
            if prior is not None and prior.mtime == mtime:
                live[run_id] = prior
                continue
            try:
                record = RunRecord.from_dir(run_dir)
            except HistoryError:
                self.unparseable.append(run_id)
                continue
            live[run_id] = record
            fresh.append(record)
        self._append(fresh)
        self.stale = sorted(set(indexed) - set(live))
        return sorted(live.values(), key=lambda r: (r.timestamp, r.run_id))

    def register(self, run_dir: str | os.PathLike) -> RunRecord:
        """Parse one freshly finished run and append it to the index.

        A single O(1) append: the index is never read here, so the cost
        does not grow with the number of runs already recorded.  A repeat
        registration adds a duplicate line, which collapses on read
        (last line per run id wins in :meth:`_load_index`).
        """
        record = RunRecord.from_dir(run_dir)
        self._append([record])
        return record

    def get(self, token: str) -> RunRecord:
        """Resolve a run id (via the index) or a directory path."""
        candidate = Path(token)
        if (candidate / "results.json").is_file():
            return RunRecord.from_dir(candidate)
        for record in self.scan():
            if record.run_id == token:
                return record
        raise HistoryError(
            f"no run {token!r} under {self.root} (and no such directory)"
        )


# ---------------------------------------------------------------------------
# Diffing


def _dict_diff(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Key-wise differences between two flattened dicts."""
    flat_a, flat_b = flatten_values(dict(a)), flatten_values(dict(b))
    out: list[dict[str, Any]] = []
    for key in sorted(set(flat_a) | set(flat_b)):
        va = flat_a.get(key, "<absent>")
        vb = flat_b.get(key, "<absent>")
        if va != vb:
            out.append({"key": key, "a": va, "b": vb})
    return out


@dataclass
class RunDiff:
    """A structured comparison of two recorded runs.

    ``value_deltas`` covers only the *deterministic* half of the value
    space (declared-volatile keys are skipped, mirroring how event
    comparison strips the ``wall`` section); ``verdict_flips`` is the
    loudest section — a claim that passed in one run and failed in the
    other.
    """

    run_a: str
    run_b: str
    version_a: str | None
    version_b: str | None
    tier_a: str
    tier_b: str
    env_diffs: list[dict[str, Any]]
    chain_a: bool | None
    chain_b: bool | None
    only_in_a: list[str]
    only_in_b: list[str]
    config_diffs: dict[str, list[dict[str, Any]]]
    seed_diffs: dict[str, list[dict[str, Any]]]
    value_deltas: list[dict[str, Any]]
    volatile_deltas: list[dict[str, Any]]
    verdict_flips: list[dict[str, Any]]
    digest_changes: list[str]

    @classmethod
    def between(cls, a: RunRecord, b: RunRecord) -> "RunDiff":
        shared = sorted(set(a.experiments) & set(b.experiments))
        config_diffs: dict[str, list[dict[str, Any]]] = {}
        seed_diffs: dict[str, list[dict[str, Any]]] = {}
        value_deltas: list[dict[str, Any]] = []
        volatile_deltas: list[dict[str, Any]] = []
        verdict_flips: list[dict[str, Any]] = []
        digest_changes: list[str] = []

        for exp_id in shared:
            snap_a, snap_b = a.experiments[exp_id], b.experiments[exp_id]
            if diff := _dict_diff(snap_a.config, snap_b.config):
                config_diffs[exp_id] = diff
            if diff := _dict_diff(snap_a.seeds, snap_b.seeds):
                seed_diffs[exp_id] = diff
            if (
                snap_a.result_digest
                and snap_b.result_digest
                and snap_a.result_digest != snap_b.result_digest
            ):
                digest_changes.append(exp_id)
            if (
                snap_a.passed is not None
                and snap_b.passed is not None
                and snap_a.passed != snap_b.passed
            ):
                verdict_flips.append(
                    {"experiment": exp_id, "a": snap_a.passed, "b": snap_b.passed}
                )
            volatile = tuple(set(snap_a.volatile) | set(snap_b.volatile))
            for key in sorted(set(snap_a.values) | set(snap_b.values)):
                va = snap_a.values.get(key, "<absent>")
                vb = snap_b.values.get(key, "<absent>")
                if va == vb:
                    continue
                entry: dict[str, Any] = {
                    "experiment": exp_id, "key": key, "a": va, "b": vb,
                }
                numeric = (
                    isinstance(va, (int, float)) and not isinstance(va, bool)
                    and isinstance(vb, (int, float)) and not isinstance(vb, bool)
                )
                if numeric:
                    entry["delta"] = vb - va
                    entry["rel_change"] = (
                        (vb - va) / abs(va) if va else float("inf")
                    )
                if _is_volatile(key, volatile):
                    volatile_deltas.append(entry)
                else:
                    value_deltas.append(entry)

        return cls(
            run_a=a.run_id,
            run_b=b.run_id,
            version_a=a.repro_version,
            version_b=b.repro_version,
            tier_a=a.tier,
            tier_b=b.tier,
            env_diffs=_dict_diff(a.environment, b.environment),
            chain_a=a.chain_verified,
            chain_b=b.chain_verified,
            only_in_a=sorted(set(a.experiments) - set(b.experiments)),
            only_in_b=sorted(set(b.experiments) - set(a.experiments)),
            config_diffs=config_diffs,
            seed_diffs=seed_diffs,
            value_deltas=value_deltas,
            volatile_deltas=volatile_deltas,
            verdict_flips=verdict_flips,
            digest_changes=digest_changes,
        )

    @property
    def clean(self) -> bool:
        """True when the deterministic halves of the two runs agree."""
        return not (self.value_deltas or self.verdict_flips)

    def as_dict(self) -> dict[str, Any]:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "clean": self.clean,
            "version": {"a": self.version_a, "b": self.version_b},
            "tier": {"a": self.tier_a, "b": self.tier_b},
            "chain_verified": {"a": self.chain_a, "b": self.chain_b},
            "environment": self.env_diffs,
            "only_in_a": self.only_in_a,
            "only_in_b": self.only_in_b,
            "config": self.config_diffs,
            "seeds": self.seed_diffs,
            "value_deltas": self.value_deltas,
            "volatile_deltas": self.volatile_deltas,
            "verdict_flips": self.verdict_flips,
            "digest_changes": self.digest_changes,
        }

    def to_table(self) -> str:
        """Render the diff as stacked text tables (returned, not printed)."""
        blocks: list[str] = []
        head = Table(["field", "a", "b"],
                     title=f"run diff: {self.run_a} vs {self.run_b}")
        head.add_row(["tier", self.tier_a, self.tier_b])
        head.add_row(["repro version",
                      self.version_a or "-", self.version_b or "-"])
        head.add_row(["chain verified",
                      self.chain_a if self.chain_a is not None else "-",
                      self.chain_b if self.chain_b is not None else "-"])
        head.add_row(["experiments only here",
                      ", ".join(self.only_in_a) or "-",
                      ", ".join(self.only_in_b) or "-"])
        blocks.append(head.render())

        if self.verdict_flips:
            flips = Table(["experiment", "a passed", "b passed"],
                          title="!! VERDICT FLIPS")
            for flip in self.verdict_flips:
                flips.add_row([flip["experiment"], flip["a"], flip["b"]])
            blocks.append(flips.render())

        if self.env_diffs:
            env = Table(["environment key", "a", "b"], title="environment drift")
            for diff in self.env_diffs:
                env.add_row([diff["key"], diff["a"], diff["b"]])
            blocks.append(env.render())

        for title, per_exp in (("config drift", self.config_diffs),
                               ("seed-ledger drift", self.seed_diffs)):
            if per_exp:
                table = Table(["experiment", "key", "a", "b"], title=title)
                for exp_id, diffs in per_exp.items():
                    for diff in diffs:
                        table.add_row([exp_id, diff["key"], diff["a"], diff["b"]])
                blocks.append(table.render())

        if self.value_deltas:
            table = Table(
                ["experiment", "value", "a", "b", "rel change"],
                title=f"value deltas ({len(self.value_deltas)})", decimals=6,
            )
            for delta in self.value_deltas:
                rel = delta.get("rel_change")
                table.add_row([
                    delta["experiment"], delta["key"], delta["a"], delta["b"],
                    f"{100 * rel:+.3f}%" if isinstance(rel, float)
                    and rel not in (float("inf"), float("-inf")) else "-",
                ])
            blocks.append(table.render())

        if self.volatile_deltas:
            blocks.append(
                f"({len(self.volatile_deltas)} declared-volatile value"
                f"{'s' if len(self.volatile_deltas) != 1 else ''} differed — "
                "expected: wall-clock-derived, outside the determinism "
                "contract)"
            )

        if self.digest_changes and not self.value_deltas:
            blocks.append(
                "provenance result digests changed for: "
                + ", ".join(self.digest_changes)
                + " (volatile values are part of the digest)"
            )

        verdict = (
            "runs agree on every deterministic value"
            if self.clean
            else f"{len(self.value_deltas)} value delta"
            f"{'s' if len(self.value_deltas) != 1 else ''}, "
            f"{len(self.verdict_flips)} verdict flip"
            f"{'s' if len(self.verdict_flips) != 1 else ''}"
        )
        blocks.append(f"diff verdict: {verdict}")
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Flakiness


@dataclass(frozen=True)
class FlakyValue:
    """One value that changed across reruns of an identical experiment."""

    experiment: str
    key: str
    n_runs: int
    n_distinct: int
    values: tuple[Any, ...]  # one per run, run order
    run_ids: tuple[str, ...]
    spread: float | None  # max - min for numeric values

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "key": self.key,
            "n_runs": self.n_runs,
            "n_distinct": self.n_distinct,
            "values": list(self.values),
            "run_ids": list(self.run_ids),
            "spread": self.spread,
        }


@dataclass
class FlakinessReport:
    """Cross-run bit-identity audit over a set of :class:`RunRecord`\\ s."""

    n_runs: int
    n_groups: int  # distinct (experiment, config, seeds) identities
    n_compared: int  # identities observed in >= 2 runs
    flaky: list[FlakyValue] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.flaky

    @property
    def flaky_experiments(self) -> list[str]:
        return sorted({f.experiment for f in self.flaky})

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_runs": self.n_runs,
            "n_groups": self.n_groups,
            "n_compared": self.n_compared,
            "passed": self.passed,
            "flaky_experiments": self.flaky_experiments,
            "flaky": [f.as_dict() for f in self.flaky],
        }

    def to_table(self) -> str:
        summary = (
            f"flakiness audit: {self.n_runs} runs, {self.n_groups} "
            f"experiment identities, {self.n_compared} compared across reruns"
        )
        if self.passed:
            return (
                f"{summary}\nall compared values bit-identical — "
                "determinism contract holds"
            )
        table = Table(
            ["experiment", "value", "runs", "distinct", "spread"],
            title=f"FLAKY VALUES ({len(self.flaky)})", decimals=6,
        )
        for f in self.flaky:
            table.add_row([
                f.experiment, f.key, f.n_runs, f.n_distinct,
                f.spread if f.spread is not None else "-",
            ])
        return f"{summary}\n\n{table.render()}"


def detect_flakiness(records: Sequence[RunRecord]) -> FlakinessReport:
    """Flag every deterministic value that varies across identical reruns.

    Runs are grouped by (experiment id, config digest, seed ledger); any
    group seen at least twice has the union of its flattened value keys
    compared for bit-identity.  Declared-volatile keys are skipped; a key
    *missing* from some runs of a group is itself flaky (reported with
    the placeholder ``<absent>``).
    """
    groups: dict[tuple[str, str, str], list[tuple[str, ExperimentSnapshot]]] = {}
    for record in records:
        for snap in record.experiments.values():
            groups.setdefault(snap.group_key, []).append((record.run_id, snap))

    flaky: list[FlakyValue] = []
    n_compared = 0
    for (exp_id, _, _), members in sorted(groups.items()):
        if len(members) < 2:
            continue
        n_compared += 1
        volatile: set[str] = set()
        keys: set[str] = set()
        for _, snap in members:
            volatile.update(snap.volatile)
            keys.update(snap.values)
        for key in sorted(keys):
            if _is_volatile(key, tuple(volatile)):
                continue
            observed = [
                snap.values.get(key, "<absent>") for _, snap in members
            ]
            # Bit-identity via the JSON form: catches 0.0 vs -0.0 and
            # int/float type drift that == would paper over.
            encoded = [json.dumps(v, sort_keys=True) for v in observed]
            if len(set(encoded)) == 1:
                continue
            numerics = [
                v for v in observed
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            spread = (
                float(max(numerics) - min(numerics))
                if len(numerics) == len(observed) and numerics
                else None
            )
            flaky.append(
                FlakyValue(
                    experiment=exp_id,
                    key=key,
                    n_runs=len(members),
                    n_distinct=len(set(encoded)),
                    values=tuple(observed),
                    run_ids=tuple(run_id for run_id, _ in members),
                    spread=spread,
                )
            )
    return FlakinessReport(
        n_runs=len(records),
        n_groups=len(groups),
        n_compared=n_compared,
        flaky=flaky,
    )
