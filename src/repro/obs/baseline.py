"""Performance baselines and the noise-tolerant regression gate.

A baseline is a committed JSON record of how long each experiment took —
``BENCH_baselines.json`` at the repository root — so the perf trajectory
is versioned next to the code instead of living in one engineer's head.
``repro bench --record`` writes it; ``repro bench --against`` re-times
the experiments and produces a machine-readable verdict, exiting
non-zero on regression (the CI gate).

Noise tolerance comes from two sides, because wall time on shared
hardware is a distribution, not a number:

* every timing is a **median of k repeats** (one slow outlier run cannot
  fabricate a regression, one fast outlier cannot hide one);
* a regression requires **both** a relative excess over the baseline
  (``threshold``, default 25%) **and** an absolute excess
  (``min_delta_s``), so micro-experiments whose wall time is mostly
  interpreter jitter cannot trip the gate.

Entries are keyed per config tier (``smoke`` vs ``default``) because the
two tiers are different workloads with different baselines.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.utils.tables import Table

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_DELTA_S",
    "BaselineEntry",
    "Comparison",
    "RegressionReport",
    "BaselineStore",
    "median",
]

BASELINE_SCHEMA = 1

#: A regression needs the current median to exceed baseline * (1 + this).
DEFAULT_THRESHOLD = 0.25

#: ... and to exceed the baseline by at least this many seconds.
DEFAULT_MIN_DELTA_S = 0.05


def median(samples: Sequence[float]) -> float:
    """The median of a non-empty sample list (raises on empty)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(float(s) for s in samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass(frozen=True)
class BaselineEntry:
    """One experiment's recorded timing at one config tier."""

    experiment: str
    median_s: float
    samples: tuple[float, ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "median_s": self.median_s,
            "samples": list(self.samples),
        }


@dataclass(frozen=True)
class Comparison:
    """One experiment's verdict against its baseline.

    ``status`` is one of ``ok`` (within threshold), ``regression``,
    ``improved`` (faster beyond threshold — a hint to re-record),
    ``new`` (no baseline entry yet), or ``missing`` (baseline has an
    entry the current run did not produce).
    """

    experiment: str
    status: str
    baseline_s: float | None
    current_s: float | None

    @property
    def ratio(self) -> float | None:
        if self.baseline_s and self.current_s is not None:
            return self.current_s / self.baseline_s
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "status": self.status,
            "baseline_s": self.baseline_s,
            "current_s": self.current_s,
            "ratio": self.ratio,
        }


@dataclass
class RegressionReport:
    """The machine-readable verdict of one ``bench --against`` run."""

    tier: str
    threshold: float
    min_delta_s: float
    comparisons: list[Comparison] = field(default_factory=list)

    @property
    def regressions(self) -> list[Comparison]:
        return [c for c in self.comparisons if c.status == "regression"]

    @property
    def new(self) -> list[Comparison]:
        return [c for c in self.comparisons if c.status == "new"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict[str, Any]:
        return {
            "tier": self.tier,
            "threshold": self.threshold,
            "min_delta_s": self.min_delta_s,
            "passed": self.passed,
            "n_regressions": len(self.regressions),
            "comparisons": [c.as_dict() for c in self.comparisons],
        }

    def to_table(self) -> str:
        """Render the verdict as a text table (returned, never printed)."""
        table = Table(
            ["experiment", "baseline s", "current s", "ratio", "status"],
            title=(
                f"perf baseline gate (tier={self.tier}, "
                f"threshold=+{100 * self.threshold:.0f}%, "
                f"floor={self.min_delta_s}s)"
            ),
            decimals=3,
        )
        for c in self.comparisons:
            table.add_row([
                c.experiment,
                "-" if c.baseline_s is None else c.baseline_s,
                "-" if c.current_s is None else c.current_s,
                "-" if c.ratio is None else f"{c.ratio:.2f}x",
                c.status,
            ])
        return table.render()


class BaselineStore:
    """The JSON baseline file: load, record, compare, save.

    The document layout::

        {"schema": 1,
         "tiers": {"smoke": {"T1": {"median_s": ..., "samples": [...]}}}}

    Examples
    --------
    >>> import tempfile, os
    >>> store = BaselineStore(os.path.join(tempfile.mkdtemp(), "b.json"))
    >>> store.record("smoke", "T1", [0.5, 0.4, 0.6])
    >>> store.get("smoke", "T1").median_s
    0.5
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._doc: dict[str, Any] = {"schema": BASELINE_SCHEMA, "tiers": {}}

    @classmethod
    def load(cls, path: str | os.PathLike) -> "BaselineStore":
        """Read an existing store; a missing file loads as empty."""
        store = cls(path)
        if store.path.exists():
            doc = json.loads(store.path.read_text(encoding="utf-8"))
            schema = doc.get("schema")
            if schema != BASELINE_SCHEMA:
                raise ValueError(
                    f"{store.path}: baseline schema {schema!r} unsupported "
                    f"(expected {BASELINE_SCHEMA})"
                )
            store._doc = doc
            store._doc.setdefault("tiers", {})
        return store

    @property
    def exists(self) -> bool:
        return self.path.exists()

    def tiers(self) -> list[str]:
        return sorted(self._doc["tiers"])

    def entries(self, tier: str) -> dict[str, BaselineEntry]:
        """Every recorded entry of one tier, keyed by experiment id."""
        out: dict[str, BaselineEntry] = {}
        for exp, raw in sorted(self._doc["tiers"].get(tier, {}).items()):
            out[exp] = BaselineEntry(
                experiment=exp,
                median_s=float(raw["median_s"]),
                samples=tuple(float(s) for s in raw.get("samples", [])),
            )
        return out

    def get(self, tier: str, experiment: str) -> BaselineEntry | None:
        return self.entries(tier).get(experiment)

    def record(
        self, tier: str, experiment: str, samples: Sequence[float]
    ) -> BaselineEntry:
        """Store the median-of-samples baseline for one experiment."""
        entry = BaselineEntry(
            experiment=experiment,
            median_s=median(samples),
            samples=tuple(float(s) for s in samples),
        )
        self._doc["tiers"].setdefault(tier, {})[experiment] = entry.as_dict()
        return entry

    def save(self) -> None:
        """Write the document (sorted keys, trailing newline, atomic)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(self._doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)

    def compare(
        self,
        tier: str,
        timings: Mapping[str, Sequence[float]],
        *,
        threshold: float = DEFAULT_THRESHOLD,
        min_delta_s: float = DEFAULT_MIN_DELTA_S,
    ) -> RegressionReport:
        """Fold current timings against the stored tier into a verdict.

        ``timings`` maps experiment id to its wall-time samples; each is
        reduced to a median before comparison.
        """
        report = RegressionReport(
            tier=tier, threshold=threshold, min_delta_s=min_delta_s
        )
        baselines = self.entries(tier)
        for exp, samples in sorted(timings.items()):
            current = median(samples)
            base = baselines.pop(exp, None)
            if base is None:
                status = "new"
                baseline_s = None
            else:
                baseline_s = base.median_s
                delta = current - baseline_s
                if delta > baseline_s * threshold and delta > min_delta_s:
                    status = "regression"
                elif -delta > baseline_s * threshold and -delta > min_delta_s:
                    status = "improved"
                else:
                    status = "ok"
            report.comparisons.append(
                Comparison(exp, status, baseline_s, current)
            )
        for exp, base in sorted(baselines.items()):
            report.comparisons.append(
                Comparison(exp, "missing", base.median_s, None)
            )
        return report
