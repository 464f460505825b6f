"""The unified Study API shared by every multi-trial entry point.

PR 1 wired five studies (`robuststats.dimension_sweep`,
`rl.reliability_study`, `core.collection_plan_sweep`,
`histopath.kfold_evaluate`, `autotune.random_search`) onto the parallel
runner, and each grew a slightly different signature.  This module names
the one convention they now share:

``study(config, *, seeds, workers=None, cache=True)``
    *config* is a frozen per-study dataclass holding everything that
    defines the experiment; *seeds* is the trial-seed sequence (paired
    across configurations); *workers* goes to :func:`repro.parallel.pmap`;
    *cache* is ``True`` (use the environment-rooted
    :class:`repro.parallel.ResultCache`), ``False``/``None`` (no
    caching), or an explicit cache instance.

Every unified entry point returns a :class:`StudyResult` subclass with
three common members: ``records`` (one :class:`StudyRecord` per evaluated
cell), ``summary()`` (a flat dict of headline numbers), and
``to_table()`` (a rendered text table — returned, never printed).

The config form is the only call form.  ``kfold_evaluate`` and
``random_search`` take no ``cache``: their cells are either uncacheable
(closures over hyper-parameters) or cheaper than a cache round trip.
"""

from __future__ import annotations

from typing import Any

from repro.parallel.cache import ResultCache
from repro.parallel.sweep import SweepRecord as StudyRecord
from repro.utils.tables import Table

__all__ = [
    "StudyRecord",
    "StudyResult",
    "resolve_cache",
]


def resolve_cache(cache: bool | ResultCache | None) -> ResultCache | None:
    """Normalize the unified ``cache`` argument.

    ``True`` builds the default environment-rooted cache (honouring
    ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_DISABLE``); ``False``/``None``
    disable caching; a :class:`ResultCache` instance is used as-is.
    """
    if cache is True:
        return ResultCache()
    if cache is False or cache is None:
        return None
    return cache


class StudyResult:
    """Base class of every unified study result.

    Subclasses store their study-specific fields and implement
    :attr:`records` plus (usually) a richer :meth:`summary`; the default
    :meth:`to_table` renders whatever ``summary()`` reports.
    """

    #: Human-readable study label used in tables and summaries.
    study_name: str = "study"

    @property
    def records(self) -> tuple[StudyRecord, ...]:
        """One record per evaluated (config, seed) cell, in run order."""
        raise NotImplementedError

    def summary(self) -> dict[str, Any]:
        """Headline numbers of the study as a flat, JSON-able dict."""
        records = self.records
        out: dict[str, Any] = {"study": self.study_name, "n_records": len(records)}
        numeric = [
            float(r.value) for r in records if isinstance(r.value, (int, float))
        ]
        if numeric:
            out["mean_value"] = sum(numeric) / len(numeric)
            out["min_value"] = min(numeric)
            out["max_value"] = max(numeric)
        return out

    def to_table(self) -> str:
        """Render :meth:`summary` as a text table (returns the string)."""
        table = Table(["field", "value"], title=self.study_name, decimals=4)
        for key, value in self.summary().items():
            table.add_row([key, value])
        return table.render()
