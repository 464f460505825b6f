"""The experiment protocol and its decorator-based registry.

Every artifact of the paper's evaluation — Tables 1–3, the §3 narrative
statistics, the eleven student-project experiments E1–E11, the contention
study R1, the performance lesson P1, and the year-two plans F1 — is one
:class:`Experiment` registered here.  The registry turns the catalog into
data: ``python -m repro list`` enumerates it, ``run`` executes any subset
through :mod:`repro.parallel`, and ``check`` folds each result against
the paper's published numbers (:mod:`repro.core.reference`).

An experiment declares two config tiers as plain dicts: ``DEFAULT`` (the
paper-scale run, identical seeds and sizes to the benchmark suite) and
``SMOKE`` (overrides that shrink it to seconds for CI).  ``run()`` merges
``DEFAULT`` ← ``SMOKE`` (when asked) ← explicit overrides, so every knob
stays overridable from the CLI without per-experiment argument plumbing.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.exp.result import ExpResult, Verdict

__all__ = [
    "Experiment",
    "all_experiments",
    "experiment_ids",
    "get_experiment",
    "load_all",
    "register",
]

_REGISTRY: dict[str, "Experiment"] = {}
_CATALOG_LOADED = False


class Experiment:
    """One registered artifact of the paper's evaluation.

    Subclasses set the class attributes below, implement :meth:`_run`,
    and (where the paper publishes comparable numbers) :meth:`check`.
    """

    #: Catalog id, e.g. ``"T1"`` or ``"E5"``.
    id: str = ""
    #: One-line title shown by ``python -m repro list``.
    title: str = ""
    #: Paper section the experiment reproduces.
    section: str = ""
    #: The claim of the paper this experiment regenerates, verbatim-ish.
    paper_claim: str = ""
    #: Paper-scale configuration (the benchmark suite's exact knobs).
    DEFAULT: Mapping[str, Any] = {}
    #: Overrides that shrink the run to CI scale.
    SMOKE: Mapping[str, Any] = {}
    #: Result values that are wall-clock-derived and therefore exempt from
    #: the determinism contract (fnmatch globs over the flattened dotted
    #: value keys, e.g. ``"vectorization.speedup"`` or ``"cache.*_s"``).
    #: ``results.json`` carries the declaration so cross-run diffing and
    #: flakiness detection (:mod:`repro.obs.history`) skip exactly these.
    VOLATILE_VALUES: tuple[str, ...] = ()

    def resolve_config(
        self,
        overrides: Mapping[str, Any] | None = None,
        *,
        smoke: bool = False,
    ) -> dict[str, Any]:
        """Merge the tiers: ``DEFAULT`` ← ``SMOKE`` (if asked) ← overrides."""
        config = dict(self.DEFAULT)
        if smoke:
            config.update(self.SMOKE)
        for key, value in dict(overrides or {}).items():
            if key not in self.DEFAULT:
                raise KeyError(
                    f"{self.id}: unknown config key {key!r} "
                    f"(known: {', '.join(sorted(self.DEFAULT))})"
                )
            config[key] = value
        return config

    def run(
        self,
        overrides: Mapping[str, Any] | None = None,
        *,
        smoke: bool = False,
        seeds: int | None = None,
        workers: int | None = None,
        cache: Any = True,
    ) -> ExpResult:
        """Run the experiment; returns its :class:`ExpResult`.

        ``seeds`` overrides the trial-seed count for experiments that
        declare an ``n_seeds`` knob; others run their fixed seed plan.
        ``workers``/``cache`` flow to every :mod:`repro.parallel` call
        the experiment makes.
        """
        config = self.resolve_config(overrides, smoke=smoke)
        if seeds is not None and "n_seeds" in config:
            config["n_seeds"] = int(seeds)
        return self._run(config, workers=workers, cache=cache)

    def _run(
        self, config: dict[str, Any], *, workers: int | None, cache: Any
    ) -> ExpResult:
        raise NotImplementedError

    def check(self, result: ExpResult) -> Verdict | None:
        """Verdict against the paper's numbers; ``None`` when no reference."""
        return None


def register(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator: instantiate and add to the catalog registry."""
    exp = cls()
    if not exp.id or not exp.title:
        raise ValueError(f"{cls.__name__} must set a non-empty id and title")
    if exp.id in _REGISTRY:
        raise ValueError(f"duplicate experiment id {exp.id!r}")
    if not isinstance(exp.DEFAULT, Mapping) or not isinstance(exp.SMOKE, Mapping):
        raise TypeError(f"{exp.id}: DEFAULT and SMOKE must be mappings")
    unknown = set(exp.SMOKE) - set(exp.DEFAULT)
    if unknown:
        raise ValueError(
            f"{exp.id}: SMOKE overrides unknown keys {sorted(unknown)}"
        )
    _REGISTRY[exp.id] = exp
    return cls


#: Catalog presentation order by id prefix: tables, narrative, year-two
#: plans, student projects, contention study + cluster engine,
#: performance/parallel lessons.
_SECTION_ORDER = {"T": 0, "N": 1, "F": 2, "E": 3, "R": 4, "C": 5, "P": 6}


def _catalog_key(exp_id: str) -> tuple[int, int, str]:
    head, tail = exp_id[:1], exp_id[1:]
    number = int(tail) if tail.isdigit() else 0
    return (_SECTION_ORDER.get(head, len(_SECTION_ORDER)), number, exp_id)


def load_all() -> None:
    """Import the catalog so every experiment registers itself (idempotent)."""
    global _CATALOG_LOADED
    if not _CATALOG_LOADED:
        import repro.exp.catalog  # noqa: F401  (imports register experiments)

        # A study module imported directly (benchmarks and tests do this)
        # registers its experiments before the catalog import runs, which
        # would leave them first in insertion order.  Rebuild the dict so
        # catalog order is stable no matter which module loaded first.
        for exp_id in sorted(_REGISTRY, key=_catalog_key):
            _REGISTRY[exp_id] = _REGISTRY.pop(exp_id)
        _CATALOG_LOADED = True


def experiment_ids() -> list[str]:
    """Registered ids in catalog order."""
    load_all()
    return list(_REGISTRY)


def all_experiments() -> list[Experiment]:
    """Registered experiment instances in catalog order."""
    load_all()
    return list(_REGISTRY.values())


def get_experiment(exp_id: str) -> Experiment:
    """Look up one experiment by id (case-insensitive)."""
    load_all()
    for key, exp in _REGISTRY.items():
        if key.lower() == exp_id.lower():
            return exp
    raise KeyError(
        f"unknown experiment {exp_id!r}; known ids: {', '.join(_REGISTRY)}"
    )


def resolve_ids(tokens: Iterable[str]) -> list[str]:
    """Expand CLI id tokens (``all`` or explicit ids) to catalog ids.

    A repeated id keeps its first place only: ``T1 T3 T3`` runs T3 once.
    """
    load_all()
    tokens = list(tokens)
    if not tokens or any(t.lower() == "all" for t in tokens):
        return list(_REGISTRY)
    return list(dict.fromkeys(get_experiment(t).id for t in tokens))
