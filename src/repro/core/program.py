"""The REU program: configuration, timeline, and the season simulation.

``REUProgram.run_season`` is the top-level entry point: it reserves the
applicant-pool and offer-selection streams, draws the cohort, runs the
ten-week experience (lectures -> research -> poster week), decides goal
accomplishment, and collects both surveys.  The pool and the offers are
built by :func:`repro.core.applicants.make_applicant_pool` and
:func:`~repro.core.applicants.select_offers` for callers that want them;
a season's outcome does not depend on them.  Everything downstream
(Tables 1-3, narrative statistics, the GPU workload of experiment R1)
consumes its :class:`SeasonOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cohort import Student, make_cohort
from repro.core.goals import GOALS
from repro.core.learning import ExperienceModel
from repro.core.reference import TABLE1_GOALS
from repro.core.surveys import (
    AttritionPlan,
    SurveyResponse,
    collect_apriori,
    collect_posthoc,
)
from repro.utils.rng import SeedSequenceLedger

__all__ = ["ProgramConfig", "Timeline", "SeasonOutcome", "REUProgram"]

LECTURE_TOPICS = (
    "machine learning",
    "high-performance computing",
    "algorithms and applications",
    "computer security",
    "data science",
    "human-centered computing",
    "reproducibility and artifact evaluation",
    "research ethics",
)


@dataclass(frozen=True)
class Timeline:
    """The ten-week structure: 4 lecture weeks, 5 research, 1 poster."""

    lecture_weeks: int = 4
    research_weeks: int = 5
    poster_weeks: int = 1

    def __post_init__(self) -> None:
        for name in ("lecture_weeks", "research_weeks", "poster_weeks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def total_weeks(self) -> int:
        return self.lecture_weeks + self.research_weeks + self.poster_weeks


@dataclass(frozen=True)
class ProgramConfig:
    """Season-level knobs."""

    n_applicants: int = 85
    n_offers: int = 10
    n_local_supplements: int = 5
    timeline: Timeline = field(default_factory=Timeline)
    attrition: AttritionPlan = field(default_factory=AttritionPlan)

    def __post_init__(self) -> None:
        if self.n_offers > self.n_applicants:
            raise ValueError("cannot make more offers than applicants")
        if self.n_local_supplements < 0:
            raise ValueError("n_local_supplements must be >= 0")

    @property
    def cohort_size(self) -> int:
        return self.n_offers + self.n_local_supplements


@dataclass
class SeasonOutcome:
    """Everything one simulated season produces."""

    cohort_before: list[Student]
    cohort_after: list[Student]
    apriori: list[SurveyResponse]
    posthoc: list[SurveyResponse]
    accomplished: dict[int, frozenset[str]]
    n_applicants: int
    seed_audit: dict[str, int]


class REUProgram:
    """Season orchestrator.

    Parameters
    ----------
    config:
        :class:`ProgramConfig` (defaults match the paper's season).
    model:
        Experience model; swap in
        :class:`repro.core.learning.ConstantGainModel` for the A1 ablation.
    """

    def __init__(
        self,
        config: ProgramConfig | None = None,
        model: ExperienceModel | None = None,
    ) -> None:
        self.config = config or ProgramConfig()
        self.model = model if model is not None else ExperienceModel()

    def _accomplish_goals(
        self,
        cohort: list[Student],
        rng: np.random.Generator,
    ) -> dict[int, frozenset[str]]:
        """Decide, per student, which of the 19 goals the summer delivered.

        Cohort-wide goals (forced by the program structure) are always
        accomplished; the rest are Bernoulli with probability calibrated
        from Table 1 counts, nudged by engagement, and a student's *own*
        two goals get a focus bonus (people work toward what they named).
        """
        # (name, None) for a cohort-wide goal, (name, base rate) otherwise;
        # one uniform per drawn goal, in GOALS order, as one call.
        goals = [
            (goal.name, None if goal.cohort_wide else TABLE1_GOALS[goal.name] / 9.0)
            for goal in GOALS
        ]
        n_drawn = sum(base is not None for _, base in goals)
        out: dict[int, frozenset[str]] = {}
        for s in cohort:
            draws = iter(rng.random(n_drawn).tolist())
            done = set()
            for name, base in goals:
                if base is None:
                    done.add(name)
                    continue
                p = base * (0.7 + 0.4 * s.engagement)
                if name in s.goals:
                    p = min(1.0, p + 0.15)
                if next(draws) < p:
                    done.add(name)
            out[s.student_id] = frozenset(done)
        return out

    def run_season(self, seed: int = 0) -> SeasonOutcome:
        """Simulate one full season deterministically from ``seed``."""
        ledger = SeedSequenceLedger(seed)
        # Nothing downstream reads the applicant pool or the offers, so
        # neither is drawn; their streams are still spawned first, which
        # keeps every later stream (and the seed audit) as it was.
        ledger.sequence("applicants")
        ledger.sequence("selection")
        cohort = make_cohort(
            self.config.cohort_size, seed=ledger.generator("cohort")
        )
        apriori = collect_apriori(cohort, seed=ledger.generator("apriori"))
        growth_rng = ledger.generator("experience")
        cohort_after = [
            self.model.apply(s, seed=growth_rng) for s in cohort
        ]
        accomplished = self._accomplish_goals(
            cohort_after, ledger.generator("goals")
        )
        posthoc = collect_posthoc(
            cohort_after,
            accomplished,
            plan=self.config.attrition,
            seed=ledger.generator("posthoc"),
        )
        return SeasonOutcome(
            cohort_before=cohort,
            cohort_after=cohort_after,
            apriori=apriori,
            posthoc=posthoc,
            accomplished=accomplished,
            n_applicants=self.config.n_applicants,
            seed_audit=ledger.audit(),
        )
