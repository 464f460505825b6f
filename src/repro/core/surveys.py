"""Survey instruments, Likert measurement, and response collection.

The a-priori and post-hoc instruments mirror the paper's (Borrego-derived
confidence items, knowledge self-ratings, PhD intent, recommender counts,
goals).  Measurement discretizes latent traits onto 1-5 with response
noise; collection applies the attrition the paper reports (15 a-priori ->
10 post-hoc responses, one of them partial -> 9 complete).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cohort import KNOWLEDGE_AREAS, SKILLS, Student
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = [
    "SurveyResponse",
    "measure_likert",
    "collect_apriori",
    "collect_posthoc",
    "AttritionPlan",
]


def measure_likert(
    latent: np.ndarray | float,
    rng: np.random.Generator,
    *,
    response_noise: float = 0.35,
) -> np.ndarray:
    """Discretize latent trait values onto the 1-5 Likert scale.

    Adds zero-mean response noise before rounding — two surveys of the same
    latent state disagree occasionally, as real test-retest data do.
    """
    noisy = np.asarray(latent, dtype=float) + rng.normal(
        0.0, response_noise, size=np.shape(latent)
    )
    return np.clip(np.rint(noisy), 1, 5).astype(int)


def _measure_students(
    students: list[Student], rng: np.random.Generator, response_noise: float
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Each student's Likert confidence, knowledge and PhD intent.

    One :func:`measure_likert` call over a matrix with one row per student
    (skills, then areas, then PhD intent).  Row-major noise is the same
    stream, in the same order, as three calls per student would draw.
    """
    n_skills, n_areas = len(SKILLS), len(KNOWLEDGE_AREAS)
    latent = np.empty((len(students), n_skills + n_areas + 1))
    for row, s in zip(latent, students):
        row[:n_skills] = s.confidence
        row[n_skills:-1] = s.knowledge
        row[-1] = s.phd_intent
    likert = measure_likert(latent, rng, response_noise=response_noise)
    return [
        (row[:n_skills], row[n_skills:-1], int(row[-1])) for row in likert
    ]


@dataclass
class SurveyResponse:
    """One anonymous survey submission.

    ``confidence`` / ``knowledge`` are Likert integer arrays; post-hoc
    responses additionally carry goal accomplishment and recommender
    counts.  ``complete`` is False for the paper's partial respondent,
    whose goal/recommender section is missing.
    """

    confidence: np.ndarray
    knowledge: np.ndarray
    phd_intent: int
    goals_set: tuple[str, str]
    complete: bool = True
    goals_accomplished: frozenset[str] = frozenset()
    recommenders_reu: int | None = None
    recommenders_home: int | None = None
    recommenders_external: int | None = None

    def __post_init__(self) -> None:
        if self.confidence.shape != (len(SKILLS),):
            raise ValueError("confidence length mismatch")
        if self.knowledge.shape != (len(KNOWLEDGE_AREAS),):
            raise ValueError("knowledge length mismatch")


@dataclass(frozen=True)
class AttritionPlan:
    """Who answers which survey (the paper's response-rate reality).

    The defaults model year one: the survey went out after students left
    campus and only 10 of 15 responded, one partially.  The paper's lesson
    — "collecting responses prior to their departure and offering
    incentive would likely address this issue" — is available as the
    alternative constructors :meth:`before_departure` and
    :meth:`incentivized`, compared in the F1 benchmark.

    Parameters
    ----------
    posthoc_rate:
        Fraction of the cohort answering the post-hoc survey (10/15).
    partial_rate:
        Fraction of post-hoc respondents who skip the later items (1/10).
    """

    posthoc_rate: float = 10 / 15
    partial_rate: float = 1 / 10

    def __post_init__(self) -> None:
        check_probability("posthoc_rate", self.posthoc_rate)
        check_probability("partial_rate", self.partial_rate)

    @classmethod
    def before_departure(cls) -> "AttritionPlan":
        """Collect during the final on-campus week: near-full response."""
        return cls(posthoc_rate=14 / 15, partial_rate=0.0)

    @classmethod
    def incentivized(cls, incentive_strength: float = 0.5) -> "AttritionPlan":
        """Post-departure collection with an incentive.

        ``incentive_strength`` in [0, 1] closes that fraction of the gap
        between the year-one response rate and full response, and the same
        fraction of the partial-response rate.
        """
        check_probability("incentive_strength", incentive_strength)
        base = cls()
        return cls(
            posthoc_rate=base.posthoc_rate
            + incentive_strength * (1.0 - base.posthoc_rate),
            partial_rate=base.partial_rate * (1.0 - incentive_strength),
        )

    def select(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(post-hoc respondent indices, boolean complete flags)."""
        n_post = int(round(self.posthoc_rate * n))
        respondents = rng.choice(n, size=n_post, replace=False)
        n_partial = int(round(self.partial_rate * n_post))
        complete = np.ones(n_post, dtype=bool)
        if n_partial:
            partial_idx = rng.choice(n_post, size=n_partial, replace=False)
            complete[partial_idx] = False
        return respondents, complete


def collect_apriori(
    cohort: list[Student],
    *,
    response_noise: float = 0.35,
    seed: int | np.random.Generator | None = 0,
) -> list[SurveyResponse]:
    """Everyone answers the a-priori survey (15/15 in the paper)."""
    rng = as_generator(seed)
    return [
        SurveyResponse(
            confidence=confidence,
            knowledge=knowledge,
            phd_intent=phd_intent,
            goals_set=s.goals,
            recommenders_home=s.recommenders_home,
            recommenders_external=s.recommenders_external,
        )
        for s, (confidence, knowledge, phd_intent) in zip(
            cohort, _measure_students(cohort, rng, response_noise)
        )
    ]


def collect_posthoc(
    cohort_after: list[Student],
    accomplished: dict[int, frozenset[str]],
    *,
    plan: AttritionPlan | None = None,
    response_noise: float = 0.35,
    seed: int | np.random.Generator | None = 0,
) -> list[SurveyResponse]:
    """Collect the post-hoc survey with attrition and one partial response.

    Parameters
    ----------
    cohort_after:
        Post-program student states.
    accomplished:
        ``student_id -> goals accomplished`` from the season simulation.
    """
    rng = as_generator(seed)
    plan = plan or AttritionPlan()
    idx, complete_flags = plan.select(len(cohort_after), rng)
    respondents = [cohort_after[int(i)] for i in idx]
    return [
        SurveyResponse(
            confidence=confidence,
            knowledge=knowledge,
            phd_intent=phd_intent,
            goals_set=s.goals,
            complete=bool(complete),
            goals_accomplished=(
                accomplished.get(s.student_id, frozenset()) if complete else frozenset()
            ),
            recommenders_reu=s.recommenders_reu if complete else None,
            recommenders_home=s.recommenders_home if complete else None,
            recommenders_external=s.recommenders_external if complete else None,
        )
        for s, complete, (confidence, knowledge, phd_intent) in zip(
            respondents,
            complete_flags,
            _measure_students(respondents, rng, response_noise),
        )
    ]
