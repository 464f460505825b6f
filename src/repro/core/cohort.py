"""Synthetic students and cohort construction.

A :class:`Student` carries the latent traits the surveys measure:
per-skill confidence, per-area knowledge, PhD intent, recommender counts,
and an engagement trait that modulates how much the program experience
moves everything else.  Latent values are continuous; the survey layer
discretizes them onto the 1-5 Likert scale (with response noise), which is
why regenerated tables fluctuate realistically across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.reference import TABLE2_CONFIDENCE, TABLE3_KNOWLEDGE
from repro.utils.rng import as_generator

__all__ = ["Student", "make_cohort", "SKILLS", "KNOWLEDGE_AREAS"]

SKILLS: tuple[str, ...] = tuple(TABLE2_CONFIDENCE)
KNOWLEDGE_AREAS: tuple[str, ...] = tuple(TABLE3_KNOWLEDGE)


@dataclass
class Student:
    """One (synthetic) REU participant.

    Attributes
    ----------
    confidence:
        Latent confidence per skill in Table 2 order, continuous in [1, 5].
    knowledge:
        Latent knowledge per area in Table 3 order, continuous in [1, 5].
    phd_intent:
        Latent intent to pursue a PhD, continuous in [1, 5].
    recommenders_home / recommenders_external / recommenders_reu:
        People the student could ask for a recommendation letter.
    engagement:
        In (0, 1]; scales experience gains (an unengaged student learns
        less from the same program).
    goals:
        The two goals the student names in the a-priori survey.
    local:
        Utah supplement students (not counted in the 10 external offers).
    """

    student_id: int
    confidence: np.ndarray
    knowledge: np.ndarray
    phd_intent: float
    recommenders_home: int
    recommenders_external: int
    engagement: float
    goals: tuple[str, str]
    local: bool = False
    recommenders_reu: int = 0

    def __post_init__(self) -> None:
        if self.confidence.shape != (len(SKILLS),):
            raise ValueError(
                f"confidence must have {len(SKILLS)} entries, got "
                f"{self.confidence.shape}"
            )
        if self.knowledge.shape != (len(KNOWLEDGE_AREAS),):
            raise ValueError(
                f"knowledge must have {len(KNOWLEDGE_AREAS)} entries, got "
                f"{self.knowledge.shape}"
            )
        if not 0.0 < self.engagement <= 1.0:
            raise ValueError(f"engagement must lie in (0, 1], got {self.engagement}")


def make_cohort(
    n_students: int = 15,
    *,
    goal_pool: list[str] | None = None,
    trait_spread: float = 0.7,
    seed: int | np.random.Generator | None = 0,
) -> list[Student]:
    """Draw a cohort whose latent traits center on the paper's a-priori rows.

    Per-skill latent confidence is Normal(paper a-priori mean, spread),
    clipped to [1, 5]; likewise knowledge.  PhD intent centers on 3.2.
    Each student names two goals, sampled without replacement and weighted
    so popular goals (high Table 1 counts) are named more often — matching
    how 15 students' two-goal lists produced 19 unique goals.
    """
    if n_students < 2:
        raise ValueError(f"n_students must be >= 2, got {n_students}")
    rng = as_generator(seed)
    from repro.core.goals import goal_names
    from repro.core.reference import TABLE1_GOALS

    pool = goal_pool or goal_names()
    weights = np.array([TABLE1_GOALS.get(g, 5) + 1.0 for g in pool])
    weights = weights / weights.sum()
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    conf_centers = np.array([TABLE2_CONFIDENCE[s][0] for s in SKILLS])
    know_centers = np.array([TABLE3_KNOWLEDGE[a][0] for a in KNOWLEDGE_AREAS])
    students = []
    for i in range(n_students):
        picked = _pick_two(rng, weights, cdf)
        students.append(
            Student(
                student_id=i,
                confidence=(
                    conf_centers + rng.normal(0.0, trait_spread, len(SKILLS))
                ).clip(1.0, 5.0),
                knowledge=(
                    know_centers
                    + rng.normal(0.0, trait_spread, len(KNOWLEDGE_AREAS))
                ).clip(1.0, 5.0),
                phd_intent=float(min(max(rng.normal(3.2, 0.9), 1.0), 5.0)),
                recommenders_home=int(min(max(rng.poisson(2.2), 1), 5)),
                recommenders_external=int(min(max(rng.poisson(1.2), 0), 5)),
                engagement=float(min(max(rng.beta(5.0, 1.8), 0.3), 1.0)),
                goals=(pool[picked[0]], pool[picked[1]]),
                local=i >= 10,  # students beyond the 10 offers are local
            )
        )
    return students


def _pick_two(
    rng: np.random.Generator, weights: np.ndarray, cdf: np.ndarray
) -> tuple[int, int]:
    """Two distinct indices drawn by ``weights``, without replacement.

    ``Generator.choice(len(weights), 2, replace=False, p=weights)``
    written out, draw for draw: two uniforms looked up in ``cdf`` (the
    normalised cumulative sum of ``weights``) and, only when both land on
    the same index, that weight zeroed and one more uniform looked up in
    the rest.  Picks and the generator's final state match ``choice``'s;
    its argument checks and wrapper cost about ten times the draws.
    """
    first, second = cdf.searchsorted(rng.random(2), side="right").tolist()
    if first == second:
        rest = weights.copy()
        rest[first] = 0.0
        rest_cdf = np.cumsum(rest)
        rest_cdf /= rest_cdf[-1]
        second = int(rest_cdf.searchsorted(rng.random(), side="right"))
    return first, second
