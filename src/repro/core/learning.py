"""The experience model: how ten weeks of TREU move a student's traits.

The paper's central empirical regularity is that "students tended to gain
the most confidence in areas where they were previously unsure of
themselves".  The model encodes that directly:

    gain_k = engagement * exposure_k * (ceiling - prior_k) + noise

— a saturating-learning law where the room to grow (``ceiling − prior``)
multiplies a per-skill *exposure* (how hard the program works that skill).
Exposure is calibrated from the paper's own Table 2/3 rows:

    exposure_k = boost_k / (ceiling − a_priori_mean_k)

so a cohort whose priors match the paper's means reproduces the paper's
boosts in expectation, *and* the inverse prior-gain relationship is a
structural property rather than a coincidence.  The ablation benchmark
swaps in a constant-gain model (gain independent of prior) and shows it
cannot reproduce Table 2's ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cohort import KNOWLEDGE_AREAS, SKILLS, Student
from repro.core.reference import TABLE2_CONFIDENCE, TABLE3_KNOWLEDGE
from repro.utils.rng import as_generator

__all__ = ["ExperienceModel", "ConstantGainModel"]

CEILING = 5.0

#: Exposure per skill (Table 2) and per area (Table 3): boost / room to grow
#: at the paper's a-priori mean.  Built once; every student reads them.
_CONFIDENCE_EXPOSURE = np.array(
    [
        TABLE2_CONFIDENCE[s][1] / (CEILING - TABLE2_CONFIDENCE[s][0])
        for s in SKILLS
    ]
)
_KNOWLEDGE_EXPOSURE = np.array(
    [
        TABLE3_KNOWLEDGE[a][1] / (CEILING - TABLE3_KNOWLEDGE[a][0])
        for a in KNOWLEDGE_AREAS
    ]
)


@dataclass(frozen=True)
class ExperienceModel:
    """Saturating-gain experience model (the paper-shaped default).

    Parameters
    ----------
    noise:
        Std-dev of idiosyncratic per-trait gain noise.
    phd_shift:
        Mean shift of latent PhD intent (paper: 3.2 -> 3.6).
    reu_recommenders_mean:
        Poisson-ish center of new in-REU recommenders (paper mode 2,
        range 2-4).
    """

    noise: float = 0.25
    phd_shift: float = 0.4
    reu_recommenders_mean: float = 2.4

    def confidence_exposure(self) -> np.ndarray:
        """Per-skill exposure calibrated from Table 2."""
        return _CONFIDENCE_EXPOSURE.copy()

    def knowledge_exposure(self) -> np.ndarray:
        """Per-area exposure calibrated from Table 3."""
        return _KNOWLEDGE_EXPOSURE.copy()

    def apply(
        self, student: Student, *, seed: int | np.random.Generator | None = 0
    ) -> Student:
        """Return the student's post-program state (new object).

        Engagement is normalized around the cohort-typical value (~0.75)
        so the calibration holds in expectation.
        """
        rng = as_generator(seed)
        drive = student.engagement / 0.75
        conf_gain = (
            drive
            * _CONFIDENCE_EXPOSURE
            * (CEILING - student.confidence)
            + rng.normal(0.0, self.noise, len(SKILLS))
        )
        know_gain = (
            drive
            * _KNOWLEDGE_EXPOSURE
            * (CEILING - student.knowledge)
            + rng.normal(0.0, self.noise, len(KNOWLEDGE_AREAS))
        )
        phd_intent = (
            student.phd_intent + self.phd_shift * drive + rng.normal(0.0, 0.3)
        )
        reu = round(self.reu_recommenders_mean + rng.normal(0.0, 0.7) * drive)
        return Student(
            student_id=student.student_id,
            confidence=(student.confidence + conf_gain).clip(1.0, CEILING),
            knowledge=(student.knowledge + know_gain).clip(1.0, CEILING),
            phd_intent=float(min(max(phd_intent, 1.0), CEILING)),
            recommenders_home=student.recommenders_home,
            recommenders_external=student.recommenders_external,
            engagement=student.engagement,
            goals=student.goals,
            local=student.local,
            recommenders_reu=int(min(max(reu, 2), 4)),
        )


@dataclass(frozen=True)
class ConstantGainModel:
    """Ablation model: every skill gains the same fixed amount.

    Matches the *average* boost of Table 2 but, by construction, cannot
    produce the inverse prior-boost relationship — the ablation benchmark
    (A1) shows its regenerated Table 2 ordering disagrees with the paper.
    """

    gain: float = 0.75
    noise: float = 0.25
    phd_shift: float = 0.4
    reu_recommenders_mean: float = 2.4

    def apply(
        self, student: Student, *, seed: int | np.random.Generator | None = 0
    ) -> Student:
        rng = as_generator(seed)
        drive = student.engagement / 0.75
        return Student(
            student_id=student.student_id,
            confidence=np.clip(
                student.confidence
                + drive * self.gain
                + rng.normal(0.0, self.noise, len(SKILLS)),
                1.0,
                CEILING,
            ),
            knowledge=np.clip(
                student.knowledge
                + drive * self.gain
                + rng.normal(0.0, self.noise, len(KNOWLEDGE_AREAS)),
                1.0,
                CEILING,
            ),
            phd_intent=float(
                np.clip(
                    student.phd_intent + self.phd_shift * drive + rng.normal(0.0, 0.3),
                    1.0,
                    CEILING,
                )
            ),
            recommenders_home=student.recommenders_home,
            recommenders_external=student.recommenders_external,
            engagement=student.engagement,
            goals=student.goals,
            local=student.local,
            recommenders_reu=int(
                np.clip(
                    round(self.reu_recommenders_mean + rng.normal(0.0, 0.7) * drive),
                    2,
                    4,
                )
            ),
        )

