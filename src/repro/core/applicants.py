"""Applicant pool and offer selection.

The site received 85 applications for 10 external positions; offers were
"slanted toward institutions without an established research program, and
emphasized gender and ethnic diversity", with a few local Utah students
added on supplements.  The selection here scores applicants with exactly
those priorities, so the resulting cohort composition is a measurable
output (tests assert the slant is real, not cosmetic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["Applicant", "make_applicant_pool", "select_offers"]


@dataclass(frozen=True)
class Applicant:
    """One application file.

    Attributes
    ----------
    research_institution:
        True when the home institution has an established research program.
    underrepresented:
        Gender/ethnic diversity flag (the emphasized axis).
    year:
        2 = sophomore, 3 = junior (the paper: "spread more or less evenly
        between sophomores and juniors").
    preparation:
        Academic preparation score in [0, 1].
    """

    applicant_id: int
    research_institution: bool
    underrepresented: bool
    year: int
    preparation: float


def make_applicant_pool(
    n: int = 85, *, seed: int | np.random.Generator | None = 0
) -> list[Applicant]:
    """Draw a realistic applicant pool."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = as_generator(seed)
    return [
        Applicant(
            applicant_id=i,
            research_institution=bool(rng.random() < 0.55),
            underrepresented=bool(rng.random() < 0.4),
            # The draw ``rng.choice([2, 3])`` makes, without its wrapper.
            year=(2, 3)[int(rng.integers(0, 2))],
            preparation=float(rng.beta(4.0, 2.0)),
        )
        for i in range(n)
    ]


def select_offers(
    pool: list[Applicant],
    n_offers: int = 10,
    *,
    diversity_bonus: float = 0.25,
    non_research_bonus: float = 0.25,
    seed: int | np.random.Generator | None = 0,
) -> list[Applicant]:
    """Score-and-rank selection with the paper's stated slants.

    Score = preparation + bonuses + small noise; the top ``n_offers``
    receive offers.  Bonuses make the selected group enriched (relative to
    the pool) in underrepresented students and in students from
    non-research institutions.
    """
    if n_offers < 1 or n_offers > len(pool):
        raise ValueError(
            f"n_offers must lie in [1, {len(pool)}], got {n_offers}"
        )
    rng = as_generator(seed)
    # One draw per applicant in pool order: the stream of scalar draws.
    noise = rng.normal(0.0, 0.05, len(pool)).tolist()
    scores = np.array(
        [
            a.preparation
            + (diversity_bonus if a.underrepresented else 0.0)
            + (non_research_bonus if not a.research_institution else 0.0)
            + eps
            for a, eps in zip(pool, noise)
        ]
    )
    top = np.argsort(scores)[::-1][:n_offers]
    return [pool[i] for i in top]
