"""Registered experiments over the program model: T1–T3, N1, and F1.

Each block function reproduces exactly what the corresponding benchmark
file printed before the registry existed — same seeds, same numbers,
same rendered strings — so ``benchmarks/bench_table*.py``,
``bench_narrative.py``, and ``bench_f1_future_work.py`` are now thin
shims over this module and ``python -m repro report`` regenerates the
identical tables.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.analysis import narrative_stats, table1, table2, table3
from repro.core.learning import ConstantGainModel
from repro.core.multiyear import (
    CollectionPlanConfig,
    YearPlan,
    collection_plan_sweep,
    run_years,
)
from repro.core.program import REUProgram, SeasonOutcome
from repro.core.reference import (
    NARRATIVE,
    TABLE1_GOALS,
    TABLE2_CONFIDENCE,
    TABLE3_KNOWLEDGE,
)
from repro.core.report import (
    render_narrative,
    render_table1,
    render_table2,
    render_table3,
)
from repro.core.surveys import AttritionPlan
from repro.core.topics import (
    all_attend_policy,
    evaluate_curriculum,
    narrowed_policy,
    sample_interest_profiles,
    targeted_policy,
)
from repro.exp.registry import Experiment, register
from repro.exp.reporting import rows_table
from repro.exp.result import Block, Check, ExpResult, Verdict
from repro.parallel import pmap
from repro.parallel.study import resolve_cache

__all__ = [
    "season_boosts",
    "t1_regeneration",
    "t2_regeneration",
    "t2_constant_gain_ablation",
    "t3_regeneration",
    "n1_statistics",
    "n1_phd_intent",
    "f1_curriculum_policies",
    "f1_exit_survey_plans",
    "f1_multi_year",
]

_PAPER_PRIORS = np.array([v[0] for v in TABLE2_CONFIDENCE.values()])
_PAPER_BOOSTS = np.array([v[1] for v in TABLE2_CONFIDENCE.values()])


def _season(seed: int) -> SeasonOutcome:
    return REUProgram().run_season(seed=seed)


def season_boosts(model_name: str | None, seed: int) -> list[float]:
    """Table 2 boosts of one simulated season (pmap/cache cell)."""
    program = REUProgram(model=ConstantGainModel()) if model_name else REUProgram()
    return [float(r.boost) for r in table2(program.run_season(seed=seed))]


def _boosts_over_seeds(
    model_name: str | None,
    n_seeds: int,
    *,
    workers: int | None = None,
    cache: Any = None,
) -> np.ndarray:
    rows = pmap(
        season_boosts,
        [model_name] * n_seeds,
        seeds=list(range(n_seeds)),
        workers=workers,
        cache=resolve_cache(cache),
    )
    return np.mean(rows, axis=0)


# --------------------------------------------------------------------------
# T1 — Table 1: goals accomplished
# --------------------------------------------------------------------------


def t1_regeneration(seed: int = 42) -> Block:
    """Regenerate Table 1 and its deviation summary from one season."""
    outcome = _season(seed)
    rows = table1(outcome)
    paper = list(TABLE1_GOALS.values())
    ours = [r.accomplished for r in rows]
    mean_abs = sum(abs(p - o) for p, o in zip(paper, ours)) / len(paper)
    return Block(
        values={
            "counts": {r.goal: int(r.accomplished) for r in rows},
            "mean_abs_deviation": float(mean_abs),
        },
        tables=(
            render_table1(outcome),
            f"T1 mean |paper - ours| = {mean_abs:.2f} goals (out of 9 respondents)",
        ),
    )


@register
class Table1Experiment(Experiment):
    id = "T1"
    title = "Table 1: goals accomplished (out of 9 respondents)"
    section = "3"
    paper_claim = (
        "five goals were accomplished by every complete respondent; the "
        "regenerated counts track the published column"
    )
    DEFAULT = {"seed": 42}
    SMOKE: dict[str, Any] = {}

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add("regeneration", t1_regeneration(config["seed"]))
        return result

    def check(self, result):
        counts = result["regeneration"]["counts"]
        checks = [
            Check(
                "every paper 9/9 goal regenerates as 9/9",
                {g: counts[g] for g, c in TABLE1_GOALS.items() if c == 9},
                all(counts[g] == 9 for g, c in TABLE1_GOALS.items() if c == 9),
            ),
            Check(
                "mean |paper - ours| < 2 goals",
                result["regeneration"]["mean_abs_deviation"],
                result["regeneration"]["mean_abs_deviation"] < 2.0,
            ),
        ]
        return Verdict(self.id, tuple(checks))


# --------------------------------------------------------------------------
# T2 — Table 2: research-skill confidence (+ the A1 ablation)
# --------------------------------------------------------------------------


def t2_regeneration(
    seed: int = 42,
    n_seeds: int = 6,
    *,
    workers: int | None = None,
    cache: Any = None,
) -> Block:
    """Regenerate Table 2 and the boost-correlation finding."""
    outcome = _season(seed)
    rows = table2(outcome)
    boosts = _boosts_over_seeds(None, n_seeds, workers=workers, cache=cache)
    corr_paper = float(np.corrcoef(boosts, _PAPER_BOOSTS)[0, 1])
    corr_prior = float(np.corrcoef(boosts, _PAPER_PRIORS)[0, 1])
    return Block(
        values={
            "n_rows": len(rows),
            "corr_paper": corr_paper,
            "corr_prior": corr_prior,
            "mae": float(np.abs(boosts - _PAPER_BOOSTS).mean()),
        },
        tables=(
            render_table2(outcome),
            f"T2 boost corr(ours, paper) = {corr_paper:.3f}; "
            f"corr(boost, a-priori mean) = {corr_prior:.3f} "
            "(paper finding: strongly negative)",
        ),
    )


def t2_constant_gain_ablation(
    n_seeds: int = 4, *, workers: int | None = None, cache: Any = None
) -> Block:
    """A1: the constant-gain learning model fails to reproduce Table 2."""
    boosts = _boosts_over_seeds("constant", n_seeds, workers=workers, cache=cache)
    corr_paper = float(np.corrcoef(boosts, _PAPER_BOOSTS)[0, 1])
    mae = float(np.abs(boosts - _PAPER_BOOSTS).mean())
    return Block(
        values={"corr_paper": corr_paper, "mae": mae},
        tables=(
            "A1 ablation (constant-gain learning): "
            f"boost corr(ours, paper) = {corr_paper:.3f}, MAE = {mae:.2f} "
            "(saturating-gain model: corr ~0.97, MAE ~0.07)",
        ),
    )


@register
class Table2Experiment(Experiment):
    id = "T2"
    title = "Table 2: research-skill confidence (+ A1 ablation)"
    section = "3"
    paper_claim = (
        "students tended to gain the most confidence in areas where they "
        "were previously unsure of themselves"
    )
    DEFAULT = {"seed": 42, "n_seeds": 6, "ablation_seeds": 4}
    SMOKE = {"n_seeds": 2, "ablation_seeds": 2}

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add(
            "regeneration",
            t2_regeneration(
                config["seed"], config["n_seeds"], workers=workers, cache=cache
            ),
        )
        result.add(
            "constant_gain_ablation",
            t2_constant_gain_ablation(
                config["ablation_seeds"], workers=workers, cache=cache
            ),
        )
        return result

    def check(self, result):
        regen = result["regeneration"]
        ablation = result["constant_gain_ablation"]
        checks = [
            Check("boost corr(ours, paper) > 0.6", regen["corr_paper"],
                  regen["corr_paper"] > 0.6),
            Check("corr(boost, a-priori mean) < -0.5 (the central finding)",
                  regen["corr_prior"], regen["corr_prior"] < -0.5),
            Check("A1: constant gain drops boost corr below 0.5",
                  ablation["corr_paper"], ablation["corr_paper"] < 0.5),
            Check("A1: constant gain triples the boost MAE",
                  ablation["mae"], ablation["mae"] > 0.15),
        ]
        return Verdict(self.id, tuple(checks))


# --------------------------------------------------------------------------
# T3 — Table 3: topic-area knowledge
# --------------------------------------------------------------------------


def t3_regeneration(
    seed: int = 42,
    n_seeds: int = 6,
    *,
    workers: int | None = None,
    cache: Any = None,
) -> Block:
    """Regenerate Table 3 and the largest-gain ordering."""
    outcome = _season(seed)
    rows = table3(outcome)
    per_seed = pmap(
        _season_increases,
        [None] * n_seeds,
        seeds=list(range(n_seeds)),
        workers=workers,
        cache=resolve_cache(cache),
    )
    increases = np.mean(per_seed, axis=0)
    paper = np.array([v[1] for v in TABLE3_KNOWLEDGE.values()])
    areas = list(TABLE3_KNOWLEDGE)
    top_two = set(np.array(areas)[np.argsort(increases)[-2:]])
    return Block(
        values={
            "n_rows": len(rows),
            "top_two": sorted(str(a) for a in top_two),
            "max_abs_deviation": float(np.abs(increases - paper).max()),
            "mean_abs_deviation": float(np.abs(increases - paper).mean()),
        },
        tables=(
            render_table3(outcome),
            f"T3 mean |paper - ours| increase = {np.abs(increases - paper).mean():.2f}; "
            f"largest gains: {sorted(top_two)}",
        ),
    )


def _season_increases(_config: None, seed: int) -> list[float]:
    """Table 3 increases of one simulated season (pmap/cache cell)."""
    return [float(r.increase) for r in table3(_season(seed))]


@register
class Table3Experiment(Experiment):
    id = "T3"
    title = "Table 3: topic-area knowledge"
    section = "3"
    paper_claim = (
        "the two largest knowledge gains are trust in computational "
        "research and reproducibility of research"
    )
    DEFAULT = {"seed": 42, "n_seeds": 6}
    SMOKE = {"n_seeds": 2}

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add(
            "regeneration",
            t3_regeneration(
                config["seed"], config["n_seeds"], workers=workers, cache=cache
            ),
        )
        return result

    def check(self, result):
        regen = result["regeneration"]
        checks = [
            Check(
                "largest gains are trust and reproducibility",
                regen["top_two"],
                set(regen["top_two"])
                == {"trust_in_computational_research", "reproducibility_of_research"},
            ),
            Check("max |paper - ours| increase < 0.5",
                  regen["max_abs_deviation"], regen["max_abs_deviation"] < 0.5),
        ]
        return Verdict(self.id, tuple(checks))


# --------------------------------------------------------------------------
# N1 — narrative statistics (§3)
# --------------------------------------------------------------------------


def n1_statistics(seed: int = 42) -> Block:
    """The running-text statistics, paper vs one regenerated season."""
    stats = narrative_stats(_season(seed))
    return Block(
        values={
            "n_applicants": int(stats.n_applicants),
            "apriori_responses": int(stats.apriori_responses),
            "posthoc_responses": int(stats.posthoc_responses),
            "complete_posthoc_responses": int(stats.complete_posthoc_responses),
            "goals_accomplished_by_all": int(stats.goals_accomplished_by_all),
            "top5_confidence_gains": [
                [name, float(mean)] for name, mean in stats.top5_confidence_gains
            ],
        },
        tables=(
            render_narrative(stats),
            "N1 top-5 confidence gains (ours): "
            + ", ".join(
                f"{name} ({mean:.1f})" for name, mean in stats.top5_confidence_gains
            ),
        ),
    )


def n1_phd_intent(
    n_seeds: int = 6, *, workers: int | None = None, cache: Any = None
) -> Block:
    """PhD-intent shift averaged over independent seasons."""
    cells = pmap(
        _season_phd_intent,
        [None] * n_seeds,
        seeds=list(range(n_seeds)),
        workers=workers,
        cache=resolve_cache(cache),
    )
    pre = float(np.mean([c[0] for c in cells]))
    post = float(np.mean([c[1] for c in cells]))
    return Block(
        values={"pre": pre, "post": post},
        tables=(
            f"N1 PhD intent: paper {NARRATIVE['phd_intent_apriori_mean']} -> "
            f"{NARRATIVE['phd_intent_posthoc_mean']}; ours {pre:.1f} -> {post:.1f}",
        ),
    )


def _season_phd_intent(_config: None, seed: int) -> tuple[float, float]:
    """(pre, post) PhD-intent means of one season (pmap/cache cell)."""
    stats = narrative_stats(_season(seed))
    return (
        float(stats.phd_intent_apriori_mean),
        float(stats.phd_intent_posthoc_mean),
    )


@register
class NarrativeExperiment(Experiment):
    id = "N1"
    title = "Narrative statistics of section 3"
    section = "3"
    paper_claim = (
        "85 applicants / 10 offers, 15/10/9 survey responses, PhD intent "
        "3.2 -> 3.6, five goals accomplished by all"
    )
    DEFAULT = {"seed": 42, "n_seeds": 6}
    SMOKE = {"n_seeds": 2}

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add("statistics", n1_statistics(config["seed"]))
        result.add(
            "phd_intent",
            n1_phd_intent(config["n_seeds"], workers=workers, cache=cache),
        )
        return result

    def check(self, result):
        stats = result["statistics"]
        phd = result["phd_intent"]
        checks = [
            Check("85 applicants", stats["n_applicants"],
                  stats["n_applicants"] == NARRATIVE["applicants"]),
            Check(
                "15 / 10 / 9 survey responses",
                [stats["apriori_responses"], stats["posthoc_responses"],
                 stats["complete_posthoc_responses"]],
                stats["apriori_responses"] == NARRATIVE["a_priori_responses"]
                and stats["posthoc_responses"] == NARRATIVE["post_hoc_responses"]
                and stats["complete_posthoc_responses"]
                == NARRATIVE["complete_post_hoc_responses"],
            ),
            Check(
                ">= 5 goals accomplished by every respondent",
                stats["goals_accomplished_by_all"],
                stats["goals_accomplished_by_all"]
                >= NARRATIVE["goals_accomplished_by_all"],
            ),
            Check(
                "PhD intent rises and tracks 3.2 -> 3.6",
                [phd["pre"], phd["post"]],
                phd["post"] > phd["pre"]
                and abs(phd["pre"] - NARRATIVE["phd_intent_apriori_mean"]) < 0.4
                and abs(phd["post"] - NARRATIVE["phd_intent_posthoc_mean"]) < 0.4,
            ),
        ]
        return Verdict(self.id, tuple(checks))


# --------------------------------------------------------------------------
# F1 — the year-two plans (§4)
# --------------------------------------------------------------------------


def f1_curriculum_policies(n_students: int = 15, seed: int = 0) -> Block:
    """Year-one all-attend vs the paper's two proposed policies."""
    profiles = sample_interest_profiles(n_students, seed=seed)
    outcomes = [
        evaluate_curriculum(profiles, policy)
        for policy in (
            all_attend_policy(profiles),
            targeted_policy(profiles, topics_per_student=4),
            narrowed_policy(profiles, n_topics_kept=5),
        )
    ]
    return Block(
        values={
            o.policy: {
                "enthusiasm": float(o.mean_enthusiasm),
                "ignored_fraction": float(o.ignored_fraction),
                "breadth": float(o.breadth),
                "instructor_load": float(o.instructor_load),
            }
            for o in outcomes
        },
        tables=(
            rows_table(
                ["policy", "enthusiasm", "ignored", "breadth", "topics taught"],
                [
                    [o.policy, o.mean_enthusiasm, o.ignored_fraction, o.breadth,
                     o.instructor_load]
                    for o in outcomes
                ],
                title="F1: year-one vs year-two curriculum policies",
            ),
        ),
    )


def f1_exit_survey_plans(
    n_seeds: int = 6, *, workers: int | None = None, cache: Any = True
) -> Block:
    """The three §4 collection plans, 6 seeds each, via repro.parallel."""
    plans = (
        ("year one (post-departure)", AttritionPlan()),
        ("incentivized", AttritionPlan.incentivized(0.6)),
        ("before departure", AttritionPlan.before_departure()),
    )
    result = collection_plan_sweep(
        CollectionPlanConfig(plans=plans),
        seeds=tuple(range(n_seeds)),
        workers=workers,
        cache=cache,
    )
    rows = [(c.name, c.mean_complete, c.boost_spread) for c in result.comparisons]
    return Block(
        values={
            "plans": [
                {"name": name, "mean_complete": float(complete),
                 "boost_spread": float(spread)}
                for name, complete, spread in rows
            ]
        },
        tables=(
            rows_table(
                ["collection plan", "complete responses (of 15)", "boost seed-spread"],
                rows,
                title=(
                    "F1: exit-survey collection plans (paper: collect before "
                    "departure, incentivize)"
                ),
            ),
        ),
    )


def f1_multi_year(base_seed: int = 0) -> Block:
    """Both year-two changes composed into a season-over-season run."""
    plans = [
        YearPlan("year 1 (as run)", curriculum="all_attend",
                 attrition=AttritionPlan()),
        YearPlan("year 2 (incentivized only)", curriculum="all_attend",
                 attrition=AttritionPlan.before_departure()),
        YearPlan("year 2 (full plan)", curriculum="targeted",
                 attrition=AttritionPlan.before_departure()),
    ]
    outcomes = run_years(plans, base_seed=base_seed)
    return Block(
        values={
            o.plan.name: {
                "enthusiasm": float(o.mean_enthusiasm),
                "ignored_fraction": float(o.ignored_fraction),
                "complete_responses": int(o.complete_responses),
                "mean_confidence_boost": float(o.mean_confidence_boost),
            }
            for o in outcomes
        },
        tables=(
            rows_table(
                ["year plan", "enthusiasm", "ignored", "complete responses",
                 "mean conf boost"],
                [
                    [o.plan.name, o.mean_enthusiasm, o.ignored_fraction,
                     o.complete_responses, o.mean_confidence_boost]
                    for o in outcomes
                ],
                title="F1: season-over-season composition of the year-two plans",
            ),
        ),
    )


@register
class FutureWorkExperiment(Experiment):
    id = "F1"
    title = "Year-two plans: curriculum targeting + exit surveys"
    section = "4"
    paper_claim = (
        "narrowing/targeting topics and collecting incentivized exit "
        "surveys before departure fix the year-one pain points"
    )
    DEFAULT = {"n_students": 15, "seed": 0, "n_seeds": 6, "base_seed": 0}
    SMOKE = {"n_seeds": 2}

    def _run(self, config, *, workers, cache):
        result = ExpResult(self.id, config)
        result.add(
            "curriculum",
            f1_curriculum_policies(config["n_students"], config["seed"]),
        )
        result.add(
            "exit_surveys",
            f1_exit_survey_plans(config["n_seeds"], workers=workers, cache=cache),
        )
        result.add("multi_year", f1_multi_year(config["base_seed"]))
        return result

    def check(self, result):
        base, targeted, narrowed = result["curriculum"].values()
        year1, incentive, before = result["exit_surveys"]["plans"]
        years = result["multi_year"]
        y1 = years["year 1 (as run)"]
        incentive_only = years["year 2 (incentivized only)"]
        full = years["year 2 (full plan)"]
        checks = [
            Check("all-attend leaves > 40% of the audience ignoring a topic",
                  base["ignored_fraction"], base["ignored_fraction"] > 0.4),
            Check(
                "targeting raises enthusiasm at a breadth cost",
                {"targeted": targeted["enthusiasm"], "base": base["enthusiasm"]},
                targeted["enthusiasm"] > base["enthusiasm"]
                and targeted["breadth"] < base["breadth"],
            ),
            Check("narrowing cuts instructor load",
                  narrowed["instructor_load"],
                  narrowed["instructor_load"] < base["instructor_load"]),
            Check(
                "response counts: before departure > incentivized > year one",
                [p["mean_complete"] for p in result["exit_surveys"]["plans"]],
                before["mean_complete"] > incentive["mean_complete"]
                > year1["mean_complete"],
            ),
            Check(
                "before-departure estimates no less stable",
                before["boost_spread"],
                before["boost_spread"] <= year1["boost_spread"] * 1.05,
            ),
            Check(
                "the composed year-two plan beats year one on both axes",
                {"enthusiasm": full["enthusiasm"],
                 "complete_responses": full["complete_responses"]},
                full["enthusiasm"] > y1["enthusiasm"]
                and full["complete_responses"] > y1["complete_responses"]
                and incentive_only["complete_responses"] > y1["complete_responses"],
            ),
        ]
        return Verdict(self.id, tuple(checks))
