"""The season simulator against its plain per-call form, bit for bit.

``repro.core`` draws a season's randomness with fewer numpy calls than it
once did: one ``integers`` draw for an applicant's year in place of
``choice``, one ``random(k)`` per student for goal accomplishment, one
``normal`` vector for offer scoring, one Likert matrix per survey, and a
student's two goals looked up in a cumulative sum in place of
``Generator.choice``.  A season no longer draws the applicant pool or the
offers, which nothing reads; it only reserves their streams.  Each must
consume the same generator stream in the same order, so every array,
scalar and final generator state here must equal the per-call
reference's, and so must the canonical results of the experiments that
regenerate the paper's tables.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import RunRequest, canonical_results_bytes, execute_request
from repro.core import applicants, cohort, multiyear, program, surveys
from repro.core.cohort import KNOWLEDGE_AREAS, SKILLS, Student
from repro.core.goals import GOALS
from repro.core.learning import CEILING, ExperienceModel
from repro.core.program import ProgramConfig, REUProgram, SeasonOutcome
from repro.core.reference import TABLE1_GOALS, TABLE2_CONFIDENCE, TABLE3_KNOWLEDGE
from repro.core.surveys import AttritionPlan, SurveyResponse, measure_likert
from repro.utils.rng import SeedSequenceLedger, as_generator

SEEDS = range(60)

# -- reference forms: one numpy call per draw ---------------------------------------


def ref_make_applicant_pool(n=85, *, seed=0):
    rng = as_generator(seed)
    return [
        applicants.Applicant(
            applicant_id=i,
            research_institution=bool(rng.random() < 0.55),
            underrepresented=bool(rng.random() < 0.4),
            year=int(rng.choice([2, 3])),
            preparation=float(rng.beta(4.0, 2.0)),
        )
        for i in range(n)
    ]


def ref_select_offers(
    pool, n_offers=10, *, diversity_bonus=0.25, non_research_bonus=0.25, seed=0
):
    rng = as_generator(seed)
    scores = np.array(
        [
            a.preparation
            + (diversity_bonus if a.underrepresented else 0.0)
            + (non_research_bonus if not a.research_institution else 0.0)
            + float(rng.normal(0.0, 0.05))
            for a in pool
        ]
    )
    top = np.argsort(scores)[::-1][:n_offers]
    return [pool[i] for i in top]


def ref_pick_two(rng, weights):
    return tuple(rng.choice(len(weights), size=2, replace=False, p=weights).tolist())


def ref_make_cohort(n_students=15, *, goal_pool=None, trait_spread=0.7, seed=0):
    from repro.core.goals import goal_names

    rng = as_generator(seed)
    pool = goal_pool or goal_names()
    weights = np.array([TABLE1_GOALS.get(g, 5) + 1.0 for g in pool])
    weights = weights / weights.sum()
    conf_centers = np.array([TABLE2_CONFIDENCE[s][0] for s in SKILLS])
    know_centers = np.array([TABLE3_KNOWLEDGE[a][0] for a in KNOWLEDGE_AREAS])
    students = []
    for i in range(n_students):
        picked = ref_pick_two(rng, weights)
        students.append(
            Student(
                student_id=i,
                confidence=np.clip(
                    conf_centers + rng.normal(0.0, trait_spread, len(SKILLS)), 1.0, 5.0
                ),
                knowledge=np.clip(
                    know_centers + rng.normal(0.0, trait_spread, len(KNOWLEDGE_AREAS)),
                    1.0,
                    5.0,
                ),
                phd_intent=float(np.clip(rng.normal(3.2, 0.9), 1.0, 5.0)),
                recommenders_home=int(np.clip(rng.poisson(2.2), 1, 5)),
                recommenders_external=int(np.clip(rng.poisson(1.2), 0, 5)),
                engagement=float(np.clip(rng.beta(5.0, 1.8), 0.3, 1.0)),
                goals=(pool[picked[0]], pool[picked[1]]),
                local=i >= 10,
            )
        )
    return students


def ref_apply(self, student, *, seed=0):
    rng = as_generator(seed)
    drive = student.engagement / 0.75
    conf_gain = (
        drive * self.confidence_exposure() * (CEILING - student.confidence)
        + rng.normal(0.0, self.noise, len(SKILLS))
    )
    know_gain = (
        drive * self.knowledge_exposure() * (CEILING - student.knowledge)
        + rng.normal(0.0, self.noise, len(KNOWLEDGE_AREAS))
    )
    return Student(
        student_id=student.student_id,
        confidence=np.clip(student.confidence + conf_gain, 1.0, CEILING),
        knowledge=np.clip(student.knowledge + know_gain, 1.0, CEILING),
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
                round(self.reu_recommenders_mean + rng.normal(0.0, 0.7) * drive), 2, 4
            )
        ),
    )


def ref_accomplish_goals(self, cohort, rng):
    out = {}
    for s in cohort:
        done = set()
        for goal in GOALS:
            if goal.cohort_wide:
                done.add(goal.name)
                continue
            p = TABLE1_GOALS[goal.name] / 9.0 * (0.7 + 0.4 * s.engagement)
            if goal.name in s.goals:
                p = min(1.0, p + 0.15)
            if rng.random() < p:
                done.add(goal.name)
        out[s.student_id] = frozenset(done)
    return out


def _ref_response(s, rng, response_noise, **extra):
    return SurveyResponse(
        confidence=measure_likert(s.confidence, rng, response_noise=response_noise),
        knowledge=measure_likert(s.knowledge, rng, response_noise=response_noise),
        phd_intent=int(measure_likert(s.phd_intent, rng, response_noise=response_noise)),
        goals_set=s.goals,
        **extra,
    )


def ref_collect_apriori(cohort, *, response_noise=0.35, seed=0):
    rng = as_generator(seed)
    return [
        _ref_response(
            s, rng, response_noise,
            recommenders_home=s.recommenders_home,
            recommenders_external=s.recommenders_external,
        )
        for s in cohort
    ]


def ref_collect_posthoc(cohort_after, accomplished, *, plan=None, response_noise=0.35,
                        seed=0):
    rng = as_generator(seed)
    plan = plan or AttritionPlan()
    idx, complete_flags = plan.select(len(cohort_after), rng)
    responses = []
    for i, complete in zip(idx, complete_flags):
        s = cohort_after[int(i)]
        responses.append(
            _ref_response(
                s, rng, response_noise,
                complete=bool(complete),
                goals_accomplished=(
                    accomplished.get(s.student_id, frozenset()) if complete else frozenset()
                ),
                recommenders_reu=s.recommenders_reu if complete else None,
                recommenders_home=s.recommenders_home if complete else None,
                recommenders_external=s.recommenders_external if complete else None,
            )
        )
    return responses


def ref_run_season(self, seed=0):
    """``REUProgram.run_season`` as it was: the pool and offers drawn."""
    ledger = SeedSequenceLedger(seed)
    pool = ref_make_applicant_pool(
        self.config.n_applicants, seed=ledger.generator("applicants")
    )
    ref_select_offers(pool, self.config.n_offers, seed=ledger.generator("selection"))
    students = ref_make_cohort(self.config.cohort_size, seed=ledger.generator("cohort"))
    apriori = ref_collect_apriori(students, seed=ledger.generator("apriori"))
    growth_rng = ledger.generator("experience")
    after = [self.model.apply(s, seed=growth_rng) for s in students]
    accomplished = self._accomplish_goals(after, ledger.generator("goals"))
    posthoc = ref_collect_posthoc(
        after, accomplished, plan=self.config.attrition,
        seed=ledger.generator("posthoc"),
    )
    return SeasonOutcome(
        cohort_before=students,
        cohort_after=after,
        apriori=apriori,
        posthoc=posthoc,
        accomplished=accomplished,
        n_applicants=self.config.n_applicants,
        seed_audit=ledger.audit(),
    )


# -- comparison ---------------------------------------------------------------------


def assert_same(actual, expected, where="value"):
    """Arrays by dtype, shape and bytes; scalars by type and value."""
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), where
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), where
        assert actual.tobytes() == expected.tobytes(), where
    elif dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected), where
        for f in dataclasses.fields(expected):
            assert_same(getattr(actual, f.name), getattr(expected, f.name),
                        f"{where}.{f.name}")
    elif isinstance(expected, (list, tuple)):
        assert type(actual) is type(expected) and len(actual) == len(expected), where
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{where}[{k}]")
    elif isinstance(expected, dict):
        assert type(actual) is type(expected), where
        assert list(actual) == list(expected), where
        for key in expected:
            assert_same(actual[key], expected[key], f"{where}[{key!r}]")
    else:
        assert type(actual) is type(expected), f"{where}: {type(actual)}"
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def _rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


def _cohort_after(seed):
    students = ref_make_cohort(15, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return [ref_apply(ExperienceModel(), s, seed=rng) for s in students]


# -- per function, over many seeds --------------------------------------------------


def test_applicant_pool_matches_the_reference():
    for seed in SEEDS:
        a, b = _rngs(seed)
        assert_same(applicants.make_applicant_pool(85, seed=a),
                    ref_make_applicant_pool(85, seed=b), f"seed {seed}")
        assert_same_state(a, b)


def test_offer_selection_matches_the_reference():
    for seed in SEEDS:
        pool = ref_make_applicant_pool(85, seed=seed)
        a, b = _rngs(seed)
        assert_same(applicants.select_offers(pool, 10, seed=a),
                    ref_select_offers(pool, 10, seed=b), f"seed {seed}")
        assert_same_state(a, b)


def _goal_weights(pool):
    weights = np.array([TABLE1_GOALS.get(g, 5) + 1.0 for g in pool])
    return weights / weights.sum()


@pytest.mark.parametrize(
    "weights",
    [_goal_weights(list(TABLE1_GOALS)), np.array([0.9] + [0.1 / 18] * 18)],
    ids=["table1", "one-heavy"],
)
def test_goal_pick_matches_generator_choice(weights):
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    repeats = 0
    for seed in SEEDS:
        a, b = _rngs(seed)
        for _ in range(15):
            expected = ref_pick_two(b, weights)
            state = a.bit_generator.state
            first, second = a.random(2)
            a.bit_generator.state = state
            repeats += int(cdf.searchsorted(first, "right")
                           == cdf.searchsorted(second, "right"))
            assert cohort._pick_two(a, weights, cdf) == expected, f"seed {seed}"
        assert_same_state(a, b)
    # Both the two-draw path and the one-more-draw path were taken.
    assert 0 < repeats < 15 * len(SEEDS)


@pytest.mark.parametrize("n_students", [2, 15, 40])
def test_cohort_matches_the_reference(n_students):
    for seed in SEEDS:
        a, b = _rngs(seed)
        assert_same(cohort.make_cohort(n_students, seed=a),
                    ref_make_cohort(n_students, seed=b), f"seed {seed}")
        assert_same_state(a, b)


def _recording_generators(monkeypatch):
    """Patch the ledger to keep every generator it hands out, by name."""
    made = {}
    original = SeedSequenceLedger.generator

    def generator(self, name):
        made[name] = original(self, name)
        return made[name]

    monkeypatch.setattr(SeedSequenceLedger, "generator", generator)
    return made


@pytest.mark.parametrize(
    "config",
    [ProgramConfig(), ProgramConfig(n_applicants=40, n_offers=12,
                                    n_local_supplements=0,
                                    attrition=AttritionPlan.incentivized())],
    ids=["paper", "small-pool"],
)
def test_season_matches_the_reference_without_drawing_the_pool(config, monkeypatch):
    prog = REUProgram(config)
    for seed in SEEDS:
        with monkeypatch.context() as patch:
            fast_rngs = _recording_generators(patch)
            fast = prog.run_season(seed)
        with monkeypatch.context() as patch:
            ref_rngs = _recording_generators(patch)
            reference = ref_run_season(prog, seed)
        assert_same(fast, reference, f"seed {seed}")
        assert list(fast.seed_audit) == [
            "applicants", "selection", "cohort", "apriori", "experience",
            "goals", "posthoc",
        ]
        # The pool's and the offers' streams are reserved, never drawn.
        assert set(ref_rngs) - set(fast_rngs) == {"applicants", "selection"}
        for name, rng in fast_rngs.items():
            assert_same_state(rng, ref_rngs[name])


@pytest.mark.parametrize(
    "model", [ExperienceModel(), ExperienceModel(noise=0.6, phd_shift=1.5,
                                                 reu_recommenders_mean=3.7)]
)
def test_experience_matches_the_reference(model):
    for seed in SEEDS:
        students = ref_make_cohort(15, seed=seed)
        a, b = _rngs(seed + 1000)
        assert_same([model.apply(s, seed=a) for s in students],
                    [ref_apply(model, s, seed=b) for s in students], f"seed {seed}")
        assert_same_state(a, b)


def test_goal_accomplishment_matches_the_reference():
    prog = REUProgram()
    for seed in SEEDS:
        after = _cohort_after(seed)
        a, b = _rngs(seed + 2000)
        assert_same(prog._accomplish_goals(after, a),
                    ref_accomplish_goals(prog, after, b), f"seed {seed}")
        assert_same_state(a, b)


@pytest.mark.parametrize("response_noise", [0.35, 1.2])
def test_apriori_survey_matches_the_reference(response_noise):
    for seed in SEEDS:
        students = ref_make_cohort(15, seed=seed)
        a, b = _rngs(seed + 3000)
        assert_same(
            surveys.collect_apriori(students, response_noise=response_noise, seed=a),
            ref_collect_apriori(students, response_noise=response_noise, seed=b),
            f"seed {seed}",
        )
        assert_same_state(a, b)
    assert surveys.collect_apriori([], seed=0) == []


@pytest.mark.parametrize(
    "plan",
    [AttritionPlan(), AttritionPlan.before_departure(), AttritionPlan.incentivized(),
     AttritionPlan(posthoc_rate=0.0)],
    ids=["year-one", "before-departure", "incentivized", "nobody"],
)
def test_posthoc_survey_matches_the_reference(plan):
    prog = REUProgram()
    for seed in SEEDS:
        after = _cohort_after(seed)
        accomplished = ref_accomplish_goals(prog, after, np.random.default_rng(seed))
        a, b = _rngs(seed + 4000)
        assert_same(
            surveys.collect_posthoc(after, accomplished, plan=plan, seed=a),
            ref_collect_posthoc(after, accomplished, plan=plan, seed=b),
            f"seed {seed}",
        )
        assert_same_state(a, b)


# -- end to end: the experiments that regenerate the paper's tables -----------------


def _patch_references(monkeypatch):
    monkeypatch.setattr(applicants, "make_applicant_pool", ref_make_applicant_pool)
    monkeypatch.setattr(applicants, "select_offers", ref_select_offers)
    monkeypatch.setattr(REUProgram, "run_season", ref_run_season)
    for module in (cohort, program, multiyear):
        monkeypatch.setattr(module, "make_cohort", ref_make_cohort)
    for module in (surveys, program):
        monkeypatch.setattr(module, "collect_apriori", ref_collect_apriori)
        monkeypatch.setattr(module, "collect_posthoc", ref_collect_posthoc)
    monkeypatch.setattr(ExperienceModel, "apply", ref_apply)
    monkeypatch.setattr(REUProgram, "_accomplish_goals", ref_accomplish_goals)


def _canonical(exp_id, seed):
    request = RunRequest(ids=(exp_id,), smoke=True, workers=1, cache=False,
                         overrides={exp_id: {"seed": seed}})
    return canonical_results_bytes(execute_request(request).as_dict())


@pytest.mark.parametrize("seed", [7, 123, 2024])
@pytest.mark.parametrize("exp_id", ["T1", "T2", "T3", "N1", "F1"])
def test_experiment_results_match_the_reference(exp_id, seed, monkeypatch):
    fast = _canonical(exp_id, seed)
    with monkeypatch.context() as patch:
        _patch_references(patch)
        reference = _canonical(exp_id, seed)
    assert fast == reference
