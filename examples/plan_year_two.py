#!/usr/bin/env python
"""Scenario: evaluate the paper's year-two plans before committing to them.

Run:
    python examples/plan_year_two.py

The paper's discussion section commits to three changes for future years:
narrow/target the lecture topics, collect exit surveys before departure
(with incentives), and stage GPU result collection.  This example
simulates those decisions: first each change in isolation, then the
composed year-two season next to a year-one baseline — the evidence a
program director would want before changing a funded program.
"""

from repro.cluster import (
    ClusterSimulator,
    evaluate_schedule,
    generate_workload,
    naive_deadline_submission,
    staged_batch_submission,
)
from repro.cluster.workload import default_reu_projects
from repro.core import (
    AttritionPlan,
    YearPlan,
    all_attend_policy,
    evaluate_curriculum,
    narrowed_policy,
    run_years,
    sample_interest_profiles,
    targeted_policy,
)
from repro.utils.tables import Table


def main() -> None:
    print("Change 1: curriculum policy (lecture enthusiasm vs cohort breadth)")
    profiles = sample_interest_profiles(15, seed=0)
    table = Table(["policy", "enthusiasm", "ignored", "breadth", "topics taught"])
    for policy in (
        all_attend_policy(profiles),
        targeted_policy(profiles, topics_per_student=4),
        narrowed_policy(profiles, n_topics_kept=5),
    ):
        o = evaluate_curriculum(profiles, policy)
        table.add_row(
            [o.policy, o.mean_enthusiasm, o.ignored_fraction, o.breadth, o.instructor_load]
        )
    print(table.render())
    print()

    print("Change 2: GPU result-collection staging (from the R1 experiment)")
    projects = default_reu_projects()
    table = Table(["submission plan", "p95 wait h", "missed deadlines"])
    for name, times in (
        ("naive deadline rush", naive_deadline_submission(projects, seed=1)),
        ("staged batches", staged_batch_submission(projects)),
    ):
        jobs = generate_workload(projects, submit_times=times, seed=42)
        m = evaluate_schedule(
            ClusterSimulator(6, policy="backfill").run(jobs)
        )
        table.add_row([name, m.p95_wait, m.missed_deadlines])
    print(table.render())
    print()

    print("Change 3 + composition: season-over-season simulation")
    plans = [
        YearPlan("year 1 (as run)", curriculum="all_attend",
                 attrition=AttritionPlan()),
        YearPlan("year 2 (surveys fixed)", curriculum="all_attend",
                 attrition=AttritionPlan.before_departure()),
        YearPlan("year 2 (full plan)", curriculum="targeted",
                 attrition=AttritionPlan.before_departure()),
    ]
    table = Table(
        ["year", "enthusiasm", "ignored", "complete responses", "mean conf boost"]
    )
    for o in run_years(plans, base_seed=0):
        table.add_row(
            [o.plan.name, o.mean_enthusiasm, o.ignored_fraction,
             o.complete_responses, o.mean_confidence_boost]
        )
    print(table.render())
    print()
    print(
        "The composed year-two plan keeps the gains, more than doubles the\n"
        "lecture enthusiasm, and recovers the five lost exit surveys — at\n"
        "the acknowledged cost of less shared cohort experience."
    )


if __name__ == "__main__":
    main()
