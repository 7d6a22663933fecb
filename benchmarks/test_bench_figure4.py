"""Benchmark: Figure 4 — correctly classified movies over money spent.

Same runs as Figure 3, keyed by cumulative cost.  Expected shape: after a
few dollars the boosted classifier already labels more movies correctly
than the full-budget crowd-only run manages at the end (the paper's
"$2.82 beats $20" observation).
"""

from __future__ import annotations

from repro.experiments.boosting import run_boosting_experiments
from repro.utils.tables import format_table


def test_figure4_boosting_over_money(benchmark, movie_context, crowd_outcome, report_writer):
    """Reproduce Figure 4 and benchmark the cost-indexed series extraction."""
    series = benchmark.pedantic(
        run_boosting_experiments,
        args=(movie_context, crowd_outcome),
        kwargs={"retrain_every_minutes": 5.0},
        rounds=1,
        iterations=1,
    )

    rows = []
    for entry in series:
        for cost, crowd_correct, boosted_correct in entry.correct_over_money():
            rows.append((entry.experiment, round(cost, 2), crowd_correct, boosted_correct))
    report_writer(
        "figure4_boosting_over_money",
        format_table(["Experiment", "cost ($)", "crowd correct", "boosted correct"], rows),
    )

    exp4, exp5, _exp6 = series
    crowd_final = exp4.final_point.crowd_correct
    total_cost = exp4.final_point.cost

    # Find the cheapest checkpoint where boosting already matches the final
    # crowd-only quality.
    crossover = None
    for point in exp4.points:
        if point.boosted_correct >= crowd_final:
            crossover = point
            break
    assert crossover is not None, "boosting never reached the crowd-only final quality"
    assert crossover.cost < 0.75 * total_cost
    # The same holds (more strongly) for the trusted-worker run.
    crossover_5 = next(
        (p for p in exp5.points if p.boosted_correct >= exp5.final_point.crowd_correct), None
    )
    assert crossover_5 is not None
    assert crossover_5.cost <= exp5.final_point.cost
