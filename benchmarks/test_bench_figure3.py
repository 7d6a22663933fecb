"""Benchmark: Figure 3 — correctly classified movies over (relative) time.

Regenerates the Experiment 4-6 series: every few simulated minutes the
movies currently holding a clear crowd majority train the perceptual-space
extractor, which then classifies the whole sample.  Expected shape: the
boosted classifier overtakes the crowd-only counts early and reaches full
coverage; with the highly accurate Experiment-3 training data the extractor
ends slightly below the crowd's own accuracy (as in the paper).
"""

from __future__ import annotations

from repro.experiments.boosting import run_boosting_experiments
from repro.experiments.reporting import render_boosting_series
from repro.utils.tables import format_table


def test_figure3_boosting_over_time(benchmark, movie_context, crowd_outcome, report_writer):
    """Reproduce Figure 3 and benchmark the incremental retraining loop."""
    series = benchmark.pedantic(
        run_boosting_experiments,
        args=(movie_context, crowd_outcome),
        kwargs={"retrain_every_minutes": 5.0},
        rounds=1,
        iterations=1,
    )
    report_writer("figure3_boosting_over_time", render_boosting_series(series))

    # Also emit the Figure-3 series in a compact over-time form.
    rows = []
    for entry in series:
        for relative_time, crowd_correct, boosted_correct in entry.correct_over_time():
            rows.append((entry.experiment, round(relative_time, 2), crowd_correct, boosted_correct))
    report_writer(
        "figure3_series",
        format_table(["Experiment", "rel. time", "crowd correct", "boosted correct"], rows),
    )

    assert len(series) == 3
    exp4, exp5, exp6 = series

    def second_half_mean(entry, attribute: str) -> float:
        points = entry.points[len(entry.points) // 2:]
        return sum(getattr(point, attribute) for point in points) / len(points)

    # Boosting Experiments 1 and 2: the extractor beats the raw crowd count.
    assert exp4.final_point.boosted_correct > exp4.final_point.crowd_correct
    assert exp5.final_point.boosted_correct > exp5.final_point.crowd_correct
    # Better training data (Exp 5 vs Exp 4) gives better boosted results over
    # the second half of the run (individual checkpoints fluctuate).
    assert second_half_mean(exp5, "boosted_correct") >= second_half_mean(exp4, "boosted_correct")
    # With the near-perfect lookup training data the extractor cannot beat
    # the crowd itself (the paper's Experiment 6 observation).
    assert exp6.final_point.boosted_correct <= exp6.final_point.crowd_correct + exp6.n_items * 0.05
    # Early advantage: halfway through, boosting is already ahead of the crowd.
    halfway = exp4.points[len(exp4.points) // 2]
    assert halfway.boosted_correct >= halfway.crowd_correct
