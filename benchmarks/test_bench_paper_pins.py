"""Tolerance pins for the regenerated paper tables and figures.

Each ``test_bench_<table>.py`` checks the shape its docstring promises:
Table 3's perceptual g-mean grows with n towards ~0.8 while the metadata
space stays near random; Table 4's recall stays high and its precision grows
with the noise rate, with the metadata space far worse on both; Tables 5 and
6 sit well above random and grow with n; in Figures 3/4 the boosted
classifier overtakes the crowd early.  The paper's own numbers are not in the
repository, so these tests pin the numbers the extractor produces at the
default scale instead, within a tolerance.  A change that moves a table
fails here, and a last-bit difference between hosts does not.  The committed
files in ``benchmarks/results`` hold the same numbers exactly.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.boosting import run_boosting_experiments
from repro.experiments.other_domains import run_other_domain_experiment
from repro.experiments.questionable import run_questionable_experiment
from repro.experiments.small_samples import run_small_sample_experiment

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE", "default").lower() != "default",
    reason="the pinned numbers are those of the default scale",
)

N_VALUES = (10, 20, 40)
GMEAN_TOLERANCE = 0.02
PRECISION_RECALL_TOLERANCE = 0.03
#: Items of the ~300-item Figure 3/4 sample a boosted count may move by.
BOOSTED_TOLERANCE = 5


def test_table3_mean_row_is_pinned(movie_context, repetitions):
    mean_row = run_small_sample_experiment(
        movie_context, n_values=N_VALUES, n_repetitions=repetitions, seed=11
    )[-1]
    assert mean_row.perceptual == pytest.approx(
        {10: 0.7710, 20: 0.8029, 40: 0.8276}, abs=GMEAN_TOLERANCE
    )
    assert mean_row.metadata == pytest.approx(
        {10: 0.5056, 20: 0.5444, 40: 0.5927}, abs=GMEAN_TOLERANCE
    )


def test_table4_mean_row_is_pinned(movie_context, repetitions):
    mean_row = run_questionable_experiment(
        movie_context,
        noise_levels=(0.05, 0.10, 0.20),
        n_repetitions=max(1, repetitions - 1),
        seed=29,
    )[-1]
    # (precision, recall) per percentage of swapped labels.
    perceptual = {5: (0.2226, 0.7479), 10: (0.3753, 0.7646), 20: (0.5372, 0.7484)}
    metadata = {5: (0.0395, 0.2042), 10: (0.0886, 0.2344), 20: (0.2072, 0.2859)}
    for key in perceptual:
        assert mean_row.perceptual[key] == pytest.approx(
            perceptual[key], abs=PRECISION_RECALL_TOLERANCE
        )
        assert mean_row.metadata[key] == pytest.approx(
            metadata[key], abs=PRECISION_RECALL_TOLERANCE
        )


@pytest.mark.parametrize(
    ("domain", "expected"),
    [
        ("restaurants", {10: 0.6584, 20: 0.7079, 40: 0.7511}),
        ("board_games", {10: 0.7644, 20: 0.7829, 40: 0.8030}),
    ],
)
def test_table5_and_6_mean_rows_are_pinned(domain, expected, repetitions):
    mean_row = run_other_domain_experiment(
        domain, n_values=N_VALUES, n_repetitions=repetitions, seed=41
    )[-1]
    assert mean_row.gmeans == pytest.approx(expected, abs=GMEAN_TOLERANCE)


def test_figure3_and_4_boosted_counts_are_pinned(movie_context, crowd_outcome):
    series = run_boosting_experiments(movie_context, crowd_outcome, retrain_every_minutes=5.0)
    # fmt: off
    expected = {
        "Exp. 4: boost of Exp. 1": [82, 211, 171, 173, 199, 191, 219, 231],
        "Exp. 5: boost of Exp. 2": [0, 140, 169, 238, 233, 223, 221, 184, 228, 226, 221, 239,
                                    237, 241],
        "Exp. 6: boost of Exp. 3": [202, 234, 248, 263, 257, 260, 265, 266, 269, 270, 271, 268,
                                    269, 269, 268, 266, 266, 266],
    }
    # fmt: on
    assert [entry.experiment for entry in series] == list(expected)
    for entry in series:
        boosted = [point.boosted_correct for point in entry.points]
        assert boosted == pytest.approx(expected[entry.experiment], abs=BOOSTED_TOLERANCE)
