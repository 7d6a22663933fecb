"""Tests for the experiment harness (context plus Tables 1-6, Figures 3-4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.boosting import run_boosting_experiments
from repro.experiments.context import (
    MovieExperimentConfig,
    expert_reference_gmeans,
    get_movie_context,
)
from repro.experiments.crowd_quality import run_crowd_quality_experiments
from repro.experiments.neighbors import run_nearest_neighbor_showcase
from repro.experiments.other_domains import (
    get_domain_context,
    run_other_domain_experiment,
    small_scale,
)
from repro.experiments.questionable import run_questionable_experiment
from repro.experiments.reporting import (
    render_boosting_series,
    render_other_domain_table,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_tsvm_rows,
)
from repro.experiments.small_samples import run_small_sample_experiment
from repro.experiments.tsvm_comparison import run_tsvm_comparison
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def crowd_outcome(movie_context):
    return run_crowd_quality_experiments(movie_context, seed=17)


class TestContext:
    def test_small_config_dimensions(self, movie_context):
        config = movie_context.config
        assert movie_context.space.n_items == config.n_movies
        assert movie_context.space.n_dimensions == config.n_factors
        assert movie_context.metadata_space.n_items == config.n_movies
        assert len(movie_context.crowd_sample) == config.crowd_sample_size

    def test_context_is_cached(self):
        first = get_movie_context(MovieExperimentConfig.small())
        second = get_movie_context(MovieExperimentConfig.small())
        assert first is second

    def test_reference_and_genres(self, movie_context):
        assert set(movie_context.genres) == {
            "Comedy", "Documentary", "Drama", "Family", "Horror", "Romance",
        }
        labels = movie_context.reference_labels("Comedy")
        assert len(labels) == movie_context.config.n_movies

    def test_sample_truth_subset_of_reference(self, movie_context):
        truth = movie_context.sample_truth("Comedy")
        assert set(truth) <= set(movie_context.reference_labels("Comedy"))
        assert len(truth) == len(movie_context.crowd_sample)

    def test_expert_reference_gmeans_in_paper_range(self, movie_context):
        scores = expert_reference_gmeans(
            movie_context.experts, movie_context.reference, "Comedy"
        )
        assert set(scores) == {"Netflix", "RottenTomatoes", "IMDb"}
        assert all(0.85 <= value <= 1.0 for value in scores.values())

    def test_paper_scale_config_exists(self):
        config = MovieExperimentConfig.paper_scale()
        assert config.n_movies == 10_562
        assert config.n_factors == 100


class TestCrowdQuality:
    def test_three_rows_in_order(self, crowd_outcome):
        labels = [row.experiment for row in crowd_outcome.rows]
        assert labels == ["Exp. 1: All", "Exp. 2: Trusted", "Exp. 3: Lookup"]

    def test_accuracy_ordering_matches_paper(self, crowd_outcome):
        exp1, exp2, exp3 = crowd_outcome.rows
        assert exp1.percent_correct < exp2.percent_correct < exp3.percent_correct
        assert exp3.percent_correct > 0.9

    def test_lookup_experiment_is_slowest(self, crowd_outcome):
        exp1, _exp2, exp3 = crowd_outcome.rows
        assert exp3.minutes > exp1.minutes

    def test_costs_and_judgments_positive(self, crowd_outcome):
        for row in crowd_outcome.rows:
            assert row.cost > 0
            assert row.judgments > 0
            assert 0 < row.n_classified <= row.n_items

    def test_runs_returned_for_boosting(self, crowd_outcome):
        assert set(crowd_outcome.runs) == {"exp1", "exp2", "exp3"}

    def test_render_table1(self, crowd_outcome):
        text = render_table1(crowd_outcome.rows)
        assert "Exp. 1: All" in text
        assert "%Correct" in text


class TestBoosting:
    def test_series_structure(self, movie_context, crowd_outcome):
        series = run_boosting_experiments(movie_context, crowd_outcome, retrain_every_minutes=15)
        assert len(series) == 3
        for entry in series:
            assert entry.points, "every series needs at least one checkpoint"
            final = entry.final_point
            assert final.relative_time == pytest.approx(1.0, abs=1e-6)
            assert final.cost > 0

    def test_boosting_beats_crowd_at_the_end(self, movie_context, crowd_outcome):
        series = run_boosting_experiments(movie_context, crowd_outcome, retrain_every_minutes=15)
        # Experiments 4 and 5 (boosting Exp 1/2): the extractor classifies
        # every item, so it should beat the partial crowd coverage.
        for entry in series[:2]:
            final = entry.final_point
            assert final.boosted_correct > final.crowd_correct

    def test_series_render_and_accessors(self, movie_context, crowd_outcome):
        series = run_boosting_experiments(movie_context, crowd_outcome, retrain_every_minutes=20)
        over_time = series[0].correct_over_time()
        over_money = series[0].correct_over_money()
        assert len(over_time) == len(series[0].points)
        assert len(over_money) == len(series[0].points)
        text = render_boosting_series(series)
        assert "boosted correct" in text


class TestSmallSamples:
    @pytest.fixture(scope="class")
    def rows(self, movie_context):
        return run_small_sample_experiment(
            movie_context,
            n_values=(5, 10),
            n_repetitions=2,
            genres=["Comedy", "Horror"],
            seed=11,
        )

    def test_row_structure(self, rows):
        assert [row.genre for row in rows] == ["Comedy", "Horror", "Mean"]
        for row in rows:
            assert set(row.perceptual) == {5, 10}
            assert set(row.metadata) == {5, 10}

    def test_perceptual_space_beats_metadata_space(self, rows):
        mean_row = rows[-1]
        assert mean_row.perceptual[10] > mean_row.metadata[10]
        assert mean_row.perceptual[10] > 0.55

    def test_gmean_grows_with_sample_size(self, rows):
        mean_row = rows[-1]
        assert mean_row.perceptual[10] >= mean_row.perceptual[5] - 0.05

    def test_reference_columns_present(self, rows):
        assert set(rows[0].reference) == {"Netflix", "RottenTomatoes", "IMDb"}

    def test_render_table3(self, rows):
        text = render_table3(rows, n_values=(5, 10))
        assert "Perc n=10" in text
        assert "Mean" in text


class TestQuestionable:
    @pytest.fixture(scope="class")
    def rows(self, movie_context):
        return run_questionable_experiment(
            movie_context,
            noise_levels=(0.1, 0.2),
            n_repetitions=1,
            genres=["Comedy"],
            seed=29,
        )

    def test_row_structure(self, rows):
        assert [row.genre for row in rows] == ["Comedy", "Mean"]
        assert set(rows[0].perceptual) == {10, 20}

    def test_perceptual_space_beats_metadata(self, rows):
        mean_row = rows[-1]
        perceptual_recall = mean_row.perceptual[20][1]
        metadata_recall = mean_row.metadata[20][1]
        assert perceptual_recall > metadata_recall

    def test_values_are_probabilities(self, rows):
        for row in rows:
            for precision, recall in list(row.perceptual.values()) + list(row.metadata.values()):
                if not math.isnan(precision):
                    assert 0.0 <= precision <= 1.0
                if not math.isnan(recall):
                    assert 0.0 <= recall <= 1.0

    def test_render_table4(self, rows):
        text = render_table4(rows, noise_keys=(10, 20))
        assert "Perc x=10%" in text


class TestNeighbors:
    def test_showcase_structure(self, movie_context):
        columns, purity = run_nearest_neighbor_showcase(movie_context, n_anchors=3, k=5)
        assert len(columns) == 3
        for column in columns:
            assert len(column.neighbors) == 5
            assert column.anchor_id not in [n for n, _name, _d in column.neighbors]
            distances = [d for _n, _name, d in column.neighbors]
            assert distances == sorted(distances)
        assert 0.0 <= purity <= 1.0

    def test_purity_beats_random_guessing(self, movie_context):
        _columns, purity = run_nearest_neighbor_showcase(movie_context)
        prevalence = np.mean(list(movie_context.reference_labels("Comedy").values()))
        random_purity = prevalence**2 + (1 - prevalence) ** 2
        assert purity > random_purity

    def test_render_table2(self, movie_context):
        columns, purity = run_nearest_neighbor_showcase(movie_context)
        text = render_table2(columns, purity)
        assert "Nearest neighbours" in text


class TestOtherDomains:
    def test_restaurants_rows(self):
        rows = run_other_domain_experiment(
            "restaurants",
            n_values=(10, 20),
            n_repetitions=1,
            categories=["Category: Fast Food", "Ambience: Trendy"],
            scale=small_scale("restaurants"),
            seed=41,
        )
        assert [row.category for row in rows][-1] == "Mean"
        mean_row = rows[-1]
        assert mean_row.gmeans[20] > 0.5

    def test_boardgames_perceptual_beats_factual(self):
        rows = run_other_domain_experiment(
            "board_games",
            n_values=(20,),
            n_repetitions=2,
            categories=["Party Game", "Modular Board"],
            scale=small_scale("board_games"),
            seed=41,
        )
        by_name = {row.category: row for row in rows}
        assert by_name["Party Game"].gmeans[20] > by_name["Modular Board"].gmeans[20]

    def test_unknown_domain(self):
        with pytest.raises(ExperimentError):
            run_other_domain_experiment("airlines")
        with pytest.raises(ExperimentError):
            get_domain_context("airlines")
        with pytest.raises(ExperimentError):
            small_scale("airlines")

    def test_render_other_domain_table(self):
        rows = run_other_domain_experiment(
            "restaurants",
            n_values=(10,),
            n_repetitions=1,
            categories=["Good For Kids"],
            scale=small_scale("restaurants"),
            seed=3,
        )
        text = render_other_domain_table(rows, title="Table 5", n_values=(10,))
        assert "Table 5" in text


class TestTSVMComparison:
    def test_comparison_rows(self, movie_context):
        rows = run_tsvm_comparison(movie_context, genres=["Comedy"], n_per_class=10, seed=47)
        assert len(rows) == 1
        row = rows[0]
        assert row.tsvm_seconds > row.svm_seconds
        assert row.slowdown > 1.0
        assert abs(row.svm_gmean - row.tsvm_gmean) < 0.35
        text = render_tsvm_rows(rows)
        assert "TSVM" in text
