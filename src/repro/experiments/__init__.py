"""Experiment harness reproducing every table and figure of the paper.

Each module corresponds to one experiment of Section 4 (or Section 5) and
produces the same rows/series the paper reports.  The benchmarks in
``benchmarks/`` and the examples in ``examples/`` are thin wrappers around
these functions; the heavy shared state (synthetic corpus, perceptual
space, metadata space) is built once per process by
:mod:`repro.experiments.context`.
"""

from repro.experiments.context import (
    MovieExperimentConfig,
    MovieExperimentContext,
    get_movie_context,
)
from repro.experiments.crowd_quality import CrowdQualityRow, run_crowd_quality_experiments
from repro.experiments.neighbors import NeighborColumn, run_nearest_neighbor_showcase
from repro.experiments.boosting import BoostingSeries, run_boosting_experiments
from repro.experiments.small_samples import SmallSampleRow, run_small_sample_experiment
from repro.experiments.questionable import QuestionableRow, run_questionable_experiment
from repro.experiments.other_domains import OtherDomainRow, run_other_domain_experiment
from repro.experiments.tsvm_comparison import TSVMComparisonRow, run_tsvm_comparison

__all__ = [
    "BoostingSeries",
    "CrowdQualityRow",
    "MovieExperimentConfig",
    "MovieExperimentContext",
    "NeighborColumn",
    "OtherDomainRow",
    "QuestionableRow",
    "SmallSampleRow",
    "TSVMComparisonRow",
    "get_movie_context",
    "run_boosting_experiments",
    "run_crowd_quality_experiments",
    "run_nearest_neighbor_showcase",
    "run_other_domain_experiment",
    "run_questionable_experiment",
    "run_small_sample_experiment",
    "run_tsvm_comparison",
]
