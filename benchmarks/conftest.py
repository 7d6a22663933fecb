"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The rendered
tables are printed and also written to ``benchmarks/results/<name>.txt`` so
they survive pytest's output capturing.  Those files are committed at the
``default`` scale and hold only deterministic rows (counts and sizes);
wall-clock timings, speedups and RSS go to ``BENCH_results.json`` instead,
so a run leaves the committed files as they were.  Runs at another scale
write their tables under ``benchmarks/results/<scale>/``.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:
``small`` (quick smoke run), ``default`` (the standard reproduction scale)
or ``paper`` (approximates the paper's full corpus size; slow).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.context import MovieExperimentConfig, get_movie_context
from repro.experiments.crowd_quality import run_crowd_quality_experiments

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable benchmark metrics (speedup ratios per ablation),
#: consumed by ``benchmarks/compare_baselines.py`` and CI's
#: ``bench-regression`` job.
BENCH_RESULTS_PATH = RESULTS_DIR / "BENCH_results.json"


def bench_scale() -> str:
    """The benchmark scale selected via REPRO_BENCH_SCALE."""
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower()


def bench_config() -> MovieExperimentConfig:
    """Movie-experiment configuration for the selected scale."""
    scale = bench_scale()
    if scale == "small":
        return MovieExperimentConfig.small()
    if scale == "paper":
        return MovieExperimentConfig.paper_scale()
    return MovieExperimentConfig()


@pytest.fixture(scope="session")
def movie_context():
    """The movie experiment context shared by all movie benchmarks."""
    return get_movie_context(bench_config())


@pytest.fixture(scope="session")
def crowd_outcome(movie_context):
    """Experiments 1-3 runs, shared between the Table 1 and Figure 3/4 benches."""
    return run_crowd_quality_experiments(movie_context, seed=17)


@pytest.fixture(scope="session")
def report_writer():
    """Callable writing a rendered table to stdout and benchmarks/results/
    (``benchmarks/results/<scale>/`` below any scale but the default)."""
    scale = bench_scale()
    directory = RESULTS_DIR if scale == "default" else RESULTS_DIR / scale
    directory.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (directory / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return write


@pytest.fixture(scope="session")
def repetitions() -> int:
    """Number of random repetitions per cell (the paper uses 20)."""
    return {"small": 2, "paper": 20}.get(bench_scale(), 3)


@pytest.fixture(scope="session")
def metric_writer():
    """Callable recording one named metric into ``BENCH_results.json``.

    The file is rewritten after every recorded metric (not at session
    teardown), so a crashed or ``-x``-interrupted run still leaves the
    metrics it produced on disk for the regression gate to inspect.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    # Start each session clean so renamed/removed metrics cannot linger
    # from an earlier run and mask a regression.
    BENCH_RESULTS_PATH.unlink(missing_ok=True)

    def record(name: str, value: float) -> None:
        document = {"scale": bench_scale(), "metrics": {}}
        if BENCH_RESULTS_PATH.exists():
            try:
                document = json.loads(BENCH_RESULTS_PATH.read_text(encoding="utf-8"))
            except ValueError:
                pass  # a torn previous write must not fail the benchmark
        document["scale"] = bench_scale()
        document.setdefault("metrics", {})[name] = round(float(value), 4)
        BENCH_RESULTS_PATH.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    return record
