"""Shared fixtures for the test suite.

Heavy artefacts (corpora, perceptual spaces, the experiment context) are
session-scoped so the several hundred tests stay fast; everything is built
from fixed seeds so failures are reproducible.
"""

from __future__ import annotations

import logging
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.datasets.movies import build_movie_corpus

# Hypothesis profiles: the default CI runs keep the stock example budget;
# the nightly deep-tests workflow selects the exhaustive profile with
# ``--hypothesis-profile=nightly`` (deadlines off: shared session fixtures
# make first-example wall-clock noisy on CI runners).
settings.register_profile("ci", settings.default)
settings.register_profile(
    "nightly",
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
from repro.db.connection import Connection
from repro.experiments.context import MovieExperimentConfig, get_movie_context
from repro.perceptual.euclidean_embedding import EuclideanEmbeddingModel
from repro.perceptual.factorization import FactorModelConfig
from repro.perceptual.ratings import RatingDataset


@pytest.fixture(scope="session")
def movie_context():
    """The small movie experiment context shared by experiment tests."""
    return get_movie_context(MovieExperimentConfig.small())


@pytest.fixture(scope="session")
def small_corpus():
    """A small synthetic movie corpus for dataset and core tests."""
    return build_movie_corpus(n_movies=200, n_users=500, ratings_per_user=30, seed=0)


@pytest.fixture(scope="session")
def small_space(small_corpus):
    """A perceptual space trained on the small corpus."""
    model = EuclideanEmbeddingModel(
        FactorModelConfig(n_factors=12, n_epochs=10, seed=0)
    )
    model.fit(small_corpus.ratings)
    return model.to_space()


@pytest.fixture(scope="session")
def tiny_ratings():
    """A tiny deterministic rating dataset (structured, not random)."""
    rng = np.random.default_rng(7)
    items = rng.integers(1, 61, size=4000)
    users = rng.integers(1, 201, size=4000)
    scores = np.clip(np.rint(rng.normal(3.5, 1.0, size=4000)), 1, 5)
    return RatingDataset(items, users, scores)


@pytest.fixture
def movies_db() -> Connection:
    """A fresh connection with a small movies table."""
    db = Connection()
    db.run_statement(
        "CREATE TABLE movies ("
        " movie_id INTEGER PRIMARY KEY,"
        " name TEXT NOT NULL,"
        " year INTEGER,"
        " rating REAL,"
        " humor REAL PERCEPTUAL)"
    )
    db.run_statement(
        "INSERT INTO movies (movie_id, name, year, rating) VALUES "
        "(1, 'Rocky', 1976, 8.1), "
        "(2, 'Psycho', 1960, 8.5), "
        "(3, 'Airplane!', 1980, 7.7), "
        "(4, 'Vertigo', 1958, 8.3), "
        "(5, 'Dirty Dancing', 1987, 7.0)"
    )
    return db


@pytest.fixture
def blob_classification_data():
    """Two separable Gaussian blobs for classifier tests."""
    rng = np.random.default_rng(3)
    n = 60
    X = np.vstack([rng.normal(0.0, 1.0, (n, 6)), rng.normal(2.2, 1.0, (n, 6))])
    y = np.array([False] * n + [True] * n)
    return X, y


def _server_loop_error(record: logging.LogRecord) -> bool:
    """True for a record saying a served request died in the server."""
    return (
        record.levelno >= logging.ERROR
        and record.name == "repro.server"
        and "unexpected error handling" in record.getMessage()
    )


@pytest.fixture
def fail_on_server_loop_errors(caplog, monkeypatch):
    """Fail a served test whose server hit an unhandled exception.

    That is a request the server logged as an unexpected error, or a
    server thread (the accept loop or a connection's thread, both named
    ``repro-*``) that died with an uncaught exception.  The client of such
    a request sees a dropped connection or an untyped error, which the
    test's own assertions may not notice.
    """
    died: list[str] = []
    previous = threading.excepthook

    def record_server_thread_death(args: threading.ExceptHookArgs) -> None:
        if args.thread is not None and args.thread.name.startswith("repro-"):
            died.append(f"{args.thread.name}: {args.exc_type.__name__}: {args.exc_value}")
        previous(args)

    monkeypatch.setattr(threading, "excepthook", record_server_thread_death)
    yield
    errors = died + [
        record.getMessage()
        for phase in ("setup", "call")
        for record in caplog.get_records(phase)
        if _server_loop_error(record)
    ]
    if errors:
        pytest.fail(f"the server logged or died with: {errors}")


@pytest.fixture(autouse=True)
def _served_tests_fail_on_server_loop_errors(request):
    """Every test under ``tests/server/`` runs :func:`fail_on_server_loop_errors`."""
    if request.node.path.parent.name == "server":
        request.getfixturevalue("fail_on_server_loop_errors")
