"""Tests for TF-IDF vectorisation and latent semantic indexing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import LearningError, NotFittedError
from repro.learn.lsi import (
    LatentSemanticIndex,
    TfIdfVectorizer,
    build_metadata_documents,
    tokenize_text,
)

DOCUMENTS = [
    "action hero explosion fight chase",
    "romantic love story wedding kiss",
    "action fight war battle soldier",
    "love romance heartbreak wedding",
    "space alien laser action battle",
    "comedy love laughter wedding party",
] * 3


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize_text("Hello, World! 42") == ["hello", "world", "42"]

    def test_empty_text(self):
        assert tokenize_text("...") == []


class TestTfIdfVectorizer:
    def test_fit_transform_shape(self):
        matrix = TfIdfVectorizer().fit_transform(DOCUMENTS)
        assert matrix.shape[0] == len(DOCUMENTS)
        assert matrix.shape[1] > 0

    def test_rows_are_l2_normalised(self):
        matrix = TfIdfVectorizer().fit_transform(DOCUMENTS)
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A1
        nonzero = norms > 0
        assert np.allclose(norms[nonzero], 1.0)

    def test_min_document_frequency_prunes_rare_terms(self):
        full = TfIdfVectorizer(min_document_frequency=1).fit(DOCUMENTS)
        pruned = TfIdfVectorizer(min_document_frequency=4).fit(DOCUMENTS)
        assert len(pruned.vocabulary_) < len(full.vocabulary_)

    def test_max_features(self):
        vectorizer = TfIdfVectorizer(max_features=5).fit(DOCUMENTS)
        assert len(vectorizer.vocabulary_) == 5

    def test_unknown_tokens_ignored_at_transform(self):
        vectorizer = TfIdfVectorizer().fit(DOCUMENTS)
        matrix = vectorizer.transform(["completely unseen words"])
        assert matrix.nnz == 0

    def test_unfitted_transform(self):
        with pytest.raises(NotFittedError):
            TfIdfVectorizer().transform(["x"])

    def test_empty_corpus(self):
        with pytest.raises(LearningError):
            TfIdfVectorizer().fit([])

    def test_invalid_min_document_frequency(self):
        with pytest.raises(LearningError):
            TfIdfVectorizer(min_document_frequency=0)


class TestLatentSemanticIndex:
    def test_projection_shape(self):
        lsi = LatentSemanticIndex(n_components=4).fit(DOCUMENTS)
        projected = lsi.transform(DOCUMENTS)
        assert projected.shape == (len(DOCUMENTS), 4)

    def test_components_capped_by_matrix_rank(self):
        lsi = LatentSemanticIndex(n_components=100).fit(DOCUMENTS[:6])
        assert lsi.components_.shape[0] < 100

    def test_similar_documents_are_close(self):
        lsi = LatentSemanticIndex(n_components=3).fit(DOCUMENTS)
        projected = lsi.transform(
            ["action fight battle", "love wedding romance", "war battle action"]
        )
        action_to_action = np.linalg.norm(projected[0] - projected[2])
        action_to_love = np.linalg.norm(projected[0] - projected[1])
        assert action_to_action < action_to_love

    def test_fit_transform_equivalent_to_fit_then_transform(self):
        first = LatentSemanticIndex(n_components=3).fit_transform(DOCUMENTS)
        lsi = LatentSemanticIndex(n_components=3).fit(DOCUMENTS)
        second = lsi.transform(DOCUMENTS)
        assert np.allclose(np.abs(first), np.abs(second), atol=1e-8)

    def test_invalid_components(self):
        with pytest.raises(LearningError):
            LatentSemanticIndex(n_components=0)

    def test_unfitted_transform(self):
        with pytest.raises(NotFittedError):
            LatentSemanticIndex().transform(["x"])


class TestBuildMetadataDocuments:
    def test_flattening(self):
        metadata = {
            2: {"title": "Rocky", "year": 1976, "actors": ["Stallone", "Shire"]},
            1: {"title": "Psycho", "year": 1960, "actors": ["Perkins"]},
        }
        item_ids, documents = build_metadata_documents(metadata)
        assert item_ids == [1, 2]
        assert "Psycho" in documents[0]
        assert "Stallone" in documents[1]
        assert "1976" in documents[1]

    def test_field_selection(self):
        metadata = {1: {"title": "Rocky", "secret": "hidden"}}
        _ids, documents = build_metadata_documents(metadata, fields=["title"])
        assert "hidden" not in documents[0]

    def test_none_values_skipped(self):
        metadata = {1: {"title": None, "year": 2000}}
        _ids, documents = build_metadata_documents(metadata)
        assert documents[0].strip() == "2000"


def test_importing_the_package_does_not_load_scipy():
    """Only the LSI baseline needs scipy; importing the engine must not pay for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = "import sys, repro, repro.server; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
