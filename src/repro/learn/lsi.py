"""Latent Semantic Indexing over item metadata (the paper's baseline space).

Section 4.3 compares the perceptual space against an "information space
spanned by ordinary movie metadata", built by applying LSI to attributes
like title, plot, actors, director, year and country.  This module provides
the TF-IDF vectoriser and truncated-SVD projection needed to reproduce that
baseline (and its failure: perceptual attributes simply are not encoded in
factual metadata).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import LearningError, NotFittedError

if TYPE_CHECKING:
    from scipy import sparse

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def tokenize_text(text: str) -> list[str]:
    """Lower-case word tokenizer used for metadata documents."""
    return _TOKEN_PATTERN.findall(text.lower())


class TfIdfVectorizer:
    """Sparse TF-IDF document-term matrix builder."""

    def __init__(self, *, min_document_frequency: int = 1, max_features: int | None = None) -> None:
        if min_document_frequency < 1:
            raise LearningError("min_document_frequency must be at least 1")
        self.min_document_frequency = min_document_frequency
        self.max_features = max_features
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    def fit(self, documents: Sequence[str]) -> "TfIdfVectorizer":
        """Learn the vocabulary and inverse document frequencies."""
        if not documents:
            raise LearningError("cannot fit a vectorizer on zero documents")
        document_frequency: Counter[str] = Counter()
        for document in documents:
            document_frequency.update(set(tokenize_text(document)))
        terms = [
            term
            for term, frequency in document_frequency.items()
            if frequency >= self.min_document_frequency
        ]
        terms.sort(key=lambda term: (-document_frequency[term], term))
        if self.max_features is not None:
            terms = terms[: self.max_features]
        if not terms:
            raise LearningError("vocabulary is empty after frequency filtering")
        self.vocabulary_ = {term: index for index, term in enumerate(sorted(terms))}
        n_documents = len(documents)
        idf = np.zeros(len(self.vocabulary_))
        for term, index in self.vocabulary_.items():
            idf[index] = math.log((1 + n_documents) / (1 + document_frequency[term])) + 1.0
        self.idf_ = idf
        return self

    def transform(self, documents: Sequence[str]) -> sparse.csr_matrix:
        """Transform documents into an L2-normalised TF-IDF matrix."""
        from scipy import sparse  # only the LSI baseline needs scipy

        if self.vocabulary_ is None or self.idf_ is None:
            raise NotFittedError(self)
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        for row, document in enumerate(documents):
            counts = Counter(
                self.vocabulary_[token]
                for token in tokenize_text(document)
                if token in self.vocabulary_
            )
            if not counts:
                continue
            total = sum(counts.values())
            for column, count in counts.items():
                rows.append(row)
                cols.append(column)
                values.append((count / total) * self.idf_[column])
        matrix = sparse.csr_matrix(
            (values, (rows, cols)), shape=(len(documents), len(self.vocabulary_))
        )
        # L2-normalise rows so documents of different lengths are comparable.
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A1
        norms[norms == 0.0] = 1.0
        scaling = sparse.diags(1.0 / norms)
        return scaling @ matrix

    def fit_transform(self, documents: Sequence[str]) -> sparse.csr_matrix:
        """Fit on *documents* and return their TF-IDF matrix."""
        return self.fit(documents).transform(documents)


class LatentSemanticIndex:
    """Truncated-SVD projection of TF-IDF metadata documents.

    ``fit`` learns the projection; ``transform`` maps documents into the
    latent "metadata space" whose dimensionality matches the perceptual
    space (the paper uses 100 dimensions for both).
    """

    def __init__(
        self,
        n_components: int = 100,
        *,
        min_document_frequency: int = 1,
        max_features: int | None = None,
    ) -> None:
        if n_components <= 0:
            raise LearningError("n_components must be positive")
        self.n_components = n_components
        self.vectorizer = TfIdfVectorizer(
            min_document_frequency=min_document_frequency, max_features=max_features
        )
        self.components_: np.ndarray | None = None
        self.singular_values_: np.ndarray | None = None

    def fit(self, documents: Sequence[str]) -> "LatentSemanticIndex":
        """Fit the TF-IDF vocabulary and the truncated SVD."""
        from scipy.sparse.linalg import svds

        matrix = self.vectorizer.fit_transform(documents)
        k = min(self.n_components, min(matrix.shape) - 1)
        if k <= 0:
            raise LearningError(
                "not enough documents/terms for the requested number of components"
            )
        # A fixed starting vector keeps the decomposition deterministic
        # (ARPACK otherwise seeds it from the global RNG).
        v0 = np.full(min(matrix.shape), 1.0 / np.sqrt(min(matrix.shape)))
        _, singular_values, vt = svds(matrix.asfptype(), k=k, v0=v0)
        # svds returns singular values in ascending order; flip for convention.
        order = np.argsort(singular_values)[::-1]
        self.singular_values_ = singular_values[order]
        self.components_ = vt[order]
        return self

    def transform(self, documents: Sequence[str]) -> np.ndarray:
        """Project documents into the latent space (n_documents x k)."""
        if self.components_ is None:
            raise NotFittedError(self)
        matrix = self.vectorizer.transform(documents)
        return matrix @ self.components_.T

    def fit_transform(self, documents: Sequence[str]) -> np.ndarray:
        """Fit the index and return the projected documents."""
        return self.fit(documents).transform(documents)


def build_metadata_documents(
    metadata: Mapping[int, Mapping[str, object]],
    *,
    fields: Iterable[str] | None = None,
) -> tuple[list[int], list[str]]:
    """Flatten per-item metadata dicts into text documents.

    Returns the item ids and their documents in a stable order, ready for
    :class:`LatentSemanticIndex`.
    """
    item_ids = sorted(int(item_id) for item_id in metadata)
    documents = []
    for item_id in item_ids:
        record = metadata[item_id]
        keys = list(fields) if fields is not None else sorted(record)
        parts = []
        for key in keys:
            value = record.get(key)
            if value is None:
                continue
            if isinstance(value, (list, tuple, set)):
                parts.extend(str(v) for v in value)
            else:
                parts.append(str(value))
        documents.append(" ".join(parts))
    return item_ids, documents
