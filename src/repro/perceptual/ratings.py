"""Rating-data container used to build perceptual spaces.

A rating is a triple ``(item_id, user_id, score)`` exactly as in the paper
(Section 3.3).  :class:`RatingDataset` stores a large number of such
triples column-wise in numpy arrays and maps external identifiers to
dense indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import PerceptualSpaceError, UnknownItemError, UnknownUserError


@dataclass(frozen=True)
class Rating:
    """A single rating triple."""

    item_id: int
    user_id: int
    score: float


class RatingDataset:
    """Column-wise storage of rating triples with dense index mappings."""

    def __init__(
        self,
        item_ids: Sequence[int] | np.ndarray,
        user_ids: Sequence[int] | np.ndarray,
        scores: Sequence[float] | np.ndarray,
        *,
        scale: tuple[float, float] = (1.0, 5.0),
    ) -> None:
        item_ids = np.asarray(item_ids, dtype=np.int64)
        user_ids = np.asarray(user_ids, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if not (len(item_ids) == len(user_ids) == len(scores)):
            raise PerceptualSpaceError(
                "item_ids, user_ids and scores must have the same length"
            )
        if len(item_ids) == 0:
            raise PerceptualSpaceError("a rating dataset must contain at least one rating")
        if scale[0] >= scale[1]:
            raise PerceptualSpaceError(f"invalid rating scale {scale}")

        self.scale = (float(scale[0]), float(scale[1]))

        unique_items, item_index = np.unique(item_ids, return_inverse=True)
        unique_users, user_index = np.unique(user_ids, return_inverse=True)
        self._item_ids = unique_items
        self._user_ids = unique_users
        self.item_index = item_index.astype(np.int64)
        self.user_index = user_index.astype(np.int64)
        self.scores = scores
        self._item_id_to_index = {int(i): k for k, i in enumerate(unique_items)}
        self._user_id_to_index = {int(u): k for k, u in enumerate(unique_users)}

    # -- constructors -------------------------------------------------------------

    # -- basic properties ----------------------------------------------------------

    @property
    def n_ratings(self) -> int:
        """Number of rating triples."""
        return len(self.scores)

    @property
    def n_items(self) -> int:
        """Number of distinct items."""
        return len(self._item_ids)

    @property
    def n_users(self) -> int:
        """Number of distinct users."""
        return len(self._user_ids)

    @property
    def item_ids(self) -> np.ndarray:
        """External item identifiers (sorted)."""
        return self._item_ids

    @property
    def user_ids(self) -> np.ndarray:
        """External user identifiers (sorted)."""
        return self._user_ids

    @property
    def global_mean(self) -> float:
        """Average of all rating scores (the paper's μ)."""
        return float(self.scores.mean())

    @property
    def density(self) -> float:
        """Fraction of the item x user matrix that is observed."""
        return self.n_ratings / (self.n_items * self.n_users)

    def __len__(self) -> int:
        return self.n_ratings

    def __iter__(self) -> Iterator[Rating]:
        for k in range(self.n_ratings):
            yield Rating(
                item_id=int(self._item_ids[self.item_index[k]]),
                user_id=int(self._user_ids[self.user_index[k]]),
                score=float(self.scores[k]),
            )

    def __repr__(self) -> str:
        return (
            f"RatingDataset(n_items={self.n_items}, n_users={self.n_users}, "
            f"n_ratings={self.n_ratings}, density={self.density:.4f})"
        )

    # -- index mapping ---------------------------------------------------------------

    def item_position(self, item_id: int) -> int:
        """Dense index of *item_id* (raises if unknown)."""
        try:
            return self._item_id_to_index[int(item_id)]
        except KeyError as exc:
            raise UnknownItemError(item_id) from exc

    def user_position(self, user_id: int) -> int:
        """Dense index of *user_id* (raises if unknown)."""
        try:
            return self._user_id_to_index[int(user_id)]
        except KeyError as exc:
            raise UnknownUserError(user_id) from exc

    # -- statistics ---------------------------------------------------------------------

    def item_rating_counts(self) -> np.ndarray:
        """Number of ratings per item (aligned with :attr:`item_ids`)."""
        return np.bincount(self.item_index, minlength=self.n_items)

    def user_rating_counts(self) -> np.ndarray:
        """Number of ratings per user (aligned with :attr:`user_ids`)."""
        return np.bincount(self.user_index, minlength=self.n_users)

    def item_means(self) -> np.ndarray:
        """Average score per item (items without ratings cannot occur)."""
        sums = np.bincount(self.item_index, weights=self.scores, minlength=self.n_items)
        counts = self.item_rating_counts()
        return sums / np.maximum(counts, 1)

    def user_means(self) -> np.ndarray:
        """Average score per user."""
        sums = np.bincount(self.user_index, weights=self.scores, minlength=self.n_users)
        counts = self.user_rating_counts()
        return sums / np.maximum(counts, 1)

    # -- transformations -------------------------------------------------------------------

    def _take(self, indices: np.ndarray) -> "RatingDataset":
        return RatingDataset(
            self._item_ids[self.item_index[indices]],
            self._user_ids[self.user_index[indices]],
            self.scores[indices],
            scale=self.scale,
        )

    def take(self, indices: np.ndarray) -> "RatingDataset":
        """Return the sub-dataset at the given rating indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise PerceptualSpaceError("cannot take an empty index set")
        return self._take(indices)
