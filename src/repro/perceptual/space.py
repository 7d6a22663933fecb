"""The perceptual space: item coordinates with similarity queries.

The space is what the schema-expansion layer consumes: a matrix of item
coordinates whose Euclidean geometry encodes the aggregated perception of
all raters.  It offers the operations the paper relies on — looking up item
vectors for classifier features, nearest-neighbour queries (Table 2) and
pairwise distances.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PerceptualSpaceError, UnknownItemError


class PerceptualSpace:
    """Item coordinates in R^d plus identifier bookkeeping."""

    def __init__(
        self,
        item_ids: Sequence[int],
        coordinates: np.ndarray,
        *,
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        coordinates = np.asarray(coordinates, dtype=np.float64)
        if coordinates.ndim != 2:
            raise PerceptualSpaceError("coordinates must be a 2-d array")
        if len(item_ids) != coordinates.shape[0]:
            raise PerceptualSpaceError(
                f"{len(item_ids)} item ids but {coordinates.shape[0]} coordinate rows"
            )
        if len({int(i) for i in item_ids}) != len(item_ids):
            raise PerceptualSpaceError("item ids must be unique")
        self._item_ids = [int(i) for i in item_ids]
        self._coordinates = coordinates
        self._index = {item_id: position for position, item_id in enumerate(self._item_ids)}
        self.metadata = dict(metadata or {})

    # -- basic properties -----------------------------------------------------------

    @property
    def n_items(self) -> int:
        """Number of items in the space."""
        return len(self._item_ids)

    @property
    def n_dimensions(self) -> int:
        """Dimensionality d of the space."""
        return self._coordinates.shape[1]

    @property
    def item_ids(self) -> list[int]:
        """All item identifiers (in coordinate-row order)."""
        return list(self._item_ids)

    @property
    def coordinates(self) -> np.ndarray:
        """The full coordinate matrix (n_items x d); do not mutate."""
        return self._coordinates

    def __contains__(self, item_id: int) -> bool:
        return int(item_id) in self._index

    def __len__(self) -> int:
        return self.n_items

    def __repr__(self) -> str:
        return f"PerceptualSpace(n_items={self.n_items}, d={self.n_dimensions})"

    # -- lookups ----------------------------------------------------------------------

    def position(self, item_id: int) -> int:
        """Row index of *item_id* in the coordinate matrix."""
        try:
            return self._index[int(item_id)]
        except KeyError as exc:
            raise UnknownItemError(item_id) from exc

    def vector(self, item_id: int) -> np.ndarray:
        """Coordinate vector of *item_id*."""
        return self._coordinates[self.position(item_id)]

    def vectors(self, item_ids: Iterable[int]) -> np.ndarray:
        """Matrix of coordinate vectors for *item_ids* (in the given order)."""
        rows = [self.position(item_id) for item_id in item_ids]
        return self._coordinates[rows]

    # -- geometry -----------------------------------------------------------------------

    def distance(self, first_item: int, second_item: int) -> float:
        """Euclidean distance between two items."""
        return float(np.linalg.norm(self.vector(first_item) - self.vector(second_item)))

    def distances_from(self, item_id: int) -> np.ndarray:
        """Distances from *item_id* to every item (aligned with :attr:`item_ids`)."""
        diff = self._coordinates - self.vector(item_id)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def nearest_neighbors(
        self, item_id: int, k: int = 5, *, exclude_self: bool = True
    ) -> list[tuple[int, float]]:
        """The *k* items closest to *item_id* as ``(item_id, distance)`` pairs."""
        if k <= 0:
            raise PerceptualSpaceError("k must be positive")
        distances = self.distances_from(item_id)
        order = np.argsort(distances, kind="stable")
        neighbors: list[tuple[int, float]] = []
        own_position = self.position(item_id)
        for position in order:
            if exclude_self and position == own_position:
                continue
            neighbors.append((self._item_ids[position], float(distances[position])))
            if len(neighbors) == k:
                break
        return neighbors

    # -- derived spaces -------------------------------------------------------------------

    def with_metadata(self, **entries: Any) -> "PerceptualSpace":
        """Return a copy of the space with extra metadata entries."""
        metadata = dict(self.metadata)
        metadata.update(entries)
        return PerceptualSpace(self._item_ids, self._coordinates.copy(), metadata=metadata)
