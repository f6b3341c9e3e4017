"""The two data structures at the heart of delayed-aggregation.

* The **Neighbor Index Table (NIT)** is produced by neighbor search: one
  row per centroid holding the indices of its K neighbors.  In Mesorasi
  hardware it lives in a double-buffered SRAM (Fig 14).
* The **Point Feature Table (PFT)** is produced by feature computation:
  one row per *input* point holding its Mout-dimensional feature vector.
  In Mesorasi hardware it lives in a banked, crossbar-free SRAM.

These containers are shared between the algorithmic layer
(:mod:`repro.core.module`) and the hardware layer
(:mod:`repro.hw.aggregation_unit`), which consumes their shapes and
index streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NeighborIndexTable", "PointFeatureTable"]

_INDEX_BITS = 12  # per §VI: 64 neighbor indices at 12 bits each per entry


@dataclass
class NeighborIndexTable:
    """(n_centroids, k) neighbor indices plus the centroid ids."""

    indices: np.ndarray
    centroids: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.centroids = np.asarray(self.centroids, dtype=np.int64)
        if self.indices.ndim != 2:
            raise ValueError("NIT indices must be (n_centroids, k)")
        if len(self.centroids) != len(self.indices):
            raise ValueError("one centroid id per NIT row is required")

    @property
    def n_centroids(self):
        return self.indices.shape[0]

    @property
    def k(self):
        return self.indices.shape[1]

    def entry(self, row):
        """Neighbor indices of one centroid (one NIT buffer entry)."""
        return self.indices[row]

    def size_bytes(self, index_bits=_INDEX_BITS):
        """Storage footprint with packed indices, as budgeted in §VI."""
        bits = self.indices.size * index_bits
        return (bits + 7) // 8

    def max_index(self):
        return int(self.indices.max()) if self.indices.size else 0


@dataclass
class PointFeatureTable:
    """(n_points, feature_dim) feature matrix — MLP output per point."""

    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("PFT must be (n_points, feature_dim)")

    @property
    def n_points(self):
        return self.features.shape[0]

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def size_bytes(self, bytes_per_element=4):
        return self.features.size * bytes_per_element

    def gather(self, nit):
        """Gather neighbor feature vectors: (n_centroids, k, feature_dim)."""
        if nit.max_index() >= self.n_points:
            raise IndexError("NIT references a point beyond the PFT")
        return self.features[nit.indices]

    def column_partitions(self, n_partitions):
        """Column-major partitioning (Fig 15): split features column-wise.

        Returns a list of (start, stop) column ranges.  Every partition
        holds *all* rows, so all neighbors of any centroid are present
        within a partition — the property row-major partitioning lacks.
        """
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if n_partitions > self.feature_dim:
            raise ValueError("more partitions than feature columns")
        bounds = np.linspace(0, self.feature_dim, n_partitions + 1).astype(int)
        return list(zip(bounds[:-1], bounds[1:]))
