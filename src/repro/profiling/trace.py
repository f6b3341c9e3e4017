"""Operator traces.

Everything the paper measures — time splits (Fig 5, 11, 12), MAC counts
(Fig 7, 9), activation sizes (Fig 10), and the hardware simulations
(Fig 17-22) — is a function of the sequence of operators a network
executes and their shapes.  Networks emit a :class:`Trace` of operator
records; the profiling analytics and the hardware models consume it.

Phases follow the paper's taxonomy:

* ``N`` — neighbor search
* ``A`` — aggregation (gather + subtract, and the max-reduction when it
  is folded into aggregation by the delayed algorithm)
* ``F`` — feature computation (shared MLP / fully-connected layers, and
  the max-reduction in the original algorithm where it ends the MLP
  pipeline)
* ``O`` — everything else (sampling, concatenation, interpolation)
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Op",
    "NeighborSearchOp",
    "GatherOp",
    "SubtractOp",
    "MatMulOp",
    "ReduceMaxOp",
    "SampleOp",
    "ConcatOp",
    "InterpolateOp",
    "Trace",
    "PHASES",
    "BYTES_PER_ELEMENT",
]

PHASES = ("N", "A", "F", "O")
BYTES_PER_ELEMENT = 4  # fp32, as on the TX2 / NPU datapath


@dataclass(frozen=True)
class Op:
    """Base operator record."""

    phase: str
    module: str
    #: True when the delayed algorithm lets this op run concurrently
    #: with the other branch (N vs F overlap of Fig 8).
    parallelizable: bool = False

    @property
    def macs(self):
        return 0

    @property
    def bytes_read(self):
        return 0

    @property
    def bytes_written(self):
        return 0


@dataclass(frozen=True)
class NeighborSearchOp(Op):
    """KNN/ball query of ``n_queries`` centroids over ``n_points``."""

    n_queries: int = 0
    n_points: int = 0
    k: int = 0
    dim: int = 3  # dimensionality of the search space

    @property
    def bytes_read(self):
        return (self.n_queries + self.n_points) * self.dim * BYTES_PER_ELEMENT

    @property
    def bytes_written(self):
        return self.n_queries * self.k * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class GatherOp(Op):
    """Gather K rows per centroid from a (table_rows, feature_dim) table.

    The working-set size (``table_bytes``) is what makes delayed
    aggregation expensive on a GPU (§IV-C): the PFT is Nin x Mout while
    the original gather table is only Nin x Min.
    """

    n_centroids: int = 0
    k: int = 0
    feature_dim: int = 0
    table_rows: int = 0

    @property
    def table_bytes(self):
        return self.table_rows * self.feature_dim * BYTES_PER_ELEMENT

    @property
    def bytes_read(self):
        index_bytes = self.n_centroids * self.k * BYTES_PER_ELEMENT
        data_bytes = self.n_centroids * self.k * self.feature_dim * BYTES_PER_ELEMENT
        return index_bytes + data_bytes

    @property
    def bytes_written(self):
        return self.n_centroids * self.k * self.feature_dim * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class SubtractOp(Op):
    """Elementwise centroid subtraction over ``rows`` x ``dim`` values."""

    rows: int = 0
    dim: int = 0

    @property
    def bytes_read(self):
        return 2 * self.rows * self.dim * BYTES_PER_ELEMENT

    @property
    def bytes_written(self):
        return self.rows * self.dim * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class MatMulOp(Op):
    """One shared-MLP or FC layer: (rows, in_dim) x (in_dim, out_dim)."""

    rows: int = 0
    in_dim: int = 0
    out_dim: int = 0

    @property
    def macs(self):
        return self.rows * self.in_dim * self.out_dim

    @property
    def output_bytes(self):
        """Activation size of this layer — the Fig 10 quantity."""
        return self.rows * self.out_dim * BYTES_PER_ELEMENT

    @property
    def weight_bytes(self):
        return self.in_dim * self.out_dim * BYTES_PER_ELEMENT

    @property
    def bytes_read(self):
        return self.rows * self.in_dim * BYTES_PER_ELEMENT + self.weight_bytes

    @property
    def bytes_written(self):
        return self.output_bytes


@dataclass(frozen=True)
class ReduceMaxOp(Op):
    """Column-wise max over K rows, per centroid."""

    n_centroids: int = 0
    k: int = 0
    feature_dim: int = 0

    @property
    def bytes_read(self):
        return self.n_centroids * self.k * self.feature_dim * BYTES_PER_ELEMENT

    @property
    def bytes_written(self):
        return self.n_centroids * self.feature_dim * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class SampleOp(Op):
    """Centroid sampling (random / FPS)."""

    n_points: int = 0
    n_samples: int = 0

    @property
    def bytes_written(self):
        return self.n_samples * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class ConcatOp(Op):
    """Tensor concatenation (DGCNN skip links)."""

    rows: int = 0
    dim: int = 0

    @property
    def bytes_read(self):
        return self.rows * self.dim * BYTES_PER_ELEMENT

    @property
    def bytes_written(self):
        return self.rows * self.dim * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class InterpolateOp(Op):
    """Feature propagation by inverse-distance interpolation.

    Used by the segmentation networks' decoders (the paper's optimized
    ``three_interpolate`` kernel).
    """

    n_points: int = 0
    k: int = 3
    feature_dim: int = 0

    @property
    def bytes_read(self):
        return self.n_points * self.k * self.feature_dim * BYTES_PER_ELEMENT

    @property
    def bytes_written(self):
        return self.n_points * self.feature_dim * BYTES_PER_ELEMENT


@dataclass
class Trace:
    """An ordered list of operator records emitted by one network run."""

    network: str = ""
    strategy: str = "original"
    ops: list = field(default_factory=list)

    def add(self, op):
        self.ops.append(op)
        return op

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def by_phase(self, phase):
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        return [op for op in self.ops if op.phase == phase]

    def by_type(self, op_type):
        return [op for op in self.ops if isinstance(op, op_type)]

    def mlp_macs(self):
        """MACs in feature computation only (the Fig 9 numerator)."""
        return sum(op.macs for op in self.ops if op.phase == "F")

    def layer_output_sizes(self):
        """Bytes written by each F-phase matmul (Fig 10 distribution)."""
        return [
            op.output_bytes
            for op in self.ops
            if isinstance(op, MatMulOp) and op.phase == "F"
        ]

    def phase_summary(self):
        """Per-phase rollup: op count, MACs, bytes read/written.

        The ``repro trace`` CLI prints this table; it is also a handy
        one-look sanity check that a strategy rewrite moved work between
        phases the way the paper says it should.
        """
        summary = {
            phase: {"ops": 0, "macs": 0, "bytes_read": 0, "bytes_written": 0}
            for phase in PHASES
        }
        for op in self.ops:
            row = summary[op.phase]
            row["ops"] += 1
            row["macs"] += op.macs
            row["bytes_read"] += op.bytes_read
            row["bytes_written"] += op.bytes_written
        return summary
