"""Analytic timing/energy model of the mobile GPU (Pascal on TX2).

The paper measures operator times directly on the Jetson TX2; we model
them from operator shapes.  Constants are calibrated so the per-phase
times of PointNet++ (s) land near the paper's Fig 11 measurements
(N = 9.8 ms, A = 0.8 ms original / 3.9 ms delayed, F = 24.9 ms original
/ 9.5 ms delayed); everything else follows from the same constants.

The model captures the three effects the paper's characterization
hinges on:

* **Neighbor search** pays for the distance computation, the
  materialization of the full distance matrix (the dominant term for
  DGCNN's feature-space searches), and the top-K selection.
* **Feature computation** is throughput-bound GEMM at a small-matrix
  efficiency far below peak.
* **Gather (aggregation)** is bandwidth-bound and degrades when its
  source table exceeds the L1 working set — exactly the §IV-C effect
  that makes delayed aggregation expensive on the GPU.

The TX2 could not co-schedule the neighbor-search and MLP kernels
(§VII-C), so :meth:`MobileGPU.run` sums every kernel and ignores the
trace's parallelizable tags; the N/F overlap of delayed aggregation is
modeled per module by the SoC (``SoCConfig.overlap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..profiling.trace import (
    ConcatOp,
    GatherOp,
    InterpolateOp,
    MatMulOp,
    NeighborSearchOp,
    PHASES,
    ReduceMaxOp,
    SampleOp,
    SubtractOp,
)
from .dram import LPDDR3

__all__ = ["MobileGPU", "GPUResult", "TX2_GPU"]


@dataclass
class GPUResult:
    """Per-phase times (seconds) and energy (Joules) of one trace."""

    phase_times: dict
    energy: float
    dram_bytes: int

    @property
    def total_time(self):
        return sum(self.phase_times.values())

    def phase_percent(self, phase):
        total = self.total_time
        return 100.0 * self.phase_times[phase] / total if total else 0.0


@dataclass
class MobileGPU:
    """Shape-based operator cost model of a TX2-class mobile GPU."""

    name: str = "TX2 Pascal GPU"
    #: Effective GEMM throughput (MAC/s) for shared-MLP-sized matrices.
    matmul_macs_per_s: float = 46e9
    #: Effective throughput of the distance computation (FLOP/s).
    distance_flops_per_s: float = 45e9
    #: Effective bandwidth for materializing the QxNxD difference
    #: tensor the TF implementations build before the square-sum (the
    #: term that makes DGCNN's feature-space searches so expensive).
    matrix_bw: float = 8.0e9
    #: Top-K selection throughput in candidate*log2(N) units per second.
    select_rate: float = 3.0e9
    #: Streaming bandwidth for regular elementwise traffic.
    stream_bw: float = 30e9
    #: Gather bandwidth when the table fits in L1.
    gather_bw: float = 40e9
    #: L1 cache size; larger gather tables get the penalty below.
    l1_bytes: int = 64 * 1024
    #: Gather bandwidth derating when the working set spills L1.
    gather_spill_penalty: float = 3.0
    #: Fixed per-kernel launch overhead (seconds).
    kernel_launch_s: float = 1.0e-4
    #: Busy power (W) by phase, plus idle power folded into totals.
    busy_power: dict = field(
        default_factory=lambda: {"N": 6.5, "A": 5.0, "F": 9.5, "O": 4.0}
    )
    dram: object = LPDDR3

    # -- per-op costs -----------------------------------------------------

    def op_time(self, op):
        """Execution time (s) of one operator record."""
        if isinstance(op, NeighborSearchOp):
            pairs = op.n_queries * op.n_points
            distance = pairs * 3 * op.dim / self.distance_flops_per_s
            # Write + read of the (Q, N, D) difference tensor.
            matrix = pairs * op.dim * 4 * 2 / self.matrix_bw
            select = pairs * max(1.0, math.log2(max(op.n_points, 2))) \
                / self.select_rate
            return distance + matrix + select + self.kernel_launch_s
        if isinstance(op, MatMulOp):
            compute = op.macs / self.matmul_macs_per_s
            traffic = (op.bytes_read + op.bytes_written) / self.stream_bw
            return max(compute, traffic) + self.kernel_launch_s
        if isinstance(op, GatherOp):
            bw = self.gather_bw
            if op.table_bytes > self.l1_bytes:
                bw /= self.gather_spill_penalty
            return (op.bytes_read + op.bytes_written) / bw + self.kernel_launch_s
        if isinstance(op, (SubtractOp, ReduceMaxOp, ConcatOp, InterpolateOp)):
            return (op.bytes_read + op.bytes_written) / self.stream_bw \
                + self.kernel_launch_s
        if isinstance(op, SampleOp):
            return op.n_points * 4 / self.stream_bw + self.kernel_launch_s
        raise TypeError(f"unknown op type {type(op).__name__}")

    def op_energy(self, op, time=None):
        time = self.op_time(op) if time is None else time
        power = self.busy_power.get(op.phase, 5.0)
        return time * power

    # -- trace execution ----------------------------------------------------

    def run(self, trace):
        """Aggregate a trace into per-phase times and energy, one kernel
        after another."""
        phase_times = {p: 0.0 for p in PHASES}
        energy = 0.0
        dram_bytes = 0
        for op in trace:
            t = self.op_time(op)
            energy += self.op_energy(op, t)
            dram_bytes += op.bytes_read + op.bytes_written
            phase_times[op.phase] += t
        energy += self.dram.transfer_energy(dram_bytes)
        return GPUResult(phase_times, energy, dram_bytes)


#: Default instance used by the benchmarks.
TX2_GPU = MobileGPU()
