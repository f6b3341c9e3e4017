"""Systolic-array NPU model (§VI: 16x16 PE array, TPU-style, 1 GHz).

Feature computation in point cloud networks is batched matrix-matrix
product (Fig 3), which maps directly onto a weight-stationary systolic
array.  The model counts tile passes for latency and MAC/SRAM/DRAM
events for energy.  Thanks to double buffering, latency is dominated by
compute (§VI, Experimental Methodology); DRAM traffic still costs
energy, which is how the large original-algorithm activations show up
as the Fig 10 / Fig 18b energy gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from .dram import LPDDR3
from .sram import SRAM

__all__ = ["SystolicNPU", "NPUResult", "MESORASI_NPU"]

#: MAC energy at 16 nm (J per multiply-accumulate).
_MAC_ENERGY = 0.25e-12
#: PE array + control area per PE (mm^2), calibrated so the 16x16
#: baseline NPU totals ~1.55 mm^2 with its 1.5 MB global buffer
#: (the paper's 0.059 mm^2 AU is 3.8% of the NPU).
_PE_AREA = 0.0038


@dataclass
class NPUResult:
    time: float
    energy: float
    compute_cycles: int
    dram_bytes: int


@dataclass
class SystolicNPU:
    """A TPU-style systolic array with a banked global buffer."""

    name: str = "Mesorasi NPU"
    array_dim: int = 16
    frequency: float = 1.0e9
    global_buffer: SRAM = field(
        default_factory=lambda: SRAM(1536, banks=12, name="global")
    )
    dram: object = LPDDR3

    def matmul_cycles(self, rows, in_dim, out_dim):
        """Tile passes of a (rows, in) x (in, out) product.

        Weight-stationary: each (in-tile, out-tile) pair loads a weight
        tile and streams all rows through, costing rows + 2*A cycles of
        fill/drain.
        """
        if min(rows, in_dim, out_dim) <= 0:
            raise ValueError("matmul dimensions must be positive")
        a = self.array_dim
        tiles = ceil(in_dim / a) * ceil(out_dim / a)
        return tiles * (rows + 2 * a)

    def matmul_dram_bytes(self, op):
        """DRAM traffic for one layer: activations that spill the buffer.

        Inputs/outputs resident in the global buffer are free; a layer
        whose output exceeds half the buffer (the other half holds the
        next layer's working set) round-trips through DRAM.
        """
        spill_threshold = self.global_buffer.size_bytes // 2
        traffic = 0
        if op.output_bytes > spill_threshold:
            traffic += 2 * op.output_bytes  # write now, read next layer
        input_bytes = op.rows * op.in_dim * 4
        if input_bytes > spill_threshold:
            traffic += input_bytes
        return traffic

    def run_matmul(self, op):
        """Execute one F-phase matmul record."""
        cycles = self.matmul_cycles(op.rows, op.in_dim, op.out_dim)
        compute_time = cycles / self.frequency
        dram_bytes = self.matmul_dram_bytes(op)
        # Double buffering overlaps DRAM with compute; latency is the max.
        time = max(compute_time, self.dram.transfer_time(dram_bytes))
        energy = (
            op.macs * _MAC_ENERGY
            + self.global_buffer.access_energy(
                op.rows * (op.in_dim + op.out_dim) + op.in_dim * op.out_dim
            )
            + self.dram.transfer_energy(dram_bytes)
        )
        return NPUResult(time, energy, cycles, dram_bytes)

    def area_mm2(self):
        """PE array + global buffer area (the §VII-A 3.8% denominator)."""
        return self.array_dim ** 2 * _PE_AREA + self.global_buffer.area_mm2()


#: The evaluation's baseline NPU configuration.
MESORASI_NPU = SystolicNPU()
