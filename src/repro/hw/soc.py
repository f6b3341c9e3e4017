"""SoC-level composition: GPU + NPU (+ AU) (+ NSE) (§V, §VII).

The paper's platform taxonomy:

* **GPU** — everything on the mobile GPU (the §VII-C software study).
* **Baseline (GPU+NPU)** — original algorithm; neighbor search and
  aggregation on the GPU, feature computation on the NPU.
* **Mesorasi-SW** — delayed-aggregation; N on GPU overlapped with F on
  NPU (different engines, so the Fig 8 overlap is realized);
  aggregation still on the GPU.
* **Mesorasi-HW** — delayed-aggregation with the AU: aggregation moves
  into the NPU next to the global buffer.
* ***-NSE** — any of the above with the Tigris-style neighbor search
  engine replacing the GPU for N (§VII-E).

Latency composes per module.  Without overlap it is serial
N + F + A + O.  With overlap, only the ops whose ``parallelizable`` flag
is set run side by side — under ``delayed`` a module's search and its
whole hoisted MLP, under ``limited`` the search and the first product,
under ``original`` nothing — so a module takes ``max(N∥, F∥)`` plus
every unflagged N, F, A and O time.  Energy sums engine energies plus the
DRAM traffic each configuration incurs (notably the NIT round trip and
the original algorithm's spilled MLP activations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..neighbors import knn_brute_force, random_sampling
from ..profiling.trace import GatherOp, MatMulOp, ReduceMaxOp
from .aggregation_unit import AggregationUnit
from .dram import LPDDR3
from .gpu import MobileGPU
from .npu import SystolicNPU
from .nse import NeighborSearchEngine

__all__ = [
    "ModuleTime",
    "SoCConfig",
    "SoC",
    "SoCResult",
    "CONFIGS",
    "synthetic_nit",
]


@dataclass(frozen=True)
class SoCConfig:
    """Which engine runs each phase, and whether flagged N/F ops overlap."""

    name: str
    strategy: str = "original"
    use_npu: bool = False
    use_au: bool = False
    use_nse: bool = False
    overlap: bool = False


CONFIGS = {
    "gpu": SoCConfig("GPU"),
    "baseline": SoCConfig("GPU+NPU", use_npu=True),
    "mesorasi_sw": SoCConfig(
        "Mesorasi-SW", strategy="delayed", use_npu=True, overlap=True
    ),
    "mesorasi_hw": SoCConfig(
        "Mesorasi-HW", strategy="delayed", use_npu=True, use_au=True, overlap=True
    ),
    "baseline_nse": SoCConfig("GPU+NPU+NSE", use_npu=True, use_nse=True),
    "mesorasi_sw_nse": SoCConfig(
        "Mesorasi-SW+NSE", strategy="delayed", use_npu=True, use_nse=True,
        overlap=True,
    ),
    "mesorasi_hw_nse": SoCConfig(
        "Mesorasi-HW+NSE", strategy="delayed", use_npu=True, use_au=True,
        use_nse=True, overlap=True,
    ),
}


@dataclass(frozen=True)
class ModuleTime:
    """One module's engine time per phase, in seconds.

    ``n_par`` / ``f_par`` are the parts of ``n`` / ``f`` spent in ops
    whose ``parallelizable`` flag is set.
    """

    module: str
    n: float
    a: float
    f: float
    o: float
    n_par: float
    f_par: float

    def windows(self, overlap):
        """``([(phase, start, end)], span)`` offsets from the module start.

        With ``overlap`` the flagged N and F time run side by side from
        the start; everything else follows serially — unflagged N,
        unflagged F, then A and O.  ``span`` is the module's latency.
        """
        if overlap:
            side = (("N", self.n_par), ("F", self.f_par))
            serial = (("N", self.n - self.n_par), ("F", self.f - self.f_par))
            clock = max(self.n_par, self.f_par)
        else:
            side = ()
            serial = (("N", self.n), ("F", self.f))
            clock = 0.0
        windows = [(phase, 0.0, t) for phase, t in side if t]
        for phase, t in serial + (("A", self.a), ("O", self.o)):
            if t:
                windows.append((phase, clock, clock + t))
            clock += t
        return windows, clock


@dataclass
class SoCResult:
    """Latency/energy of one network on one SoC configuration.

    ``modules`` holds the per-module :class:`ModuleTime` the latency
    was composed from, in execution order.
    """

    config: str
    latency: float
    energy: float
    phase_times: dict = field(default_factory=dict)
    phase_energy: dict = field(default_factory=dict)
    au_stats: list = field(default_factory=list)
    modules: list = field(default_factory=list)

    def speedup_over(self, other):
        return other.latency / self.latency

    def energy_reduction_over(self, other):
        return 1.0 - self.energy / other.energy


_NIT_CACHE = {}


def _morton_order(points, bits=10):
    """Scan order: sort points along a Morton (Z-order) curve.

    Real point cloud files (ModelNet/ShapeNet/KITTI sweeps) store points
    in scan order, so spatial neighbors have nearby indices — the
    property that makes the AU's LSB bank interleaving effective
    (§V-B).  Synthetic clouds must reproduce it or bank conflicts are
    badly overestimated.
    """
    pts = np.asarray(points)
    lo = pts.min(axis=0)
    span = np.maximum(pts.max(axis=0) - lo, 1e-9)
    q = np.minimum(((pts - lo) / span * (2 ** bits - 1)).astype(np.uint64),
                   2 ** bits - 1)
    code = np.zeros(len(pts), dtype=np.uint64)
    for b in range(bits):
        for axis in range(3):
            code |= ((q[:, axis] >> np.uint64(b)) & np.uint64(1)) \
                << np.uint64(3 * b + axis)
    return np.argsort(code, kind="stable")


def synthetic_nit(spec, seed=0):
    """A realistic neighbor-index stream for a module spec.

    Generates a random cloud, reorders it along a Morton curve (scan
    order, as in real datasets), samples centroids and runs a real KNN,
    so the AU's bank conflicts are emergent from realistic
    spatially-correlated indices rather than assumed.  Cached per
    (spec, seed).
    """
    key = (spec.n_in, spec.n_out, spec.k, seed)
    if key not in _NIT_CACHE:
        rng = np.random.default_rng(seed)
        # Sample a deformed sphere: real clouds are object *surfaces*
        # (2-D manifolds), whose scan order has far better index
        # locality than a volumetric blob.
        v = rng.normal(size=(spec.n_in, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        pts *= 1.0 + 0.3 * np.sin(3.0 * pts[:, :1])
        pts = pts[_morton_order(pts)]
        if spec.n_out < spec.n_in:
            centroids = random_sampling(pts, spec.n_out, rng=rng)
        else:
            centroids = np.arange(spec.n_in)
        idx, _ = knn_brute_force(pts, pts[centroids], spec.k)
        _NIT_CACHE[key] = idx
    return _NIT_CACHE[key]


class SoC:
    """Composes the engine models and executes network traces."""

    def __init__(self, gpu=None, npu=None, au=None, nse=None, dram=None):
        self.gpu = gpu or MobileGPU()
        self.npu = npu or SystolicNPU()
        self.au = au or AggregationUnit()
        self.nse = nse or NeighborSearchEngine()
        self.dram = dram or LPDDR3

    # -- engine dispatch ---------------------------------------------------

    def _f_cost(self, op, config):
        """(time, energy) of an F-phase op on its engine."""
        if isinstance(op, MatMulOp) and config.use_npu:
            r = self.npu.run_matmul(op)
            return r.time, r.energy
        if isinstance(op, ReduceMaxOp) and config.use_npu:
            # The NPU's pooling unit (Fig 13) reduces at one 256-lane
            # vector op per cycle.
            elements = op.n_centroids * op.k * op.feature_dim
            time = (elements / 256) / self.npu.frequency
            return time, elements * 0.05e-12
        t = self.gpu.op_time(op)
        return t, self.gpu.op_energy(op, t)

    def _n_cost(self, op, config):
        t = self.gpu.op_time(op)
        if config.use_nse:
            return self.nse.search_time(t), self.nse.search_energy(t)
        return t, self.gpu.op_energy(op, t)

    # -- simulation -----------------------------------------------------------

    def simulate(self, network, config, nit_seed=0):
        """Run ``network`` on ``config``; returns an :class:`SoCResult`.

        For AU-enabled configs, per-module NIT index streams are drawn
        from :func:`synthetic_nit` over the network's module specs.
        """
        if isinstance(config, str):
            config = CONFIGS[config]
        trace = network.trace(config.strategy)
        specs = {m.spec.name: m.spec for m in network.encoder}
        for extra in getattr(network, "box_encoder", []):
            specs[extra.spec.name] = extra.spec

        phase_times = {p: 0.0 for p in "NAFO"}
        phase_energy = {p: 0.0 for p in "NAFO"}
        au_stats = []
        modules = []
        latency = 0.0
        dram_bytes = 0

        # Group ops by module, preserving order.
        groups = []
        for op in trace:
            if groups and groups[-1][0] == op.module:
                groups[-1][1].append(op)
            else:
                groups.append((op.module, [op]))

        for module_name, ops in groups:
            n_time = a_time = f_time = o_time = n_par = f_par = 0.0
            au_done = False
            for op in ops:
                if op.phase == "N":
                    t, e = self._n_cost(op, config)
                    n_time += t
                    if op.parallelizable:
                        n_par += t
                    phase_energy["N"] += e
                    # NIT round trip: written by the search engine, read
                    # by the aggregation consumer.
                    dram_bytes += 2 * op.bytes_written
                elif op.phase == "A":
                    if config.use_au and module_name in specs:
                        if not au_done:
                            spec = specs[module_name]
                            if isinstance(op, GatherOp):
                                nit = synthetic_nit(spec, seed=nit_seed)
                                r = self.au.process(
                                    nit, op.feature_dim, op.table_rows
                                )
                                a_time += r.time
                                phase_energy["A"] += r.energy
                                dram_bytes += r.nit_dram_bytes
                                au_stats.append((module_name, r))
                                au_done = True
                        # Reduce/subtract are folded into the AU pass.
                        continue
                    t = self.gpu.op_time(op)
                    a_time += t
                    phase_energy["A"] += self.gpu.op_energy(op, t)
                elif op.phase == "F":
                    t, e = self._f_cost(op, config)
                    f_time += t
                    if op.parallelizable:
                        f_par += t
                    phase_energy["F"] += e
                else:
                    t = self.gpu.op_time(op)
                    o_time += t
                    phase_energy["O"] += self.gpu.op_energy(op, t)
                dram_bytes += getattr(op, "output_bytes", 0) \
                    if isinstance(op, MatMulOp) and not config.use_npu else 0
            times = ModuleTime(module_name, n_time, a_time, f_time, o_time,
                               n_par, f_par)
            modules.append(times)
            latency += times.windows(config.overlap)[1]
            phase_times["N"] += n_time
            phase_times["A"] += a_time
            phase_times["F"] += f_time
            phase_times["O"] += o_time

        energy = sum(phase_energy.values()) + self.dram.transfer_energy(dram_bytes)
        return SoCResult(
            config.name, latency, energy, phase_times, phase_energy, au_stats,
            modules,
        )

    def compare(self, network, config_names=("baseline", "mesorasi_sw",
                                              "mesorasi_hw")):
        """Simulate several configurations; returns {name: SoCResult}."""
        return {name: self.simulate(network, name) for name in config_names}
