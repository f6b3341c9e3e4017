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

from ..data import SyntheticModelNet, morton_order
from ..graph.executors import GraphExecutor
from ..neural import no_grad
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
    "network_nits",
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

    def span(self, overlap):
        """The module's latency, in seconds.

        With ``overlap`` the flagged N and F time run side by side from
        the start; everything else follows serially — unflagged N,
        unflagged F, then A and O.
        """
        if overlap:
            return (max(self.n_par, self.f_par) + (self.n - self.n_par)
                    + (self.f - self.f_par) + self.a + self.o)
        return self.n + self.f + self.a + self.o


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

    def energy_reduction_over(self, other):
        return 1.0 - self.energy / other.energy


def network_nits(network, strategy):
    """``{module name: (n_out, k) NIT}`` as ``network``'s own searches write it.

    One interpreter run under ``strategy`` over one fixed synthetic
    ModelNet cloud, stored in Morton scan order as real datasets are.
    """
    cloud = SyntheticModelNet(
        num_classes=1, n_points=network.n_points, train_per_class=1,
        test_per_class=0, seed=0,
    ).train_clouds[0]
    ngraph = network.network_graph(strategy)
    executor = GraphExecutor()
    with no_grad():
        executor.run_network(ngraph, cloud[morton_order(cloud)][None])
    # A stack of one: the search's flat NIT rows are the cloud's own.
    return {
        ngraph.graph.node(region.sample).attrs["label"]:
            executor.values[region.search]
        for region in ngraph.regions
    }


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

    def simulate(self, network, config, nits=None):
        """Run ``network`` on ``config``; returns an :class:`SoCResult`.

        For AU-enabled configs, each module's AU pass gathers from the
        NIT the module's own search writes: ``nits``, the
        :func:`network_nits` of ``network`` under the config's strategy,
        built here unless a caller that simulates it more than once
        hands it in.
        """
        if isinstance(config, str):
            config = CONFIGS[config]
        if not config.use_au:
            nits = {}
        elif nits is None:
            nits = network_nits(network, config.strategy)
        trace = network.trace(config.strategy)

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
                    if module_name in nits:
                        if not au_done:
                            if isinstance(op, GatherOp):
                                r = self.au.process(
                                    nits[module_name], op.feature_dim,
                                    op.table_rows,
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
            latency += times.span(config.overlap)
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
        """Simulate several configurations; returns {name: SoCResult}.

        Each strategy's NITs are built once and shared by every AU
        config that runs it.
        """
        nits, results = {}, {}
        for name in config_names:
            config = CONFIGS[name] if isinstance(name, str) else name
            if config.use_au and config.strategy not in nits:
                nits[config.strategy] = network_nits(network, config.strategy)
            results[name] = self.simulate(network, config,
                                          nits.get(config.strategy))
        return results
