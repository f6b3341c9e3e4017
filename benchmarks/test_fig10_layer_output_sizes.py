"""Fig 10: distribution of per-layer MLP output (activation) sizes with
and without delayed-aggregation.

The paper: original layer outputs commonly exceed 2 MB and reach 32 MB
— far beyond on-chip buffers — while delayed-aggregation shrinks them
to the 512 KB - 1 MB regime, small enough to buffer on chip.

The model columns read the analytical trace at paper scale.  The
measured table reads what the compiled float32 program allocates: its
height-1 arena plan at scale 0.25, per strategy — peak live bytes,
largest single buffer, and the phase of the kernel where the live
bytes peak.  Those are exact counts.  ``delayed`` lowers the peak on
every network whose ``original`` peak sits in a module region.  DGCNN
(s) is the exception: its peak is the concat of its skip links, after
the last module, so all three strategies read the same 4.75 MiB peak
and 2.38 MiB largest buffer.
"""

from conftest import print_table

from repro.backend import compile_kernel_program
from repro.core import STRATEGIES
from repro.networks import ALL_NETWORKS, PROFILED_NETWORKS, build_network
from repro.profiling import MatMulOp
from repro.profiling.cost_model import layer_size_stats_from_sizes

MB = 2 ** 20
KB = 2 ** 10
#: The scale the measured table compiles each network at.
MEASURED_SCALE = 0.25


def _module_layer_sizes(name, trace):
    """Activation sizes of the *module* MLP layers (what Fig 10 plots;
    the network-tail embeddings/heads are identical in both variants)."""
    net = build_network(name)
    module_names = {m.spec.name for m in net.encoder}
    module_names |= {m.spec.name for m in getattr(net, "box_encoder", [])}
    return [
        op.output_bytes
        for op in trace.by_type(MatMulOp)
        if op.phase == "F" and op.module in module_names
    ]


def test_fig10_layer_sizes(benchmark, traces):
    def run():
        return {
            name: (
                layer_size_stats_from_sizes(
                    _module_layer_sizes(name, traces[name]["original"])
                ),
                layer_size_stats_from_sizes(
                    _module_layer_sizes(name, traces[name]["delayed"])
                ),
            )
            for name in PROFILED_NETWORKS
        }

    stats = benchmark(run)
    rows = []
    for name in PROFILED_NETWORKS:
        orig, delayed = stats[name]
        rows.append(
            (
                name,
                f"{orig['min'] / KB:.0f}K..{orig['max'] / MB:.1f}M",
                f"{delayed['min'] / KB:.0f}K..{delayed['max'] / KB:.0f}K",
                f"{orig['max'] / delayed['max']:.1f}x",
            )
        )
    print_table(
        "Fig 10: layer output size range (original vs delayed)",
        ["Network", "Original", "Delayed", "Max shrink"],
        rows,
    )
    for name in PROFILED_NETWORKS:
        orig, delayed = stats[name]
        # Original activations blow past typical on-chip capacity...
        assert orig["max"] > 1.5 * MB, name
        # ...delayed ones fit comfortably on chip.
        assert delayed["max"] <= 1.5 * MB, name
        assert delayed["max"] < orig["max"]
    # The headline cases reach the paper's multi-MB regime.
    assert max(s[0]["max"] for s in stats.values()) > 4 * MB


def _arena_peak(program):
    """``(peak live bytes, largest buffer bytes, phase, in a module)``
    of ``program``'s height-1 arena plan: the phase is that of the
    first kernel at which the live bytes peak, and the flag says whether
    that kernel's lead node belongs to a module region."""
    plan = program.plan_for()
    live = [plan.live_bytes_at(pos) for pos in range(plan.n_positions + 1)]
    pos = live.index(plan.peak_live_bytes)
    graph = program.ngraph.graph
    lead = graph.node(program._liveness.lead_node[pos])
    return (plan.peak_live_bytes, max(b.nbytes for b in plan.buffers),
            program._liveness.phase_of(graph)[pos], "module" in lead.attrs)


def test_fig10_arena_plan():
    peaks = {}
    for name in ALL_NETWORKS:
        net = build_network(name, scale=MEASURED_SCALE)
        peaks[name] = {
            strategy: _arena_peak(
                compile_kernel_program(net, strategy, "float32"))
            for strategy in STRATEGIES
        }
    rows = [
        (name, *(f"{peak / MB:.2f} / {largest / MB:.2f} "
                 f"{phase}, {'module' if in_module else 'outside'}"
                 for peak, largest, phase, in_module
                 in (peaks[name][s] for s in STRATEGIES)))
        for name in ALL_NETWORKS
    ]
    print_table(
        f"Fig 10 (measured): float32 arena plan at scale {MEASURED_SCALE}, "
        "height 1 — peak live / largest buffer MiB, peak kernel's phase",
        ["Network", *(s.capitalize() for s in STRATEGIES)],
        rows,
    )
    for name in ALL_NETWORKS:
        original, delayed = peaks[name]["original"], peaks[name]["delayed"]
        assert delayed[0] <= original[0], name
        if original[3]:
            # A peak inside a module shrinks with the module's layers.
            assert delayed[0] < original[0], name
    # Only DGCNN (s) peaks outside its modules (see the docstring).
    assert [name for name in ALL_NETWORKS
            if not peaks[name]["original"][3]] == ["DGCNN (s)"]
