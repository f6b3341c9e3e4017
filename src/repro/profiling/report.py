"""Paper-style text report generation.

:func:`full_report` runs the complete analytic evaluation — workload
characterization plus all hardware configurations for every benchmark
network — and renders one readable report: what ``repro report``
prints.
"""

from __future__ import annotations

import io

import numpy as np

from .cost_model import compare_strategies

__all__ = ["full_report", "characterization_report", "soc_report",
           "format_table"]

# NOTE: repro.hw / repro.networks are imported lazily inside the report
# functions — repro.core imports repro.profiling.trace, so a top-level
# import here would be circular.


def format_table(title, headers, rows):
    """Render one aligned text table."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), max((len(r[i]) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    out = io.StringIO()
    out.write(f"== {title} ==\n")
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
    for row in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
    return out.getvalue()


def characterization_report(networks=None, gpu=None):
    """§III: GPU latency, phase split, MAC/activation analysis."""
    from ..hw import TX2_GPU
    from ..networks import PROFILED_NETWORKS, build_network

    networks = networks or PROFILED_NETWORKS
    gpu = gpu or TX2_GPU
    rows_latency, rows_macs = [], []
    for name in networks:
        net = build_network(name)
        cmp = compare_strategies(net)
        result = gpu.run(cmp.original)
        rows_latency.append(
            (
                name,
                f"{result.total_time * 1e3:.1f} ms",
                f"{result.phase_percent('N'):.0f}%",
                f"{result.phase_percent('A'):.0f}%",
                f"{result.phase_percent('F'):.0f}%",
            )
        )
        rows_macs.append(
            (
                name,
                f"{cmp.original.mlp_macs() / 1e9:.2f} G",
                f"{cmp.delayed.mlp_macs() / 1e9:.2f} G",
                f"{cmp.mac_reduction_percent:.0f}%",
                f"{cmp.max_layer_output_original / 2**20:.1f} MB",
                f"{cmp.max_layer_output_delayed / 2**20:.2f} MB",
            )
        )
    text = format_table(
        "GPU characterization (original algorithm)",
        ["Network", "Latency", "N", "A", "F"],
        rows_latency,
    )
    text += "\n" + format_table(
        "Workload: MLP MACs and peak layer output",
        ["Network", "MACs orig", "MACs delayed", "Reduction",
         "Peak act orig", "Peak act delayed"],
        rows_macs,
    )
    return text


def soc_report(networks=None, soc=None):
    """§VII: the full platform ladder per network."""
    from ..hw import SoC
    from ..networks import ALL_NETWORKS, build_network

    networks = networks or ALL_NETWORKS
    soc = soc or SoC()
    rows = []
    speedups = {"sw": [], "hw": [], "hw_nse": []}
    for name in networks:
        gpu_r, base, sw, hw, base_nse, hw_nse = soc.compare(
            build_network(name), ("gpu", "baseline", "mesorasi_sw",
                                  "mesorasi_hw", "baseline_nse",
                                  "mesorasi_hw_nse")).values()
        speedups["sw"].append(base.latency / sw.latency)
        speedups["hw"].append(base.latency / hw.latency)
        speedups["hw_nse"].append(base_nse.latency / hw_nse.latency)
        rows.append(
            (
                name,
                f"{gpu_r.latency * 1e3:.1f}",
                f"{base.latency * 1e3:.1f}",
                f"{sw.latency * 1e3:.1f}",
                f"{hw.latency * 1e3:.1f}",
                f"{base.latency / hw.latency:.2f}x",
                f"{hw.energy_reduction_over(base) * 100:.0f}%",
                f"{base_nse.latency / hw_nse.latency:.2f}x",
            )
        )

    def geomean(xs):
        return float(np.exp(np.mean(np.log(xs))))

    rows.append(
        (
            "GEOMEAN", "", "", "", "",
            f"{geomean(speedups['hw']):.2f}x", "",
            f"{geomean(speedups['hw_nse']):.2f}x",
        )
    )
    return format_table(
        "SoC evaluation (latencies in ms)",
        ["Network", "GPU", "GPU+NPU", "Mesorasi-SW", "Mesorasi-HW",
         "HW speedup", "HW E-red", "HW+NSE speedup"],
        rows,
    )


def full_report(soc=None, gpu=None):
    """The complete paper-style report as one string."""
    parts = [
        "Mesorasi reproduction — analytic evaluation report",
        "=" * 52,
        "",
        characterization_report(gpu=gpu),
        "",
        soc_report(soc=soc),
    ]
    return "\n".join(parts)
