"""First-order cost analytics over operator traces (§IV-B).

These functions compute the paper's algorithmic metrics — the ones that
are properties of the workload itself rather than of any particular
hardware: MAC counts and reductions (Fig 9) and layer output
(activation) size distributions (Fig 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import Trace

__all__ = [
    "StrategyComparison",
    "compare_strategies",
    "mac_reduction_percent",
]


@dataclass
class StrategyComparison:
    """Original-vs-delayed traces for one network."""

    network: str
    original: Trace
    delayed: Trace

    @property
    def mac_reduction_percent(self):
        orig = self.original.mlp_macs()
        if orig == 0:
            return 0.0
        return 100.0 * (1.0 - self.delayed.mlp_macs() / orig)

    @property
    def max_layer_output_original(self):
        return max(self.original.layer_output_sizes())

    @property
    def max_layer_output_delayed(self):
        return max(self.delayed.layer_output_sizes())


def compare_strategies(network):
    """Trace a network under both strategies."""
    return StrategyComparison(
        network.name, network.trace("original"), network.trace("delayed")
    )


def mac_reduction_percent(network):
    """Fig 9 quantity for one network."""
    return compare_strategies(network).mac_reduction_percent


def layer_size_stats_from_sizes(sizes):
    """Fig 10 summary (bytes) of a set of F-phase layer output sizes."""
    sizes = np.asarray(sizes, dtype=np.float64)
    return {
        "min": float(sizes.min()),
        "max": float(sizes.max()),
        "median": float(np.median(sizes)),
        "mean": float(sizes.mean()),
        "sizes": sizes,
    }
