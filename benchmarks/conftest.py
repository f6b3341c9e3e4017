"""Shared fixtures for the figure-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper: it prints
the same rows/series the paper reports and asserts the qualitative
shape (who wins, by roughly what factor).  Expensive artifacts
(networks, traces, SoC simulations) are cached per session.
"""

import numpy as np
import pytest

from repro.hw import SoC
from repro.networks import ALL_NETWORKS, build_network


@pytest.fixture(scope="session")
def networks():
    """Paper-scale instances of all seven networks."""
    return {name: build_network(name) for name in ALL_NETWORKS}


@pytest.fixture(scope="session")
def traces(networks):
    """{network: {strategy: Trace}} at paper scale."""
    return {
        name: {
            strategy: net.trace(strategy)
            for strategy in ("original", "delayed", "limited")
        }
        for name, net in networks.items()
    }


@pytest.fixture(scope="session")
def soc():
    return SoC()


@pytest.fixture(scope="session")
def soc_results(networks, soc):
    """{network: {config: SoCResult}} for the standard configurations."""
    configs = ("gpu", "baseline", "mesorasi_sw", "mesorasi_hw",
               "baseline_nse", "mesorasi_sw_nse", "mesorasi_hw_nse")
    return {
        name: soc.compare(net, configs)
        for name, net in networks.items()
    }


def print_table(title, headers, rows):
    """Print one paper-style table."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def geomean(values):
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.log(values).mean()))
