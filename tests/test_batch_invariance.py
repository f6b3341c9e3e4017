"""A response depends only on its request.

No BLAS call mixes clouds: the graph interpreter's Linear calls and the
kernel runtime's GEMMs both multiply a stack as one GEMM per cloud, the
very call the cloud makes alone.  So on every float path — the
interpreter, and the float64 and float32 kernel programs that serve —
each cloud of a stack gets the bits it gets alone, at every height and
whatever shares the stack.
"""

import numpy as np
import pytest

from conftest import clouds_for, interpret, leaves, toy
from repro.core import STRATEGIES
from repro.engine import BatchRunner
from repro.networks import ALL_NETWORKS

#: Stack heights checked; 13 single-cloud references cover all of them.
HEIGHTS = (*range(1, 10), 13)
CLOUDS = max(HEIGHTS)


def row(outputs, index):
    """Cloud ``index``'s output out of a stacked output structure."""
    if isinstance(outputs, dict):
        return {key: value[index] for key, value in outputs.items()}
    return outputs[index]


def path_for(net, strategy, path):
    """``clouds -> stacked outputs`` along one path."""
    if path == "interpreter":
        return lambda clouds: interpret(net, clouds, strategy)
    runner = BatchRunner(net, strategy=strategy, backend=path)
    return lambda clouds: runner.run(clouds).outputs


def stack_of(height):
    """Distinct cloud indices for one stack: each height places the
    clouds at different positions beside different neighbours."""
    return [(height + 5 * j) % CLOUDS for j in range(height)]


@pytest.mark.parametrize("path", ["interpreter", "float64", "float32"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ALL_NETWORKS)
def test_every_cloud_gets_its_alone_bits_at_every_height(name, strategy,
                                                         path):
    net = toy(name, scale=0.125)
    run = path_for(net, strategy, path)
    clouds = clouds_for(net, CLOUDS, seed=11)
    alone = [row(run(cloud[None]), 0) for cloud in clouds]
    for height in HEIGHTS:
        picks = stack_of(height)
        stacked = run(clouds[picks])
        for position, index in enumerate(picks):
            for want, have in leaves(alone[index], row(stacked, position)):
                assert np.array_equal(want, have), (
                    f"cloud {index} at position {position} of a stack of "
                    f"{height} differs from the cloud alone by "
                    f"{np.abs(want - have).max():.3g}"
                )
