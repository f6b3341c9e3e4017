"""A response depends only on its request.

No BLAS call mixes clouds: the graph interpreter's Linear calls and the
kernel runtime's GEMMs both multiply a stack as one GEMM per cloud, the
very call the cloud makes alone.  So on every float path — eager,
float64 and float32 kernels — each cloud of a stack gets the bits it
gets alone, at every height and whatever shares the stack.
"""

import numpy as np
import pytest

from conftest import clouds_for, leaves, toy
from repro.core import STRATEGIES
from repro.engine import BatchRunner
from repro.networks import ALL_NETWORKS

#: Stack heights checked; 13 single-cloud references cover all of them.
HEIGHTS = (*range(1, 10), 13)
CLOUDS = max(HEIGHTS)


def stack_of(height):
    """Distinct cloud indices for one stack: each height places the
    clouds at different positions beside different neighbours."""
    return [(height + 5 * j) % CLOUDS for j in range(height)]


@pytest.mark.parametrize("backend", [None, "float64", "float32"],
                         ids=["eager", "float64", "float32"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ALL_NETWORKS)
def test_every_cloud_gets_its_alone_bits_at_every_height(name, strategy,
                                                         backend):
    net = toy(name, scale=0.125)
    runner = BatchRunner(net, strategy=strategy, backend=backend)
    clouds = clouds_for(net, CLOUDS, seed=11)
    alone = [runner.run(cloud[None]).per_cloud()[0] for cloud in clouds]
    for height in HEIGHTS:
        picks = stack_of(height)
        stacked = runner.run(clouds[picks]).per_cloud()
        for position, (index, got) in enumerate(zip(picks, stacked)):
            for want, have in leaves(alone[index], got):
                assert np.array_equal(want, have), (
                    f"cloud {index} at position {position} of a stack of "
                    f"{height} differs from the cloud alone by "
                    f"{np.abs(want - have).max():.3g}"
                )
