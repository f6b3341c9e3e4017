"""Helpers the test modules share: toy networks, seeded clouds,
bit-exact comparison across every output structure, the batched graph
interpreter every served path is held to, one-module networks and the
values their region computes, and the independent per-module
references: the hand-written forward and trace emission.

Test modules import them by name (``from conftest import toy``).
"""

from dataclasses import dataclass

import numpy as np

from repro.core import ModuleSpec, PointCloudModule, strided_centroids
from repro.graph import GraphExecutor
from repro.neighbors import knn_brute_force
from repro.networks import build_network
from repro.networks.generic import GenericPointCloudNetwork
from repro.neural import no_grad
from repro.profiling.trace import (
    GatherOp,
    MatMulOp,
    NeighborSearchOp,
    ReduceMaxOp,
    SampleOp,
    SubtractOp,
)

#: One-module toys whose centroid count sits on each side of every edge
#: of the aggregate kernel's per-cloud chunk rule (one chunk up to 8
#: centroids, then ceil(n_out / 8) per chunk with a floor of 8; a stack
#: of B takes B chunks to a pass), so full, partial (63 -> 7, 65 -> 2)
#: and single-centroid (9 -> 1) last chunks all occur.  :func:`toy`
#: builds them by name.
CHUNK_EDGE_TOYS = {f"{rows}-centroid toy": rows
                   for rows in (1, 7, 8, 9, 63, 64, 65)}


def toy(name, seed=0, scale=None):
    """A small seeded network with 4 classes: a benchmark network at
    ``scale`` (default 1/32 of paper scale for segmentation, 1/16
    otherwise), or one of the :data:`CHUNK_EDGE_TOYS`."""
    rng = np.random.default_rng(seed)
    if name in CHUNK_EDGE_TOYS:
        spec = ModuleSpec("m", n_in=96, n_out=CHUNK_EDGE_TOYS[name], k=6,
                          mlp_dims=(3, 16, 24))
        return GenericPointCloudNetwork([spec], head_dims=(24, 4), name=name,
                                        rng=rng)
    if scale is None:
        scale = 0.03125 if "(s)" in name else 0.0625
    return build_network(name, num_classes=4, scale=scale, rng=rng)


def cloud_for(net, seed=0):
    """One seeded ``(n_points, 3)`` cloud for ``net``."""
    return np.random.default_rng(seed).normal(size=(net.n_points, 3))


def clouds_for(net, batch, seed=0):
    """A seeded ``(batch, n_points, 3)`` stack of clouds for ``net``."""
    return np.random.default_rng(seed).normal(size=(batch, net.n_points, 3))


def leaves(ref, out):
    """Yield (reference, other) array pairs across the output structure."""
    if isinstance(ref, dict):
        assert set(ref) == set(out)
        for key in ref:
            yield from leaves(ref[key], out[key])
    elif isinstance(ref, (list, tuple)):
        assert len(ref) == len(out)
        for a, b in zip(ref, out):
            yield from leaves(a, b)
    else:
        yield (
            np.asarray(ref.data if hasattr(ref, "data") else ref),
            np.asarray(out.data if hasattr(out, "data") else out),
        )


def assert_bit_exact(ref, out):
    for a, b in leaves(ref, out):
        assert np.array_equal(a, b)


def interpret(net, clouds, strategy="delayed"):
    """The batched graph interpreter over a ``(B, N, 3)`` stack.

    ``net.forward_batch`` under ``no_grad()``, with the outputs as plain
    arrays (a dict of them for detection), shaped like
    ``BatchResult.outputs``.  Serving never runs it: it is the oracle the
    float64 kernel program, and so every default runner, is held to bit
    for bit.
    """
    with no_grad():
        out = net.forward_batch(clouds, strategy=strategy)
    if isinstance(out, dict):
        return {key: value.data for key, value in out.items()}
    return out.data


def one_module_net(spec, rng=None):
    """A network whose last region is ``spec``'s module, then a 4-class
    head, as :data:`CHUNK_EDGE_TOYS` are built.

    A spec that does not read the 3-D coordinates (``in_dim != 3``, say
    a feature-space search) runs second, behind a ``lift`` module that
    widens the coords to its input width.
    """
    specs = [spec]
    if spec.in_dim != 3:
        specs.insert(0, ModuleSpec("lift", spec.n_in, spec.n_in,
                                   min(4, spec.n_in), (3, spec.in_dim)))
    return GenericPointCloudNetwork(specs, head_dims=(spec.out_dim, 4),
                                    rng=rng)


@dataclass
class ModuleRun:
    """What one module computes for one cloud.

    ``coords`` ``(n_out, 3)`` are the sampled centroids' coordinates,
    ``features`` the ``(n_out, Mout)`` output Tensor, ``indices`` the
    ``(n_out, k)`` Neighbor Index Table, ``centroids`` the ``(n_out,)``
    sampled point ids and ``pft`` the Point Feature Table (the table the
    aggregation gathers from, per *input* point) when the strategy
    builds one, else ``None``.
    """

    coords: np.ndarray
    features: object
    indices: np.ndarray
    centroids: np.ndarray
    pft: np.ndarray = None


def region_pft(ngraph, values, region):
    """The Point Feature Table ``region``'s aggregate gathers, from a
    run's :attr:`~repro.graph.GraphExecutor.values`: flat rows of the
    MLP product once it is hoisted, ``None`` under ``original`` (where
    the aggregate gathers the region's input features)."""
    table = next(n for n in ngraph.graph if n.kind == "aggregate"
                 and n.attrs["module"] == region.module).inputs[0]
    if ngraph.graph.node(table).kind != "matmul":
        return None
    return values[table].data


def region_module(net, ngraph, region):
    """The :class:`PointCloudModule` of ``net`` that ``region`` of
    ``ngraph`` runs, found by the region's label (its spec's name)
    among the module lists ``net`` holds (an encoder, a box encoder)."""
    label = ngraph.graph.node(region.sample).attrs["label"]
    return next(m for value in vars(net).values() if isinstance(value, list)
                for m in value
                if isinstance(m, PointCloudModule) and m.spec.name == label)


def run_module(net, cloud, strategy):
    """Run ``net`` over one cloud; the last region's inputs and run.

    Returns ``(coords, feats, run)``: the region's ``(n_in, 3)`` input
    coordinates, its ``(n_in, Min)`` input feature Tensor and its
    :class:`ModuleRun`.  Gradients flow unless the caller disables them.
    """
    ngraph = net.network_graph(strategy)
    executor = GraphExecutor()
    executor.run_network(ngraph, np.asarray(cloud)[None])
    values, region = executor.values, ngraph.regions[-1]
    coords, centroids = values[region.coords][0], values[region.sample]
    return coords, values[region.feats], ModuleRun(
        coords[centroids], values[region.output], values[region.search],
        centroids, region_pft(ngraph, values, region))


def reference_module_forward(module, coords, feats, strategy):
    """The pre-IR hand-written module forward over one cloud, kept verbatim.

    These are the strategy bodies the operator-graph executor replaced
    in :mod:`repro.core.module`; they survive here as the one
    independent oracle for what a module computes.  The executor is held
    to them bit for bit, region by region of every network graph.
    Returns a :class:`ModuleRun`.
    """
    spec = module.spec
    centroid_idx = strided_centroids(coords.shape[0], spec.n_out)
    out_coords = coords[centroid_idx]
    space = coords if spec.search_space == "coords" else feats.data
    indices, _ = knn_brute_force(space, space[centroid_idx], spec.k)

    if strategy == "original":
        k, m_in = spec.k, spec.in_dim
        rows = len(centroid_idx)
        gathered = feats.gather(indices)
        centroids = feats.gather(centroid_idx).reshape(rows, 1, m_in)
        offsets = (gathered - centroids).reshape(rows * k, m_in)
        transformed = module.mlp(offsets).reshape(rows, k, spec.out_dim)
        return ModuleRun(out_coords, transformed.max(axis=1), indices,
                         centroid_idx, None)
    if strategy == "delayed":
        pft_tensor = module.mlp(feats)
        gathered = pft_tensor.gather(indices)
        reduced = gathered.max(axis=1)
        out = reduced - pft_tensor.gather(centroid_idx)
        return ModuleRun(out_coords, out, indices, centroid_idx,
                         pft_tensor.data)
    mlp = module.mlp
    first = mlp.layers[0]
    hoisted = feats @ first.weight
    k = spec.k
    rows = len(centroid_idx)
    hidden = hoisted.shape[-1]
    gathered = hoisted.gather(indices)
    centroids = hoisted.gather(centroid_idx).reshape(rows, 1, hidden)
    offsets = (gathered - centroids).reshape(rows * k, hidden)
    if first.bias is not None:
        offsets = offsets + first.bias
    out = offsets
    for i, (linear, relu) in enumerate(zip(mlp.layers, mlp.relu, strict=True)):
        if i:  # layer 0's product is the hoisted one, biased above
            out = linear(out)
        if relu:
            out = out.relu()
    transformed = out.reshape(rows, k, spec.out_dim)
    return ModuleRun(
        out_coords, transformed.max(axis=1), indices, centroid_idx, hoisted.data
    )


def reference_module_emission(spec, strategy, trace):
    """The pre-IR hand-written analytic emission of one module, kept
    verbatim as the golden reference every region's lowering must
    reproduce exactly.  Appends to ``trace`` and returns it."""
    n_in, n_out, k = spec.n_in, spec.n_out, spec.k
    dims = spec.mlp_dims
    name = spec.name

    if n_out < n_in:
        trace.add(SampleOp("O", name, n_points=n_in, n_samples=n_out))

    if strategy == "original":
        trace.add(
            NeighborSearchOp(
                "N", name, n_queries=n_out, n_points=n_in, k=k, dim=spec.search_dim
            )
        )
        trace.add(
            GatherOp(
                "A", name,
                n_centroids=n_out, k=k, feature_dim=dims[0], table_rows=n_in,
            )
        )
        trace.add(SubtractOp("A", name, rows=n_out * k, dim=dims[0]))
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(MatMulOp("F", name, rows=n_out * k, in_dim=a, out_dim=b))
        trace.add(
            ReduceMaxOp("F", name, n_centroids=n_out, k=k, feature_dim=dims[-1])
        )
    elif strategy == "delayed":
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(
                MatMulOp(
                    "F", name, parallelizable=True, rows=n_in, in_dim=a, out_dim=b
                )
            )
        trace.add(
            NeighborSearchOp(
                "N", name, parallelizable=True,
                n_queries=n_out, n_points=n_in, k=k, dim=spec.search_dim,
            )
        )
        trace.add(
            GatherOp(
                "A", name,
                n_centroids=n_out, k=k, feature_dim=dims[-1], table_rows=n_in,
            )
        )
        trace.add(
            ReduceMaxOp("A", name, n_centroids=n_out, k=k, feature_dim=dims[-1])
        )
        trace.add(SubtractOp("A", name, rows=n_out, dim=dims[-1]))
    else:  # limited
        hidden = dims[1]
        trace.add(
            MatMulOp(
                "F", name, parallelizable=True,
                rows=n_in, in_dim=dims[0], out_dim=hidden,
            )
        )
        trace.add(
            NeighborSearchOp(
                "N", name, parallelizable=True,
                n_queries=n_out, n_points=n_in, k=k, dim=spec.search_dim,
            )
        )
        trace.add(
            GatherOp(
                "A", name,
                n_centroids=n_out, k=k, feature_dim=hidden, table_rows=n_in,
            )
        )
        trace.add(SubtractOp("A", name, rows=n_out * k, dim=hidden))
        for a, b in zip(dims[1:-1], dims[2:]):
            trace.add(MatMulOp("F", name, rows=n_out * k, in_dim=a, out_dim=b))
        trace.add(
            ReduceMaxOp("F", name, n_centroids=n_out, k=k, feature_dim=dims[-1])
        )
    return trace


def _shape(value):
    """A graph value's shape; a decoder search's is its NIT rows'."""
    return (value[0] if isinstance(value, tuple) else value).shape


def assert_values_match_attrs(ngraph, values, batch):
    """Every node's value from an interpreter run over ``batch`` clouds
    has the shape its attrs declare — the sizes the trace lowering reads
    — so the lowered trace describes the operators that actually ran.

    ``values`` is :attr:`repro.graph.GraphExecutor.values` after
    ``run_network``: it must hold every node of the graph.
    """
    assert set(values) == {node.id for node in ngraph.graph}
    for node in ngraph.graph:
        a, kind = node.attrs, node.kind
        shape = _shape(values[node.id])
        ins = [_shape(values[i]) for i in node.inputs]
        where = f"{ngraph.network} [{ngraph.strategy}] %{node.id} {kind}"
        if kind == "sample":
            assert ins[0][1] == a["n_points"], where
            assert shape == (a["n_samples"],), where
        elif kind == "search":
            assert ins[0][-1] == a["dim"], where
            assert int(np.prod(ins[0][:-1])) == batch * a["n_points"], where
            assert shape == (batch * a["n_queries"], a["k"]), where
        elif kind == "aggregate":
            rows = a["n_centroids"] * (1 if a["reduce"] else a["k"])
            assert ins[0] == (batch * a["table_rows"], a["dim"]), where
            assert ins[1] == (batch * a["n_centroids"], a["k"]), where
            assert shape == (batch * rows, a["dim"]), where
        elif kind == "matmul":
            assert ins[0] == (batch * a["rows"], a["in_dim"]), where
            assert shape == (batch * a["rows"], a["out_dim"]), where
        elif kind == "reduce_max":
            assert ins[0] == (batch * a["n_centroids"] * a["k"],
                              a["feature_dim"]), where
            assert shape == (batch * a["n_centroids"], a["feature_dim"]), where
        elif kind == "concat":
            assert shape == (batch * a["rows"], a["dim"]), where
        elif kind == "interpolate":
            assert ins[0] == (batch * a["n_points"], a["k"]), where
            assert shape == (batch * a["n_points"], a["feature_dim"]), where
        elif kind == "global_max":
            assert ins[0] == (batch * a["k"], a["dim"]), where
            assert shape == (batch, a["dim"]), where
        elif kind == "epilogue":
            assert shape == ins[0], where
