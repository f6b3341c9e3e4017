"""The graph interpreter: run network graphs over real point data.

One class, :class:`GraphExecutor`, interprets the one graph form — the
network graph (:mod:`repro.graph.network`) — over the autograd tensors,
and it knows one arity: **a cloud is a stack of one**.  Coordinates are
``(batch, n, 3)`` stacks and features flat ``(batch * n, C)`` tensors in
cloud-major row order; the neighbor search runs over the stack, the
resulting cloud-local indices are lifted into the flat row space, and
every downstream node processes the whole stack as flat rows.  No BLAS
call mixes clouds: every Linear runs through :func:`per_cloud`, one GEMM
per cloud, so a cloud gets the same bits alone as at any place in any
stack.  The single-cloud front door
(:meth:`repro.networks.base.PointCloudNetwork.forward`) lifts with
``cloud[None]`` and unwraps the result; the executor never looks at
rank.

The interpreter trains and checks; it does not serve.
:class:`~repro.engine.runner.BatchRunner` runs compiled kernel
programs, and the float64 one is held to this interpreter bit for bit.

:meth:`GraphExecutor.run_network` is the one driver.  It walks the node
list front to back (the list order is the topological order), and a
node reads exactly its input edges: an ``aggregate`` takes its Neighbor
Index Table from its ``search`` input and its centroid ids from its
``sample`` input, the edges the kernel runtime's arena planner reads
liveness from.  After a run, :attr:`GraphExecutor.values` maps every
node id to its value, so each module region's sampled centroids,
Neighbor Index Table and Point Feature Table can be read there.
"""

from __future__ import annotations

import numpy as np

from ..core.module import strided_centroids
from ..neighbors import knn_brute_force
from ..neural import Tensor, concat

__all__ = ["GraphExecutor", "per_cloud"]


def _per_cloud_matmul(x, weight, nclouds):
    """``x @ weight`` over flat cloud-major rows, one GEMM per cloud."""
    rows, k = x.shape
    out = x.reshape(nclouds, rows // nclouds, k) @ weight
    return out.reshape(rows, out.shape[-1])


def per_cloud(linear, relu, x, nclouds):
    """Run one MLP layer over the flat rows of ``nclouds`` stacked clouds.

    A BLAS call never mixes clouds: the Linear multiplies the rows as a
    ``(nclouds, rows, K)`` stack, which numpy runs as one GEMM per cloud
    — the very call the cloud makes alone — so a cloud's bits do not
    depend on what shares its stack.  The bias and the ReLU (if
    ``relu``) are row-wise.
    """
    x = _per_cloud_matmul(x, linear.weight, nclouds)
    if linear.bias is not None:
        x = x + linear.bias
    return x.relu() if relu else x


class GraphExecutor:
    """The graph interpreter over the autograd tensors.

    ``coords`` values are ``(batch, n, 3)`` stacks and feature values
    flat ``(batch * n, C)`` tensors in cloud-major row order; a single
    cloud is the stack of height one its front door lifts it into.
    Only sampling, search and the per-cloud network glue know about the
    stack at all — every other node works on flat rows.
    """

    def run_network(self, ngraph, coords):
        """Execute the network graph over a ``(batch, n, 3)`` stack.

        Afterwards :attr:`values` maps every node id to its value, in
        walk order: a module region's sampled centroids (cloud-local)
        at ``region.sample``, its Neighbor Index Table (flat rows,
        ``(batch * n_out, k)``) at ``region.search``.
        """
        self._nclouds = coords.shape[0]
        self.values = env = {}
        for node in ngraph.graph:
            env[node.id] = self._exec(node, env, ngraph, coords)
        return self._network_outputs(ngraph, env)

    @staticmethod
    def _row_base(batch, n_in):
        """First flat feature row of every cloud of the stack, as a column."""
        return (np.arange(batch, dtype=np.int64) * n_in)[:, None]

    def _exec(self, node, env, ngraph, coords):
        """One node's value, from its input edges' values in ``env``."""
        kind, attrs = node.kind, node.attrs
        inputs = [env[i] for i in node.inputs]
        nclouds = self._nclouds
        if kind == "coords":
            if not inputs:
                return coords
            return inputs[0][:, inputs[1]]
        if kind == "sample":
            return strided_centroids(attrs["n_points"], attrs["n_samples"])
        if kind == "search" and "module" in attrs:
            return self._search(attrs, *inputs)
        if kind == "matmul":
            return self._matmul(node, ngraph, inputs[0])
        if kind == "reduce_max":
            # The post-MLP reduction: rows*k flat rows back to
            # (rows, k, dim) before the reduction.
            x = inputs[0]
            return x.reshape(-1, attrs["k"], x.shape[-1]).max(axis=1)
        if kind == "aggregate":
            source, indices, local = inputs
            centroid_rows = (
                local[None, :] + self._row_base(nclouds, attrs["table_rows"])
            ).reshape(-1)
            gathered = source.gather(indices)  # (rows, k, dim)
            if attrs["reduce"]:
                return gathered.max(axis=1) - source.gather(centroid_rows)
            rows, k, dim = gathered.shape
            centroids = source.gather(centroid_rows).reshape(rows, 1, dim)
            return (gathered - centroids).reshape(rows * k, dim)
        if kind == "epilogue":
            return self._epilogue(node, ngraph, inputs[0])
        if kind == "lift":
            stage = inputs[0]
            return Tensor(stage.reshape(-1, stage.shape[-1]).copy())
        if kind == "search":
            # A decoder's coordinate kNN: each fine point's nearest
            # coarse points as flat coarse rows, and their distances.
            points, queries = inputs
            local, dist = knn_brute_force(points, queries, attrs["k"])
            rows = local + self._row_base(*points.shape[:2])[:, None]
            return (rows.reshape(-1, local.shape[-1]),
                    dist.reshape(-1, local.shape[-1]))
        if kind == "interpolate":
            (rows, dist), coarse = inputs
            weights = 1.0 / np.maximum(dist, 1e-8)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            gathered = coarse.gather(rows)  # (rows, k, C)
            return (gathered * Tensor(weights[:, :, None])).sum(axis=1)
        if kind == "global_max":
            x = inputs[0]
            rows = x.shape[0] // nclouds
            return x.reshape(nclouds, rows, x.shape[1]).max(axis=1)
        if kind == "broadcast":
            idx = np.repeat(np.arange(nclouds), attrs["rows"])
            return inputs[0].gather(idx)
        if kind == "select":
            points, logits = inputs[0], inputs[1].data
            scores = (logits[:, 1] - logits[:, 0]).reshape(nclouds, -1)
            order = np.argsort(-scores, axis=1,
                               kind="stable")[:, :attrs["n_select"]]
            selected = np.take_along_axis(points, order[:, :, None], axis=1)
            return selected - selected.mean(axis=1, keepdims=True)
        if kind == "concat":
            return concat(inputs, axis=attrs.get("axis", 1))
        raise ValueError(f"executor cannot handle node kind {kind!r}")

    # -- operator semantics (identical to the pre-IR strategy bodies) --------

    def _search(self, attrs, space, local):
        """A module's kNN over its stage space: the NIT as flat rows."""
        batch, n_in = self._nclouds, attrs["n_points"]
        if attrs["space"] != "coords":
            space = space.data.reshape(batch, n_in, attrs["dim"])
        local, _ = knn_brute_force(space, space[:, local], attrs["k"])
        return (local + self._row_base(batch, n_in)[:, None]).reshape(
            batch * local.shape[1], local.shape[2]
        )

    def _matmul(self, node, ngraph, x):
        """One MLP layer — a region's or a head's — over flat rows."""
        linear, relu = ngraph.segment(node)
        if node.attrs.get("weight_only"):
            return _per_cloud_matmul(x, linear.weight, self._nclouds)
        return per_cloud(linear, relu, x, self._nclouds)

    def _epilogue(self, node, ngraph, x):
        linear, relu = ngraph.segment(node)
        # The hoisted product ran weight-only: the bias cancels in the
        # centroid subtraction, so it is re-added here — followed by the
        # layer's ReLU — to stay exact.
        if linear.bias is not None:
            x = x + linear.bias
        return x.relu() if relu else x

    def _network_outputs(self, ngraph, env):
        values = {}
        for out in ngraph.outputs:
            value = env[out.node]
            if out.per_point:
                rows = value.shape[0] // self._nclouds
                value = value.reshape(self._nclouds, rows, value.shape[1])
            values[out.name] = value
        if len(values) == 1 and None in values:
            return values[None]
        return values
