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
stack.  The single-cloud front doors
(:meth:`repro.core.module.PointCloudModule.forward`,
:meth:`repro.networks.base.PointCloudNetwork.forward`) lift with
``cloud[None]`` and unwrap the result; the executor never looks at
rank.

The interpreter trains and checks; it does not serve.
:class:`~repro.engine.runner.BatchRunner` runs compiled kernel
programs, and the float64 one is held to this interpreter bit for bit.

:meth:`GraphExecutor.run_network` is the one driver.  It walks the node
list front to back (the list order is the topological order):
module-region nodes go through the per-node arithmetic below, heads /
decoder levels / skip glue are handled beside them.  A module run alone
is a one-module network graph whose ``input`` node is the feature table
handed to ``run_network``; its sampled centroids, Neighbor Index Table
and Point Feature Table stay readable in :attr:`GraphExecutor.region_state`
after the run.

An optional :class:`OpRecorder` captures the shape of every logical
operator actually executed (an ``aggregate`` node records its gather /
[reduce-max /] subtract constituents),
which the trace/execution-consistency tests compare against the graph's
lowered :class:`~repro.profiling.trace.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..neighbors import knn_brute_force
from ..neural import Tensor, concat
from ..neural.layers import Linear, segment_layers

__all__ = ["GraphExecutor", "OpRecorder", "per_cloud"]


def _per_cloud_matmul(x, weight, nclouds):
    """``x @ weight`` over flat cloud-major rows, one GEMM per cloud."""
    rows, k = x.shape
    out = x.reshape(nclouds, rows // nclouds, k) @ weight
    return out.reshape(rows, out.shape[-1])


def per_cloud(layers, x, nclouds):
    """Run ``layers`` over the flat rows of ``nclouds`` stacked clouds.

    A BLAS call never mixes clouds: each Linear multiplies the rows as a
    ``(nclouds, rows, K)`` stack, which numpy runs as one GEMM per cloud —
    the very call the cloud makes alone — so a cloud's bits do not
    depend on what shares its stack.  Other layers are row-wise.
    """
    for layer in layers:
        if isinstance(layer, Linear):
            x = _per_cloud_matmul(x, layer.weight, nclouds)
            if layer.bias is not None:
                x = x + layer.bias
        else:
            x = layer(x)
    return x


@dataclass
class OpRecorder:
    """Collects (kind, shape attributes) for every executed operator."""

    records: list = field(default_factory=list)

    def record(self, kind, **info):
        """Append one executed operator's kind and shape attributes."""
        self.records.append({"kind": kind, **info})


class GraphExecutor:
    """The graph interpreter over the autograd tensors.

    ``coords`` values are ``(batch, n, 3)`` stacks and feature values
    flat ``(batch * n, C)`` tensors in cloud-major row order; a single
    cloud is the stack of height one its front door lifts it into.
    Only sampling, search and the per-cloud network glue know about the
    stack at all — every other node works on flat rows.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder

    def run_network(self, ngraph, network, coords, features=None):
        """Execute the network graph over a ``(batch, n, 3)`` stack.

        ``features`` is the flat ``(batch * n, C)`` table a graph's
        ``input`` node reads (a module run alone); networks lift theirs
        from the coordinates.  Afterwards :attr:`region_state` maps each
        module region to its run's sampled centroids (cloud-local),
        neighbor indices (cloud-local, ``(batch, n_out, k)``) and Point
        Feature Table (or ``None``).
        """
        self._nclouds = coords.shape[0]
        self.region_state = {
            region.module: {
                "segments": segment_layers(
                    ngraph.refs[region.module].mlp.export_layers()),
                "centroid_local": None,  # cloud-local centroid ids
                "centroid_rows": None,   # rows into the flat feature table
                "indices_local": None,   # cloud-local NIT indices
                "indices_rows": None,    # row-space NIT indices
                "pft": None,
            }
            for region in ngraph.regions
        }
        env = {}
        for node in ngraph.graph:
            env[node.id] = self._exec_network_node(node, env, ngraph, coords,
                                                   features)
        return self._network_outputs(ngraph, env)

    # -- module-region dispatch ----------------------------------------------

    @staticmethod
    def _row_base(coords):
        """First flat feature row of every cloud of the stack, as a column."""
        batch, n_in = coords.shape[0], coords.shape[1]
        return (np.arange(batch, dtype=np.int64) * n_in)[:, None]

    def _exec_node(self, node, env, module, coords, features, state):
        kind = node.kind
        if kind == "sample":
            n_in = coords.shape[1]
            local = module._sample_centroids(n_in)
            state["centroid_local"] = local
            state["centroid_rows"] = (
                local[None, :] + self._row_base(coords)
            ).reshape(-1)
            if self.recorder is not None:
                self.recorder.record("sample", n_points=n_in,
                                     n_samples=len(local))
            return local
        if kind == "search":
            batch, n_in = coords.shape[0], coords.shape[1]
            if node.attrs["space"] == "coords":
                space = coords
            else:
                space = features.data.reshape(batch, n_in, module.spec.in_dim)
            local, _ = knn_brute_force(
                space, space[:, state["centroid_local"]], module.spec.k,
            )
            rows = (local + self._row_base(coords)[:, None]).reshape(
                batch * local.shape[1], local.shape[2]
            )
            state["indices_local"] = local
            state["indices_rows"] = rows
            if self.recorder is not None:
                self.recorder.record("search", n_queries=local.shape[-2],
                                     n_points=n_in, k=local.shape[-1],
                                     dim=space.shape[-1])
            return rows
        if kind == "matmul":
            return self._matmul(node, env[node.inputs[0]], state)
        if kind == "reduce_max":
            # The post-MLP reduction: rows*k flat rows back to
            # (rows, k, dim) before the reduction.
            x = env[node.inputs[0]]
            k = state["indices_rows"].shape[1]
            return self._reduce_max(x.reshape(-1, k, x.shape[-1]), state)
        if kind == "aggregate":
            source = env[node.inputs[0]]
            gathered = self._gather(source, state)
            if node.attrs["reduce"]:
                reduced = self._reduce_max(gathered, state)
                return self._subtract_post(reduced, source, state)
            return self._subtract_pre(gathered, source, state)
        if kind == "epilogue":
            return self._epilogue(node, env[node.inputs[0]], state)
        raise ValueError(f"executor cannot handle node kind {kind!r}")

    # -- operator semantics (identical to the pre-IR strategy bodies) --------

    def _gather(self, source, state):
        indices = state["indices_rows"]
        gathered = source.gather(indices)  # (rows, k, dim)
        if self.recorder is not None:
            self.recorder.record("gather", n_centroids=indices.shape[0],
                         k=indices.shape[1], feature_dim=gathered.shape[-1],
                         table_rows=source.shape[0])
        return gathered

    def _subtract_pre(self, gathered, source, state):
        rows, k, dim = gathered.shape
        centroids = source.gather(state["centroid_rows"]).reshape(rows, 1, dim)
        offsets = (gathered - centroids).reshape(rows * k, dim)
        if self.recorder is not None:
            self.recorder.record("subtract", rows=rows * k, dim=dim)
        return offsets

    def _subtract_post(self, reduced, source, state):
        out = reduced - source.gather(state["centroid_rows"])
        if self.recorder is not None:
            self.recorder.record("subtract", rows=out.shape[0], dim=out.shape[1])
        return out

    def _matmul(self, node, x, state):
        segment = state["segments"][node.attrs["layer"]]
        if node.attrs.get("weight_only"):
            out = _per_cloud_matmul(x, segment[0].weight, self._nclouds)
        else:
            out = per_cloud(segment, x, self._nclouds)
        if self.recorder is not None:
            self.recorder.record("matmul", rows=x.shape[0], in_dim=x.shape[1],
                         out_dim=out.shape[1])
        if node.attrs.get("pft"):
            state["pft"] = out.data
        return out

    def _reduce_max(self, x, state):
        reduced = x.max(axis=1)
        if self.recorder is not None:
            self.recorder.record("reduce_max", n_centroids=x.shape[0], k=x.shape[1],
                         feature_dim=x.shape[2])
        return reduced

    def _epilogue(self, node, x, state):
        segment = state["segments"][node.attrs["layer"]]
        linear = segment[0]
        # The hoisted product ran weight-only: the bias cancels in the
        # centroid subtraction, so it is re-added here — followed by the
        # layer's activation tail — to stay exact.
        if linear.bias is not None:
            x = x + linear.bias
        for layer in segment[1:]:
            x = layer(x)
        return x

    # -- network-level dispatch ----------------------------------------------

    def _exec_network_node(self, node, env, ngraph, coords, features):
        kind = node.kind
        if "module" in node.attrs:
            index = node.attrs["module"]
            # Stage bindings are fetched leniently: a coords-space
            # sample/search depends only on the stage coordinates, so
            # it may run before its stage features exist.  Nodes that
            # do consume a binding carry it as a real input edge, so
            # the topological node order guarantees it is present.
            return self._exec_node(
                node, env, ngraph.refs[index],
                env.get(node.attrs.get("coords")),
                env.get(node.attrs.get("feats")),
                self.region_state[index],
            )
        nclouds = self._nclouds
        if kind == "input":
            return features
        if kind == "coords":
            if not node.inputs:
                return coords
            return env[node.inputs[0]][:, env[node.inputs[1]]]
        if kind == "lift":
            stage = env[node.inputs[0]]
            return Tensor(stage.reshape(-1, stage.shape[-1]).copy())
        if kind == "head":
            out = per_cloud(ngraph.refs[node.attrs["ref"]].export_layers(),
                            env[node.inputs[0]], nclouds)
            if self.recorder is not None:
                self.recorder.record("head", rows=out.shape[0],
                                     dims=node.attrs["dims"])
            return out
        if kind == "search":
            # A decoder's coordinate kNN: each fine point's nearest
            # coarse points as flat coarse rows, and their distances.
            points, queries = (env[i] for i in node.inputs)
            local, dist = knn_brute_force(points, queries, node.attrs["k"])
            rows = local + self._row_base(points)[:, None]
            return (rows.reshape(-1, local.shape[-1]),
                    dist.reshape(-1, local.shape[-1]))
        if kind == "interpolate":
            rows, dist = env[node.inputs[0]]
            weights = 1.0 / np.maximum(dist, 1e-8)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            gathered = env[node.inputs[1]].gather(rows)  # (rows, k, C)
            out = (gathered * Tensor(weights[:, :, None])).sum(axis=1)
            if self.recorder is not None:
                self.recorder.record("interpolate", n_points=out.shape[0],
                                     k=rows.shape[1],
                                     feature_dim=out.shape[1])
            return out
        if kind == "global_max":
            x = env[node.inputs[0]]
            rows = x.shape[0] // nclouds
            out = x.reshape(nclouds, rows, x.shape[1]).max(axis=1)
            if self.recorder is not None:
                self.recorder.record("global_max", k=rows, dim=x.shape[1])
            return out
        if kind == "broadcast":
            idx = np.repeat(np.arange(nclouds), node.attrs["rows"])
            return env[node.inputs[0]].gather(idx)
        if kind == "select":
            logits = env[node.inputs[1]].data
            scores = (logits[:, 1] - logits[:, 0]).reshape(nclouds, -1)
            order = np.argsort(-scores, axis=1,
                               kind="stable")[:, :node.attrs["n_select"]]
            selected = np.take_along_axis(env[node.inputs[0]],
                                          order[:, :, None], axis=1)
            return selected - selected.mean(axis=1, keepdims=True)
        if kind == "concat":
            if self.recorder is not None:
                self.recorder.record("concat", rows=node.attrs.get("rows"),
                                     dim=node.attrs.get("dim"),
                                     traced=node.attrs.get("traced", True))
            return concat([env[i] for i in node.inputs],
                          axis=node.attrs.get("axis", 1))
        raise ValueError(f"network executor cannot handle kind {kind!r}")

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
