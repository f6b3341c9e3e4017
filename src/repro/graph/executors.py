"""The graph interpreter: run module and network graphs over real point data.

One class, :class:`GraphExecutor`, interprets both graph forms over the
autograd tensors, and it knows one arity: **a cloud is a stack of one**.
Coordinates are ``(batch, n, 3)`` stacks and features flat
``(batch * n, C)`` tensors in cloud-major row order; the neighbor
search runs over the stack, the resulting cloud-local indices are
lifted into the flat row space, and every downstream node processes the
whole stack as one tall matrix — the same arithmetic per row at every
height, which is why a stack of one agrees bit for bit with the same
cloud inside a taller stack.  The single-cloud front doors
(:meth:`repro.core.module.PointCloudModule.forward`,
:meth:`repro.networks.base.PointCloudNetwork.forward`) lift with
``cloud[None]`` and unwrap the result; the executor never looks at
rank.

* :meth:`GraphExecutor.run` executes one *module* graph;
* :meth:`GraphExecutor.run_network` executes a whole-*network* graph
  (:mod:`repro.graph.network`): module-region nodes go through the same
  per-node arithmetic, heads / decoders / skip glue are handled beside
  them;
* :meth:`GraphExecutor.run_composed` is the per-module composition
  reference the network-graph tests compare against.

Subclasses change only *how nodes are walked* (:meth:`GraphExecutor._walk`);
:class:`repro.engine.scheduler.OverlapExecutor` walks the dependency
frontier instead of the node list.

An optional :class:`OpRecorder` captures the shape of every logical
operator actually executed (fused nodes record their constituents),
which the trace/execution-consistency tests compare against the graph's
lowered :class:`~repro.profiling.trace.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..neighbors import neighbor_search
from ..neural import Tensor, concat
from ..neural.layers import Linear
from .network import MODULE_KINDS

__all__ = ["ExecutionResult", "GraphExecutor", "OpRecorder"]


@dataclass
class OpRecorder:
    """Collects (kind, shape attributes) for every executed operator."""

    records: list = field(default_factory=list)

    def record(self, kind, **info):
        """Append one executed operator's kind and shape attributes."""
        self.records.append({"kind": kind, **info})

    def by_kind(self, kind):
        """All records of one operator kind, in execution order."""
        return [r for r in self.records if r["kind"] == kind]


@dataclass
class ExecutionResult:
    """What a module graph run produces.

    ``features`` is the module output tensor; ``indices`` the neighbor
    index table (cloud-local, (n_out, k) single / (batch, n_out, k)
    batched); ``centroid_idx`` the (cloud-local) sampled centroids;
    ``pft_data`` the Point Feature Table rows when the strategy
    produced one.
    """

    features: object
    indices: np.ndarray
    centroid_idx: np.ndarray
    pft_data: np.ndarray = None


def _mlp_segments(mlp):
    """Split an MLP's layer list into per-Linear segments.

    Segment ``i`` starts at the i-th Linear and runs up to (excluding)
    the next one, so it carries the Linear plus its BatchNorm/ReLU tail.
    Graph ``matmul`` node ``layer=i`` executes segment ``i``.
    """
    layers = list(mlp.net.layers)
    starts = [i for i, layer in enumerate(layers) if isinstance(layer, Linear)]
    if not starts:
        raise TypeError("module MLP has no Linear layers to execute")
    bounds = starts + [len(layers)]
    return [layers[a:b] for a, b in zip(starts, bounds[1:])]


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

    # -- drivers ------------------------------------------------------------

    def run(self, graph, module, coords, features, centroid_idx=None):
        """Execute a module ``graph`` for ``module`` over a stack of clouds.

        ``coords`` is ``(batch, n_in, 3)`` and ``features`` the flat
        ``(batch * n_in, m)`` tensor; ``centroid_idx`` optionally pins
        externally-chosen cloud-local centroids (multi-scale grouping
        shares one set across branches).
        """
        segments, state = self._init_run(module)

        def execute(node, env):
            return self._exec_node(node, env, module, coords, features,
                                   centroid_idx, segments, state)

        env = self._walk(graph, execute)
        if len(graph.outputs) != 1:
            raise ValueError("module graphs produce exactly one output")
        return ExecutionResult(
            env[graph.outputs[0]],
            state["indices_local"],
            np.asarray(state["centroid_local"]),
            state["pft"],
        )

    def run_network(self, ngraph, network, coords):
        """Execute the whole network graph over a ``(batch, n, 3)`` stack."""
        self._start_run(ngraph, coords)

        def execute(node, env):
            return self._exec_network_node(node, env, ngraph, coords)

        return self._network_outputs(ngraph, self._walk(ngraph.graph, execute))

    def run_composed(self, ngraph, network, coords):
        """Per-module composition reference: the pre-network-graph path.

        Every module region executes through
        :meth:`~repro.core.module.PointCloudModule.forward_batch` (a
        fresh per-module executor, exactly as networks composed modules
        before whole-network graphs); glue nodes still interpret the
        graph.  Outputs are bit-exact against :meth:`run_network` — the
        ``netgraph`` bench row measures the two against each other.
        """
        self._start_run(ngraph, coords)
        env = {}
        regions = {region.module: region for region in ngraph.regions}
        done = set()
        for node in ngraph.graph:
            index = node.attrs.get("module")
            if index is not None:
                if index in done:
                    continue
                region = regions[index]
                out = ngraph.refs[index].forward_batch(
                    env[region.coords], env[region.feats],
                    strategy=ngraph.strategy,
                )
                env[region.sample] = out.nit.centroids
                env[region.output] = out.features
                done.add(index)
                continue
            env[node.id] = self._exec_network_node(node, env, ngraph, coords)
        return self._network_outputs(ngraph, env)

    def _walk(self, graph, execute):
        """Compute every node with ``execute(node, env)``, front to back.

        The one method a subclass overrides: *when* nodes run is the
        walker's business, *what* they compute never is.
        """
        env = {}
        for node in graph:
            env[node.id] = execute(node, env)
        return env

    def _init_run(self, module):
        """Per-run scratch of one module (region): ``(segments, state)``."""
        state = {
            "centroid_local": None,  # cloud-local centroid ids
            "centroid_rows": None,   # rows into the flat feature table
            "derived_centroids": False,
            "indices_local": None,   # cloud-local NIT indices
            "indices_rows": None,    # row-space NIT indices
            "pft": None,
        }
        return _mlp_segments(module.mlp), state

    def _start_run(self, ngraph, coords):
        self._nclouds = coords.shape[0]
        # Pre-create per-region scratch so a pooled frontier walk never
        # races two threads on first touch of a module's state.
        self._module_runs = {
            region.module: self._init_run(ngraph.refs[region.module])
            for region in ngraph.regions
        }

    # -- module-region dispatch ----------------------------------------------

    @staticmethod
    def _row_base(coords):
        """First flat feature row of every cloud of the stack, as a column."""
        batch, n_in = coords.shape[0], coords.shape[1]
        return (np.arange(batch, dtype=np.int64) * n_in)[:, None]

    def _exec_node(self, node, env, module, coords, features, centroid_idx,
                   segments, state):
        kind = node.kind
        if kind == "input":
            return features
        if kind == "sample":
            n_in = coords.shape[1]
            local = centroid_idx
            if local is None:
                local = module._sample_centroids(n_in)
            state["centroid_local"] = local
            state["centroid_rows"] = (
                np.asarray(local)[None, :] + self._row_base(coords)
            ).reshape(-1)
            state["derived_centroids"] = centroid_idx is None
            if self.recorder is not None:
                self.recorder.record("sample", n_points=n_in,
                                     n_samples=len(np.atleast_1d(local)))
            return local
        if kind == "search":
            batch, n_in = coords.shape[0], coords.shape[1]
            if node.attrs["space"] == "coords":
                space = coords
            else:
                space = features.data.reshape(batch, n_in, module.spec.in_dim)
            # Cache keying by node signature is only sound when the
            # queries are the node's own deterministic centroid draw.
            tag = node.attrs.get("signature") if state["derived_centroids"] \
                else None
            local, _ = neighbor_search(
                space, space[:, state["centroid_local"]], module.spec.k,
                tag=tag,
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
        if kind == "gather":
            return self._gather(env[node.inputs[0]], state)
        if kind == "subtract":
            if node.attrs["mode"] == "pre":
                return self._subtract_pre(
                    env[node.inputs[0]], env[node.inputs[1]], state
                )
            return self._subtract_post(
                env[node.inputs[0]], env[node.inputs[1]], state
            )
        if kind == "matmul":
            return self._matmul(node, env[node.inputs[0]], segments, state)
        if kind == "reduce_max":
            # The un-fused node form: rows*k flat rows (or a gather's
            # block) back to (rows, k, dim) before the reduction.
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
            return self._epilogue(node, env[node.inputs[0]], segments)
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

    def _matmul(self, node, x, segments, state):
        segment = segments[node.attrs["layer"]]
        if node.attrs.get("weight_only"):
            out = x @ segment[0].weight
        else:
            out = x
            for layer in segment:
                out = layer(out)
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

    def _epilogue(self, node, x, segments):
        segment = segments[node.attrs["layer"]]
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

    def _exec_network_node(self, node, env, ngraph, coords):
        kind = node.kind
        if kind in MODULE_KINDS:
            index = node.attrs["module"]
            segments, state = self._module_runs[index]
            # Stage bindings are fetched leniently: a coords-space
            # sample/search legitimately runs before its stage features
            # exist — that gap IS the cross-module overlap.  Nodes that
            # do consume a binding carry it as a real input edge, so
            # the frontier guarantees it is present by execution time.
            return self._exec_node(
                node, env, ngraph.refs[index],
                env.get(node.attrs.get("coords")),
                env.get(node.attrs.get("feats")),
                None, segments, state,
            )
        nclouds = self._nclouds
        if kind == "coords":
            if not node.inputs:
                return coords
            return env[node.inputs[0]][:, env[node.inputs[1]]]
        if kind == "lift":
            stage = env[node.inputs[0]]
            return Tensor(stage.reshape(-1, stage.shape[-1]).copy())
        if kind == "head":
            out = ngraph.refs[node.attrs["ref"]](env[node.inputs[0]])
            if self.recorder is not None:
                self.recorder.record("head", rows=out.shape[0],
                                     dims=node.attrs["dims"])
            return out
        if kind == "propagate":
            fp = ngraph.refs[node.attrs["ref"]]
            out = fp.forward_batch(*(env[i] for i in node.inputs))
            if self.recorder is not None:
                self.recorder.record("propagate", rows=out.shape[0],
                                     dims=node.attrs["dims"])
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
