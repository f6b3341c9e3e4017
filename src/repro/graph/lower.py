"""Lower an operator graph to a profiling :class:`~repro.profiling.trace.Trace`.

The lowering walks the graph's node list — the same order the executors
evaluate — and appends one operator record per node; an ``aggregate``
node, the one aggregation node of the IR, expands into the gather /
[reduce-max /] subtract records of the paper's op taxonomy.
Because analytics and execution both derive from the same graph, the
trace the hardware models consume is consistent with the ops the
executors run *by construction*.  :func:`lower_module_trace` is the one
trace entry for a module alone (``PointCloudModule.forward(trace=...)``
calls it), :func:`lower_network_trace` the one for a whole network.
"""

from __future__ import annotations

from ..profiling.trace import (
    ConcatOp,
    GatherOp,
    InterpolateOp,
    MatMulOp,
    NeighborSearchOp,
    ReduceMaxOp,
    SampleOp,
    SubtractOp,
)
from .ir import resolve_dim, shape_env
from .passes import module_graph

__all__ = ["lower_graph", "lower_module_trace", "lower_network_trace"]


def lower_graph(graph, trace, env, name=None):
    """Append ``graph``'s operator records to ``trace`` under ``env``.

    Module names come from each node's ``label`` attr when present (the
    network builder tags every inlined/glue node), falling back to
    ``name``; nodes marked ``traced=False`` (bookkeeping glue the
    analytic emission never reported) are skipped.
    """
    default_name = graph.name if name is None else name

    def dim(value):
        return resolve_dim(value, env)

    for node in graph:
        attrs = node.attrs
        if attrs.get("traced") is False:
            continue
        name = attrs.get("label", default_name)
        if node.kind == "sample":
            if dim(attrs["n_samples"]) < dim(attrs["n_points"]):
                trace.add(SampleOp(node.phase, name,
                                   n_points=dim(attrs["n_points"]),
                                   n_samples=dim(attrs["n_samples"])))
        elif node.kind == "search":
            trace.add(NeighborSearchOp(
                node.phase, name, parallelizable=node.parallelizable,
                n_queries=dim(attrs["n_queries"]),
                n_points=dim(attrs["n_points"]),
                k=dim(attrs["k"]), dim=dim(attrs["dim"]),
            ))
        elif node.kind == "matmul":
            trace.add(MatMulOp(
                node.phase, name, parallelizable=node.parallelizable,
                rows=dim(attrs["rows"]),
                in_dim=dim(attrs["in_dim"]), out_dim=dim(attrs["out_dim"]),
            ))
        elif node.kind == "reduce_max":
            trace.add(ReduceMaxOp(node.phase, name,
                                  n_centroids=dim(attrs["n_centroids"]),
                                  k=dim(attrs["k"]),
                                  feature_dim=dim(attrs["feature_dim"])))
        elif node.kind == "aggregate":
            n_centroids, k = dim(attrs["n_centroids"]), dim(attrs["k"])
            width = dim(attrs["dim"])
            trace.add(GatherOp("A", name, n_centroids=n_centroids, k=k,
                               feature_dim=width,
                               table_rows=dim(attrs["table_rows"])))
            if attrs["reduce"]:
                trace.add(ReduceMaxOp("A", name, n_centroids=n_centroids,
                                      k=k, feature_dim=width))
            # One offset row per centroid once reduced, else per neighbor.
            rows = n_centroids if attrs["reduce"] else n_centroids * k
            trace.add(SubtractOp("A", name, rows=rows, dim=width))
        elif node.kind == "concat":
            trace.add(ConcatOp(node.phase, name, rows=dim(attrs["rows"]),
                               dim=dim(attrs["dim"])))
        elif node.kind == "head":
            dims = attrs["dims"]
            for a, b in zip(dims[:-1], dims[1:]):
                trace.add(MatMulOp("F", name, rows=dim(attrs["rows"]),
                                   in_dim=a, out_dim=b))
        elif node.kind == "interpolate":
            trace.add(InterpolateOp(node.phase, name,
                                    n_points=dim(attrs["n_points"]),
                                    k=dim(attrs["k"]),
                                    feature_dim=dim(attrs["feature_dim"])))
        elif node.kind == "global_max":
            trace.add(ReduceMaxOp("F", name, n_centroids=1,
                                  k=dim(attrs["k"]),
                                  feature_dim=dim(attrs["dim"])))
        elif node.kind in ("input", "epilogue", "coords", "lift", "select",
                           "broadcast"):
            continue
        else:
            raise ValueError(f"cannot lower node kind {node.kind!r}")
    return trace


def lower_module_trace(spec, strategy, trace, n_in=None):
    """Lower one module spec's graph under ``strategy`` into ``trace``.

    Purely analytic — never touches point data — so paper-scale inputs
    (130K-point KITTI frames) lower in microseconds.  An unknown
    ``strategy`` is a ``ValueError`` (from
    :func:`~repro.graph.passes.run_pipeline`).  Returns ``trace``.
    """
    graph = module_graph(spec, strategy)
    env = shape_env(spec, n_in=n_in)
    return lower_graph(graph, trace, env, name=spec.name)


def lower_network_trace(ngraph, trace):
    """Lower a whole-network graph into ``trace``.

    Network graphs bind their dims statically at build time (networks
    validate their input scale), so the environment is empty; per-node
    ``label`` attrs carry the module names.  This is what
    :meth:`repro.networks.base.PointCloudNetwork.trace` emits — the
    analytic stream and the executed program share one graph.
    """
    return lower_graph(ngraph.graph, trace, {}, name=ngraph.network)
