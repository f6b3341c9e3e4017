"""Lower a network graph to a profiling :class:`~repro.profiling.trace.Trace`.

The lowering walks the graph's node list — the same order the executors
evaluate — and appends one operator record per node; an ``aggregate``
node, the one aggregation node of the IR, expands into the gather /
[reduce-max /] subtract records of the paper's op taxonomy.
Because analytics and execution both derive from the same graph, the
trace the hardware models consume is consistent with the ops the
executors run *by construction*.  :func:`lower_network_trace` is the
one trace entry, behind
:meth:`repro.networks.base.PointCloudNetwork.trace`.
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

__all__ = ["lower_network_trace"]

#: Kinds that are bookkeeping, not operators: they lower to no record.
_UNTRACED = ("epilogue", "coords", "lift", "select", "broadcast")


def lower_network_trace(ngraph, trace):
    """Append ``ngraph``'s operator records to ``trace`` and return it.

    Purely analytic — never touches point data — so paper-scale inputs
    (130K-point KITTI frames) lower in microseconds.  Each record takes
    its module name from the node's ``label`` attr; nodes marked
    ``traced=False`` (glue the analytic emission never reported) are
    skipped.
    """
    for node in ngraph.graph:
        attrs = node.attrs
        if node.kind in _UNTRACED or attrs.get("traced") is False:
            continue
        name = attrs["label"]
        if node.kind == "sample":
            if attrs["n_samples"] < attrs["n_points"]:
                trace.add(SampleOp(node.phase, name,
                                   n_points=attrs["n_points"],
                                   n_samples=attrs["n_samples"]))
        elif node.kind == "search":
            trace.add(NeighborSearchOp(
                node.phase, name, parallelizable=node.parallelizable,
                n_queries=attrs["n_queries"], n_points=attrs["n_points"],
                k=attrs["k"], dim=attrs["dim"],
            ))
        elif node.kind == "matmul":
            trace.add(MatMulOp(
                node.phase, name, parallelizable=node.parallelizable,
                rows=attrs["rows"], in_dim=attrs["in_dim"],
                out_dim=attrs["out_dim"],
            ))
        elif node.kind == "reduce_max":
            trace.add(ReduceMaxOp(node.phase, name,
                                  n_centroids=attrs["n_centroids"],
                                  k=attrs["k"],
                                  feature_dim=attrs["feature_dim"]))
        elif node.kind == "aggregate":
            n_centroids, k, width = (attrs["n_centroids"], attrs["k"],
                                     attrs["dim"])
            trace.add(GatherOp("A", name, n_centroids=n_centroids, k=k,
                               feature_dim=width,
                               table_rows=attrs["table_rows"]))
            if attrs["reduce"]:
                trace.add(ReduceMaxOp("A", name, n_centroids=n_centroids,
                                      k=k, feature_dim=width))
            # One offset row per centroid once reduced, else per neighbor.
            rows = n_centroids if attrs["reduce"] else n_centroids * k
            trace.add(SubtractOp("A", name, rows=rows, dim=width))
        elif node.kind == "concat":
            trace.add(ConcatOp(node.phase, name, rows=attrs["rows"],
                               dim=attrs["dim"]))
        elif node.kind == "interpolate":
            trace.add(InterpolateOp(node.phase, name,
                                    n_points=attrs["n_points"], k=attrs["k"],
                                    feature_dim=attrs["feature_dim"]))
        elif node.kind == "global_max":
            trace.add(ReduceMaxOp("F", name, n_centroids=1, k=attrs["k"],
                                  feature_dim=attrs["dim"]))
        else:
            raise ValueError(f"cannot lower node kind {node.kind!r}")
    return trace
