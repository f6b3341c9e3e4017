"""Build a module's operator graph — always in ``original`` form.

The module is the paper's unit of analysis: neighbor search (N),
aggregation (A) and feature computation (F) over one point cloud stage.
:func:`build_module_graph` encodes the *original* ordering
``F(A(N(p), p))`` exactly once; the ``delayed`` and ``limited``
orderings are not built here — they are graph-rewrite passes
(:mod:`repro.graph.passes`), which is the point of the IR: the program
transform the paper proposes is applied to the program, not re-written
by hand per strategy.

Aggregation is one ``aggregate`` node from the start: the NIT-driven
gather and the centroid subtraction (and, once delayed, the max-reduce
between them) are one pass, the granularity the paper's Aggregation
Unit consumes (§V-B), and the form every consumer of the graph reads.
Its attrs name each size once — ``n_centroids``, ``k``, ``table_rows``
and the feature width ``dim`` — and the rows it writes follow from them
and ``reduce``: ``n_centroids`` once reduced, else ``n_centroids * k``.
"""

from __future__ import annotations

from .ir import Graph

__all__ = ["build_module_graph", "search_signature"]


def search_signature(spec):
    """Stable identity of a module's neighbor search node.

    Together with the content digest of the searched point table this
    fully determines the search's queries (centroid sampling is a
    deterministic function of n_in and n_out), so the engine's
    neighbor-index cache can key on (points digest, signature) and skip
    digesting the derived query array.
    """
    return (
        f"{spec.name}:{spec.search_space}:k={spec.k}:n_out={spec.n_out}"
    )


def build_module_graph(spec):
    """The original-order graph of one :class:`~repro.core.module.ModuleSpec`.

    Shape symbols: ``n_in`` (input points), ``n_out`` (centroids), ``k``
    (neighborhood size); MLP widths are static ints from the spec.
    """
    dims = spec.mlp_dims
    g = Graph(spec.name)
    inp = g.add("input", attrs={"rows": "n_in", "dim": dims[0]})
    smp = g.add(
        "sample", attrs={"n_points": "n_in", "n_samples": "n_out"}
    )
    srch = g.add(
        "search",
        inputs=(inp.id, smp.id),
        phase="N",
        attrs={
            "n_queries": "n_out",
            "n_points": "n_in",
            "k": "k",
            "dim": spec.search_dim,
            "space": spec.search_space,
            "signature": search_signature(spec),
        },
    )
    prev = g.add(
        "aggregate",
        inputs=(inp.id, srch.id, smp.id),
        phase="A",
        attrs={
            "n_centroids": "n_out",
            "k": "k",
            "table_rows": "n_in",
            "reduce": False,
            "dim": dims[0],
        },
    )
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        prev = g.add(
            "matmul",
            inputs=(prev.id,),
            phase="F",
            attrs={"layer": i, "rows": "n_out*k", "in_dim": a, "out_dim": b},
        )
    rm = g.add(
        "reduce_max",
        inputs=(prev.id,),
        phase="F",
        attrs={"n_centroids": "n_out", "k": "k", "feature_dim": dims[-1]},
    )
    g.outputs = (rm.id,)
    return g.validate()
