"""Graph-rewrite passes: the paper's program transforms, as passes.

Delayed aggregation (§IV) is a reordering of the N/A/F operator stream:
hoist the shared MLP past aggregation, exploiting that max-reduction
distributes exactly over subtracting the centroid row
(``max_k(p_k - p_i) == max_k(p_k) - p_i``; the identity
:func:`repro.core.equivalence.max_subtract_gap` verifies numerically).
The limited (GNN-style, §VII-C) variant hoists only the first
matrix-vector product, which is exactly linear.  Here both are
implemented as rewrites over the original-order graph, so execution,
batching, trace analytics and the hardware models all consume the same
transformed program instead of three hand-maintained copies.

Each rewrite has one body, written per module region: a network graph
(:mod:`repro.graph.network`) emits every module as an original-order
region whose nodes carry the region tag ``attrs["module"]``.
Aggregation is one ``aggregate`` node throughout: delaying flips it to
its reducing form and absorbs the region's ``reduce_max``, limiting
re-points it at the hoisted product.  Every value a node reads is one
of its input edges, and no attr holds a second copy of an edge, so a
rewrite moves edges and nothing else.

Passes are ``graph -> graph`` callables; :data:`PIPELINES` names the
pass list per strategy.
"""

from __future__ import annotations

from dataclasses import replace

from .ir import Node

__all__ = [
    "PIPELINES",
    "dead_code_elimination",
    "delay_aggregation",
    "limit_delay",
    "run_pipeline",
]


# -- module regions -----------------------------------------------------------


def _region_pattern(nodes):
    """``(sample, search, aggregate, matmuls)`` of one module region."""

    def only(kind):
        found = [n for n in nodes if n.kind == kind]
        if len(found) != 1:
            raise ValueError(
                f"expected exactly one {kind!r} node per module region, "
                f"got {len(found)}"
            )
        return found[0]

    return (
        only("sample"),
        only("search"),
        only("aggregate"),
        [n for n in nodes if n.kind == "matmul"],
    )


def _rewrite_module_regions(graph, region_rewrite):
    """Apply ``region_rewrite`` to every contiguous module region.

    ``region_rewrite(nodes, alloc)`` returns ``(new_nodes, old_out,
    new_out)``; when the region's externally-visible output node changes
    (delayed aggregation moves it from the reduce to the aggregate), all
    downstream references — later regions, glue nodes, graph outputs —
    are rewired.  ``alloc()`` hands out globally-fresh node ids.
    """
    graph = graph.copy()
    nodes = list(graph.nodes)
    next_id = [max((n.id for n in nodes), default=-1) + 1]

    def alloc():
        next_id[0] += 1
        return next_id[0] - 1

    remap = {}

    def rewire(node):
        if any(parent in remap for parent in node.inputs):
            node = replace(
                node, inputs=tuple(remap.get(p, p) for p in node.inputs)
            )
        return node

    out, seen, i = [], set(), 0
    while i < len(nodes):
        index = nodes[i].attrs.get("module")
        if index is None:
            out.append(rewire(nodes[i]))
            i += 1
            continue
        if index in seen:
            raise ValueError(f"module region {index} is not contiguous")
        seen.add(index)
        region = []
        while i < len(nodes) and nodes[i].attrs.get("module") == index:
            region.append(rewire(nodes[i]))
            i += 1
        new_nodes, old_out, new_out = region_rewrite(region, alloc)
        if old_out != new_out:
            remap[old_out] = new_out
        out.extend(new_nodes)
    outputs = tuple(remap.get(o, o) for o in graph.outputs)
    return graph.replace_nodes(out, outputs=outputs).validate()


def _delay_region(nodes, _alloc):
    """Delay one module region (Fig 8)."""
    smp, srch, agg, matmuls = _region_pattern(nodes)
    if agg.attrs["reduce"]:
        # Already delayed: re-application is a structural no-op.
        return nodes, agg.id, agg.id
    if matmuls[0].attrs.get("weight_only"):
        raise ValueError(
            "delay_aggregation expects an original-order graph "
            "(module is in limited form)"
        )
    rm = next(n for n in nodes if n.kind == "reduce_max")
    n_in = srch.attrs["n_points"]
    out_dim = matmuls[-1].attrs["out_dim"]

    hoisted, prev_id = [], agg.inputs[0]
    for mm in matmuls:
        mm = replace(mm, inputs=(prev_id,), parallelizable=True)
        mm = mm.with_attrs(rows=n_in)
        hoisted.append(mm)
        prev_id = mm.id

    srch = replace(srch, parallelizable=True)
    agg = replace(agg, inputs=(prev_id, *agg.inputs[1:]))
    agg = agg.with_attrs(reduce=True, dim=out_dim)
    return [smp, *hoisted, srch, agg], rm.id, agg.id


def _limit_region(nodes, alloc):
    """Hoist one region's first matrix-vector product (GNN variant)."""
    smp, srch, agg, matmuls = _region_pattern(nodes)
    if matmuls[0].attrs.get("weight_only"):
        # Already limited: re-application is a structural no-op.
        return nodes, agg.id, agg.id
    if agg.attrs["reduce"]:
        raise ValueError(
            "limit_delay expects an original-order graph "
            "(module is in delayed form)"
        )
    rm = next(n for n in nodes if n.kind == "reduce_max")
    hidden = matmuls[0].attrs["out_dim"]

    first = replace(matmuls[0], inputs=(agg.inputs[0],), parallelizable=True)
    first = first.with_attrs(rows=srch.attrs["n_points"], weight_only=True)
    srch = replace(srch, parallelizable=True)
    agg = replace(agg, inputs=(first.id, *agg.inputs[1:]))
    agg = agg.with_attrs(dim=hidden)

    epilogue = Node(alloc(), "epilogue", (agg.id,),
                    {"layer": 0, "ref": first.attrs["ref"],
                     "module": smp.attrs["module"],
                     "label": smp.attrs["label"]}, phase="F")
    rest, prev = [], epilogue
    for mm in matmuls[1:]:
        mm = replace(mm, inputs=(prev.id,))
        rest.append(mm)
        prev = mm
    rm = replace(rm, inputs=(prev.id,))
    return [smp, first, srch, agg, epilogue, *rest, rm], rm.id, rm.id


def delay_aggregation(graph):
    """Rewrite ``F(A(N(p), p))`` into ``A(F(N(p)), F(p))`` (Fig 8).

    The whole MLP chain is hoisted before aggregation: it now runs over
    the ``n_in`` input points (and is marked parallelizable — it can
    overlap the neighbor search on a different engine).  The
    ``aggregate`` node becomes gather → reduce-max → subtract
    (``reduce=True``) and absorbs the module's ``reduce_max``: the
    centroid feature is subtracted *after* the reduction, which is exact
    by the max-subtract identity.  The final MLP output is the Point
    Feature Table.

    The rewrite applies to every module region, rewiring downstream
    consumers of each region's output.
    """
    return _rewrite_module_regions(graph, _delay_region)


def limit_delay(graph):
    """Hoist only the first matrix-vector product (the GNN variant).

    The first Linear's weight multiply is exactly distributive over the
    centroid subtraction; its bias cancels in the subtraction, so an
    ``epilogue`` node re-adds it (and replays the layer's activation)
    after aggregation before the remaining layers run over the
    ``n_out*k`` aggregated rows.  The hoisted product's output is the
    (narrow) Point Feature Table the ``aggregate`` node now reads.

    Region-wise like :func:`delay_aggregation`.
    """
    return _rewrite_module_regions(graph, _limit_region)


def dead_code_elimination(graph):
    """Drop nodes with no path to the graph outputs."""
    graph = graph.copy()
    by_id = {n.id: n for n in graph}
    live = set()
    frontier = list(graph.outputs)
    while frontier:
        node_id = frontier.pop()
        if node_id in live:
            continue
        live.add(node_id)
        frontier.extend(by_id[node_id].inputs)
    return graph.replace_nodes(
        [n for n in graph if n.id in live], outputs=graph.outputs
    ).validate()


#: Pass pipeline per strategy.  ``original`` is the built form plus the
#: standard cleanup; ``delayed``/``limited`` apply their rewrite first.
PIPELINES = {
    "original": (dead_code_elimination,),
    "delayed": (delay_aggregation, dead_code_elimination),
    "limited": (limit_delay, dead_code_elimination),
}


def run_pipeline(graph, strategy):
    """Apply the strategy's pass pipeline to ``graph`` and return the result."""
    if strategy not in PIPELINES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {tuple(PIPELINES)}"
        )
    for pipeline_pass in PIPELINES[strategy]:
        graph = pipeline_pass(graph)
    return graph
