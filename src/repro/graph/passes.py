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

Passes are ``graph -> graph`` callables; :data:`PIPELINES` names the
pass list per strategy and :func:`module_graph` memoizes the result per
(spec, strategy).
"""

from __future__ import annotations

import functools
from dataclasses import replace

from .build import build_module_graph
from .ir import Node

__all__ = [
    "PIPELINES",
    "dead_code_elimination",
    "delay_aggregation",
    "fuse_aggregation",
    "limit_delay",
    "module_graph",
    "run_pipeline",
]


def _original_pattern(graph):
    """The (input, sample, search, gather, subtract, matmuls, reduce)
    skeleton every original-order module graph has."""
    return (
        graph.only("input"),
        graph.only("sample"),
        graph.only("search"),
        graph.only("gather"),
        graph.only("subtract"),
        graph.find("matmul"),
        graph.only("reduce_max"),
    )


# -- network-aware region machinery -----------------------------------------
#
# A whole-network graph (repro.graph.network) inlines every module's
# original-order subgraph, tagging each inlined node with
# ``attrs["module"]``.  The strategy rewrites below then apply to every
# module *region* of the program — the same pass works on a single
# module graph (one implicit region) and on a network graph with many.


def _has_module_regions(graph):
    return any("module" in node.attrs for node in graph)


def _region_pattern(nodes):
    """The original-order skeleton of one inlined module region."""

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
        only("gather"),
        only("subtract"),
        [n for n in nodes if n.kind == "matmul"],
        only("reduce_max"),
    )


def _rewrite_module_regions(graph, region_rewrite):
    """Apply ``region_rewrite`` to every contiguous module region.

    ``region_rewrite(nodes, alloc)`` returns ``(new_nodes, old_out,
    new_out)``; when the region's externally-visible output node changes
    (delayed aggregation moves it from the reduce to the subtract), all
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
        # Input edges and the coords/feats attr references (the module
        # executor's stage bindings) both follow a moved region output.
        if any(parent in remap for parent in node.inputs):
            node = replace(
                node, inputs=tuple(remap.get(p, p) for p in node.inputs)
            )
        updates = {
            key: remap[node.attrs[key]]
            for key in ("coords", "feats")
            if node.attrs.get(key) in remap
        }
        if updates:
            node = node.with_attrs(**updates)
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
    """Delay one inlined module region (network-graph form of Fig 8)."""
    smp, srch, gth, sub, matmuls, rm = _region_pattern(nodes)
    if sub.attrs.get("mode") == "post":
        # Already delayed: re-application is a structural no-op.
        return nodes, rm.id, rm.id
    if matmuls and matmuls[0].attrs.get("weight_only"):
        raise ValueError(
            "delay_aggregation expects an original-order graph "
            "(region is in limited form)"
        )
    if sub.attrs.get("mode") != "pre":
        raise ValueError("delay_aggregation expects an original-order graph")
    feats_src = gth.inputs[0]
    n_in = srch.attrs["n_points"]
    n_out = srch.attrs["n_queries"]
    out_dim = matmuls[-1].attrs["out_dim"]

    hoisted, prev_id = [], feats_src
    for mm in matmuls:
        mm = replace(mm, inputs=(prev_id,), parallelizable=True)
        mm = mm.with_attrs(rows=n_in)
        hoisted.append(mm)
        prev_id = mm.id
    hoisted[-1] = hoisted[-1].with_attrs(pft=True)

    srch = replace(srch, parallelizable=True)
    gth = replace(gth, inputs=(hoisted[-1].id, srch.id))
    gth = gth.with_attrs(feature_dim=out_dim)
    rm = replace(rm, inputs=(gth.id,), phase="A")
    rm = rm.with_attrs(feature_dim=out_dim)
    new_sub = replace(sub, inputs=(rm.id, hoisted[-1].id, smp.id))
    new_sub = new_sub.with_attrs(rows=n_out, dim=out_dim, mode="post")
    return [smp, *hoisted, srch, gth, rm, new_sub], rm.id, new_sub.id


def _limit_region(nodes, alloc):
    """Hoist one region's first matrix-vector product (GNN variant)."""
    smp, srch, gth, sub, matmuls, rm = _region_pattern(nodes)
    if matmuls and matmuls[0].attrs.get("weight_only"):
        # Already limited: re-application is a structural no-op.
        return nodes, rm.id, rm.id
    if sub.attrs.get("mode") != "pre":
        raise ValueError(
            "limit_delay expects an original-order graph "
            "(region is in delayed form)"
        )
    feats_src = gth.inputs[0]
    n_in = srch.attrs["n_points"]
    hidden = matmuls[0].attrs["out_dim"]

    first = replace(matmuls[0], inputs=(feats_src,), parallelizable=True)
    first = first.with_attrs(rows=n_in, weight_only=True, pft=True)
    srch = replace(srch, parallelizable=True)
    gth = replace(gth, inputs=(first.id, srch.id))
    gth = gth.with_attrs(feature_dim=hidden)
    sub = replace(sub, inputs=(gth.id, first.id, smp.id))
    sub = sub.with_attrs(dim=hidden)

    region_attrs = {
        key: smp.attrs[key] for key in ("module", "label") if key in smp.attrs
    }
    epilogue = Node(alloc(), "epilogue", (sub.id,),
                    {"layer": 0, **region_attrs}, phase="F")
    rest, prev = [], epilogue
    for mm in matmuls[1:]:
        mm = replace(mm, inputs=(prev.id,))
        rest.append(mm)
        prev = mm
    rm = replace(rm, inputs=(prev.id,))
    return [smp, first, srch, gth, sub, epilogue, *rest, rm], rm.id, rm.id


def delay_aggregation(graph):
    """Rewrite ``F(A(N(p), p))`` into ``A(F(N(p)), F(p))`` (Fig 8).

    The whole MLP chain is hoisted before the gather: it now runs over
    the ``n_in`` input points (and is marked parallelizable — it can
    overlap the neighbor search on a different engine).  Aggregation
    becomes gather → reduce-max → subtract: the centroid feature is
    subtracted *after* the reduction, which is exact by the max-subtract
    identity.  The final MLP output is the Point Feature Table.

    Network-aware: on a whole-network graph the rewrite applies to every
    inlined module region, rewiring downstream consumers of each
    region's output.
    """
    if _has_module_regions(graph):
        return _rewrite_module_regions(graph, _delay_region)
    graph = graph.copy()
    inp, smp, srch, gth, sub, matmuls, rm = _original_pattern(graph)
    if sub.attrs.get("mode") == "post":
        return graph  # already delayed: idempotent no-op
    if matmuls and matmuls[0].attrs.get("weight_only"):
        raise ValueError(
            "delay_aggregation expects an original-order graph "
            "(graph is in limited form)"
        )
    if sub.attrs.get("mode") != "pre":
        raise ValueError("delay_aggregation expects an original-order graph")
    out_dim = matmuls[-1].attrs["out_dim"]

    hoisted = []
    prev = inp
    for mm in matmuls:
        mm = replace(mm, inputs=(prev.id,), parallelizable=True)
        mm = mm.with_attrs(rows="n_in")
        hoisted.append(mm)
        prev = mm
    hoisted[-1] = hoisted[-1].with_attrs(pft=True)

    srch = replace(srch, parallelizable=True)
    gth = replace(gth, inputs=(hoisted[-1].id, srch.id))
    gth = gth.with_attrs(feature_dim=out_dim)
    rm = replace(rm, inputs=(gth.id,), phase="A")
    rm = rm.with_attrs(feature_dim=out_dim)
    sub = replace(sub, inputs=(rm.id, hoisted[-1].id, smp.id))
    sub = sub.with_attrs(rows="n_out", dim=out_dim, mode="post")

    return graph.replace_nodes(
        [inp, smp, *hoisted, srch, gth, rm, sub], outputs=(sub.id,)
    ).validate()


def limit_delay(graph):
    """Hoist only the first matrix-vector product (the GNN variant).

    The first Linear's weight multiply is exactly distributive over the
    centroid subtraction; its bias cancels in the subtraction, so an
    ``epilogue`` node re-adds it (and replays the layer's activation)
    after aggregation before the remaining layers run over the
    ``n_out*k`` aggregated rows.  The hoisted product's output is the
    (narrow) Point Feature Table.

    Network-aware like :func:`delay_aggregation`.
    """
    if _has_module_regions(graph):
        return _rewrite_module_regions(graph, _limit_region)
    graph = graph.copy()
    inp, smp, srch, gth, sub, matmuls, rm = _original_pattern(graph)
    if matmuls and matmuls[0].attrs.get("weight_only"):
        return graph  # already limited: idempotent no-op
    if sub.attrs.get("mode") != "pre":
        raise ValueError(
            "limit_delay expects an original-order graph "
            "(graph is in delayed form)"
        )
    hidden = matmuls[0].attrs["out_dim"]

    first = replace(matmuls[0], inputs=(inp.id,), parallelizable=True)
    first = first.with_attrs(rows="n_in", weight_only=True, pft=True)
    srch = replace(srch, parallelizable=True)
    gth = replace(gth, inputs=(first.id, srch.id))
    gth = gth.with_attrs(feature_dim=hidden)
    sub = replace(sub, inputs=(gth.id, first.id, smp.id))
    sub = sub.with_attrs(dim=hidden)

    fresh = max(n.id for n in graph) + 1
    epilogue = Node(fresh, "epilogue", (sub.id,), {"layer": 0}, phase="F")

    rest = []
    prev = epilogue
    for mm in matmuls[1:]:
        mm = replace(mm, inputs=(prev.id,))
        rest.append(mm)
        prev = mm
    rm = replace(rm, inputs=(prev.id,))

    return graph.replace_nodes(
        [inp, smp, first, srch, gth, sub, epilogue, *rest, rm],
        outputs=(rm.id,),
    ).validate()


def fuse_aggregation(graph):
    """Fuse gather [+ reduce-max] + subtract into one aggregation node.

    This is the granularity the hardware aggregation unit (Fig 13-15)
    consumes — one NIT-driven pass over the point feature table — and it
    saves the executors two dispatches per module.  The fused node
    remembers its constituents, so trace lowering re-expands it and the
    emitted operator records are unchanged.
    """
    graph = graph.copy()
    fused = []
    skip = set()
    for node in list(graph.nodes):
        if node.id in skip:
            continue
        if node.kind == "gather":
            consumers = graph.consumers(node.id)
            if len(consumers) == 1 and consumers[0].kind == "subtract" \
                    and consumers[0].attrs.get("mode") == "pre":
                sub = consumers[0]
                agg = Node(
                    sub.id, "aggregate",
                    (node.inputs[0], node.inputs[1], sub.inputs[2]),
                    {**node.attrs, "reduce": False,
                     "rows": sub.attrs["rows"], "dim": sub.attrs["dim"]},
                    phase="A",
                )
                fused.append(agg)
                skip.add(sub.id)
                continue
            if len(consumers) == 1 and consumers[0].kind == "reduce_max":
                rm = consumers[0]
                rm_consumers = graph.consumers(rm.id)
                if len(rm_consumers) == 1 and rm_consumers[0].kind == "subtract" \
                        and rm_consumers[0].attrs.get("mode") == "post":
                    sub = rm_consumers[0]
                    agg = Node(
                        sub.id, "aggregate",
                        (node.inputs[0], node.inputs[1], sub.inputs[2]),
                        {**node.attrs, "reduce": True,
                         "reduce_phase": rm.phase,
                         "rows": sub.attrs["rows"], "dim": sub.attrs["dim"]},
                        phase="A",
                    )
                    fused.append(agg)
                    skip.update((rm.id, sub.id))
                    continue
        fused.append(node)

    # The fused node reuses the pattern's *last* id, so downstream input
    # references (e.g. the matmul chain after an original-order fuse)
    # remain valid without rewiring.
    return graph.replace_nodes(fused, outputs=graph.outputs).validate()


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
    "original": (fuse_aggregation, dead_code_elimination),
    "delayed": (delay_aggregation, fuse_aggregation, dead_code_elimination),
    "limited": (limit_delay, fuse_aggregation, dead_code_elimination),
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


@functools.lru_cache(maxsize=512)
def module_graph(spec, strategy):
    """The (memoized) lowered graph of one module spec under a strategy."""
    return run_pipeline(build_module_graph(spec), strategy)
