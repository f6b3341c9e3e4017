"""Operator-graph IR: one program, many consumers.

The paper's delayed aggregation is a *program transform* — reorder the
N/A/F operator stream and both the software speedup and the hardware
co-design follow.  This package encodes that transform once, over one
graph form: a network graph (:mod:`~repro.graph.network`), in which
every module is a region emitted in ``original`` order (a module run
alone is a one-module network).  The ``delayed`` and ``limited``
strategies are graph-rewrite passes over those regions
(:mod:`~repro.graph.passes`), and the rewritten graph feeds every
consumer — the graph interpreter
(:mod:`~repro.graph.executors`), the kernel compiler
(:mod:`repro.backend.runtime`) and the profiling trace lowering
(:mod:`~repro.graph.lower`).  The rewrite passes mark the nodes that may
overlap (``Node.parallelizable``: a delayed module's search and hoisted
MLP), which the lowering copies onto trace ops for the hardware models.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "GraphExecutor": "executors",
    "KINDS": "ir",
    "Graph": "ir",
    "Node": "ir",
    "format_graph": "ir",
    "lower_network_trace": "lower",
    "NetworkGraph": "network",
    "NetworkGraphBuilder": "network",
    "NetworkOutput": "network",
    "NetworkRegion": "network",
    "build_network_graph": "network",
    "PIPELINES": "passes",
    "dead_code_elimination": "passes",
    "delay_aggregation": "passes",
    "limit_delay": "passes",
    "run_pipeline": "passes",
})
