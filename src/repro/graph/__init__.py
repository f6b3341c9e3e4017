"""Operator-graph IR: one program, many consumers.

The paper's delayed aggregation is a *program transform* — reorder the
N/A/F operator stream and both the software speedup and the hardware
co-design follow.  This package encodes that transform once: a module
builds its operator graph in ``original`` form
(:func:`~repro.graph.build.build_module_graph`), the ``delayed`` and
``limited`` strategies are graph-rewrite passes
(:mod:`~repro.graph.passes`), and the rewritten graph feeds every
consumer — the graph interpreter
(:mod:`~repro.graph.executors`), the profiling trace lowering
(:mod:`~repro.graph.lower`), the engine's execution plans
(:mod:`~repro.graph.plan`), and the N/F-overlap schedule lowering
(:mod:`~repro.graph.schedule`) the async scheduler executes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "build_module_graph": "build",
    "search_signature": "build",
    "ExecutionResult": "executors",
    "GraphExecutor": "executors",
    "OpRecorder": "executors",
    "KINDS": "ir",
    "Frontier": "ir",
    "Graph": "ir",
    "Node": "ir",
    "format_graph": "ir",
    "resolve_dim": "ir",
    "shape_env": "ir",
    "lower_graph": "lower",
    "lower_module_trace": "lower",
    "lower_network_trace": "lower",
    "NetworkGraph": "network",
    "NetworkGraphBuilder": "network",
    "NetworkOutput": "network",
    "NetworkRegion": "network",
    "build_network_graph": "network",
    "PIPELINES": "passes",
    "dead_code_elimination": "passes",
    "delay_aggregation": "passes",
    "fuse_aggregation": "passes",
    "limit_delay": "passes",
    "module_graph": "passes",
    "run_pipeline": "passes",
    "ModulePlan": "plan",
    "NetworkPlan": "plan",
    "ValueLiveness": "plan",
    "compile_network_plan": "plan",
    "value_liveness": "plan",
    "GraphSchedule": "schedule",
    "ScheduledNode": "schedule",
    "node_lane": "schedule",
    "schedule_graph": "schedule",
})
