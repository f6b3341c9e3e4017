"""Operator tracing and workload analytics."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "CNN_MODELS": "cnn_models",
    "CNNModel": "cnn_models",
    "ConvLayer": "cnn_models",
    "FCLayer": "cnn_models",
    "characterization_report": "report",
    "format_table": "report",
    "full_report": "report",
    "soc_report": "report",
    "StrategyComparison": "cost_model",
    "compare_strategies": "cost_model",
    "mac_reduction_percent": "cost_model",
    "BYTES_PER_ELEMENT": "trace",
    "ConcatOp": "trace",
    "GatherOp": "trace",
    "InterpolateOp": "trace",
    "MatMulOp": "trace",
    "NeighborSearchOp": "trace",
    "Op": "trace",
    "PHASES": "trace",
    "ReduceMaxOp": "trace",
    "SampleOp": "trace",
    "SubtractOp": "trace",
    "Trace": "trace",
})
