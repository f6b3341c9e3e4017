"""Multi-backend inference runtime.

The executors in :mod:`repro.graph` interpret network graphs through
the autograd :class:`~repro.neural.Tensor` — correct, and the training
substrate needs it, but pure inference pays graph-construction
closures and float64 copies it never uses.  This package is the
runtime layer underneath: an :class:`ArrayBackend` protocol
(:mod:`repro.backend.array`), a pre-packed parameter exporter
(:mod:`repro.backend.params`), and a whole-network kernel compiler
(:mod:`repro.backend.runtime`) that lowers a
:class:`~repro.graph.network.NetworkGraph` to a flat list of
autograd-free ndarray kernels.

Three backends ship: ``float64`` (bit-exact against the graph
executors), ``float32`` (the BLAS fast path), and ``int8``
(:mod:`repro.backend.quant` — per-channel symmetric weight scales,
per-tensor activation scales calibrated against the float64 reference,
int8 GEMMs with int32 accumulation inside a float32 envelope).  The
engine selects them through ``backend=`` on
:class:`~repro.engine.BatchRunner` / :class:`~repro.engine.AsyncRunner`
(``kernel_backend=`` there), and ``repro bench`` tracks them in its
``backend`` and ``quant`` rows.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ProgramCache": "aot",
    "SharedTable": "aot",
    "attach_table": "aot",
    "network_fingerprint": "aot",
    "network_skeleton": "aot",
    "parameter_descriptor": "aot",
    "share_table": "aot",
    "ArrayBackend": "array",
    "NumpyBackend": "array",
    "get_backend": "array",
    "registered_backends": "array",
    "ArenaPlan": "memplan",
    "GraphLiveness": "memplan",
    "plan_arena": "memplan",
    "validate_plan": "memplan",
    "ParameterTable": "params",
    "export_segment": "params",
    "export_stack": "params",
    "segment_layers": "params",
    "CalibrationRecorder": "quant",
    "Int8Backend": "quant",
    "ScaleTable": "quant",
    "calibrate_scales": "quant",
    "KernelProgram": "runtime",
    "NetworkKernelExecutor": "runtime",
    "compile_kernel_program": "runtime",
})
