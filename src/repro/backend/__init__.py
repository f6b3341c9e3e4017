"""Autograd-free inference runtime.

The executors in :mod:`repro.graph` interpret network graphs through
the autograd :class:`~repro.neural.Tensor` — correct, and the training
substrate needs it, but pure inference pays graph-construction
closures and float64 copies it never uses.  This package is the
runtime layer underneath: a pre-packed parameter exporter
(:mod:`repro.backend.params`) and a whole-network kernel compiler
(:mod:`repro.backend.runtime`) that lowers a
:class:`~repro.graph.network.NetworkGraph` to a flat list of
autograd-free ndarray kernels.

A kernel program's backend is its dtype, and two ship: ``float64``
(bit-exact against the graph executors) and ``float32`` (the BLAS fast
path).  The engine selects one through ``backend=`` on
:class:`~repro.engine.BatchRunner`, and ``repro serve`` through
``--serve-backend``.  Every program is compiled in process, its arena
plan included (:mod:`repro.backend.memplan`); :mod:`repro.backend.aot`
holds only the file transport for packed parameter tables.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "SharedTable": "aot",
    "attach_table": "aot",
    "parameter_descriptor": "aot",
    "share_table": "aot",
    "ArenaPlan": "memplan",
    "GraphLiveness": "memplan",
    "plan_arena": "memplan",
    "validate_plan": "memplan",
    "ParameterTable": "params",
    "export_segment": "params",
    "KernelProgram": "runtime",
    "compile_kernel_program": "runtime",
})
