"""Shape-keyed autotuning over strategy x backend x substrate.

:class:`Autotuner` measures the configuration space for one workload
shape (network, point count, batch size), gates every candidate for
correctness against its strategy's float64 reference, and
records the winner in a :class:`TunedTable` persisted through the AOT
:class:`~repro.backend.ProgramCache` — so a warm ``repro tune``
performs zero re-benchmarks and the engine runners
(``BatchRunner(..., tuned=table)``) dispatch on measured data instead
of the cost model's prediction.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "DEFAULT_BACKENDS": "autotuner",
    "DEFAULT_STRATEGIES": "autotuner",
    "DEFAULT_SUBSTRATES": "autotuner",
    "GATE_MAX_REL_ERR": "autotuner",
    "GATE_MIN_TOP1": "autotuner",
    "Autotuner": "autotuner",
    "TunedConfig": "autotuner",
    "TunedTable": "autotuner",
    "int8_backend_for": "autotuner",
    "shape_key": "autotuner",
})
