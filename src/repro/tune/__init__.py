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

from .autotuner import (
    DEFAULT_BACKENDS,
    DEFAULT_STRATEGIES,
    DEFAULT_SUBSTRATES,
    GATE_MAX_REL_ERR,
    GATE_MIN_TOP1,
    Autotuner,
    TunedConfig,
    TunedTable,
    int8_backend_for,
    shape_key,
)

__all__ = [
    "Autotuner",
    "DEFAULT_BACKENDS",
    "DEFAULT_STRATEGIES",
    "DEFAULT_SUBSTRATES",
    "GATE_MAX_REL_ERR",
    "GATE_MIN_TOP1",
    "TunedConfig",
    "TunedTable",
    "int8_backend_for",
    "shape_key",
]
