"""repro — a reproduction of Mesorasi (MICRO 2020).

Mesorasi: Architecture Support for Point Cloud Analytics via
Delayed-Aggregation (Feng, Tian, Xu, Whatmough, Zhu).

Public subpackages (each imported on first use — ``import repro`` alone
loads none of them):

* :mod:`repro.core` — the delayed-aggregation primitive
* :mod:`repro.graph` — the operator-graph IR and its rewrite passes
* :mod:`repro.backend` — multi-backend autograd-free kernel runtime
* :mod:`repro.neural` — numpy autograd DNN substrate
* :mod:`repro.neighbors` — neighbor search substrate
* :mod:`repro.networks` — the seven benchmark networks (Table I)
* :mod:`repro.data` — synthetic datasets and metrics
* :mod:`repro.profiling` — operator traces and workload analytics
* :mod:`repro.hw` — GPU/NPU/AU/DRAM/NSE/SoC hardware models
* :mod:`repro.engine` — batched multi-cloud serving engine
* :mod:`repro.serve` — continuous-batching server and shard router
* :mod:`repro.tune` — shape-keyed autotuner
"""

from ._lazy import lazy_exports

#: The single source of the package version (``pyproject.toml`` reads it).
__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    name: name
    for name in ("backend", "core", "data", "engine", "graph", "hw",
                 "neighbors", "networks", "neural", "profiling", "serve",
                 "tune")
})
__all__.append("__version__")
