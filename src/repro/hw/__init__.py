"""Hardware models: GPU, systolic NPU, aggregation unit, DRAM, NSE, SoC."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "MESORASI_AU": "aggregation_unit",
    "AggregationUnit": "aggregation_unit",
    "AUResult": "aggregation_unit",
    "ApproximateAggregationUnit": "approx",
    "ApproxResult": "approx",
    "dropped_neighbor_error": "approx",
    "LPDDR3": "dram",
    "DRAMModel": "dram",
    "TX2_GPU": "gpu",
    "GPUResult": "gpu",
    "MobileGPU": "gpu",
    "MESORASI_NPU": "npu",
    "NPUResult": "npu",
    "SystolicNPU": "npu",
    "TIGRIS_NSE": "nse",
    "NeighborSearchEngine": "nse",
    "CONFIGS": "soc",
    "SoC": "soc",
    "SoCConfig": "soc",
    "SoCResult": "soc",
    "network_nits": "soc",
    "SRAM": "sram",
    "crossbar_area_mm2": "sram",
})
