"""The seven benchmark networks of Table I."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "PointCloudNetwork": "base",
    "scale_spec": "base",
    "DensePoint": "densepoint",
    "DGCNNClassification": "dgcnn",
    "DGCNNSegmentation": "dgcnn",
    "FPointNet": "fpointnet",
    "GenericPointCloudNetwork": "generic",
    "validate_spec_chain": "generic",
    "LDGCNN": "ldgcnn",
    "PointNet2Classification": "pointnet2",
    "PointNet2Segmentation": "pointnet2",
    "ALL_NETWORKS": "registry",
    "NETWORK_CLASSES": "registry",
    "PROFILED_NETWORKS": "registry",
    "build_network": "registry",
    "table1_rows": "registry",
    "TrainResult": "training",
    "evaluate_classifier": "training",
    "evaluate_detector": "training",
    "evaluate_segmenter": "training",
    "train_classifier": "training",
    "train_detector": "training",
    "train_segmenter": "training",
})
