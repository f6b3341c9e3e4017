"""Synthetic datasets replacing ModelNet40 / ShapeNet / KITTI offline."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "SyntheticFrustum": "kitti",
    "bev_iou": "kitti",
    "box_corners_bev": "kitti",
    "confusion_matrix": "metrics",
    "mean_iou": "metrics",
    "overall_accuracy": "metrics",
    "SyntheticModelNet": "modelnet",
    "make_class_generators": "modelnet",
    "CATEGORY_BUILDERS": "shapenet",
    "SyntheticShapeNet": "shapenet",
    "SHAPE_SAMPLERS": "shapes",
    "augment": "shapes",
    "morton_order": "shapes",
    "normalize_cloud": "shapes",
    "random_rotation": "shapes",
})
