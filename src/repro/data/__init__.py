"""Synthetic datasets replacing ModelNet40 / ShapeNet / KITTI offline."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "SyntheticFrustum": "kitti",
    "bev_iou": "kitti",
    "box_corners_bev": "kitti",
    "synthetic_lidar_scene": "kitti",
    "load_points": "io",
    "read_off": "io",
    "read_ply": "io",
    "read_xyz": "io",
    "save_points": "io",
    "write_off": "io",
    "write_ply": "io",
    "write_xyz": "io",
    "confusion_matrix": "metrics",
    "mean_iou": "metrics",
    "overall_accuracy": "metrics",
    "SyntheticModelNet": "modelnet",
    "make_class_generators": "modelnet",
    "CATEGORY_BUILDERS": "shapenet",
    "SyntheticShapeNet": "shapenet",
    "num_part_classes": "shapenet",
    "SHAPE_SAMPLERS": "shapes",
    "augment": "shapes",
    "normalize_cloud": "shapes",
    "random_rotation": "shapes",
})
