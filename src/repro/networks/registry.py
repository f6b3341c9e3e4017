"""Network registry — Table I of the paper.

Two groupings are provided: :data:`PROFILED_NETWORKS`, the five
networks the characterization figures (4, 5, 9, 10, 12) profile, and
:data:`ALL_NETWORKS`, the full seven-network evaluation set of §VII.

A name resolves through :data:`NETWORK_MODULES`, so building one network
imports only the module that defines it; :data:`NETWORK_CLASSES`, which
needs every class, is built on first access.
"""

from __future__ import annotations

from importlib import import_module

__all__ = [
    "NETWORK_CLASSES",
    "PROFILED_NETWORKS",
    "ALL_NETWORKS",
    "build_network",
    "table1_rows",
]

#: Paper name -> (defining module, class name), in Table I order.
NETWORK_MODULES = {
    "PointNet++ (c)": ("pointnet2", "PointNet2Classification"),
    "PointNet++ (s)": ("pointnet2", "PointNet2Segmentation"),
    "DGCNN (c)": ("dgcnn", "DGCNNClassification"),
    "DGCNN (s)": ("dgcnn", "DGCNNSegmentation"),
    "F-PointNet": ("fpointnet", "FPointNet"),
    "LDGCNN": ("ldgcnn", "LDGCNN"),
    "DensePoint": ("densepoint", "DensePoint"),
}

#: The five networks characterized in §III (Figs 4, 5, 9, 10, 12).
PROFILED_NETWORKS = (
    "PointNet++ (c)",
    "PointNet++ (s)",
    "DGCNN (c)",
    "DGCNN (s)",
    "F-PointNet",
)

#: The full evaluation set of §VII (Figs 16-20).
ALL_NETWORKS = PROFILED_NETWORKS + ("LDGCNN", "DensePoint")


def _network_class(name):
    """The class of one benchmark network, importing only its module."""
    if name not in NETWORK_MODULES:
        raise KeyError(
            f"unknown network {name!r}; available: {sorted(NETWORK_MODULES)}"
        )
    module, cls = NETWORK_MODULES[name]
    return getattr(import_module(f"{__package__}.{module}"), cls)


def __getattr__(name):
    if name != "NETWORK_CLASSES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    classes = globals()["NETWORK_CLASSES"] = {
        key: _network_class(key) for key in NETWORK_MODULES
    }
    return classes


def build_network(name, **kwargs):
    """Instantiate a benchmark network by its paper name."""
    return _network_class(name)(**kwargs)


def table1_rows():
    """Rows of Table I: (domain, algorithm, dataset, year)."""
    rows = []
    for name in ALL_NETWORKS:
        cls = _network_class(name)
        domain = {
            "classification": "Classification",
            "segmentation": "Segmentation",
            "detection": "Detection",
        }[cls.task]
        rows.append((domain, name, cls.dataset, cls.year))
    return rows
