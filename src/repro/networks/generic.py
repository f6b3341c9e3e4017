"""Build custom point cloud networks from module specs.

The seven benchmark networks are hand-written classes; downstream users
composing their own architectures shouldn't need to subclass.  A
:class:`GenericPointCloudNetwork` stacks any sequence of
:class:`~repro.core.module.ModuleSpec` encoders, optionally links
features DGCNN-style, and finishes with a classification or per-point
head — with the same execute/trace duality as the built-in networks,
so custom architectures drop straight into the profiling analytics and
the hardware simulators.
"""

from __future__ import annotations

import numpy as np

from ..core import PointCloudModule
from ..neural import SharedMLP
from .base import PointCloudNetwork

__all__ = ["GenericPointCloudNetwork", "validate_spec_chain"]


def validate_spec_chain(specs):
    """Check that consecutive module specs compose.

    Each module's n_in must equal the previous module's n_out, and its
    MLP input width the previous output width (without linking).
    Raises ValueError with a precise message otherwise.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("at least one module spec is required")
    for prev, cur in zip(specs, specs[1:]):
        if cur.n_in != prev.n_out:
            raise ValueError(
                f"{cur.name}: n_in={cur.n_in} does not match "
                f"{prev.name}.n_out={prev.n_out}"
            )
        if cur.in_dim != prev.out_dim:
            raise ValueError(
                f"{cur.name}: mlp input width {cur.in_dim} does not match "
                f"{prev.name} output width {prev.out_dim}"
            )
    return specs


class GenericPointCloudNetwork(PointCloudNetwork):
    """A user-composed encoder stack plus an FC head.

    Parameters
    ----------
    specs:
        Module specs, first one consuming (n_points, 3) coordinates.
    head_dims:
        FC head widths; ``head_dims[0]`` must equal the final module's
        output width (after global pooling when the last module keeps
        n_out > 1).
    task:
        "classification" (global pooling + logits per cloud) or
        "segmentation" (per-point logits; requires the encoder to keep
        the point count, i.e. every module n_out == n_in).
    name:
        Display name used in traces and reports.
    """

    def __init__(self, specs, head_dims, task="classification",
                 name="custom", rng=None):
        rng = rng or np.random.default_rng(0)
        specs = validate_spec_chain(specs)
        if task not in ("classification", "segmentation"):
            raise ValueError(f"unsupported task {task!r}")
        if task == "segmentation" and any(
            s.n_out != s.n_in for s in specs
        ):
            raise ValueError(
                "segmentation requires every module to keep the point "
                "count (n_out == n_in)"
            )
        if head_dims[0] != specs[-1].out_dim:
            raise ValueError(
                f"head input width {head_dims[0]} does not match the "
                f"final module output width {specs[-1].out_dim}"
            )
        if specs[0].in_dim != 3:
            raise ValueError("the first module must consume 3-D coordinates")
        modules = [PointCloudModule(s, rng=rng) for s in specs]
        super().__init__(modules)
        self.name = name
        self.task = task
        self.num_classes = head_dims[-1]
        self.paper_n_points = specs[0].n_in
        self.head = SharedMLP(list(head_dims), final_activation=False,
                              rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        _, feats = nb.encoder(self.encoder, coords, feats)[-1]
        last = self.encoder[-1].spec
        if self.task == "classification" and last.n_out > 1:
            feats = nb.global_max(feats, k=last.n_out, dim=last.out_dim,
                                  label="pool")
        rows = last.n_out if self.task == "segmentation" else 1
        logits = nb.head(self.head, feats, rows=rows)
        nb.output(logits, per_point=self.task == "segmentation")
