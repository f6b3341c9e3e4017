"""Neural network layers used by point cloud networks.

Every feature-computation block in the paper's networks is a *shared*
MLP (:class:`~repro.neural.SharedMLP`): the same stack of layers applied
to each row of a (rows, features) matrix.  A layer is a :class:`Linear`,
mapping (rows, in) -> (rows, out), and the MLP's flag for whether a
ReLU (:meth:`~repro.neural.Tensor.relu`) follows it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "Parameter",
]


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: parameter discovery and the call protocol."""

    def parameters(self):
        params = []
        seen = set()
        stack = [self]
        while stack:
            obj = stack.pop()
            for value in vars(obj).values():
                if isinstance(value, Parameter):
                    if id(value) not in seen:
                        seen.add(id(value))
                        params.append(value)
                elif isinstance(value, Module):
                    stack.append(value)
                elif isinstance(value, (list, tuple)):
                    stack.extend(v for v in value if isinstance(v, Module))
        return params

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine map (rows, in_dim) -> (rows, out_dim), He-initialized."""

    def __init__(self, in_dim, out_dim, bias=True, rng=None):
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_dim)
        self.weight = Parameter(rng.normal(0.0, scale, size=(in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def forward(self, x):
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out
