"""Neural network layers used by point cloud networks.

Every feature-computation block in the paper's networks is a *shared*
MLP: the same Linear/BatchNorm/ReLU stack applied to each row of a
(rows, features) matrix, so a layer here maps (rows, in) -> (rows, out).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "ReLU",
    "BatchNorm",
    "Dropout",
    "Sequential",
    "Parameter",
    "segment_layers",
]


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: parameter discovery, train/eval mode, call protocol."""

    def __init__(self):
        self.training = True

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

    def modules(self):
        mods = [self]
        for value in vars(self).values():
            if isinstance(value, Module):
                mods.extend(value.modules())
            elif isinstance(value, (list, tuple)):
                for v in value:
                    if isinstance(v, Module):
                        mods.extend(v.modules())
        return mods

    def train(self, mode=True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

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
        super().__init__()
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_dim)
        self.weight = Parameter(rng.normal(0.0, scale, size=(in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def forward(self, x):
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    def forward(self, x):
        return x.relu()


class BatchNorm(Module):
    """Batch normalization over the leading (row) axis.

    The paper notes (§VII-B) that batch norm perturbs the distributive
    property of the MLP over subtraction more than ReLU does; we include
    it so that effect is reproducible.
    """

    def __init__(self, dim, momentum=0.9, eps=1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x):
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            self.running_mean = (
                self.momentum * self.running_mean
                + (1 - self.momentum) * mean.data.reshape(-1)
            )
            self.running_var = (
                self.momentum * self.running_var
                + (1 - self.momentum) * var.data.reshape(-1)
            )
            inv = (var + self.eps) ** -0.5
            normed = centered * inv
        else:
            normed = (x - self.running_mean) * (
                1.0 / np.sqrt(self.running_var + self.eps)
            )
        return normed * self.gamma + self.beta


class Dropout(Module):
    def __init__(self, p=0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x):
        if not self.training or self.p == 0.0:
            return x
        mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class Sequential(Module):
    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


def segment_layers(layers):
    """Split a layer list into per-Linear segments.

    Segment ``i`` starts at the i-th Linear and runs up to (excluding)
    the next one, so it carries the Linear plus its
    BatchNorm/ReLU/Dropout tail.  It is what a graph ``matmul`` node
    ``layer=i`` executes, in the graph interpreter and, exported, in a
    kernel program.  A stack must open with a Linear: a layer before
    the first one belongs to no segment, so no node would run it.
    """
    layers = list(layers)
    starts = [i for i, layer in enumerate(layers) if isinstance(layer, Linear)]
    if not starts:
        raise TypeError("a layer stack with no Linear layers has no segments")
    if starts[0]:
        raise TypeError("a layer stack needs a leading Linear layer, got "
                        f"{type(layers[0]).__name__} first")
    bounds = starts + [len(layers)]
    return [layers[a:b] for a, b in zip(starts, bounds[1:])]
