"""Numpy-based autograd DNN substrate (replaces the paper's TensorFlow)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "Linear": "layers",
    "Module": "layers",
    "Parameter": "layers",
    "accuracy": "losses",
    "cross_entropy": "losses",
    "log_softmax": "losses",
    "mse_loss": "losses",
    "SharedMLP": "mlp",
    "Adam": "optim",
    "Tensor": "tensor",
    "concat": "tensor",
    "no_grad": "tensor",
})
