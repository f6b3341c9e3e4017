"""Numpy-based autograd DNN substrate (replaces the paper's TensorFlow)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "BatchNorm": "layers",
    "Dropout": "layers",
    "Linear": "layers",
    "Module": "layers",
    "Parameter": "layers",
    "ReLU": "layers",
    "Sequential": "layers",
    "accuracy": "losses",
    "cross_entropy": "losses",
    "log_softmax": "losses",
    "mse_loss": "losses",
    "SharedMLP": "mlp",
    "SGD": "optim",
    "Adam": "optim",
    "CosineLR": "schedulers",
    "ExponentialLR": "schedulers",
    "StepLR": "schedulers",
    "clip_grad_norm": "schedulers",
    "load_checkpoint": "serialization",
    "save_checkpoint": "serialization",
    "Tensor": "tensor",
    "concat": "tensor",
    "no_grad": "tensor",
    "stack": "tensor",
})
