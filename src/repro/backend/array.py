"""``ArrayBackend``: dtype-parameterized ndarray kernels.

The kernel runtime (:mod:`repro.backend.runtime`) never touches the
autograd :class:`~repro.neural.Tensor`; every kernel it compiles calls
the small operator vocabulary defined here against a backend object.
A backend owns

* the **dtype** — weights are exported once per backend, so the
  float32 backend multiplies float32 GEMMs end to end instead of
  casting per call, and every neighbor search a program issues runs in
  it too;
* the dtype-sensitive kernels themselves (GEMM, bias, ReLU), with
  ``out=`` parameters so the runtime can run them into preallocated
  buffers.

Two backends ship: ``float64`` — the bit-exact reference whose
arithmetic matches the autograd executors value for value — and
``float32``, the BLAS fast path (half the memory traffic, roughly twice
the GEMM throughput on CPU).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayBackend", "get_backend", "registered_backends"]


class ArrayBackend:
    """The kernel runtime's array substrate, parameterized by a float dtype.

    ``float64`` is the reference: its kernels execute the same numpy
    operations, in the same order, as the autograd executors, so its
    outputs are bit-exact matches of
    :class:`~repro.graph.executors.GraphExecutor`.  ``float32`` is
    the BLAS fast path: parameters are packed once in float32 and the
    neighbor search runs in float32 too, keeping the whole inference
    pipeline in single precision.
    """

    def __init__(self, dtype=np.float64):
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise ValueError(f"backend dtype must be floating, got {dtype}")
        #: Parameter, activation and neighbor-search dtype of a program.
        self.dtype = dtype
        #: Short name used in cache keys and ``repr``.
        self.name = dtype.name

    # -- array plumbing -----------------------------------------------------

    def asarray(self, array):
        """Coerce to this backend's dtype (no copy when already right)."""
        return np.asarray(array).astype(self.dtype, copy=False)

    def empty(self, shape):
        """Uninitialized output buffer in this backend's dtype."""
        return np.empty(shape, dtype=self.dtype)

    # -- dtype-sensitive kernels --------------------------------------------

    def matmul(self, a, b, out=None):
        """GEMM ``a @ b``, optionally into a preallocated buffer."""
        return np.matmul(a, b, out=out)

    def add_bias(self, x, bias):
        """In-place row-broadcast bias add."""
        x += bias
        return x

    def relu(self, x):
        """In-place ReLU."""
        return np.maximum(x, 0, out=x)

    def reduce_max(self, x, axis, out=None):
        """Max-reduction along ``axis`` (the neighborhood reduction)."""
        return np.max(x, axis=axis, out=out)

    def subtract(self, a, b, out=None):
        """Elementwise (broadcasting) subtract."""
        return np.subtract(a, b, out=out)

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


#: Built-in backends by name.
_REGISTRY = {
    "float64": ArrayBackend(np.float64),
    "float32": ArrayBackend(np.float32),
}


def registered_backends():
    """Every resolvable backend name."""
    return sorted(_REGISTRY)


def get_backend(backend):
    """Resolve a backend name / dtype / instance to an :class:`ArrayBackend`.

    Accepts an :class:`ArrayBackend` (returned as-is), a registered name
    (``"float64"``, ``"float32"``), or anything ``np.dtype`` accepts
    that names one of them.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    try:
        resolved = _REGISTRY.get(np.dtype(backend).name)
    except TypeError:
        resolved = None
    if resolved is None:
        raise ValueError(
            f"unknown backend {backend!r}; expected an ArrayBackend, "
            f"one of {registered_backends()}, or a dtype"
        )
    return resolved
