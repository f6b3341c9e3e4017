"""The ``ArrayBackend`` protocol: dtype-parameterized ndarray kernels.

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

Two concrete backends ship: ``float64`` — the bit-exact reference whose
arithmetic matches the autograd executors value for value — and
``float32``, the BLAS fast path (half the memory traffic, roughly twice
the GEMM throughput on CPU).  Anything implementing this protocol can
be passed wherever a backend name is accepted.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["ArrayBackend", "NumpyBackend", "get_backend",
           "registered_backends"]


class ArrayBackend:
    """Protocol for the kernel runtime's array substrate.

    Subclasses (or structurally-compatible objects) provide the dtype
    policy plus the dtype-sensitive kernels.  The base class implements
    everything over numpy; override :attr:`dtype` or individual kernels
    to specialize.
    """

    #: Short name used in cache keys and ``repr``.
    name = "base"
    #: Parameter, activation and neighbor-search dtype of a program.
    dtype = np.dtype(np.float64)

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

    def qmatmul(self, x, qweight, w_scale, a_scale, out=None):
        """Quantized GEMM — only quantized backends implement this.

        Float backends refuse loudly: a ``("qlinear", ...)`` segment in
        the parameter table means the table was exported for the int8
        backend and must not silently run through a float GEMM.
        """
        raise ValueError(
            f"backend {self.name!r} cannot execute quantized (qlinear) "
            "segments; run them on the int8 backend, or re-export the "
            "parameter table for this backend"
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class NumpyBackend(ArrayBackend):
    """Numpy backend parameterized by dtype.

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
        self.dtype = dtype
        self.name = dtype.name


def _make_int8():
    from .quant import Int8Backend

    return Int8Backend()


#: Built-in backends by name.
_REGISTRY = {
    "float64": NumpyBackend(np.float64),
    "float32": NumpyBackend(np.float32),
}

#: Lazily-constructed backends: the factory runs on first resolution
#: and the instance lands in ``_REGISTRY``, so ``get_backend("int8")``
#: is a singleton — its memoized calibration tables are shared by every
#: program in the process.
_LAZY = {"int8": _make_int8}

_lazy_lock = threading.Lock()


def registered_backends():
    """Every resolvable backend name, built and lazy alike."""
    return sorted(set(_REGISTRY) | set(_LAZY))


def _resolve_name(name):
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    factory = _LAZY.get(name)
    if factory is None:
        return None
    with _lazy_lock:
        return _REGISTRY.setdefault(name, factory())


def get_backend(backend):
    """Resolve a backend name / dtype / instance to an :class:`ArrayBackend`.

    Accepts an :class:`ArrayBackend` (returned as-is), a registered name
    (``"float64"``, ``"float32"``, ``"int8"``), or anything ``np.dtype``
    accepts — ``np.int8`` routes to the quantized backend.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if isinstance(backend, str):
        resolved = _resolve_name(backend)
        if resolved is not None:
            return resolved
    try:
        name = np.dtype(backend).name
    except TypeError as exc:
        raise ValueError(
            f"unknown backend {backend!r}; expected an ArrayBackend, "
            f"one of {registered_backends()}, or a dtype"
        ) from exc
    resolved = _resolve_name(name)
    if resolved is None:
        raise ValueError(
            f"unknown backend {backend!r}; expected an ArrayBackend, "
            f"one of {registered_backends()}, or a dtype"
        )
    return resolved
