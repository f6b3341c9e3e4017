"""Reverse-mode automatic differentiation over numpy arrays.

This is the DNN substrate the paper's networks are built on.  The paper
used TensorFlow on a Jetson TX2; we need training (Fig 16 retrains every
network with delayed-aggregation) but have no deep-learning framework
offline, so we implement a small, well-tested autograd engine.

Only the operations required by point cloud networks are provided:
matmul, elementwise arithmetic with broadcasting, ReLU, max-reduction
(the paper's neighborhood reduction), gather (the aggregation step),
concatenation, and the usual shape plumbing.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "concat", "no_grad", "is_grad_enabled"]

# Grad mode is per-thread: the serving layers enter no_grad()
# concurrently from dispatcher and worker threads, and a process-global
# flag with save/restore semantics races under interleaved enter/exit
# (thread A's restore can clobber thread B's state — or leak inference
# mode into the main thread permanently).  A thread starts with grads
# enabled; every pooled inference task enters no_grad() itself.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager disabling graph construction (inference mode).

    Scoped to the current thread — entering it on a dispatcher thread
    does not flip grad mode for anyone else, so worker tasks must enter
    their own (the engine's pooled tasks all do).
    """

    def __enter__(self):
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_STATE.enabled = self._prev
        return False


def is_grad_enabled():
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the backward graph that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # beat numpy operator dispatch

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        if not is_grad_enabled() and isinstance(data, np.ndarray) \
                and data.dtype.kind == "f":
            # Inference fast path: respect the array's floating dtype.
            # Training always promotes to float64 (gradient accuracy),
            # but under no_grad() a float32 array — e.g. one produced by
            # the float32 kernel backend — must survive the neural layer
            # without a silent upcast copy.
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad = None
        self._backward = None
        self._parents = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(other):
        return other if isinstance(other, Tensor) else Tensor(other)

    @classmethod
    def _from_op(cls, data, parents, backward):
        out = cls(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic properties ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._wrap(other)
        out_data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(-grad, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return Tensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return Tensor._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._from_op(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._wrap(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1:
                a2 = a[None, :]
                grad2 = grad[None, :] if grad.ndim == 1 else grad
            else:
                a2, grad2 = a, grad
            grad_a = grad2 @ np.swapaxes(b, -1, -2) if b.ndim > 1 else np.outer(grad2, b)
            grad_b = np.swapaxes(a2, -1, -2) @ grad2 if a.ndim > 1 else np.outer(a, grad2)
            # Collapse batch dims broadcast during matmul.
            grad_a = _unbroadcast(np.asarray(grad_a), self.shape)
            grad_b = _unbroadcast(np.asarray(grad_b), other.shape)
            return (grad_a, grad_b)

        return Tensor._from_op(out_data, (self, other), backward)

    # -- nonlinearities ------------------------------------------------------

    def relu(self):
        mask = self.data > 0

        def backward(grad):
            return (grad * mask,)

        return Tensor._from_op(self.data * mask, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            return (grad / self.data,)

        return Tensor._from_op(np.log(self.data), (self,), backward)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis, keepdims=False):
        """Max-reduction along ``axis`` — the paper's neighborhood reduction.

        The gradient flows only to the arg-max element of each slice,
        matching the behaviour of max-pooling in the original networks.
        """
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not (is_grad_enabled() and self.requires_grad):
            # Inference fast path: the argmax bookkeeping below exists
            # only for the backward pass and costs as much as the max.
            return Tensor._from_op(out_data, (self,), None)
        argmax = np.expand_dims(self.data.argmax(axis=axis), axis)

        def backward(grad):
            g = np.asarray(grad)
            if not keepdims:
                g = np.expand_dims(g, axis)
            full = np.zeros_like(self.data)
            np.put_along_axis(full, argmax, g, axis)
            return (full,)

        return Tensor._from_op(out_data, (self,), backward)

    # -- shape plumbing --------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad):
            return (grad.reshape(self.shape),)

        return Tensor._from_op(out_data, (self,), backward)

    def gather(self, indices):
        """Select rows along axis 0: the *aggregation* gather.

        ``indices`` may be any integer array; the output has shape
        ``indices.shape + self.shape[1:]``.  Gradients scatter-add back
        into the source rows (a point feature used by many neighborhoods
        accumulates gradient from each).
        """
        idx = np.asarray(indices)
        out_data = self.data[idx]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, idx.reshape(-1), grad.reshape(-1, *self.shape[1:]))
            return (full,)

        return Tensor._from_op(out_data, (self,), backward)

    def __getitem__(self, key):
        out_data = self.data[key]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            return (full,)

        return Tensor._from_op(out_data, (self,), backward)

    # -- autograd driver ---------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                if node_grad is not None and node.requires_grad and node._backward is None:
                    node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            if node.requires_grad and not node._parents:
                node.grad = node_grad if node.grad is None else node.grad + node_grad
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis`` (DGCNN's ``+`` in Fig 1b)."""
    tensors = [Tensor._wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        slicer = [slice(None)] * grad.ndim
        pieces = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer[axis] = slice(start, stop)
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._from_op(out_data, tensors, backward)

