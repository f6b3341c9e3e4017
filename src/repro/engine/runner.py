"""BatchRunner: drive a network over stacks of point clouds.

This is the serving front door the ROADMAP's scaling work builds on: it
stacks B clouds into a (B, N, 3) array and runs the whole stack through
the network's strategy-rewritten whole-network graph
(``network.network_graph(strategy)``), compiled into the one
:class:`~repro.backend.KernelProgram` the runner runs, handing the
program its neighbor-index cache as an argument of every run.  The
batched graph interpreter
(:meth:`~repro.networks.base.PointCloudNetwork.forward_batch`)
is not a serving path: it trains, and it is the oracle the float64
program is held to bit for bit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..backend.params import _resolve_dtype
from ..core import STRATEGIES
from ..neural import Tensor, no_grad

__all__ = ["BatchResult", "BatchRunner"]


def _leaf_array(value):
    """Tensor or ndarray leaf -> plain ndarray."""
    return value.data if isinstance(value, Tensor) else np.asarray(value)


@dataclass
class BatchResult:
    """Outputs plus timing for one engine run."""

    outputs: np.ndarray
    batch_size: int
    seconds: float
    cache_stats: dict = field(default_factory=dict)

    def per_cloud(self):
        """Split the stacked outputs back into one output per cloud.

        The demultiplexing hook the serving frontend uses to hand each
        request its own response: (B, ...) arrays split along the batch
        axis, detection dicts split value-wise.  Always returns plain
        ndarray leaves.
        """
        out = self.outputs
        if isinstance(out, (Tensor, np.ndarray)):
            data = _leaf_array(out)
            if len(data) != self.batch_size:
                raise ValueError(
                    f"cannot split {data.shape} outputs into "
                    f"{self.batch_size} per-cloud responses"
                )
            return [data[b] for b in range(self.batch_size)]
        if isinstance(out, dict):
            return [
                {key: _leaf_array(value)[b] for key, value in out.items()}
                for b in range(self.batch_size)
            ]
        raise TypeError(f"unsupported output structure {type(out).__name__}")


class BatchRunner:
    """Run a network over batches of clouds with one configuration.

    Parameters
    ----------
    network:
        A :class:`~repro.networks.base.PointCloudNetwork` instance.
    strategy:
        Execution strategy for every forward (default ``delayed``).
    cache:
        Optional :class:`~repro.engine.cache.NeighborIndexCache`; when
        set, repeated clouds skip their searches entirely.
    backend:
        The compiled program's dtype: ``"float64"`` (the default;
        ``None`` means it too) or ``"float32"``.  Neighbor searches run
        in it.
    params:
        Optional pre-built :class:`~repro.backend.params.ParameterTable`
        (e.g. attached zero-copy from a :func:`~repro.backend.share_table`
        descriptor) the compiled program reads through instead of
        exporting this runner's own copy of the weights; its dtype must
        match ``backend``.
    program:
        Optional pre-compiled :class:`~repro.backend.KernelProgram` of
        ``network`` under ``strategy`` and ``backend`` to run instead of
        compiling one (``params`` is then only reported).  Programs are
        thread-compatible: the shard router hands one to every replica
        of a network.

    ``strategy`` and ``backend`` are the caller's contract: every
    :meth:`run` executes exactly that configuration, whatever the batch
    height.  The program, arena plan included, compiles in process on
    the first run.
    """

    fusion = ()  # only reader: benchmarks/ledger/test_ledger.py:221
    tuned = None  # only reader: benchmarks/ledger/test_ledger.py:221
    program_cache = None  # only reader: benchmarks/ledger/test_ledger.py:222

    def __init__(self, network, strategy="delayed", cache=None, backend=None,
                 params=None, program=None):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.network = network
        self.strategy = strategy
        self.cache = cache
        self.backend = "float64" if backend is None else backend
        #: Optional pre-built (possibly zero-copy-attached)
        #: :class:`~repro.backend.params.ParameterTable` the compiled
        #: programs read through instead of re-exporting the network's
        #: weights.
        self.params = params
        #: The dtype :meth:`run` stacks clouds in: the program's (a
        #: float32 program would cast anyway, and float32 clouds must not
        #: round-trip through a float64 copy).  Resolving it refuses a
        #: bad backend here rather than on the first run.
        self.stack_dtype = _resolve_dtype(self.backend)
        self._program = program
        self._compile_lock = threading.Lock()  # lanes may share a runner

    def _stack(self, clouds):
        batch = np.asarray(clouds, dtype=self.stack_dtype)
        if batch.ndim == 2:
            batch = batch[None]
        n = self.network.n_points
        if batch.ndim != 3 or batch.shape[1:] != (n, 3):
            raise ValueError(
                f"expected clouds stackable to (batch, {n}, 3), got {batch.shape}"
            )
        return batch

    def _result(self, outputs, batch_size, seconds):
        # A program returns a Tensor, or a dict of them for detection.
        if isinstance(outputs, dict):
            outputs = {key: value.data for key, value in outputs.items()}
        else:
            outputs = outputs.data
        return BatchResult(
            outputs,
            batch_size,
            seconds,
            dict(self.cache.stats()) if self.cache is not None else {},
        )

    def run(self, clouds):
        """Batched inference over ``clouds`` (list or (B, N, 3) array)
        through the compiled kernel program."""
        batch = self._stack(clouds)
        start = time.perf_counter()
        with self._compile_lock:
            if self._program is None:
                from ..backend import compile_kernel_program

                self._program = compile_kernel_program(
                    self.network, self.strategy, self.backend,
                    params=self.params)
        with no_grad():
            outputs = self._program.run(batch, cache=self.cache)
        return self._result(outputs, len(batch), time.perf_counter() - start)

    def close(self):
        """The drain hook the serving frontend calls on shutdown: a
        runner holds no pooled resources, so this is a no-op."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
