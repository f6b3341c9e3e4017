"""BatchRunner: drive a network over stacks of point clouds.

This is the serving front door the ROADMAP's scaling work builds on: it
compiles the network's per-module operator graphs into an execution
plan once (:func:`repro.graph.compile_network_plan`), stacks B clouds
into a (B, N, 3) array, runs the whole stack through the batched graph
executor (batched neighbor search + tall shared-MLP matrices) under
inference mode, and scopes the substrate / cache / dtype choice over
every search the plan issues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core import STRATEGIES
from ..graph import compile_network_plan
from ..neighbors import search_context
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

    @property
    def clouds_per_second(self):
        """Throughput of the run (infinite for an unmeasurably short one)."""
        return self.batch_size / self.seconds if self.seconds > 0 else float("inf")

    def per_cloud(self):
        """Split the stacked outputs back into one output per cloud.

        The inverse of
        :meth:`~repro.networks.base.PointCloudNetwork.stack_outputs`, and
        the demultiplexing hook the serving frontend uses to hand each
        request its own response: (B, ...) arrays split along the batch
        axis, detection dicts split value-wise, and per-cloud lists
        (how :class:`AsyncRunner` stacks detection outputs) pass
        through.  Always returns plain ndarray leaves.
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
        if isinstance(out, (list, tuple)):
            if len(out) != self.batch_size:
                raise ValueError(
                    f"cannot split {len(out)} outputs into "
                    f"{self.batch_size} per-cloud responses"
                )
            return [
                {key: _leaf_array(value) for key, value in item.items()}
                if isinstance(item, dict) else _leaf_array(item)
                for item in out
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
    substrate:
        Neighbor-search substrate scoped over the run (default brute).
    cache:
        Optional :class:`~repro.engine.cache.NeighborIndexCache`; when
        set, repeated clouds skip their searches entirely.
    dtype:
        Search precision (e.g. ``np.float32`` to halve search memory
        traffic; network arithmetic itself stays float64 unless a
        kernel ``backend`` is selected).
    backend:
        Optional kernel backend (``"float64"``, ``"float32"``, or an
        :class:`~repro.backend.ArrayBackend`).  When set, :meth:`run`
        executes the compiled autograd-free kernel program
        (:class:`~repro.backend.NetworkKernelExecutor`) instead of the
        batched graph interpreter, and — unless ``dtype`` pins one —
        neighbor searches run in the backend's dtype too.
    program_cache:
        Optional :class:`~repro.backend.ProgramCache` (or a directory
        path for one).  Kernel programs then load from the AOT cache —
        zero-copy memmapped parameters, a pre-measured arena plan — and
        first-compiles persist for the next process.  Only meaningful
        together with ``backend``.
    params:
        Optional pre-built :class:`~repro.backend.params.ParameterTable`
        (e.g. attached zero-copy from a :func:`~repro.backend.share_table`
        descriptor or the program cache) the compiled programs read through instead of
        exporting this runner's own copy of the weights.  Only
        meaningful together with ``backend``; its dtype must match.
    executor:
        Optional pre-built :class:`~repro.backend.NetworkKernelExecutor`
        to run through instead of one constructed from ``backend`` /
        ``program_cache`` / ``params`` (which is then only reported).
        Executors are thread-compatible: the shard router hands one to
        every replica of a network.
    tuned:
        Optional :class:`~repro.tune.TunedTable` (or its JSON form).
        Each :meth:`run` then dispatches on the measured winner for the
        request's shape key (network, point count, batch size, nearest
        batch as fallback), delegating to an internally memoized runner
        per winning configuration; the runner's own
        strategy/backend settings serve only shapes the table
        has no entry for.
    """

    fusion = ()  # only reader: benchmarks/ledger/test_ledger.py:221

    def __init__(self, network, strategy="delayed", substrate="brute",
                 cache=None, dtype=None, backend=None, program_cache=None,
                 tuned=None, params=None, executor=None):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.network = network
        self.strategy = strategy
        self.substrate = substrate
        self.cache = cache
        self.dtype = dtype
        self.backend = backend
        # Uniform accessor across runner classes: AsyncRunner repurposes
        # ``backend`` for its concurrency pool type, so generic code
        # should read the kernel choice from ``kernel_backend``.
        self.kernel_backend = backend
        self.program_cache = program_cache
        if tuned is not None and not hasattr(tuned, "lookup"):
            from ..tune import TunedTable

            tuned = TunedTable.from_json(tuned)
        self.tuned = tuned
        self._tuned_runners = {}
        #: Optional pre-built (possibly zero-copy-attached)
        #: :class:`~repro.backend.params.ParameterTable` the compiled
        #: programs read through instead of re-exporting the network's
        #: weights.  Only meaningful together with ``backend``.
        self.params = params
        self._kernel_executor = executor
        if executor is None and backend is not None:
            from ..backend import NetworkKernelExecutor

            self._kernel_executor = NetworkKernelExecutor(
                backend, params=params, program_cache=program_cache,
            )
        self._plan = None

    @property
    def plan(self):
        """The compiled per-module graph plan this runner executes.

        Compiled lazily and memoized; the underlying graphs are shared
        with the forward passes (same (spec, strategy) memo), so this
        is introspection over — not a copy of — what actually runs.
        """
        if self._plan is None:
            kernel = self._kernel_executor
            self._plan = compile_network_plan(
                self.network, self.strategy,
                backend=None if kernel is None else kernel.backend,
            )
        return self._plan

    def _stack(self, clouds, dtype=np.float64):
        batch = np.asarray(clouds, dtype=dtype)
        if batch.ndim == 2:
            batch = batch[None]
        n = self.network.n_points
        if batch.ndim != 3 or batch.shape[1:] != (n, 3):
            raise ValueError(
                f"expected clouds stackable to (batch, {n}, 3), got {batch.shape}"
            )
        return batch

    def _context(self):
        return search_context(
            substrate=self.substrate, cache=self.cache, dtype=self.dtype
        )

    def _result(self, outputs, batch_size, seconds):
        if isinstance(outputs, Tensor):
            outputs = outputs.data
        elif isinstance(outputs, dict):
            # Detection networks return a dict of batched tensors.
            outputs = {
                key: value.data if isinstance(value, Tensor) else value
                for key, value in outputs.items()
            }
        return BatchResult(
            outputs,
            batch_size,
            seconds,
            dict(self.cache.stats()) if self.cache is not None else {},
        )

    def _batch_size(self, clouds):
        if isinstance(clouds, (list, tuple)):
            return len(clouds)
        arr = np.asarray(clouds)
        return 1 if arr.ndim == 2 else len(arr)

    def _tuned_runner(self, batch_size):
        """The memoized delegate runner for one tuned configuration."""
        config = self.tuned.lookup(
            self.network.name, self.network.n_points, batch_size
        )
        if config is None:
            return None
        runner = self._tuned_runners.get(config.key())
        if runner is None:
            runner = BatchRunner(
                self.network, cache=self.cache, dtype=self.dtype,
                program_cache=self.program_cache,
                **config.runner_kwargs(self.network),
            )
            self._tuned_runners[config.key()] = runner
        return runner

    def run(self, clouds):
        """Batched inference over ``clouds`` (list or (B, N, 3) array).

        With a kernel ``backend`` configured the stack goes through the
        compiled kernel program; otherwise through the batched graph
        interpreter (:meth:`~repro.networks.base.PointCloudNetwork.forward_batch`).
        With ``tuned`` configured, the measured winner for the
        request's shape dispatches first.
        """
        if self.tuned is not None:
            runner = self._tuned_runner(self._batch_size(clouds))
            if runner is not None:
                return runner.run(clouds)
        if self._kernel_executor is not None:
            # Stack directly in the backend's dtype: the program would
            # cast anyway, and float32 clouds must not round-trip
            # through a float64 copy on the fast path.
            batch = self._stack(clouds,
                                dtype=self._kernel_executor.backend.dtype)
        else:
            batch = self._stack(clouds)
        start = time.perf_counter()
        with no_grad(), self._context():
            if self._kernel_executor is not None:
                outputs = self._kernel_executor.run_network(
                    self.network.network_graph(self.strategy),
                    self.network, batch,
                )
            else:
                outputs = self.network.forward_batch(
                    batch, strategy=self.strategy
                )
        return self._result(outputs, len(batch), time.perf_counter() - start)

    def close(self):
        """Release any pooled resources (idempotent).

        :class:`BatchRunner` itself holds only the memoized tuned
        delegates — this is otherwise the uniform drain hook the
        serving frontend calls on shutdown, so a server can close
        whichever runner flavor it was handed
        (:class:`~repro.engine.scheduler.AsyncRunner` overrides it to
        shut its worker pools down).
        """
        delegates = list(self._tuned_runners.values())
        self._tuned_runners.clear()
        for runner in delegates:
            runner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run_sequential(self, clouds):
        """Per-cloud loop under the same context — the batching baseline."""
        batch = self._stack(clouds)
        start = time.perf_counter()
        with no_grad(), self._context():
            outputs = [
                self.network.forward(batch[b], strategy=self.strategy)
                for b in range(len(batch))
            ]
        seconds = time.perf_counter() - start
        stacked = type(self.network).stack_outputs(outputs)
        return self._result(stacked, len(batch), seconds)
