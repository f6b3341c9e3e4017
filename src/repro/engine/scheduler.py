"""Async N/F-overlap scheduler: dependency-driven network execution.

The serial executor walks a graph front to back, so the neighbor
search finishes before the first hoisted MLP layer starts — even
though delayed aggregation makes the two independent.  This module
turns the operator-graph IR into an actual concurrency substrate:

* :class:`OverlapExecutor` is the graph interpreter
  (:class:`~repro.graph.executors.GraphExecutor`) with one override: it
  walks a graph dependency-first through the IR's
  :class:`~repro.graph.ir.Frontier` instead of front to back.  N-lane
  nodes (the sample→search chain, per
  :func:`~repro.graph.schedule.node_lane`) are submitted to a worker
  pool while F-lane nodes (the hoisted MLP chain) run inline on the
  scheduling thread, so neighbor search and feature computation
  overlap — the paper's N/F overlap (§V), in software.  Over a
  *whole-network* graph (:mod:`repro.graph.network`) stage coordinates
  flow through explicit ``coords`` nodes, so module i+1's
  sample→search chain is ready while module i's hoisted MLP and
  aggregation still drain — N/F overlap across module boundaries.
* :class:`AsyncRunner` serves batches with the same API as
  :class:`~repro.engine.runner.BatchRunner` but pipelines multiple
  clouds in flight: each cloud walks the full network graph on its own
  worker, so cloud *i*'s module-2 search runs while cloud *j*'s
  module-1 MLP computes.

Every node executes the exact same arithmetic as the serial network
executors — the scheduler only changes *when* nodes run, never what
they compute — so async outputs are bit-exact matches of the serial
eager forward (CI-gated).

Thread pools suit the default brute-force substrate because its hot
kernels (distance matmuls, ``argpartition``, tall shared-MLP products)
release the GIL; for CPU-bound substrates whose per-cloud sweeps hold
the GIL (pure-python k-d tree or grid walks), ``backend="process"``
fans whole-cloud forwards over a *persistent*
:class:`~repro.engine.parallel.ParallelRunner` process pool — the
network is pickled once into the pool initializer, not per batch.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from ..graph.executors import GraphExecutor
from ..graph.schedule import node_lane
from ..neighbors import active_search_options, search_context
from ..neural import no_grad
from .parallel import ParallelRunner
from .runner import BatchRunner

__all__ = [
    "AsyncRunner",
    "OverlapExecutor",
    "async_forward_task",
    "network_forward_task",
]

_BACKENDS = ("thread", "process", "serial")


def _drive_frontier(graph, execute, pool, options):
    """Walk ``graph`` dependency-first, pooling N-lane nodes.

    ``execute(node, env)`` computes one node's value; ready N-lane
    nodes are submitted to ``pool`` (re-entering the caller's
    thread-local search ``options``) while everything else runs inline
    on the scheduling thread.  Returns the completed environment.
    """

    def execute_pooled(node, env):
        # Grad mode and search options are both thread-local: re-enter
        # them on the pool worker so the node runs under the scheduling
        # thread's inference scope.
        with no_grad(), search_context(**options):
            return execute(node, env)

    env = {}
    frontier = graph.frontier()
    inline = deque()
    in_flight = {}
    while not frontier.done:
        for node in frontier.take():
            if pool is not None and node_lane(node) == "N":
                in_flight[pool.submit(execute_pooled, node, env)] = node
            else:
                inline.append(node)
        finished = [f for f in in_flight if f.done()]
        if inline:
            node = inline.popleft()
            env[node.id] = execute(node, env)
            frontier.complete(node.id)
        elif in_flight and not finished:
            finished = list(
                wait(in_flight, return_when=FIRST_COMPLETED).done
            )
        elif not finished:
            raise RuntimeError(
                f"scheduler stalled on {graph.name}: no ready nodes "
                "and nothing in flight (cyclic or disconnected graph)"
            )
        for future in finished:
            node = in_flight.pop(future)
            env[node.id] = future.result()
            frontier.complete(node.id)
    return env


class OverlapExecutor(GraphExecutor):
    """Dependency-driven graph executor with N/F overlap.

    Drop-in for :class:`~repro.graph.executors.GraphExecutor` (same
    ``run`` / ``run_network`` contracts, same per-node arithmetic —
    outputs are bit-identical).  Instead of walking the node list
    serially it walks the graph's dependency frontier: every ready
    N-lane node is submitted to ``pool`` while ready F-lane nodes
    execute inline, so a delayed-aggregation graph runs its neighbor
    search concurrently with its hoisted MLP chain — and, over a
    network graph, module i+1's sample→search chain is submitted the
    moment module i's sampling chain completes, while module i's
    hoisted MLP and aggregation are still draining on the scheduling
    thread.

    Parameters
    ----------
    pool:
        A ``ThreadPoolExecutor`` the N-lane nodes are submitted to.
        ``None`` executes everything inline (dependency-ordered serial
        execution — useful for property tests and as the degenerate
        single-worker mode).
    recorder:
        Optional :class:`~repro.graph.executors.OpRecorder`.  With a
        live pool, records arrive in completion order, not graph order.
    observer:
        Optional callable ``observer(event, node)`` invoked with
        ``("start", node)`` / ``("finish", node)`` around every node.
        Worker threads invoke it concurrently; the dependency-order
        property tests hang a thread-safe log on it.
    """

    def __init__(self, pool=None, recorder=None, observer=None):
        super().__init__(recorder)
        self.pool = pool
        self.observer = observer

    def _walk(self, graph, execute):
        """Compute every node dependency-first, pooling the N lane."""
        observer = self.observer

        def observed(node, env):
            observer("start", node)
            value = execute(node, env)
            observer("finish", node)
            return value

        # Search options are thread-local: capture the scheduler
        # thread's scope and re-enter it around pooled nodes so a
        # worker-thread search still sees the engine's substrate,
        # cache and dtype choice.
        return _drive_frontier(
            graph, execute if observer is None else observed, self.pool,
            active_search_options(),
        )


def async_forward_task(args):
    """(network, cloud, strategy, substrate, dtype) -> one forward output.

    Module-level so the ``spawn`` start method can pickle it.  This is
    the self-contained (network re-pickled per task) form; the
    :class:`AsyncRunner` process backend now ships the network once via
    the pool initializer and dispatches :func:`network_forward_task`
    instead.
    """
    network, cloud, strategy, substrate, dtype = args
    with no_grad(), search_context(substrate=substrate, dtype=dtype):
        return network.forward(cloud, strategy=strategy)


#: Per-worker-process state installed by :func:`_init_forward_worker`.
_WORKER_STATE = {}


def _init_forward_worker(network, strategy, substrate, dtype,
                         kernel_backend=None, shared_params=None):
    """Pool initializer: unpickle the network once per worker process.

    Runs in each worker when the persistent pool starts (and in-process
    when the pool degrades to a serial map), so per-task payloads are
    just the cloud arrays.  ``kernel_backend`` additionally compiles
    the worker's kernel program once, so every task runs autograd-free.

    ``shared_params`` is an optional
    :func:`~repro.backend.attach_table` descriptor.  When set, the
    worker maps the parent's packed parameter table zero-copy (a
    shared file or an on-disk program cache) instead of unpickling parameter
    data — ``network`` is then a stripped
    :func:`~repro.backend.network_skeleton`, kilobytes instead of the
    megabytes of weights.
    """
    executor = None
    if kernel_backend is not None:
        from ..backend import NetworkKernelExecutor

        params = None
        if shared_params is not None:
            from ..backend import attach_table

            params = attach_table(shared_params)
        executor = NetworkKernelExecutor(kernel_backend, params=params)
    _WORKER_STATE["network"] = network
    _WORKER_STATE["strategy"] = strategy
    _WORKER_STATE["substrate"] = substrate
    _WORKER_STATE["dtype"] = dtype
    _WORKER_STATE["executor"] = executor


def network_forward_task(cloud):
    """One cloud through the worker's initializer-installed network."""
    state = _WORKER_STATE
    with no_grad(), search_context(substrate=state["substrate"],
                                   dtype=state["dtype"]):
        return state["network"].forward(cloud, strategy=state["strategy"],
                                        executor=state.get("executor"))


class AsyncRunner(BatchRunner):
    """Overlapped serving runner — same API and config as BatchRunner.

    :meth:`run` pipelines up to ``in_flight`` clouds concurrently, each
    executing its full network forward through an
    :class:`OverlapExecutor` (N/F overlap on a shared search pool).
    Outputs are bit-exact matches of the serial per-cloud eager loop
    (:meth:`run_sequential`, inherited — the baseline the ``sched``
    bench row measures against); speedup comes purely from concurrency
    and therefore scales with cores.

    The thread backend's worker pools are created lazily and reused
    across :meth:`run` calls, so a serving loop pays thread
    construction once, not per batch; the process backend keeps a
    persistent :class:`~repro.engine.parallel.ParallelRunner` pool that
    pickles the network once into its initializer, so per-batch
    payloads are just the cloud arrays.  Call :meth:`close` (or use the
    runner as a context manager) to release all of them.

    Parameters
    ----------
    network, strategy, substrate, cache, dtype:
        As for :class:`~repro.engine.runner.BatchRunner`.  The cache is
        shared across all in-flight clouds; its single-flight lookups
        guarantee concurrent identical searches compute once.
    max_workers:
        Size of the N-lane search pool (default: CPU count).
    in_flight:
        How many clouds pipeline concurrently (default: ``max_workers``).
    backend:
        ``"thread"`` (default) overlaps via threads — right for the
        brute substrate whose kernels release the GIL.  ``"process"``
        fans whole-cloud forwards over a
        :class:`~repro.engine.parallel.ParallelRunner` process pool —
        right for CPU-bound substrates (pure-python kdtree/grid sweeps);
        the runner cache is not consulted there, since worker processes
        cannot share it.  ``"serial"`` runs the dependency-ordered
        executor without any pool (debugging / property tests).
    kernel_backend:
        Optional kernel backend (``"float64"`` / ``"float32"`` / an
        :class:`~repro.backend.ArrayBackend`).  When set, every
        in-flight cloud runs the compiled autograd-free kernel program
        instead of the overlap graph interpreter — concurrency then
        comes from pipelining whole-cloud programs (whose GEMM and
        search kernels release the GIL) across the cloud pool.  The
        process backend ships the backend name into its workers, which
        compile once in their initializer.
    program_cache:
        Optional :class:`~repro.backend.ProgramCache` (or directory
        path).  The parent compiles (or loads) the kernel program once;
        process workers receive a :func:`~repro.backend.network_skeleton`
        plus a cache descriptor and map the packed parameters from disk
        instead of unpickling them.  Without a cache the process backend
        still shares parameters zero-copy through one private tmpfs
        file (:func:`~repro.backend.share_table`) whenever a
        ``kernel_backend`` is set.
    tuned:
        Optional :class:`~repro.tune.TunedTable` (or its JSON form).
        Resolved once at construction — the pipeline depth
        (``in_flight``) is the shape hint — and the winning
        configuration overrides ``strategy`` / ``substrate`` /
        ``kernel_backend`` for every subsequent batch; the resolved
        config is exposed as ``tuned_config``.
    params, executor:
        As for :class:`~repro.engine.runner.BatchRunner`.
    """

    def __init__(self, network, strategy="delayed", substrate="brute",
                 cache=None, dtype=None, max_workers=None, in_flight=None,
                 backend="thread", kernel_backend=None, program_cache=None,
                 tuned=None, params=None, executor=None):
        if tuned is not None and not hasattr(tuned, "lookup"):
            from ..tune import TunedTable

            tuned = TunedTable.from_json(tuned)
        self.tuned_config = None
        if tuned is not None:
            hint = in_flight or max_workers or os.cpu_count() or 1
            config = tuned.lookup(network.name, network.n_points, int(hint))
            if config is not None:
                self.tuned_config = config
                strategy = config.strategy
                substrate = config.substrate
                kernel_backend = config.resolve_backend(network)
                executor = None  # built for the untuned backend
        super().__init__(network, strategy=strategy, substrate=substrate,
                         cache=cache, dtype=dtype, backend=kernel_backend,
                         program_cache=program_cache, params=params,
                         executor=executor)
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        self.backend = backend
        self.kernel_backend = kernel_backend
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if int(max_workers) <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = int(max_workers)
        if in_flight is None:
            in_flight = self.max_workers
        if int(in_flight) <= 0:
            raise ValueError("in_flight must be positive")
        self.in_flight = int(in_flight)
        self._search_pool = None
        self._cloud_pool = None
        self._process_runner = None
        self._shared_table = None

    def run(self, clouds):
        """Overlapped inference over ``clouds`` (list or (B, N, 3) array)."""
        batch = self._stack(clouds)
        start = time.perf_counter()
        if self.backend == "process":
            outputs = self._run_processes(batch)
        elif self.backend == "serial" or (
            self.max_workers == 1 and self.in_flight == 1
        ):
            # One worker cannot overlap anything: skip the pools and
            # run the dependency-ordered executor inline.
            outputs = self._run_serial_frontier(batch)
        else:
            outputs = self._run_threads(batch)
        stacked = type(self.network).stack_outputs(outputs)
        return self._result(stacked, len(batch), time.perf_counter() - start)

    # -- backends -----------------------------------------------------------

    def _forward_one(self, cloud, pool):
        """One cloud through the network overlap executor, in this thread.

        With a kernel backend configured the cloud runs the compiled
        kernel program instead (thread-local scratch, so one executor
        serves every in-flight cloud).  Enters ``no_grad`` itself: grad
        mode is thread-local and this runs on cloud-pool worker threads.
        """
        with no_grad(), self._context():
            if self._kernel_executor is not None:
                executor = self._kernel_executor
            else:
                executor = OverlapExecutor(pool)
            return self.network.forward(
                cloud, strategy=self.strategy, executor=executor,
            )

    def _pools(self):
        # Two pools on purpose: cloud workers block waiting for their
        # module's search futures, so issuing searches into the same
        # pool could deadlock once every worker holds a cloud.  Created
        # lazily and reused across run() calls — a serving loop must
        # not pay thread construction per batch; close() releases them.
        if self._cloud_pool is None:
            self._search_pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-sched-search",
            )
            self._cloud_pool = ThreadPoolExecutor(
                max_workers=self.in_flight,
                thread_name_prefix="repro-sched-cloud",
            )
        return self._search_pool, self._cloud_pool

    def close(self):
        """Shut down the worker pools (idempotent; runner stays usable —
        the next :meth:`run` recreates them)."""
        for pool in (self._search_pool, self._cloud_pool):
            if pool is not None:
                pool.shutdown()
        self._search_pool = None
        self._cloud_pool = None
        if self._process_runner is not None:
            self._process_runner.close()
            self._process_runner = None
        if self._shared_table is not None:
            # Workers are gone (pool drained above): unlink the file
            # backing their parameter tables.
            self._shared_table.close(unlink=True)
            self._shared_table = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _run_threads(self, batch):
        searches, clouds = self._pools()
        with no_grad():
            futures = [
                clouds.submit(self._forward_one, cloud, searches)
                for cloud in batch
            ]
            return [future.result() for future in futures]

    def _run_serial_frontier(self, batch):
        with no_grad():
            return [self._forward_one(cloud, None) for cloud in batch]

    def _worker_payload(self):
        """(network, shared_params) for the process-pool initializer.

        Without a kernel backend the full network pickles into each
        worker, as before.  With one, parameters travel zero-copy: the
        parent packs the table once and workers map it — through the
        on-disk program cache when one is configured, through one
        private tmpfs file otherwise — while the
        pickled payload shrinks to a parameter-stripped skeleton.
        """
        if self.kernel_backend is None:
            return self.network, None
        from ..backend import network_skeleton, parameter_descriptor

        try:
            if self._shared_table is not None:
                # Re-warming the pool: the file already exists.
                descriptor = self._shared_table.descriptor()
            else:
                # Compiles (and stores) on the parent if not cached yet;
                # workers then only open the memmap (program-cache path)
                # or map the freshly-packed shared file.
                descriptor, handle = parameter_descriptor(
                    self.network, self.strategy, self.kernel_backend,
                    program_cache=self.program_cache,
                )
                self._shared_table = handle
            return network_skeleton(self.network), descriptor
        except (OSError, ValueError, RuntimeError) as exc:
            warnings.warn(
                f"shared parameter table unavailable ({exc}); "
                "pickling the full network into workers",
                RuntimeWarning,
                stacklevel=3,
            )
            return self.network, None

    def _run_processes(self, batch):
        # Persistent pool: the network is pickled exactly once, into
        # each worker's initializer; per-batch payloads are the clouds.
        if self._process_runner is None:
            network, shared_params = self._worker_payload()
            self._process_runner = ParallelRunner(
                max_workers=self.max_workers, backend="process",
                persistent=True, initializer=_init_forward_worker,
                initargs=(network, self.strategy, self.substrate,
                          self.dtype, self.kernel_backend, shared_params),
            )
        return self._process_runner.map(network_forward_task, list(batch))
