"""ParallelRunner: multi-core fan-out for work that cannot batch.

Batching covers the regular kernels (distance matrices, shared MLPs);
what it cannot cover is per-cloud work with irregular control flow —
k-d tree builds, grid walks, SoC simulation sweeps.  Those scale across
cores instead.  :class:`ParallelRunner` maps a picklable task over a
``ProcessPoolExecutor`` (threads or serial on request), degrading to a
serial sweep when only one core is available or the sandbox forbids
process pools.

Runners can be *persistent*: the pool survives across :meth:`map`
calls, and an ``initializer`` runs once per worker at pool start — the
async scheduler's process backend uses this to pickle the network into
the workers once instead of per batch.

The module-level ``*_task`` helpers are defined at import scope so the
``spawn`` start method can pickle them.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

__all__ = ["ParallelRunner", "kdtree_nit_task", "soc_latency_task"]

_BACKENDS = ("process", "thread", "serial")


class ParallelRunner:
    """Map per-cloud tasks over worker processes (or threads).

    Parameters
    ----------
    max_workers, backend:
        ``backend`` is ``"process"`` (default), ``"thread"``, or
        ``"serial"``.  With one worker, one item, or a pool that fails
        to start, the map degrades to an in-process loop — results are
        identical either way.
    initializer, initargs:
        Optional per-worker setup run once when each worker starts
        (e.g. unpickling a network into worker globals).  The serial
        degrade path applies it in-process before every map — worker
        state is commonly module-global, and another runner may have
        replaced it in between — so results stay identical.
    persistent:
        Keep the pool alive across :meth:`map` calls instead of
        creating one per call — amortizes worker startup (and the
        initializer's pickling) over a serving loop.  Release with
        :meth:`close` or use the runner as a context manager.
    """

    def __init__(self, max_workers=None, backend="process", initializer=None,
                 initargs=(), persistent=False):
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected {_BACKENDS}")
        self.max_workers = int(max_workers or os.cpu_count() or 1)
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.backend = backend
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.persistent = bool(persistent)
        self._pool = None
        self._inflight = set()
        self._inflight_lock = threading.Lock()

    def _pool_kwargs(self):
        kwargs = {"max_workers": self.max_workers}
        if self.initializer is not None:
            kwargs.update(initializer=self.initializer,
                          initargs=self.initargs)
        return kwargs

    def _make_pool(self):
        if self.backend == "process":
            # Loads multiprocessing: paid by the first process pool, not
            # by every thread-pool or serial runner.
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(**self._pool_kwargs())
        return ThreadPoolExecutor(**self._pool_kwargs())

    def _serial_map(self, fn, items):
        # Re-applied on every serial map, not memoized per runner:
        # initializers typically install module-global worker state, and
        # another runner's initializer may have overwritten it since the
        # last call here.
        if self.initializer is not None:
            self.initializer(*self.initargs)
        return [fn(item) for item in items]

    def map(self, fn, items, chunksize=1):
        """Apply ``fn`` to every item, preserving order."""
        items = list(items)
        if self.backend == "serial" or self.max_workers == 1 or len(items) <= 1:
            return self._serial_map(fn, items)
        try:
            if self.persistent:
                if self._pool is None:
                    self._pool = self._make_pool()
                if self.backend == "process":
                    return list(self._pool.map(fn, items, chunksize=chunksize))
                return list(self._pool.map(fn, items))
            if self.backend == "process":
                with self._make_pool() as pool:
                    return list(pool.map(fn, items, chunksize=chunksize))
            with self._make_pool() as pool:
                return list(pool.map(fn, items))
        except (OSError, PermissionError, RuntimeError) as exc:
            # A broken persistent pool cannot serve the next map either.
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            warnings.warn(
                f"{self.backend} pool unavailable ({exc}); running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return self._serial_map(fn, items)

    def _inline_future(self, fn, args):
        future = Future()
        future.set_running_or_notify_cancel()
        try:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            future.set_exception(exc)
        return future

    def submit(self, fn, *args):
        """Submit one task to a persistent pool, returning its future.

        The streaming counterpart of :meth:`map` — the serving
        frontend's dispatcher drains batch groups through this so
        sub-batches execute concurrently while new arrivals keep
        queueing.  Requires ``persistent=True`` (a per-call pool would
        be torn down before the future resolves).  The serial backend,
        a single worker, and a pool that fails to start all degrade to
        running the task inline and returning an already-completed
        future — same results, same API.
        """
        if self.backend == "serial" or self.max_workers == 1:
            return self._inline_future(fn, args)
        if not self.persistent:
            raise ValueError("submit() requires a persistent runner")
        try:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._track(self._pool.submit(fn, *args))
        except (OSError, PermissionError, RuntimeError) as exc:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            warnings.warn(
                f"{self.backend} pool unavailable ({exc}); running inline",
                RuntimeWarning,
                stacklevel=2,
            )
            return self._inline_future(fn, args)

    def _track(self, future):
        """Count ``future`` in :meth:`pending` until it resolves."""
        with self._inflight_lock:
            self._inflight.add(future)
        future.add_done_callback(self._untrack)
        return future

    def _untrack(self, future):
        with self._inflight_lock:
            self._inflight.discard(future)

    def pending(self):
        """How many :meth:`submit` futures have not resolved yet.

        The shard router's stats read this as the shared dispatch
        pool's live depth — queued-plus-running sub-batches across
        every replica, the saturation signal a placement rebalance
        would key on.  Inline-degraded submits resolve before they
        return, so they never count.
        """
        with self._inflight_lock:
            return len(self._inflight)

    def warm(self):
        """Spin every worker up now; returns the spin-up seconds.

        A lazily-created pool pays worker spawn *and* the initializer's
        payload transfer (pickled network, shared-table attach) on the
        first :meth:`map` — warming moves that cost to a moment of the
        caller's choosing, and the returned wall-clock is what the
        ``mem`` bench row compares across payload transports.  Requires
        ``persistent=True``; the serial/single-worker degrade runs the
        initializer in-process, so the timing still covers the payload.
        """
        if not self.persistent:
            raise ValueError("warm() requires a persistent runner")
        start = time.perf_counter()
        if self.backend == "serial" or self.max_workers == 1:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return time.perf_counter() - start
        try:
            if self._pool is None:
                self._pool = self._make_pool()
            # One barrier task per worker forces every process to spawn
            # and run its initializer before warm() returns.
            futures = [
                self._pool.submit(_warm_task)
                for _ in range(self.max_workers)
            ]
            for future in futures:
                future.result()
        except (OSError, PermissionError, RuntimeError) as exc:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            warnings.warn(
                f"{self.backend} pool unavailable ({exc}); warming inline",
                RuntimeWarning,
                stacklevel=2,
            )
            if self.initializer is not None:
                self.initializer(*self.initargs)
        return time.perf_counter() - start

    def close(self):
        """Shut down a persistent pool (idempotent; the next :meth:`map`
        recreates it).  Blocks until already-submitted work — including
        :meth:`submit` futures — has drained."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _warm_task():
    """Trivial barrier task :meth:`ParallelRunner.warm` fans out."""
    return os.getpid()


def kdtree_nit_task(args):
    """(points, queries, k) -> k-d tree KNN.  Tree builds cannot batch."""
    points, queries, k = args
    from ..neighbors import raw_knn

    return raw_knn(points, queries, k, substrate="kdtree")


def soc_latency_task(args):
    """(network_name, config_name) -> simulated SoC latency in seconds."""
    network_name, config_name = args
    from ..hw import SoC
    from ..networks import build_network

    return SoC().simulate(build_network(network_name), config_name).latency
