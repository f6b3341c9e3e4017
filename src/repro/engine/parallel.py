"""ParallelRunner: the serving dispatch pool.

A persistent thread pool that :class:`~repro.serve.server.Server` drains
sub-batches through when it has more than one dispatch worker, and that
:class:`~repro.serve.shard.ShardRouter` shares across its replicas.
Threads are enough: a sub-batch spends its time in numpy and BLAS,
which release the GIL.  :meth:`ParallelRunner.pending` is the pool's
live depth, and one worker degrades to running every task inline.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

__all__ = ["ParallelRunner"]


class ParallelRunner:
    """A persistent thread pool behind :meth:`submit`.

    Parameters
    ----------
    max_workers:
        Pool size (default ``os.cpu_count()``).  With one worker, or a
        pool that fails to start, every task runs inline and
        :meth:`submit` returns an already-completed future — same
        results, same API.
    backend, persistent:
        Read by nothing: the pool is always threads and always
        persistent.  They are accepted, as ``"thread"`` / ``True`` only,
        because ``benchmarks/ledger/layers.py`` still passes them; they
        go with ROADMAP item 10.  Any other value raises
        :class:`ValueError`.

    The pool starts on the first :meth:`submit` and lives until
    :meth:`close`; use the runner as a context manager to release it.
    """

    def __init__(self, max_workers=None, backend="thread", persistent=True):
        if backend != "thread" or persistent is not True:
            raise ValueError(
                f"backend={backend!r}, persistent={persistent!r}: the "
                "dispatch pool is a persistent thread pool"
            )
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = int(max_workers)
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self._pool = None
        self._inflight = set()
        self._inflight_lock = threading.Lock()

    def _inline_future(self, fn, args):
        future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            future.set_exception(exc)
        return future

    def submit(self, fn, *args):
        """Run ``fn(*args)`` on the pool, returning its future.

        The serving dispatcher drains batch groups through this so
        sub-batches execute concurrently while new arrivals keep
        queueing.
        """
        if self.max_workers == 1:
            return self._inline_future(fn, args)
        try:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            return self._track(self._pool.submit(fn, *args))
        except (OSError, RuntimeError) as exc:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            warnings.warn(
                f"thread pool unavailable ({exc}); running inline",
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

    def close(self):
        """Shut the pool down (idempotent; the next :meth:`submit`
        restarts it).  Blocks until already-submitted futures have
        drained."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
