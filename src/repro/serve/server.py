"""The serving loop: admission -> dynamic batches -> runner drains.

:class:`Server` is the long-lived frontend the ROADMAP's
millions-of-users story needs: every other entry point in the repo
assumes the caller already holds a ``(B, N, 3)`` stack, while a server
receives *requests* — one cloud each, at arbitrary times, from many
tenants.  The request lifecycle:

1. **Admit** — :meth:`Server.submit` validates the cloud, routes its
   shape to a hosted runner, stamps arrival, and pushes it onto the
   bounded per-tenant :class:`~repro.serve.queue.FairQueue` (raising
   :class:`~repro.serve.queue.QueueFull` under overload — backpressure,
   never unbounded buffering).
2. **Coalesce** — the dispatcher thread blocks in
   :func:`~repro.serve.batcher.gather` until the batch is full or the
   oldest request hits the ``max_wait_ms`` deadline, then splits the
   gathered requests into per-shape sub-batches.
3. **Drain** — each sub-batch stacks into one ``(B, N, 3)`` call
   through its runner (:class:`~repro.engine.runner.BatchRunner` or
   :class:`~repro.engine.scheduler.AsyncRunner`, kernel backends
   included), executing inline with one dispatch worker or across a
   persistent :class:`~repro.engine.parallel.ParallelRunner` thread
   pool with more.
4. **Respond** — the batch output splits back per request
   (:meth:`~repro.engine.runner.BatchResult.per_cloud`) and each
   request's future resolves to a :class:`ServeResponse`.

Because the runners execute the exact same programs as direct
``BatchRunner.run`` calls, responses are bit-exact against offline
inference (float64; top-1-identical under the float32 kernel backend)
no matter how arrivals happened to coalesce — the bench harness and CI
gate exactly that.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass

import numpy as np

from ..engine.cache import merge_cache_stats
from .batcher import BatchPolicy, gather, split_by_shape
from .queue import FairQueue, Request, ServeError, ServerClosed

__all__ = ["ServeResponse", "Server"]


def _resolve_tuned(tuned, network, program_cache):
    """Per-network tuned table for :meth:`Server.hosting`.

    ``True`` loads the network's stored table from the program cache
    (``None`` when no table was ever tuned); an explicit table (object
    or JSON) applies only to the network it was tuned for.
    """
    if tuned is None or tuned is False:
        return None
    from ..tune import TunedTable

    if tuned is True:
        if program_cache is None:
            raise ValueError("tuned=True needs a program_cache to load "
                             "stored tables from")
        if not hasattr(program_cache, "load_tuned"):
            from ..backend import ProgramCache

            program_cache = ProgramCache(program_cache)
        from ..backend import network_fingerprint

        data = program_cache.load_tuned(network.name,
                                        network_fingerprint(network))
        return None if data is None else TunedTable.from_json(data)
    table = tuned if hasattr(tuned, "lookup") else TunedTable.from_json(tuned)
    return table if table.network in ("", network.name) else None


@dataclass
class ServeResponse:
    """One request's result plus its latency breakdown.

    ``queued_ms`` is admission -> dispatch (what the batching policy
    controls); ``service_ms`` is the sub-batch's runner call;
    ``latency_ms`` is admission -> response (what the client feels).
    ``batch_ids`` names every request that shared the kernel call, in
    stack order — batched float64 GEMMs are bit-reproducible for a
    given stack but not across different stack heights (BLAS blocking
    changes with the matrix shape), so exact-correctness checks replay
    the *same composition* through a direct runner call rather than
    comparing against a differently-batched run.
    """

    request_id: str
    tenant: str
    output: object
    batch_ids: tuple
    queued_ms: float
    service_ms: float
    latency_ms: float
    #: Which replica served the request — 0 for a standalone server,
    #: the owning replica's shard id behind a
    #: :class:`~repro.serve.shard.ShardRouter` (exact-replay checks
    #: use it to pick the runner that actually formed the sub-batch).
    shard: int = 0

    @property
    def batch_size(self):
        """How many requests shared this response's kernel call."""
        return len(self.batch_ids)


class Server:
    """Continuous-batching inference server over engine runners.

    Parameters
    ----------
    runners:
        One runner or a list of them (anything with the
        :class:`~repro.engine.runner.BatchRunner` ``run``/``close``
        contract).  Each runner serves the cloud size of its network;
        hosting several networks with different ``n_points`` gives the
        server its mixed-``N`` routing table.  Two runners with the
        same ``n_points`` are ambiguous and rejected.
    policy:
        A :class:`~repro.serve.batcher.BatchPolicy` (default: 8-deep
        batches, 5 ms deadline, 64-deep queue).
    workers:
        Dispatch concurrency.  ``1`` (default) runs every sub-batch
        inline on the dispatcher thread — the fully serial degrade,
        no pools anywhere.  More workers drain sub-batches through a
        persistent thread :class:`~repro.engine.parallel.ParallelRunner`
        so a slow batch does not block the next shape group.
    dispatch:
        An externally-owned persistent
        :class:`~repro.engine.parallel.ParallelRunner` to drain
        sub-batches through instead of building one — how a
        :class:`~repro.serve.shard.ShardRouter`'s replicas share one
        pool.  The server never closes an external pool; its own
        :meth:`close` just waits for the sub-batches *it* submitted.
        Mutually exclusive with ``workers > 1``.
    shard:
        Replica id stamped on every :class:`ServeResponse` (default 0;
        the shard router numbers its replicas with it).

    The server starts its dispatcher immediately and serves until
    :meth:`close`.  Use it as a context manager for the
    drain-then-shutdown path.
    """

    def __init__(self, runners, policy=None, workers=1, dispatch=None,
                 shard=0):
        if not isinstance(runners, (list, tuple)):
            runners = [runners]
        if not runners:
            raise ValueError("at least one runner is required")
        self.policy = policy or BatchPolicy()
        self._routes = {}
        for runner in runners:
            n = runner.network.n_points
            if n in self._routes:
                raise ValueError(
                    f"two runners serve n_points={n}; routing is by cloud "
                    "size, so hosted networks must differ in n_points"
                )
            self._routes[n] = runner
        if int(workers) < 1:
            raise ValueError("workers must be positive")
        self.workers = int(workers)
        self.shard = int(shard)
        self._queue = FairQueue(max_queue=self.policy.max_queue)
        self._owns_dispatch = dispatch is None
        self._dispatch = dispatch
        if dispatch is not None:
            if self.workers > 1:
                raise ValueError(
                    "pass either workers or an external dispatch pool, "
                    "not both"
                )
            if not dispatch.persistent:
                raise ValueError(
                    "an external dispatch pool must be persistent — "
                    "submit() futures outlive per-call pools"
                )
            self.workers = dispatch.max_workers
        elif self.workers > 1:
            from ..engine.parallel import ParallelRunner

            self._dispatch = ParallelRunner(
                max_workers=self.workers, backend="thread", persistent=True
            )
        #: Sub-batch futures in flight on the dispatch pool.  close()
        #: waits on these instead of closing the pool, which it may
        #: not own.
        self._pending = set()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stats = {
            "submitted": 0, "completed": 0, "failed": 0, "rejected": 0,
            "batches": 0, "sub_batches": 0, "batched_requests": 0,
            "max_depth": 0,
        }
        self._closed = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._thread.start()

    @classmethod
    def hosting(cls, networks, strategy="delayed", scale=0.125,
                runner="batch", backend=None, program_cache=None,
                policy=None, workers=1, tuned=None, cache=None):
        """Build a server hosting ``networks`` (names or instances).

        The convenience constructor the CLI uses: each network gets its
        own runner (``runner="batch"`` →
        :class:`~repro.engine.runner.BatchRunner`, ``"async"`` →
        :class:`~repro.engine.scheduler.AsyncRunner`), with ``backend``
        selecting a kernel backend and ``program_cache`` (a
        :class:`~repro.backend.ProgramCache` or directory path) letting
        those runners load AOT-compiled programs — memmapped packed
        parameters, a pre-measured arena plan — instead of compiling on
        first request.  One cache serves every hosted network; programs
        are content-addressed, so restarts with unchanged weights hit.

        ``tuned`` dispatches each network's requests on its measured
        autotuned table: pass a :class:`~repro.tune.TunedTable` (or its
        JSON form) to use it for the matching network, or ``True`` to load each network's
        stored table from ``program_cache`` (networks without a stored
        table fall back to the fixed configuration).

        ``cache`` plugs one
        :class:`~repro.engine.cache.NeighborIndexCache` (it is
        thread-safe) into every hosted runner, so repeated clouds skip
        their neighbor searches; :meth:`stats` then reports its
        hit/miss/eviction counters.
        """
        from ..engine.runner import BatchRunner
        from ..networks import build_network

        if isinstance(networks, str):
            networks = [networks]
        runners = []
        for network in networks:
            net = build_network(network, scale=scale) \
                if isinstance(network, str) else network
            net_tuned = _resolve_tuned(tuned, net, program_cache)
            if runner == "async":
                from ..engine.scheduler import AsyncRunner

                runners.append(AsyncRunner(
                    net, strategy=strategy, kernel_backend=backend,
                    program_cache=program_cache,
                    tuned=net_tuned, cache=cache,
                ))
            elif runner == "batch":
                runners.append(BatchRunner(
                    net, strategy=strategy, backend=backend,
                    program_cache=program_cache,
                    tuned=net_tuned, cache=cache,
                ))
            else:
                raise ValueError(
                    f"unknown runner {runner!r}; expected 'batch' or 'async'"
                )
        return cls(runners, policy=policy, workers=workers)

    # -- admission -----------------------------------------------------------

    @property
    def served_sizes(self):
        """Cloud sizes this server routes, ascending."""
        return sorted(self._routes)

    def submit(self, cloud, request_id=None, tenant="default"):
        """Admit one request; returns a future of :class:`ServeResponse`.

        Never blocks: an unroutable cloud raises immediately, a full
        queue raises :class:`~repro.serve.queue.QueueFull`, a closing
        server raises :class:`~repro.serve.queue.ServerClosed`.  A cloud
        with NaN or infinite coordinates is refused here too
        (``ValueError``, counted ``rejected``): served, it would come
        back as confident finite logits or as NaNs, both ``completed``.
        """
        cloud = np.asarray(cloud, dtype=np.float64)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) cloud, got {cloud.shape}")
        refusal = None
        if not np.isfinite(cloud).all():
            refusal = ValueError(
                "cloud has non-finite coordinates (NaN or inf)")
        elif cloud.shape[0] not in self._routes:
            refusal = ServeError(
                f"no hosted network serves n_points={cloud.shape[0]} "
                f"(served sizes: {self.served_sizes})"
            )
        if refusal is not None:
            with self._lock:
                self._stats["rejected"] += 1
            raise refusal
        request = Request(
            id=str(request_id) if request_id is not None
            else f"r{next(self._ids)}",
            cloud=cloud,
            tenant=str(tenant),
        )
        try:
            self._queue.push(request)
        except ServeError:
            with self._lock:
                self._stats["rejected"] += 1
            raise
        with self._lock:
            self._stats["submitted"] += 1
            self._stats["max_depth"] = max(
                self._stats["max_depth"], len(self._queue)
            )
        return request.future

    def request(self, cloud, request_id=None, tenant="default", timeout=None):
        """Synchronous convenience: submit and wait for the response."""
        return self.submit(cloud, request_id, tenant).result(timeout)

    def stats(self):
        """Snapshot of serving counters (plus live queue depth).

        When any hosted runner carries a
        :class:`~repro.engine.cache.NeighborIndexCache`, the snapshot
        gains a ``cache`` entry with the summed hit/miss/eviction
        counters (distinct cache objects counted once even when shared
        across runners).
        """
        with self._lock:
            snapshot = dict(self._stats)
        snapshot["queue_depth"] = len(self._queue)
        snapshot["mean_batch"] = (
            snapshot["batched_requests"] / snapshot["sub_batches"]
            if snapshot["sub_batches"] else 0.0
        )
        caches = {
            id(runner.cache): runner.cache
            for runner in self._routes.values()
            if getattr(runner, "cache", None) is not None
        }
        if caches:
            snapshot["cache"] = merge_cache_stats(
                cache.stats() for cache in caches.values()
            )
        return snapshot

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            batch = gather(self._queue, self.policy)
            if not batch:
                return  # closed and drained
            with self._lock:
                self._stats["batches"] += 1
            for group in split_by_shape(batch).values():
                if self._dispatch is None:
                    self._run_group(group)
                else:
                    future = self._dispatch.submit(self._run_group, group)
                    with self._lock:
                        self._pending.add(future)
                    future.add_done_callback(self._discard_pending)

    def _discard_pending(self, future):
        with self._lock:
            self._pending.discard(future)

    def _run_group(self, group):
        """One same-shape sub-batch through its runner, fan results out."""
        dispatch_start = time.perf_counter()
        try:
            runner = self._routes[group[0].n_points]
            result = runner.run(np.stack([req.cloud for req in group]))
            outputs = result.per_cloud()
        except BaseException as exc:  # noqa: BLE001 - delivered per request
            with self._lock:
                self._stats["failed"] += len(group)
            for req in group:
                if not req.future.set_running_or_notify_cancel():
                    continue
                req.future.set_exception(exc)
            return
        done = time.perf_counter()
        with self._lock:
            self._stats["sub_batches"] += 1
            self._stats["batched_requests"] += len(group)
            self._stats["completed"] += len(group)
        batch_ids = tuple(req.id for req in group)
        for req, output in zip(group, outputs):
            if not req.future.set_running_or_notify_cancel():
                continue
            req.future.set_result(ServeResponse(
                request_id=req.id,
                tenant=req.tenant,
                output=output,
                batch_ids=batch_ids,
                queued_ms=(dispatch_start - req.arrival) * 1e3,
                service_ms=(done - dispatch_start) * 1e3,
                latency_ms=(done - req.arrival) * 1e3,
                shard=self.shard,
            ))

    # -- shutdown ------------------------------------------------------------

    def close(self, drain=True):
        """Stop admitting and shut down (idempotent).

        ``drain=True`` (default) serves everything already admitted —
        in-flight *and* still-queued requests all resolve — before the
        pools release.  ``drain=False`` fails queued requests with
        :class:`~repro.serve.queue.ServerClosed` (in-flight sub-batches
        still complete; the runner call cannot be interrupted).  The
        queue close and the rejection happen atomically, so a non-drain
        close both returns without waiting out the batching deadline
        (the dispatcher is woken directly) and never races the
        dispatcher into serving a request it was meant to fail.

        With an external ``dispatch`` pool the server waits for the
        sub-batches it submitted but leaves the pool running — the
        shard router owns that pool's lifetime and closes it after
        every replica has drained.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # reject=True removes still-pending requests under the queue
        # lock in the same step that closes admission: the dispatcher
        # wakes to an empty, closed queue and exits immediately instead
        # of serving (or timing out on) what we are about to fail.
        for req in self._queue.close(reject=not drain):
            if req.future.set_running_or_notify_cancel():
                req.future.set_exception(
                    ServerClosed("server closed before dispatch")
                )
        self._thread.join()
        with self._lock:
            pending = list(self._pending)
        if pending:
            _wait_futures(pending)
        if self._dispatch is not None and self._owns_dispatch:
            self._dispatch.close()  # blocks until submitted groups drain
        for runner in self._routes.values():
            runner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
