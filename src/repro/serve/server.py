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
2. **Coalesce** — a server's lanes are its dispatcher threads.  A
   free lane blocks in :meth:`~repro.serve.queue.FairQueue.take` until
   anything is queued and takes up to ``max_batch`` requests at once
   (it never waits for riders), then splits them into per-shape
   sub-batches.
3. **Drain** — each sub-batch stacks into one ``(B, N, 3)`` call
   through its :class:`~repro.engine.runner.BatchRunner`, inline on
   the lane that took it.  A lane runs one batch at a time, so batches
   form from what queues while the lanes are busy.
4. **Respond** — the batch output splits back per request
   (:meth:`~repro.engine.runner.BatchResult.per_cloud`) and each
   request's future resolves to a :class:`ServeResponse`.

No BLAS call mixes clouds, so a response equals its cloud served
alone, bit for bit, on every backend — whatever shared its stack.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..engine.cache import merge_cache_stats
from .batcher import BatchPolicy, split_by_shape
from .queue import FairQueue, Request, ServeError, ServerClosed

__all__ = ["ServeResponse", "Server"]

#: Most threads one constructor starts: a server's lanes (``workers``),
#: and a shard fleet's replicas of one lane each.  Every lane starts in
#: the constructor, so an unbounded count would start that many threads
#: before serving anything.
MAX_SLOTS = 64


@dataclass
class ServeResponse:
    """One request's result plus its latency breakdown.

    ``queued_ms`` is admission -> dispatch (time spent waiting for a
    free lane); ``service_ms`` is the sub-batch's runner call;
    ``latency_ms`` is admission -> response (what the client feels).
    ``request_id`` is the id the caller passed, unchanged (any value),
    or the minted ``"r<n>"`` when it passed none.
    ``output`` equals the cloud served alone, bit for bit, on every
    backend.  ``batch_ids`` records batch formation: every request that
    shared the kernel call, in stack order.
    """

    request_id: object
    tenant: str
    output: object
    batch_ids: tuple
    queued_ms: float
    service_ms: float
    latency_ms: float
    #: Which replica served the request — 0 for a standalone server,
    #: the owning replica's shard id behind a
    #: :class:`~repro.serve.shard.ShardRouter`.
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
        same ``n_points`` are ambiguous and rejected.  A runner that
        stacks clouds in another dtype than float64 says so in
        ``stack_dtype``; admission bounds coordinates by it.
    policy:
        A :class:`~repro.serve.batcher.BatchPolicy` (default: 8-deep
        batches, 64-deep queue).
    workers:
        Lanes — dispatcher threads, 1 (default) to :data:`MAX_SLOTS`.
        Each lane takes up to ``max_batch`` requests, runs their shape
        groups inline, and takes again, so at most ``workers`` batches
        are ever in flight.
    dispatch:
        Read by nothing.  It is accepted only because
        ``benchmarks/ledger/layers.py`` still passes it; it goes with
        ROADMAP item 10.
    shard:
        Replica id stamped on every :class:`ServeResponse` (default 0;
        the shard router numbers its replicas with it).

    The server starts its lanes immediately and serves until
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
        if not 1 <= int(workers) <= MAX_SLOTS:
            raise ValueError(
                f"workers must be in 1..{MAX_SLOTS}, got {workers}")
        self.workers = int(workers)
        self.shard = int(shard)
        self._queue = FairQueue(max_queue=self.policy.max_queue)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stats = {
            "submitted": 0, "completed": 0, "failed": 0, "rejected": 0,
            "batches": 0, "sub_batches": 0, "batched_requests": 0,
            "max_depth": 0,
        }
        self._closed = False
        self._threads = []
        try:
            for lane in range(self.workers):
                thread = threading.Thread(
                    target=self._lane,
                    name=f"repro-serve-dispatch-{self.shard}.{lane}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        except BaseException:
            self._queue.close()
            for thread in self._threads:
                thread.join()
            raise

    @classmethod
    def hosting(cls, networks, strategy="delayed", scale=0.125,
                backend="float64", policy=None, workers=1, cache=None):
        """Build a server hosting ``networks`` (names or instances).

        The convenience constructor the CLI uses: each network gets its
        own :class:`~repro.engine.runner.BatchRunner`, whose kernel
        program on ``backend`` (float64 by default, or float32) compiles
        in process on the runner's first run — so a server's first
        request to each network pays its compile, not this constructor.
        Every request runs exactly ``strategy`` on ``backend``.

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
            runners.append(BatchRunner(
                net, strategy=strategy, backend=backend, cache=cache,
            ))
        return cls(runners, policy=policy, workers=workers)

    # -- admission -----------------------------------------------------------

    @property
    def served_sizes(self):
        """Cloud sizes this server routes, ascending."""
        return sorted(self._routes)

    def submit(self, cloud, request_id=None, tenant="default"):
        """Admit one request; returns a future of :class:`ServeResponse`.

        Never blocks: a cloud that is not a numeric ``(N, 3)`` array
        raises ``ValueError`` (or the ``TypeError`` / ``OverflowError``
        converting it raised), an unroutable cloud raises immediately, a
        full queue raises :class:`~repro.serve.queue.QueueFull`, a
        closing server raises :class:`~repro.serve.queue.ServerClosed`.
        A cloud with NaN or infinite coordinates, or with one too large
        for the dtype its runner stacks in (``stack_dtype``, float64 when
        a runner does not say) to search, is refused here too
        (``ValueError``): served, it would come back as wrong finite
        logits or as NaNs, both ``completed``.  Every refusal is counted
        ``rejected``.
        ``request_id`` is kept as given; without one the server mints
        ``"r<n>"``.
        """
        try:
            cloud = self._admissible(cloud)
            request = Request(
                id=f"r{next(self._ids)}" if request_id is None
                else request_id,
                cloud=cloud,
                tenant=str(tenant),
            )
            self._queue.push(request)
        except Exception:
            with self._lock:
                self._stats["rejected"] += 1
            raise
        with self._lock:
            self._stats["submitted"] += 1
            self._stats["max_depth"] = max(
                self._stats["max_depth"], len(self._queue)
            )
        return request.future

    def _admissible(self, cloud):
        """``cloud`` as a float64 ``(N, 3)`` array a hosted runner serves,
        else raise."""
        cloud = np.asarray(cloud, dtype=np.float64)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) cloud, got {cloud.shape}")
        peak = np.abs(cloud).max(initial=0.0)
        if not np.isfinite(peak):
            raise ValueError("cloud has non-finite coordinates (NaN or inf)")
        # Finite in float64 is not enough: a neighbor search sums three
        # squared coordinate differences in the dtype the runner stacks
        # in, so beyond sqrt(max) / (2 sqrt 3) a distance overflows and
        # the answer is silently wrong (5.3e18 in float32).
        dtype = np.dtype(getattr(self._routes.get(cloud.shape[0]),
                                 "stack_dtype", np.float64))
        bound = np.sqrt(float(np.finfo(dtype).max)) / (2.0 * np.sqrt(3.0))
        if peak > bound:
            raise ValueError(
                f"cloud has a coordinate of magnitude {peak:.3g}, beyond "
                f"{bound:.3g}, the largest a {dtype} neighbor search admits")
        if cloud.shape[0] not in self._routes:
            raise ServeError(
                f"no hosted network serves n_points={cloud.shape[0]} "
                f"(served sizes: {self.served_sizes})"
            )
        return cloud

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

    def _lane(self):
        """One dispatcher thread: take a batch, run its shape groups in
        order, take again; exit on ``[]`` (closed and drained)."""
        while batch := self._queue.take(self.policy.max_batch):
            with self._lock:
                self._stats["batches"] += 1
            for group in split_by_shape(batch).values():
                self._run_group(group)

    def _run_group(self, group):
        """One same-shape sub-batch through its runner, fan results out.

        When the stacked call raises, the group reruns one request at a
        time: only a request whose own run raises fails, and every other
        one completes as a batch of one.
        """
        dispatch_start = time.perf_counter()
        try:
            runner = self._routes[group[0].n_points]
            result = runner.run(np.stack([req.cloud for req in group]))
            outputs = result.per_cloud()
        except BaseException as exc:  # noqa: BLE001 - delivered per request
            if len(group) > 1:
                for req in group:
                    self._run_group([req])
                return
            with self._lock:
                self._stats["failed"] += 1
            if group[0].future.set_running_or_notify_cancel():
                group[0].future.set_exception(exc)
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
        runners close.  ``drain=False`` fails queued requests with
        :class:`~repro.serve.queue.ServerClosed` (in-flight sub-batches
        still complete; the runner call cannot be interrupted).  The
        queue close and the rejection happen atomically, so a non-drain
        close never races a lane into serving a request it was meant to
        fail.  Every lane has exited when this returns.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # reject=True removes still-pending requests under the queue
        # lock in the same step that closes admission: every lane wakes
        # to an empty, closed queue and exits once its batch has run.
        for req in self._queue.close(reject=not drain):
            if req.future.set_running_or_notify_cancel():
                req.future.set_exception(
                    ServerClosed("server closed before dispatch")
                )
        for thread in self._threads:
            thread.join()
        for runner in self._routes.values():
            runner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
