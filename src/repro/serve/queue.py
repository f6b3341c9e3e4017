"""Admission control: a bounded request queue with per-tenant fairness.

The serving frontend's front door.  Producers (:meth:`Server.submit
<repro.serve.server.Server.submit>` callers, the CLI request loop)
push :class:`Request` objects; a server's dispatcher threads block in
:meth:`FairQueue.take` until something is queued.  Three properties
the serve tests pin down live here:

* **Bounded depth** — :meth:`FairQueue.push` never blocks; once
  ``max_queue`` requests are pending it raises :class:`QueueFull`
  (backpressure, not deadlock), so an overloaded server sheds load at
  admission instead of buffering unbounded latency.
* **Per-tenant fairness** — requests queue per tenant and
  :meth:`FairQueue.take` drains them round-robin across tenants, so
  one chatty tenant cannot starve the rest: with tenants A (many
  requests) and B (one), B's request rides the very next batch.
* **Graceful close** — :meth:`FairQueue.close` rejects new arrivals
  with :class:`ServerClosed` while letting the dispatcher drain what
  was already admitted; ``close(reject=True)`` instead removes the
  pending requests atomically with the close, so a non-drain shutdown
  can fail them deterministically (no dispatcher can race it to a
  ``take``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FairQueue", "QueueFull", "Request", "ServeError", "ServerClosed"]


class ServeError(RuntimeError):
    """Base class for serving-frontend errors."""


class QueueFull(ServeError):
    """Admission rejected: the bounded queue is at capacity (backpressure)."""


class ServerClosed(ServeError):
    """The server is shutting down and no longer accepts requests."""


@dataclass
class Request:
    """One pending inference request.

    ``arrival`` is a ``time.perf_counter`` stamp taken at admission;
    the reported queueing latency measures from it.  The ``future``
    resolves to a :class:`~repro.serve.server.ServeResponse` (or
    raises) once the request's sub-batch has drained through the
    runner.
    """

    id: object
    cloud: np.ndarray
    tenant: str = "default"
    arrival: float = field(default_factory=time.perf_counter)
    future: Future = field(default_factory=Future)

    @property
    def n_points(self):
        """Cloud size — the shape key sub-batches group on."""
        return int(self.cloud.shape[0])


class FairQueue:
    """Bounded multi-tenant request queue (thread-safe).

    Parameters
    ----------
    max_queue:
        Admission bound on total pending requests across all tenants.
    """

    def __init__(self, max_queue=64):
        if int(max_queue) <= 0:
            raise ValueError("max_queue must be positive")
        self.max_queue = int(max_queue)
        self._lanes = OrderedDict()  # tenant -> deque[Request]
        self._depth = 0
        self._closed = False
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)

    def __len__(self):
        with self._lock:
            return self._depth

    @property
    def closed(self):
        with self._lock:
            return self._closed

    def push(self, request):
        """Admit ``request`` or raise (never blocks).

        Raises :class:`ServerClosed` after :meth:`close`, and
        :class:`QueueFull` when ``max_queue`` requests are already
        pending — the caller owns the backpressure decision (reject
        upstream, retry later, drop).
        """
        with self._nonempty:
            if self._closed:
                raise ServerClosed("server is shutting down")
            if self._depth >= self.max_queue:
                raise QueueFull(
                    f"queue at capacity ({self.max_queue} pending)"
                )
            self._lanes.setdefault(request.tenant, deque()).append(request)
            self._depth += 1
            self._nonempty.notify_all()

    def take(self, limit):
        """Block until something is queued, then remove and return up
        to ``limit`` requests, fairly.

        Round-robin across tenant lanes in their creation order: one
        request per tenant per cycle until ``limit`` is reached or the
        queue empties, so no tenant waits behind another tenant's whole
        backlog.  It never waits for more riders once one is queued.
        Returns ``[]`` only once the queue is closed *and* empty — a
        dispatcher's signal to exit.  The wait and the take are one
        critical section: with several dispatchers, a push wakes them
        all, and the ones that find the queue emptied by another go
        back to waiting instead of reading ``[]``.
        """
        taken = []
        with self._nonempty:
            self._nonempty.wait_for(lambda: self._depth > 0 or self._closed)
            while len(taken) < limit and self._depth > 0:
                for tenant in list(self._lanes):
                    lane = self._lanes[tenant]
                    if not lane:
                        continue
                    taken.append(lane.popleft())
                    self._depth -= 1
                    if not lane:
                        del self._lanes[tenant]
                    if len(taken) >= limit or self._depth == 0:
                        break
        return taken

    def close(self, reject=False):
        """Stop admitting; wake every waiter so the dispatchers exit.

        ``reject=True`` additionally removes everything still pending
        — atomically with the close, under the same lock — and returns
        it so the caller can fail those requests.  The atomicity is
        the non-drain shutdown contract: closing and draining in two
        steps would let a woken dispatcher ``take`` (and serve) a
        request that the caller is about to reject, making
        ``close(drain=False)`` semantics depend on thread timing.
        Returns the rejected requests (always empty without
        ``reject``).
        """
        with self._nonempty:
            self._closed = True
            rejected = []
            if reject:
                rejected = [
                    req for lane in self._lanes.values() for req in lane
                ]
                self._lanes.clear()
                self._depth = 0
            self._nonempty.notify_all()
        return rejected
