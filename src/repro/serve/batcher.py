"""Dynamic batch formation: the batching policy + shape split.

Continuous batching in the Orca mold (iteration-level scheduling): a
dispatcher never waits for riders.  A server takes up to ``max_batch``
queued requests (:meth:`~repro.serve.queue.FairQueue.take`) the moment
something is queued *and* one of its lanes is free; batches form from
whatever arrived while earlier batches ran.  An unloaded request is
therefore dispatched at once, and a loaded server still fills its
batches, because the queue refills while the lanes are busy.

``max_batch`` caps how much work one kernel call amortizes — larger
batches cut per-dispatch overhead and let a backlog drain in fewer
calls, but make the last rider wait for the whole sub-batch to compute.

:func:`split_by_shape` turns one taken batch into per-shape
sub-batches, because only same-``N`` clouds can stack into a single
``(B, N, 3)`` kernel call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["BatchPolicy", "split_by_shape"]


@dataclass(frozen=True)
class BatchPolicy:
    """Batching/admission knobs for one :class:`~repro.serve.server.Server`.

    Parameters
    ----------
    max_batch:
        Most requests coalesced into one dispatch (``1`` disables
        batching entirely).
    max_queue:
        Admission bound (see :class:`~repro.serve.queue.FairQueue`).
    """

    max_batch: int = 8
    max_queue: int = 64

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_queue < self.max_batch:
            raise ValueError("max_queue must be at least max_batch")


def split_by_shape(requests):
    """Group one taken batch into stackable per-shape sub-batches.

    Returns ``OrderedDict`` mapping ``n_points`` to the requests whose
    clouds have that many points, in first-seen order — each group
    stacks into one ``(B, N, 3)`` kernel call; mixed-``N`` arrivals
    simply become several smaller calls instead of an error.
    """
    groups = OrderedDict()
    for request in requests:
        groups.setdefault(request.n_points, []).append(request)
    return groups
