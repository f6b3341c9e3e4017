"""ParallelRunner: what is left of the serving dispatch pool.

Nothing in :mod:`repro` reads it: a server's lanes are its dispatcher
threads (:class:`~repro.serve.server.Server`).  It is kept only because
``benchmarks/ledger/layers.py`` still constructs one and passes it as
``dispatch=``; it goes with ROADMAP item 10.
"""

from __future__ import annotations

import os

__all__ = ["ParallelRunner"]


class ParallelRunner:
    """The constructor ``benchmarks/ledger/layers.py`` calls, and no more.

    Parameters
    ----------
    max_workers:
        Recorded as :attr:`max_workers` (default ``os.cpu_count()``);
        must be positive.
    backend, persistent:
        Accepted as ``"thread"`` / ``True`` only, the values the ledger
        passes; any other value raises :class:`ValueError`.
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
