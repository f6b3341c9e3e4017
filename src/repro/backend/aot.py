"""Zero-copy parameter transport through one private file.

This module holds only the transport: :func:`share_table` packs a
:class:`~repro.backend.params.ParameterTable` once into a private tmpfs
file, and :func:`attach_table` maps that file read-only and rebuilds
the table as views, so every consumer reads the same physical pages and
no helper process is involved.  Its one caller is
``benchmarks/ledger/layers.py``, which builds its sharded server this
way; the product shares the table object in process instead
(:meth:`~repro.serve.shard.ShardRouter.hosting`).  Kernel programs are
always compiled in process, arena plan included.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .params import ParameterTable

__all__ = [
    "SharedTable",
    "attach_table",
    "parameter_descriptor",
    "share_table",
]


_SHARE_PREFIX = "repro-params-"


def _map_table(path, manifest):
    """The packed table at ``path`` as read-only zero-copy views."""
    mapped = np.memmap(path, dtype=np.uint8, mode="r")
    return ParameterTable.from_buffer(manifest, mapped, backing=mapped)


def _share_dir():
    """Where published tables live: tmpfs when the platform has it (the
    pages never touch a disk), the temp dir otherwise."""
    return "/dev/shm" if os.access("/dev/shm", os.W_OK | os.X_OK) \
        else tempfile.gettempdir()


def _sweep_stale(directory):
    """Unlink published tables whose owner died without closing them.

    The owner pid is in the file name, so the next start reclaims what a
    SIGKILLed server left behind; a file whose pid is alive (or is not a
    pid at all) is someone's table and stays.
    """
    for name in os.listdir(directory):
        if not name.startswith(_SHARE_PREFIX):
            continue
        try:
            os.kill(int(name[len(_SHARE_PREFIX):].split("-")[0]), 0)
        except ProcessLookupError:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass  # swept by a concurrent start, or not ours to remove
        except (ValueError, OverflowError, PermissionError):
            pass  # unparseable, or alive under another user


class SharedTable:
    """Owner-side handle of a table published as a private file.

    ``descriptor()`` is the picklable token consumers pass to
    :func:`attach_table`; the owner calls :meth:`close` (which unlinks)
    once they are done.  Mappings made before the unlink stay valid, so
    the order against the consumers' own shutdown does not matter.
    """

    def __init__(self, path, manifest):
        self.path = path
        self.manifest = manifest

    def descriptor(self):
        return {"kind": "file", "path": self.path, "manifest": self.manifest}

    def close(self, unlink=True):
        if self.path is None:
            return
        path, self.path = self.path, None
        if unlink:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


def share_table(table):
    """Publish a packed table for zero-copy attach; returns a handle.

    The bytes are written once to a file only this user can open
    (``O_EXCL``, mode 0600, named ``repro-params-<owner pid>-…``) in
    :func:`_share_dir`.  Every consumer maps the same physical pages
    read-only.  No helper process watches the file: the owner unlinks
    it, and :func:`_sweep_stale` reclaims the files of owners that died
    first.  Only ``benchmarks/ledger/layers.py`` still publishes tables
    this way.
    """
    manifest, blob = table.pack()
    directory = _share_dir()
    _sweep_stale(directory)
    fd, path = tempfile.mkstemp(prefix=f"{_SHARE_PREFIX}{os.getpid()}-",
                                dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob or b"\0")  # an empty file cannot be mapped
    except BaseException:
        os.unlink(path)
        raise
    return SharedTable(path, manifest)


def parameter_descriptor(network, strategy, backend, batched=True):
    """One packed parameter source for N zero-copy consumers.

    ``batched`` is read by nothing — programs have one arity — and is
    accepted only because ``benchmarks/ledger/layers.py``, which a
    non-benchmark change may not edit, still passes it (ROADMAP item 10
    removes it).

    Returns ``(descriptor, handle)``: the owner packs the table once
    into a private file (:func:`share_table`), the descriptor feeds
    :func:`attach_table` once per consumer, and ``handle`` is the
    owner-side :class:`SharedTable` to ``close(unlink=True)`` after
    every consumer is done.
    """
    table = ParameterTable.for_graph(network.network_graph(strategy), backend)
    handle = share_table(table)
    return handle.descriptor(), handle


def attach_table(descriptor):
    """Rebuild a :class:`ParameterTable` zero-copy from a descriptor.

    A descriptor is ``{"kind": "file", "path": ..., "manifest": ...}``
    (:meth:`SharedTable.descriptor`): the blob maps read-only and
    the table's arrays are views over memory this process never copied.
    Only ``benchmarks/ledger/layers.py`` still attaches tables this way.
    """
    if descriptor["kind"] != "file":
        raise ValueError("unknown parameter-table descriptor kind "
                         f"{descriptor['kind']!r}")
    return _map_table(descriptor["path"], descriptor["manifest"])
