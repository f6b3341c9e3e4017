"""AOT program cache and zero-copy parameter transport.

Compiling a kernel program is cheap; *exporting the weights* is not.
This module makes compiled programs durable and their parameters
shareable:

* :class:`ProgramCache` persists a compiled
  :class:`~repro.backend.runtime.KernelProgram` — kernel list, the
  per-cloud arena plan, packed parameter table — to a
  **content-addressed** on-disk
  format (``<digest>.json`` manifest + ``<digest>.bin`` blob, plus an
  ``index.json`` mapping (network, strategy, backend, weight
  fingerprint) to digests).  Loading maps the blob read-only with
  :func:`numpy.memmap`: K processes loading one digest share the bytes
  through the page cache, zero copies.
* :func:`share_table` / :func:`attach_table` move a packed table
  through one private tmpfs file when there is no disk cache: the
  owner packs once, consumers map the file read-only and rebuild the
  table as views, and no helper process is involved.  Their only
  caller left is ``benchmarks/ledger/layers.py``; in-process consumers
  (shard replicas) share the table object instead.
* :func:`network_fingerprint` digests the live weights, so a cache hit
  is only a hit when the stored program was compiled from bit-equal
  parameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np

from .array import get_backend
from .memplan import ArenaBuffer, ArenaPlan
from .params import ParameterTable
from .runtime import KernelProgram

__all__ = [
    "ProgramCache",
    "SharedTable",
    "attach_table",
    "network_fingerprint",
    "parameter_descriptor",
    "share_table",
]


def network_fingerprint(network):
    """A content digest of the network's inference parameters.

    Hashes every :class:`~repro.neural.Parameter` plus BatchNorm
    running statistics, in module-walk order — the exact inputs of a
    parameter-table export — and memoizes on the instance (the
    inference stack never mutates weights).
    """
    cached = getattr(network, "_param_fingerprint", None)
    if cached is not None:
        return cached
    from ..neural.layers import BatchNorm

    digest = hashlib.sha256()
    digest.update(type(network).__name__.encode())
    for module in network.modules():
        digest.update(type(module).__name__.encode())
        if isinstance(module, BatchNorm):
            for stat in (module.running_mean, module.running_var):
                arr = np.ascontiguousarray(stat)
                digest.update(str(arr.shape).encode())
                digest.update(arr.data)
    for param in network.parameters():
        arr = np.ascontiguousarray(param.data)
        digest.update(str(arr.shape).encode())
        digest.update(str(arr.dtype).encode())
        digest.update(arr.data)
    value = digest.hexdigest()
    try:
        network._param_fingerprint = value
    except AttributeError:
        pass
    return value


# -- shared-file transport ---------------------------------------------------

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


def parameter_descriptor(network, strategy, backend, batched=True,
                         program_cache=None):
    """One packed parameter source for N zero-copy consumers.

    ``batched`` is read by nothing — programs and their cache entries
    have one arity — and is accepted only because
    ``benchmarks/ledger/layers.py``, which a non-benchmark change may
    not edit, still passes it (ROADMAP item 10 removes it).

    Returns ``(descriptor, handle)``: the descriptor feeds
    :func:`attach_table` once per consumer, and ``handle`` is the
    owner-side :class:`SharedTable` to ``close(unlink=True)`` after
    every consumer is done — ``None`` on the program-cache path, where
    the blob file outlives the callers.

    With ``program_cache`` the descriptor names the content-addressed
    ``<digest>.bin``; without one the owner packs the table once into
    a private file (:func:`share_table`).  Either way it is a file the
    consumers map, and the page cache does the sharing.  The only caller
    left is ``benchmarks/ledger/layers.py``; once it shares the table
    object the way :meth:`~repro.serve.shard.ShardRouter.hosting` does,
    this function, :func:`share_table`, :func:`attach_table` and
    :meth:`ProgramCache.descriptor_for` can go.
    """
    backend = get_backend(backend)
    if program_cache is not None:
        if not hasattr(program_cache, "descriptor_for"):
            program_cache = ProgramCache(program_cache)
        return program_cache.descriptor_for(network, strategy, backend), None
    ngraph = network.network_graph(strategy)
    table = ParameterTable.for_graph(ngraph, backend=backend)
    handle = share_table(table)
    return handle.descriptor(), handle


def attach_table(descriptor):
    """Rebuild a :class:`ParameterTable` zero-copy from a descriptor.

    A descriptor is ``{"kind": "file", "path": ..., "manifest": ...}``
    whoever wrote it (:meth:`SharedTable.descriptor`,
    :meth:`ProgramCache.descriptor_for`): the blob maps read-only and
    the table's arrays are views over memory this process never copied.
    Only ``benchmarks/ledger/layers.py`` still attaches tables this way.
    """
    if descriptor["kind"] != "file":
        raise ValueError("unknown parameter-table descriptor kind "
                         f"{descriptor['kind']!r}")
    return _map_table(descriptor["path"], descriptor["manifest"])


# -- the on-disk program cache -----------------------------------------------

#: Stamp of everything a stored manifest's readers depend on beyond the
#: kernel labels: scratch-buffer keys, the plan JSON and the config key.
#: Entries carrying any other value are stale and recompile.  Index keys
#: no lookup asks for (a directory older code wrote may hold
#: ``tuned|…`` ones) are left as they are.  4: one per-cloud plan per
#: entry (``"plan"``, the height-1 arena plan every stack height is
#: derived from) where 3 kept one measured plan per input signature.
FORMAT = 4


def _tuple_deep(value):
    if isinstance(value, list):
        return tuple(_tuple_deep(item) for item in value)
    return value


def _plan_from_json(data):
    """An :class:`ArenaPlan` back from its ``dataclasses.asdict`` JSON."""
    return ArenaPlan(**dict(data, buffers=tuple(
        ArenaBuffer(**{field: _tuple_deep(value)
                       for field, value in buffer.items()})
        for buffer in data["buffers"]
    )))


class ProgramCache:
    """Content-addressed store of compiled kernel programs.

    Layout under ``directory``::

        <digest>.json   program manifest: config, kernel labels, the
                        per-cloud arena plan, the parameter-table
                        manifest
        <digest>.bin    the packed parameter blob (memmapped on load)
        index.json      config key -> digest

    The config key includes a fingerprint of the source weights, so a
    retrained network misses cleanly instead of loading stale
    parameters; the digest is a hash of the manifest + blob, so equal
    programs share one entry no matter how many configs point at them.
    """

    def __init__(self, directory):
        self.directory = os.path.abspath(str(directory))
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:  # a file at the path, or in front of it
            raise ValueError(f"program cache {self.directory} is not a "
                             f"usable directory: {exc.strerror}") from exc

    # -- index ---------------------------------------------------------------

    def _index_path(self):
        return os.path.join(self.directory, "index.json")

    def _read_index(self):
        """Config key -> digest.  A missing or damaged index (not JSON,
        not UTF-8, not an object) reads as empty: every lookup misses,
        and the next :meth:`store` rewrites it."""
        try:
            with open(self._index_path(), encoding="utf-8") as handle:
                index = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return {}
        return index if isinstance(index, dict) else {}

    def _write_index(self, index):
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(index, handle, indent=1, sort_keys=True)
            os.replace(tmp, self._index_path())
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    @staticmethod
    def config_key(network_name, strategy, backend_name, fingerprint):
        return f"{network_name}|{strategy}|{backend_name}|{fingerprint}"

    def digest_for(self, network_name, strategy, backend_name, fingerprint):
        """The stored digest for a configuration, or ``None``."""
        key = self.config_key(network_name, strategy, backend_name,
                              fingerprint)
        return self._read_index().get(key)

    # -- store / load --------------------------------------------------------

    def _manifest_path(self, digest):
        return os.path.join(self.directory, f"{digest}.json")

    def _blob_path(self, digest):
        return os.path.join(self.directory, f"{digest}.bin")

    def store(self, program, fingerprint=None):
        """Persist a compiled program; returns its content digest."""
        if fingerprint is None:
            fingerprint = network_fingerprint(program.network)
        table_manifest, blob = program.table.pack()
        plan = program.per_cloud_plan
        manifest = {
            "format": FORMAT,
            "kind": "kernel-program",
            "network": program.ngraph.network,
            "strategy": program.ngraph.strategy,
            "backend": program.backend.name,
            "dtype": str(np.dtype(program.backend.dtype)),
            "fingerprint": fingerprint,
            "kernels": list(program.kernel_labels),
            "plan": None if plan is None else dataclasses.asdict(plan),
            "params": table_manifest,
        }
        body = json.dumps(manifest, sort_keys=True).encode()
        digest = hashlib.sha256(body).hexdigest()
        manifest_path = self._manifest_path(digest)
        if not os.path.exists(manifest_path):
            blob_path = self._blob_path(digest)
            with open(blob_path + ".tmp", "wb") as handle:
                handle.write(blob)
            os.replace(blob_path + ".tmp", blob_path)
            with open(manifest_path + ".tmp", "w") as handle:
                json.dump(manifest, handle, sort_keys=True)
            os.replace(manifest_path + ".tmp", manifest_path)
        index = self._read_index()
        key = self.config_key(manifest["network"], manifest["strategy"],
                              manifest["backend"], fingerprint)
        if index.get(key) != digest:
            index[key] = digest
            self._write_index(index)
        return digest

    def manifest(self, digest):
        with open(self._manifest_path(digest)) as handle:
            return json.load(handle)

    def table(self, digest, manifest=None):
        """The stored parameter table, memmapped read-only (zero-copy).

        The blob is re-hashed against the manifest's recorded content
        hash before the table is returned: a damaged ``.bin`` raises
        :class:`ValueError` instead of serving wrong weights under a
        trusted hash.
        """
        if manifest is None:
            manifest = self.manifest(digest)
        table = _map_table(self._blob_path(digest), manifest["params"])
        if not table.verify_buffer():
            raise ValueError(f"stored program {digest[:12]} parameter blob "
                             "fails verification")
        return table

    def load(self, digest, ngraph, network):
        """Rebuild a runnable program from a stored digest.

        The kernel closures recompile against ``ngraph`` (cheap — a
        few ms); the parameters map zero-copy and the per-cloud arena
        plan seeds directly, so no measuring run and no weight export
        happen at any stack height.
        Raises :class:`ValueError` when the entry was written under
        another :data:`FORMAT`, its parameter blob fails verification,
        or its kernel list no longer matches what this code compiles —
        the stale-cache signal ``program_for`` recovers from by
        recompiling.
        """
        manifest = self.manifest(digest)
        if manifest.get("format") != FORMAT:
            raise ValueError(
                f"stored program {digest[:12]} has format "
                f"{manifest.get('format')!r}, expected {FORMAT}"
            )
        table = self.table(digest, manifest)
        backend = get_backend(manifest["backend"])
        program = KernelProgram(ngraph, network, backend, params=table)
        if list(program.kernel_labels) != manifest["kernels"]:
            raise ValueError(
                f"stored program {digest[:12]} kernel list is stale for "
                "the current compiler"
            )
        if manifest["plan"] is not None:
            program.seed_plan(_plan_from_json(manifest["plan"]))
        return program

    def program_for(self, ngraph, network, backend, params=None):
        """Load-or-compile: the executor's entry point.

        A cache hit rebuilds from disk (zero-copy parameters, seeded
        plan); a miss compiles normally and persists the result so
        the next process — or the next CI step — hits.  ``params``
        short-circuits the disk path entirely: the caller already
        holds an attached table.
        """
        backend = get_backend(backend)
        if params is not None:
            return KernelProgram(ngraph, network, backend, params=params)
        fingerprint = network_fingerprint(network)
        digest = self.digest_for(ngraph.network, ngraph.strategy,
                                 backend.name, fingerprint)
        if digest is not None:
            try:
                return self.load(digest, ngraph, network)
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                # Stale or damaged: drop the manifest so the store below
                # rewrites the entry instead of every start recompiling.
                try:
                    os.unlink(self._manifest_path(digest))
                except FileNotFoundError:
                    pass
        program = KernelProgram(ngraph, network, backend)
        self.store(program, fingerprint)
        return program

    def descriptor_for(self, network, strategy, backend):
        """A picklable ``{"kind": "file"}`` token for :func:`attach_table`.

        Compiles-and-stores on first use, so the owner pays the export
        once and every consumer maps ``<digest>.bin`` read-only.  Only
        :func:`parameter_descriptor` (and through it
        ``benchmarks/ledger/layers.py``) still calls this.
        """
        backend = get_backend(backend)
        ngraph = network.network_graph(strategy)
        program = self.program_for(ngraph, network, backend)
        digest = self.store(program)
        return {"kind": "file", "path": self._blob_path(digest),
                "manifest": self.manifest(digest)["params"]}
