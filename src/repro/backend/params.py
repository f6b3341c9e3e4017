"""Pre-packed parameter tables for the kernel runtime.

The autograd executors walk live :class:`~repro.neural.Module` objects
on every node dispatch; the kernel runtime instead exports each
network's weights **once per backend** into flat, backend-dtype ops
lists.  An exported *stack* is a list of per-Linear *segments*; each
segment is a tuple of primitive ops

``("linear", W, b)`` — GEMM plus optional bias (``b`` may be ``None``),
``("bias", b)`` — bias add alone (the limited-variant epilogue re-adds
the bias its hoisted product dropped),
``("bn", mean, inv, gamma, beta)`` — inference-mode batch norm with the
inverse std precomputed exactly as the eval forward computes it,
``("relu",)`` — the activation.

Export is **inference-only**: a training-mode BatchNorm (whose forward
uses batch statistics and mutates running stats) or an active Dropout
cannot be frozen into a kernel table, so exporting one raises — call
``net.eval()`` first.  On the float64 reference backend the packed
arrays share memory with the live parameters (no copy); narrower
backends snapshot a cast copy at export time.

:class:`ParameterTable` is the whole-network form of that export: one
flat, content-hashed table holding every segment a compiled
:class:`~repro.backend.runtime.KernelProgram` will touch, keyed by the
graph location that uses it.  Tables de-duplicate through a global
registry — two backends with the same dtype resolve to the *same* table
object instead of snapshotting their own copies — and they serialize:
:meth:`ParameterTable.pack` flattens the table into a JSON manifest
plus one aligned binary blob, and :meth:`ParameterTable.from_buffer`
rebuilds it **zero-copy** over any buffer exposing the blob (an
``mmap`` of the program cache or of the file a pool worker attached).  That pair is what makes compiled
programs AOT-cacheable and lets K workers share one copy of the
weights (:mod:`repro.backend.aot`).
"""

from __future__ import annotations

import hashlib
import threading
import weakref

import numpy as np

from ..neural.layers import BatchNorm, Dropout, Linear, ReLU

__all__ = [
    "ParameterTable",
    "export_segment",
    "export_stack",
    "segment_layers",
]


def segment_layers(layers):
    """Split a layer list into per-Linear segments.

    Segment ``i`` starts at the i-th Linear and carries its
    BatchNorm/ReLU/Dropout tail — the same split the graph executors
    use, so segment ``i`` is what a graph ``matmul`` node ``layer=i``
    executes.
    """
    layers = list(layers)
    starts = [i for i, layer in enumerate(layers) if isinstance(layer, Linear)]
    if not starts:
        raise TypeError("cannot export a stack with no Linear layers")
    bounds = starts + [len(layers)]
    return [layers[a:b] for a, b in zip(starts, bounds[1:])]


def _export_array(array, backend):
    return np.ascontiguousarray(
        np.asarray(array).astype(backend.dtype, copy=False)
    )


def _tail_ops(layers, backend):
    """Pack a segment's post-Linear tail (BatchNorm / ReLU / Dropout)."""
    ops = []
    for layer in layers:
        if isinstance(layer, ReLU):
            ops.append(("relu",))
        elif isinstance(layer, BatchNorm):
            if layer.training:
                raise ValueError(
                    "kernel backends compile inference programs; a "
                    "training-mode BatchNorm uses batch statistics — "
                    "call .eval() on the network before compiling"
                )
            # Precompute the inverse std exactly as the eval forward
            # does, so the float64 reference stays bit-exact.
            inv = 1.0 / np.sqrt(layer.running_var + layer.eps)
            ops.append((
                "bn",
                _export_array(layer.running_mean, backend),
                _export_array(inv, backend),
                _export_array(layer.gamma.data, backend),
                _export_array(layer.beta.data, backend),
            ))
        elif isinstance(layer, Dropout):
            if layer.training and layer.p > 0.0:
                raise ValueError(
                    "kernel backends compile inference programs; an "
                    "active Dropout cannot be frozen — call .eval() on "
                    "the network before compiling"
                )
            # Inactive dropout is the identity.
        else:
            raise TypeError(
                f"cannot export layer {type(layer).__name__} to a "
                "kernel backend"
            )
    return ops


def export_segment(layers, backend, weight_only=False, epilogue=False,
                   site=None, packer=None):
    """Pack one per-Linear segment into an ops tuple.

    ``weight_only`` exports just the GEMM (the limited variant's
    hoisted product); ``epilogue`` exports the complementary bias +
    activation tail the epilogue node replays after aggregation.
    ``packer`` (a backend's ``segment_packer`` closure) replaces the
    plain ``("linear", W, b)`` head with a backend-specific op —
    quantized backends emit ``("qlinear", ...)`` here — and receives
    ``site``, the graph location whose calibrated activation scale the
    segment consumes.
    """
    linear, tail = layers[0], layers[1:]
    if not isinstance(linear, Linear):
        raise TypeError("segment must start with a Linear layer")
    if epilogue:
        bias = None if linear.bias is None \
            else _export_array(linear.bias.data, backend)
        ops = [] if bias is None else [("bias", bias)]
        return tuple(ops + _tail_ops(tail, backend))
    if packer is not None:
        head = packer(linear, site, weight_only)
    else:
        weight = _export_array(linear.weight.data, backend)
        bias = None if weight_only or linear.bias is None \
            else _export_array(linear.bias.data, backend)
        head = ("linear", weight, bias)
    if weight_only:
        return (head,)
    return tuple([head] + _tail_ops(tail, backend))


def export_stack(layers, backend, site=None, packer=None):
    """Pack a whole Linear/.../Linear stack: one ops tuple per segment.

    ``site`` is the stack's base graph location; segment ``i`` packs
    under ``site + (i,)``, matching the parameter-table keys.
    """
    return tuple(
        export_segment(segment, backend,
                       site=None if site is None else tuple(site) + (si,),
                       packer=packer)
        for si, segment in enumerate(segment_layers(layers))
    )


#: Blob offsets round up to one cache line — every zero-copy view is
#: aligned for any backend dtype.
_BLOB_ALIGNMENT = 64


def _check_not_stripped(obj):
    if getattr(obj, "_parameters_stripped", False):
        raise RuntimeError(
            "network parameters were stripped for zero-copy transport; "
            "attach a packed ParameterTable (program cache / shared "
            "memory) instead of re-exporting weights"
        )


def _ref_layers(obj):
    """The exportable layer list behind a graph ref (head / decoder)."""
    return obj.export_layers() if hasattr(obj, "export_layers") \
        else list(obj.net.layers)


class ParameterTable:
    """Every packed segment one compiled program touches, in one table.

    Entries are keyed by graph location —
    ``("module", module_index, layer, variant)`` for the shared-MLP
    segments (``variant`` is ``"full"``, ``"weight_only"`` or
    ``"epilogue"``, mirroring the matmul/epilogue node attributes) and
    ``("ref", ref_index, stage)`` for head / decoder stacks — so the
    kernel compiler looks ops up instead of exporting them, and a
    table built on the parent process answers every lookup a worker's
    program will make.

    Tables are content-addressed: :attr:`content_hash` digests the
    dtype, keys, op kinds and raw bytes, and :meth:`for_graph`
    canonicalizes through a global weak registry so equal tables are
    one object in memory.
    """

    _registry = weakref.WeakValueDictionary()
    _registry_lock = threading.Lock()

    def __init__(self, backend_name, dtype, entries, content_hash=None):
        self.backend_name = str(backend_name)
        self.dtype = np.dtype(dtype)
        self.entries = dict(entries)
        self.content_hash = content_hash or self._digest()
        # Zero-copy tables keep their backing buffer alive through this
        # handle (the mmap); plain exports leave it None.
        self._backing = None

    # -- construction --------------------------------------------------------

    @classmethod
    def for_graph(cls, ngraph, backend, dedupe=True, network=None):
        """Export the table of one whole-network graph under ``backend``.

        With ``dedupe`` (the default) the result is canonicalized
        through the content-hash registry: a second export with
        identical bytes — the other arity of the same program, another
        executor over the same network, any backend sharing the dtype —
        returns the existing table object instead of new copies.

        ``network`` is the live network the graph was built from;
        backends that pack segments specially (the quantized backend's
        ``segment_packer`` hook) may need it to calibrate activation
        scales before exporting.
        """
        packer = None
        make_packer = getattr(backend, "segment_packer", None)
        if make_packer is not None:
            packer = make_packer(ngraph, network)
        entries = {}
        segments = {}
        graph = ngraph.graph
        for node in graph.nodes:
            kind = node.kind
            if kind in ("matmul", "epilogue"):
                midx = node.attrs["module"]
                module = ngraph.refs[midx]
                _check_not_stripped(module)
                if midx not in segments:
                    segments[midx] = segment_layers(module.mlp.export_layers())
                layer = node.attrs["layer"]
                if kind == "epilogue":
                    variant = "epilogue"
                elif node.attrs.get("weight_only"):
                    variant = "weight_only"
                else:
                    variant = "full"
                key = ("module", midx, layer, variant)
                if key not in entries:
                    entries[key] = export_segment(
                        segments[midx][layer], backend,
                        weight_only=variant == "weight_only",
                        epilogue=variant == "epilogue",
                        site=key, packer=packer,
                    )
            elif kind in ("head", "propagate"):
                ref = node.attrs["ref"]
                if ("ref", ref, 0) in entries:
                    continue
                obj = ngraph.refs[ref]
                _check_not_stripped(obj)
                for si, ops in enumerate(export_stack(_ref_layers(obj),
                                                      backend,
                                                      site=("ref", ref),
                                                      packer=packer)):
                    entries[("ref", ref, si)] = ops
        table = cls(backend.name, backend.dtype, entries)
        return table._canonical() if dedupe else table

    def _canonical(self):
        with ParameterTable._registry_lock:
            existing = ParameterTable._registry.get(self.content_hash)
            if existing is not None:
                return existing
            ParameterTable._registry[self.content_hash] = self
            return self

    # -- lookup --------------------------------------------------------------

    def module_segment(self, midx, layer, weight_only=False, epilogue=False):
        """Ops of one shared-MLP segment, by graph location."""
        variant = "epilogue" if epilogue else \
            "weight_only" if weight_only else "full"
        return self.entries[("module", midx, layer, variant)]

    def stages(self, ref):
        """The packed per-segment stack of graph ref ``ref``."""
        out = []
        while ("ref", ref, len(out)) in self.entries:
            out.append(self.entries[("ref", ref, len(out))])
        if not out:
            raise KeyError(f"parameter table holds no stack for ref {ref}")
        return tuple(out)

    def _arrays(self):
        for key in sorted(self.entries, key=repr):
            for op in self.entries[key]:
                for part in op[1:]:
                    if part is not None:
                        yield part

    @property
    def nbytes(self):
        """Total packed parameter bytes (shared arrays counted once)."""
        seen, total = set(), 0
        for array in self._arrays():
            if id(array) not in seen:
                seen.add(id(array))
                total += array.nbytes
        return total

    # -- content addressing --------------------------------------------------

    def _digest(self):
        digest = hashlib.sha256()
        digest.update(str(self.dtype).encode())
        for key in sorted(self.entries, key=repr):
            digest.update(repr(key).encode())
            for op in self.entries[key]:
                digest.update(op[0].encode())
                for part in op[1:]:
                    if part is None:
                        digest.update(b"\x00")
                    else:
                        digest.update(str(part.shape).encode())
                        digest.update(np.ascontiguousarray(part).data)
        return digest.hexdigest()

    # -- serialization -------------------------------------------------------

    def pack(self):
        """Flatten to ``(manifest, blob)``: JSON metadata + one buffer.

        Arrays land in the blob at cache-line-aligned offsets, each
        recorded once (entries sharing an array share the slot), so
        :meth:`from_buffer` can rebuild every op as a zero-copy view.
        """
        arrays, index, specs = [], {}, []
        offset = 0
        for part in self._arrays():
            if id(part) in index:
                continue
            index[id(part)] = len(arrays)
            data = np.ascontiguousarray(part)
            specs.append({
                "offset": offset,
                "shape": list(part.shape),
                "dtype": str(part.dtype),
            })
            arrays.append(data)
            offset += -(-data.nbytes // _BLOB_ALIGNMENT) * _BLOB_ALIGNMENT
        blob = bytearray(offset)
        for spec, data in zip(specs, arrays):
            start = spec["offset"]
            blob[start:start + data.nbytes] = data.tobytes()
        entries = []
        for key in sorted(self.entries, key=repr):
            ops = []
            for op in self.entries[key]:
                refs = [None if part is None else index[id(part)]
                        for part in op[1:]]
                ops.append([op[0]] + refs)
            entries.append({"key": list(key), "ops": ops})
        manifest = {
            "format": 1,
            "kind": "parameter-table",
            "backend": self.backend_name,
            "dtype": str(self.dtype),
            "content_hash": self.content_hash,
            "total_bytes": len(blob),
            "arrays": specs,
            "entries": entries,
        }
        return manifest, bytes(blob)

    @classmethod
    def from_buffer(cls, manifest, buffer, backing=None, dedupe=True):
        """Rebuild a table as zero-copy views over ``buffer``.

        ``buffer`` is anything the :func:`numpy.frombuffer` protocol
        accepts — a read-only ``mmap`` of a shared table file or of the
        program cache's on-disk blob.  ``backing`` (kept on
        the table) pins the owner of that memory for the table's
        lifetime.  No bytes are copied and nothing is re-hashed: the
        manifest's recorded content hash is trusted (it was computed
        when the blob was written; `verify_buffer` re-checks it when
        integrity matters more than load time).
        """
        if manifest.get("kind") != "parameter-table":
            raise ValueError("manifest does not describe a parameter table")
        views = []
        for spec in manifest["arrays"]:
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"], dtype=np.int64)) \
                if spec["shape"] else 1
            view = np.frombuffer(buffer, dtype=dtype, count=count,
                                 offset=spec["offset"])
            views.append(view.reshape(spec["shape"]))
        entries = {}
        for entry in manifest["entries"]:
            key = tuple(entry["key"])
            ops = []
            for op in entry["ops"]:
                ops.append(tuple([op[0]] + [
                    None if ref is None else views[ref] for ref in op[1:]
                ]))
            entries[key] = tuple(ops)
        table = cls(manifest["backend"], manifest["dtype"], entries,
                    content_hash=manifest["content_hash"])
        table._backing = backing
        return table._canonical() if dedupe else table

    def verify_buffer(self):
        """Recompute the content hash over the live arrays; True if intact."""
        return self._digest() == self.content_hash
