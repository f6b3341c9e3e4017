"""Pre-packed parameter tables for the kernel runtime.

The autograd executors walk live :class:`~repro.neural.Module` objects
on every node dispatch; the kernel runtime instead exports each
network's weights **once per dtype** into records in that dtype.  Every
MLP layer — a module region's or a head's — is one graph ``matmul``
node running a Linear and, if its MLP says so, a ReLU, exported as one
``(weight, bias, relu)`` record: the GEMM's weight, the bias it adds
(``None`` for a bias-free Linear) and whether the ReLU follows.  The
limited variant splits a layer in two: its hoisted product is the
weight-only record ``(weight, None, False)``, and the epilogue after
the aggregation is ``(None, bias, relu)``, re-adding the bias the
product dropped.

In float64, the reference dtype, the packed arrays share memory with
the live parameters (no copy); float32 snapshots a cast copy at export
time.

:class:`ParameterTable` is the whole-network form of that export: one
flat table holding every record a compiled
:class:`~repro.backend.runtime.KernelProgram` will touch, keyed by the
graph location that uses it.  A program exports one table; the server
builds one runner per hosted network and a shard fleet hands every
replica one program, so a hosted network's weights are exported once.
Tables serialize: :meth:`ParameterTable.pack` flattens the table into
a JSON manifest plus one aligned binary blob, and
:meth:`ParameterTable.from_buffer` rebuilds it **zero-copy** over any
buffer exposing the blob (an ``mmap`` of a published table file,
:mod:`repro.backend.aot`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ParameterTable",
    "export_segment",
]


#: The dtypes a kernel program computes in: float64, the reference, and
#: float32, the fast path.
_DTYPES = ("float32", "float64")


def _resolve_dtype(dtype):
    """``"float64"`` / ``"float32"`` or their numpy dtypes -> ``np.dtype``;
    anything else is refused."""
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        resolved = None
    if resolved is None or resolved.name not in _DTYPES:
        raise ValueError(
            f"unknown backend {dtype!r}; expected one of {list(_DTYPES)}"
        )
    return np.dtype(resolved.name)  # native byte order


def _export_array(array, dtype):
    return np.ascontiguousarray(np.asarray(array).astype(dtype, copy=False))


def export_segment(linear, relu, dtype, weight_only=False, epilogue=False):
    """Pack one MLP layer — ``linear`` and its ``relu`` flag — into a
    ``(weight, bias, relu)`` record.

    ``weight_only`` exports just the GEMM (the limited variant's
    hoisted product); ``epilogue`` exports the complementary bias +
    ReLU the epilogue node replays after aggregation.
    """
    weight = None if epilogue else _export_array(linear.weight.data, dtype)
    bias = None if weight_only or linear.bias is None \
        else _export_array(linear.bias.data, dtype)
    return weight, bias, relu and not weight_only


#: Blob offsets round up to one cache line — every zero-copy view is
#: aligned for either dtype.
_BLOB_ALIGNMENT = 64


class ParameterTable:
    """Every packed layer record one compiled program touches, in one
    table.

    Entries are keyed by graph location, ``(ref, layer, variant)``:
    the node's ``attrs["ref"]`` (the index in
    :attr:`~repro.graph.network.NetworkGraph.refs` of the MLP a
    ``matmul`` / ``epilogue`` node runs a layer of, a region's or a
    head's), the layer, and ``variant`` — ``"full"``,
    ``"weight_only"`` or ``"epilogue"``, mirroring the node's kind and
    attributes — so the kernel compiler looks records up instead of
    exporting them, and one table answers every lookup any program
    compiled from the same graph will make.
    """

    def __init__(self, dtype, entries):
        self.dtype = np.dtype(dtype)
        self.entries = dict(entries)
        # Zero-copy tables keep their backing buffer alive through this
        # handle (the mmap); plain exports leave it None.
        self._backing = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def key(node):
        """The entry key of one ``matmul`` / ``epilogue`` node."""
        if node.kind == "epilogue":
            variant = "epilogue"
        elif node.attrs.get("weight_only"):
            variant = "weight_only"
        else:
            variant = "full"
        return (node.attrs["ref"], node.attrs["layer"], variant)

    @classmethod
    def for_graph(cls, ngraph, dtype):
        """Export the table of one whole-network graph in ``dtype``."""
        dtype = _resolve_dtype(dtype)
        entries = {}
        for node in ngraph.graph.nodes:
            if node.kind not in ("matmul", "epilogue"):
                continue
            key = cls.key(node)
            if key not in entries:
                entries[key] = export_segment(
                    *ngraph.segment(node), dtype,
                    weight_only=key[2] == "weight_only",
                    epilogue=key[2] == "epilogue",
                )
        return cls(dtype, entries)

    # -- lookup --------------------------------------------------------------

    def segment(self, node):
        """The ``(weight, bias, relu)`` record of the layer one
        ``matmul`` / ``epilogue`` node runs."""
        return self.entries[self.key(node)]

    def _arrays(self):
        for key in sorted(self.entries, key=repr):
            for part in self.entries[key][:2]:
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

    # -- serialization -------------------------------------------------------

    def pack(self):
        """Flatten to ``(manifest, blob)``: JSON metadata + one buffer.

        Arrays land in the blob at cache-line-aligned offsets, each
        recorded once (entries sharing an array share the slot), so
        :meth:`from_buffer` can rebuild every record over zero-copy
        views.
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
            weight, bias, relu = self.entries[key]
            entries.append({
                "key": list(key),
                "weight": None if weight is None else index[id(weight)],
                "bias": None if bias is None else index[id(bias)],
                "relu": relu,
            })
        manifest = {
            "format": 2,
            "kind": "parameter-table",
            "dtype": str(self.dtype),
            "total_bytes": len(blob),
            "arrays": specs,
            "entries": entries,
        }
        return manifest, bytes(blob)

    @classmethod
    def from_buffer(cls, manifest, buffer, backing=None):
        """Rebuild a table as zero-copy views over ``buffer``.

        ``buffer`` is anything the :func:`numpy.frombuffer` protocol
        accepts — a read-only ``mmap`` of a shared table file.
        ``backing`` (kept on the table) pins the owner of that memory
        for the table's lifetime.  No bytes are copied.
        """
        if manifest.get("kind") != "parameter-table":
            raise ValueError("manifest does not describe a parameter table")
        if manifest.get("format") != 2:
            raise ValueError(f"parameter-table manifest format "
                             f"{manifest.get('format')} is not 2 (layer records)")
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
            weight, bias = (None if entry[part] is None else views[entry[part]]
                            for part in ("weight", "bias"))
            entries[tuple(entry["key"])] = (weight, bias, entry["relu"])
        table = cls(manifest["dtype"], entries)
        table._backing = backing
        return table
