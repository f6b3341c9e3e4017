"""Liveness-based arena planning for the kernel runtime.

PR 5's :class:`~repro.backend.runtime.KernelProgram` preallocates one
scratch buffer per kernel output and never reuses any of them, so the
working set is the *sum* of every buffer a run ever touches.  The paper
argues point-cloud inference is memory-bound — gathers and aggregations
dominate bytes moved — which makes that the wrong shape for a serve
host.  This module is the TVM-style static memory planner that fixes
it:

1. at compile time each kernel compiler declares the scratch buffers
   its kernel requests (key, per-cloud shape, the kernel position that
   writes it), sized from its node's attrs, and the graph values each
   buffer holds: the node it backs, plus an epilogue that runs in place
   on it as its input's sole consumer (a non-reducing ``aggregate`` —
   the graph's one aggregation node, compiled to one kernel — backs its
   node with its gather buffer through a reshape).  Every leading
   dimension is ``stack height × per-cloud rows``, so the records are
   **per cloud** and any height is a multiplication away
   (:func:`at_height`); a request that misses its declaration is served
   from a fresh allocation and counted as ``unplanned``;
2. :class:`GraphLiveness` reads each value's last reader off the
   graph's input edges — every value a kernel reads is one of its
   nodes' inputs — and maps it onto fused-kernel positions: a buffer is
   live from its defining kernel to the last kernel that reads any
   value aliasing it (graph outputs live to the end — they are copied
   out after the last kernel);
3. :func:`plan_arena` packs the buffers into one contiguous arena with
   a best-fit offset assigner.  Two buffers may share bytes exactly
   when their live intervals are disjoint: a program runs its kernels
   strictly front to back on the calling thread out of a thread-local
   arena, so a dead buffer has no reader left.  Packing one height
   takes well under a millisecond; the program memoises it.

Buffers are written whole (every kernel output goes through ``out=``),
so recycling dead bytes is invisible to the computation: the arena run
is bit-identical to a run out of fresh allocations, which the CI
``mem`` gates pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "ALIGNMENT",
    "ArenaBuffer",
    "ArenaPlan",
    "BufferRecord",
    "GraphLiveness",
    "at_height",
    "plan_arena",
    "validate_plan",
]

#: Arena offsets are rounded up to this many bytes — one cache line, so
#: no two buffers false-share a line and every view is safely aligned
#: for any backend dtype.
ALIGNMENT = 64


def _align(nbytes, alignment=ALIGNMENT):
    return -(-int(nbytes) // alignment) * alignment


@dataclass
class BufferRecord:
    """One declared scratch buffer, per cloud (a stack of ``B`` clouds
    requests ``B`` times the leading dimension and bytes).

    ``nodes`` are the graph values the buffer holds.
    """

    key: object
    shape: tuple
    dtype: str
    nbytes: int
    def_pos: int
    nodes: set = field(default_factory=set)


def at_height(buffers, height):
    """A per-cloud plan's ``buffers`` as ``height`` stacked clouds
    request them — records :func:`plan_arena` packs again."""
    return [
        replace(b, shape=(b.shape[0] * height, *b.shape[1:]),
                nbytes=b.nbytes * height)
        for b in buffers
    ]


class GraphLiveness:
    """Value liveness mapped onto one program's fused-kernel positions.

    ``kernel_nodes`` lists, per kernel position, the graph node ids
    that kernel covers (a folded matmul chain covers every link; the
    first id is the node whose readiness starts the kernel).  Liveness
    of a value is then an interval over kernel positions.
    """

    def __init__(self, graph, kernel_nodes):
        self.n_kernels = len(kernel_nodes)
        position = {}
        lead = {}
        for pos, ids in enumerate(kernel_nodes):
            lead[pos] = ids[0]
            for nid in ids:
                position[nid] = pos
        self.position = position
        #: kernel position -> the node whose readiness starts the kernel.
        self.lead_node = lead
        # A value's readers are exactly its consumers in the graph: it
        # dies at the last kernel covering one (at its own without any).
        last = dict(position)
        for node in graph.nodes:
            for parent in node.inputs:
                last[parent] = max(last[parent], position[node.id])
        for nid in graph.outputs:
            last[nid] = self.n_kernels
        #: node id -> last kernel position that reads the value.
        self.last_use = last

    def phase_of(self, graph):
        """Kernel position -> execution phase (the lead node's)."""
        phases = {node.id: node.phase for node in graph.nodes}
        return {pos: phases[nid] for pos, nid in self.lead_node.items()}

    def extent(self, record):
        """Last kernel position of one declared buffer record.

        The buffer dies after the last kernel reading any value that
        aliases it; values with no aliasing graph value (chain
        ping-pong intermediates, reducing-aggregate chunks) die at their
        own kernel.
        """
        last = record.def_pos
        for nid in record.nodes:
            last = max(last, self.last_use.get(nid, record.def_pos))
        return last


@dataclass(frozen=True)
class ArenaBuffer:
    """One planned buffer: an offset into the arena plus its liveness."""

    key: object
    shape: tuple
    dtype: str
    nbytes: int
    offset: int
    def_pos: int
    last_pos: int
    nodes: tuple = ()

    @property
    def end(self):
        return self.offset + self.nbytes


@dataclass(frozen=True)
class ArenaPlan:
    """A packed arena layout for one (program, stack height) pair.

    ``pool_bytes`` is what the same run costs under PR 5's
    one-buffer-per-kernel pool — the baseline the CI peak-bytes gate
    measures reduction against.
    """

    total_bytes: int
    buffers: tuple
    n_positions: int
    pool_bytes: int

    @property
    def peak_live_bytes(self):
        """Largest sum of simultaneously-live buffer bytes."""
        peak = 0
        for pos in range(self.n_positions + 1):
            peak = max(peak, self.live_bytes_at(pos))
        return peak

    @property
    def reduction(self):
        """Fraction of the per-kernel pool the arena saves."""
        if self.pool_bytes == 0:
            return 0.0
        return 1.0 - self.total_bytes / self.pool_bytes

    def live_bytes_at(self, pos):
        return sum(b.nbytes for b in self.buffers
                   if b.def_pos <= pos <= b.last_pos)

    def dead_ranges_at(self, pos):
        """Byte ranges safe to clobber after kernel ``pos`` has run.

        A range is dead when no buffer that is live *past* ``pos``
        covers it: already-expired buffers are never read again and
        not-yet-defined buffers are fully rewritten at their defining
        kernel.  The adversarial aliasing test poisons exactly these.
        """
        live = sorted(
            (b for b in self.buffers if b.def_pos <= pos < b.last_pos),
            key=lambda b: b.offset,
        )
        ranges, cursor = [], 0
        for b in live:
            if b.offset > cursor:
                ranges.append((cursor, b.offset))
            cursor = max(cursor, b.end)
        if cursor < self.total_bytes:
            ranges.append((cursor, self.total_bytes))
        return ranges

    def describe(self):
        """Human-readable layout dump used by ``repro trace --memory``."""
        lines = [
            f"arena: {self.total_bytes} bytes in {len(self.buffers)} "
            f"buffers (per-kernel pool {self.pool_bytes} bytes, "
            f"{100.0 * self.reduction:.1f}% saved, peak live "
            f"{self.peak_live_bytes} bytes)"
        ]
        for b in sorted(self.buffers, key=lambda b: (b.offset, b.def_pos)):
            lines.append(
                f"  @{b.offset:<10d} {b.nbytes:>10d} B  "
                f"live [{b.def_pos:>3d}, {b.last_pos:>3d}]  "
                f"{_format_key(b.key)}"
            )
        return "\n".join(lines)


def _format_key(key):
    if isinstance(key, tuple):
        return "/".join(_format_key(part) for part in key)
    return str(key)


def _conflicts(a, b):
    """May ``a`` and ``b`` share arena bytes?  (False = may.)

    Inclusive-interval overlap conflicts — two buffers touched by the
    same kernel never alias, so a chain's ping-pong buffers stay
    distinct.
    """
    return not (a.last_pos < b.def_pos or b.last_pos < a.def_pos)


def plan_arena(records, liveness, alignment=ALIGNMENT):
    """Pack declared buffer ``records`` into one best-fit arena.

    Buffers are placed largest-first (first-defined breaks ties, so
    the result is deterministic); each goes into the smallest existing
    gap among the offsets of its conflicting neighbors, or extends the
    arena when no gap fits.
    """
    placed = []
    # Stable sort: first-defined breaks ties.
    for record in sorted(records, key=lambda record: -record.nbytes):
        candidate = ArenaBuffer(
            key=record.key,
            shape=tuple(record.shape),
            dtype=str(record.dtype),
            nbytes=int(record.nbytes),
            offset=0,
            def_pos=record.def_pos,
            last_pos=liveness.extent(record),
            nodes=tuple(sorted(record.nodes)),
        )
        conflicts = sorted(
            (b for b in placed if _conflicts(b, candidate)),
            key=lambda b: b.offset,
        )
        best_offset, best_gap, cursor = None, None, 0
        for other in conflicts:
            gap = other.offset - cursor
            if gap >= candidate.nbytes and (best_gap is None or gap < best_gap):
                best_offset, best_gap = cursor, gap
            cursor = max(cursor, _align(other.end, alignment))
        if best_offset is None:
            best_offset = cursor
        placed.append(replace(candidate, offset=best_offset))
    total = _align(max((b.end for b in placed), default=0), alignment)
    pool = sum(b.nbytes for b in placed)
    return ArenaPlan(
        total_bytes=total,
        buffers=tuple(placed),
        n_positions=liveness.n_kernels,
        pool_bytes=pool,
    )


def validate_plan(plan):
    """Assert the invariants tests and loads rely on; returns ``plan``.

    Every buffer fits the arena at an aligned offset, and no two
    buffers with overlapping live intervals overlap in bytes.
    """
    for b in plan.buffers:
        if b.offset % ALIGNMENT:
            raise ValueError(f"buffer {b.key!r} misaligned at {b.offset}")
        if b.end > plan.total_bytes:
            raise ValueError(f"buffer {b.key!r} overruns the arena")
    buffers = sorted(plan.buffers, key=lambda b: b.offset)
    for i, a in enumerate(buffers):
        for b in buffers[i + 1:]:
            if b.offset >= a.end:
                break
            if _conflicts(a, b):
                raise ValueError(
                    f"live buffers {a.key!r} and {b.key!r} overlap "
                    f"([{a.def_pos},{a.last_pos}] vs "
                    f"[{b.def_pos},{b.last_pos}])"
                )
    return plan
