"""The whole-network kernel runtime: autograd-free graph execution.

:func:`compile_kernel_program` lowers a strategy-rewritten
:class:`~repro.graph.network.NetworkGraph` into a
:class:`KernelProgram` — a flat list of ndarray kernels closed over a
pre-packed parameter table (:mod:`repro.backend.params`):

* weights are exported **once per program** at compile time, in the
  program's dtype, so a float32 program runs float32 BLAS GEMMs end to
  end with zero per-call casts;
* consecutive ``matmul`` nodes of one MLP — a module region's or a
  head's — fold into a single batched GEMM+bias+ReLU chain kernel
  running through preallocated ping-pong buffers;
* each ``aggregate`` node — gather [+ reduce-max] + subtract, the
  graph's one aggregation node — is one kernel, and it and the post-MLP
  ``reduce_max`` operate on raw arrays with planned output buffers — no
  ``Tensor`` wrappers, no ``_from_op`` closures, no autograd
  bookkeeping on the inference path;
* scratch memory is **arena-planned** (:mod:`repro.backend.memplan`)
  at compile time, once per program and *per cloud*: each kernel
  compiler declares the scratch buffers its kernel requests, sized
  from its node's attrs, and the plan for any height is those
  declarations scaled and packed by liveness into one contiguous arena
  with best-fit reuse.  Every run, the first included, executes out of
  it.  Each thread keeps one grow-only arena and serves every height
  from views of it — peak working-set bytes drop by the planned reuse
  instead of summing every kernel's buffer (that one-buffer-per-kernel
  sum, ``pool_bytes``, is the baseline of the CI ``mem`` gates);
* parameters live in one
  :class:`~repro.backend.params.ParameterTable` per program, shared
  across threads;
* every value a kernel reads is one of its nodes' input edges — an
  ``aggregate`` reads the search's Neighbor Index Table and the
  sample's centroid ids from the run's value table, not from a side
  channel — so a value dies at its last consumer, which is what the
  planner's liveness assumes;
* centroid sampling is resolved at compile time (it is a deterministic
  function of the static graph shapes), and module neighbor searches
  run in the program's dtype (a decoder's search keeps float64
  distances) — through the neighbor-index cache a run is
  handed (``run(coords, cache=...)``), else brute force.  The engine's
  :class:`~repro.engine.cache.NeighborIndexCache` keys on that dtype,
  so float32 and float64 programs never share cache entries.

A program's backend is its dtype.  A float64 program executes the same
numpy operations, in the same order, as
:class:`~repro.graph.executors.GraphExecutor`, so its outputs are
bit-exact against it (CI-gated across all seven networks and all three
strategies); a float32 program trades ≤1e-4 relative logit error for
roughly 2× GEMM throughput.

Programs know one arity — a ``(B, N, 3)`` stack; run one cloud as
``program.run(cloud[None])``.  Programs are thread-compatible — scratch
buffers live in thread-local storage — so one program serves every
replica of a :class:`~repro.serve.shard.ShardRouter` fleet.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.module import strided_centroids
from ..graph.network import feature_width
from ..neighbors import knn_brute_force
from .memplan import (
    ArenaPlan,
    BufferRecord,
    GraphLiveness,
    at_height,
    plan_arena,
    validate_plan,
)
from .params import ParameterTable, _resolve_dtype

__all__ = ["KernelProgram", "compile_kernel_program"]


def _bias_relu(x, bias, relu):
    """Add ``bias`` (if any) and apply the ReLU (if ``relu``) in place."""
    if bias is not None:
        x += bias
    if relu:
        np.maximum(x, 0, out=x)
    return x


def _knn(cache, points, queries, k, dtype=None, tag=None):
    """The runtime's one neighbor search: through the run's cache when
    it has one (keyed on ``tag`` instead of the queries when given),
    else brute force."""
    if cache is None:
        return knn_brute_force(points, queries, k, dtype=dtype)
    return cache.knn(points, queries, k, dtype=dtype, tag=tag)


class _ArenaPool:
    """One thread's grow-only arena: every planned request is a view of it."""

    def __init__(self, program):
        self.program = program
        self.arena = np.empty(0, dtype=np.uint8)
        self._views = {}  # stack height -> {key: view of self.arena}
        self.views = None  # the running height's view set

    def bind(self, height, plan):
        if plan.total_bytes > self.arena.nbytes:
            self.arena = np.empty(plan.total_bytes, dtype=np.uint8)
            self._views.clear()  # they are views of the arena just dropped
        views = self._views.get(height)
        if views is None:
            views = self._views[height] = {
                b.key: self.arena[b.offset:b.end]
                .view(np.dtype(b.dtype)).reshape(b.shape)
                for b in plan.buffers
            }
        self.views = views

    def request(self, key, shape):
        view = self.views.get(key)
        if view is None or view.shape != tuple(shape):
            # Not what the kernel's compiler declared: served correctly
            # from a fresh allocation, and counted so a declaration that
            # misses its kernel's request shows in memory_stats().
            with self.program._plans_lock:
                self.program._unplanned += 1
            return np.empty(shape, self.program.dtype)
        return view


class KernelProgram:
    """A compiled whole-network program: a flat list of ndarray kernels.

    Built by :func:`compile_kernel_program`; :meth:`run` executes the
    kernels front to back over a ``(B, N, 3)`` stack of clouds (a
    single cloud is a stack of one) and returns the network outputs as
    inference tensors.  Scratch memory is arena-planned per cloud and
    served from one arena per thread — see :mod:`repro.backend.memplan` —
    so a single program may run concurrently from multiple threads at
    any mix of stack heights; parameters come from a
    packed :class:`~repro.backend.params.ParameterTable` (``params=``
    accepts a pre-built — possibly zero-copy-attached — table).
    """

    def __init__(self, ngraph, dtype, params=None):
        self.ngraph = ngraph
        #: Parameter, activation and module-search dtype: the backend.
        self.dtype = _resolve_dtype(dtype)
        if params is None:
            params = ParameterTable.for_graph(ngraph, self.dtype)
        elif params.dtype != self.dtype:
            raise ValueError(
                f"parameter table dtype {params.dtype} does not match "
                f"backend {self.dtype.name!r}"
            )
        #: The packed parameter table every kernel reads through.
        self.table = params
        #: Points per cloud: the input ``coords`` node's rows.
        self.n_points = next(node.attrs["rows"] for node in ngraph.graph.nodes
                             if node.kind == "coords" and not node.inputs)
        self._kernels = []
        self._kernel_nodes = []
        self._records = []  # per-cloud scratch declarations, in request order
        self._backing = {}  # node id -> the record whose buffer holds it
        self._local = threading.local()
        self._plans = {}  # stack height -> ArenaPlan
        self._unplanned = 0
        self._plans_lock = threading.Lock()
        self._compile()
        self._liveness = GraphLiveness(ngraph.graph, self._kernel_nodes)
        #: The height-1 :class:`~repro.backend.memplan.ArenaPlan` every
        #: height is scaled from, packed from the kernels' declarations.
        self.per_cloud_plan = validate_plan(
            plan_arena(self._records, self._liveness))

    # -- compile-time helpers ------------------------------------------------

    def _declare(self, key, shape, backs=None):
        """Declare one per-cloud scratch buffer of the kernel being
        compiled, which requests it at ``shape`` times the stack height;
        ``backs`` names the node whose value the buffer holds."""
        shape = tuple(int(d) for d in shape)
        record = BufferRecord(
            key=key, shape=shape, dtype=self.dtype.name,
            nbytes=int(np.prod(shape)) * self.dtype.itemsize,
            def_pos=len(self._kernels),
        )
        if backs is not None:
            record.nodes.add(backs)
            self._backing[backs] = record
        self._records.append(record)

    def _buffer(self, ctx, key, shape):
        """Scratch buffer for one kernel output, from the thread's arena."""
        return ctx["alloc"].request(key, shape)

    # -- compilation ---------------------------------------------------------

    def _compile(self):
        graph = self.ngraph.graph
        consumed = set()
        for position, node in enumerate(graph.nodes):
            if node.id in consumed:
                continue
            before = set(consumed)
            kernel = self._compile_node(graph, position, node, consumed)
            self._kernels.append((f"{node.kind}:{node.id}", kernel))
            # The graph values this kernel covers (a folded chain's
            # links all materialize here) — the planner's position map.
            self._kernel_nodes.append(
                (node.id, *sorted(consumed - before))
            )

    def _compile_node(self, graph, position, node, consumed):
        kind = node.kind
        if kind == "matmul":
            return self._k_matmul_chain(graph, position, node, consumed)
        if kind == "epilogue":
            return self._k_epilogue(graph, node)
        if kind == "search" and "module" not in node.attrs:
            return self._k_decoder_search(node)
        compilers = {
            "sample": self._k_sample,
            "search": self._k_search,
            "aggregate": self._k_aggregate,
            "reduce_max": self._k_reduce_max,
            "coords": self._k_coords,
            "lift": self._k_lift,
            "concat": self._k_concat,
            "interpolate": self._k_interpolate,
            "global_max": self._k_global_max,
            "broadcast": self._k_broadcast,
            "select": self._k_select,
        }
        if kind not in compilers:
            raise ValueError(f"kernel runtime cannot compile kind {kind!r}")
        return compilers[kind](node)

    # -- module-region kernels ----------------------------------------------

    def _k_sample(self, node):
        # Sampling is a deterministic function of the static input
        # scale, so the centroid ids are a compile-time constant.
        local = strided_centroids(node.attrs["n_points"],
                                  node.attrs["n_samples"])
        nid = node.id

        def kernel(env, ctx):
            env[nid] = local

        return kernel

    def _k_search(self, node):
        attrs = node.attrs
        n_in, k = attrs["n_points"], attrs["k"]
        feature_space = attrs["space"] != "coords"
        in_dim = attrs["dim"]
        signature = attrs["signature"]
        dtype = self.dtype
        space_id, sample_id = node.inputs
        nid = node.id

        def kernel(env, ctx):
            space = env[space_id]
            if feature_space:
                space = space.reshape(ctx["batch"], n_in, in_dim)
            queries = space[:, env[sample_id]]
            indices, _ = _knn(ctx["cache"], space, queries, k, dtype=dtype,
                              tag=signature)
            base = (np.arange(ctx["batch"], dtype=np.int64) * n_in)
            env[nid] = (indices + base[:, None, None]).reshape(
                ctx["batch"] * indices.shape[1], k
            )

        return kernel

    def _k_matmul_chain(self, graph, position, node, consumed):
        """Fold a run of consecutive matmul nodes into one chain kernel.

        A node joins the chain when it runs a layer of the same MLP (a
        module region's or a head's: the same ``attrs["ref"]``) and is
        the sole consumer of its predecessor, so only the final value is
        externally visible and the intermediates can live entirely in
        the chain's ping-pong buffers.
        """
        ref = node.attrs["ref"]
        chain = [node]
        nodes = graph.nodes
        for follower in nodes[position + 1:]:
            if (follower.kind == "matmul"
                    and follower.attrs["ref"] == ref
                    and follower.inputs == (chain[-1].id,)
                    and len(graph.consumers(chain[-1].id)) == 1):
                chain.append(follower)
            else:
                break
        consumed.update(n.id for n in chain[1:])
        links = [(("mm", link.id), *self.table.segment(link))
                 for link in chain]
        source = chain[0].inputs[0]
        last = chain[-1].id
        # One GEMM output per link.
        for link in chain:
            self._declare(("mm", link.id),
                          (link.attrs["rows"], link.attrs["out_dim"]),
                          backs=last if link.id == last else None)

        def kernel(env, ctx):
            # A BLAS call never mixes clouds: the flat cloud-major rows
            # are viewed as a ``(batch, rows, K)`` stack, which numpy
            # multiplies as one GEMM per cloud — the very call the cloud
            # makes alone — so a cloud's bits do not depend on what
            # shares its stack.
            x, batch = env[source], ctx["batch"]
            for key, weight, bias, relu in links:
                out = self._buffer(ctx, key, (x.shape[0], weight.shape[1]))
                np.matmul(x.reshape(batch, -1, x.shape[1]), weight,
                          out=out.reshape(batch, -1, out.shape[1]))
                x = _bias_relu(out, bias, relu)
            env[last] = x

        return kernel

    def _k_aggregate(self, node):
        """Gather → [reduce-max →] subtract, one NIT-driven pass.

        The kernel reads its three input edges: the feature table, the
        search's Neighbor Index Table (flat rows) and the sample's
        centroid ids, which the stack's row base lifts into the table.
        Reduced (delayed-form) aggregation streams over centroid
        chunks the way the paper's Aggregation Unit streams NIT entries
        (§V-B), so the ``(n_out, k, dim)`` neighborhood tensor is never
        materialized.  Chunking is over centroids only — each
        neighborhood still reduces over ``k`` in one call — so the
        result is bit-identical to the unchunked form.  A pass takes
        an eighth of each cloud's centroids (never fewer than eight)
        times the stack height, so the chunk scratch scales with height
        exactly like every other buffer.
        """
        reduce = bool(node.attrs["reduce"])
        k, dim = node.attrs["k"], node.attrs["dim"]
        n_in, n_out = node.attrs["table_rows"], node.attrs["n_centroids"]
        source, search, sample = node.inputs
        nid = node.id
        if reduce:
            chunk = n_out if n_out <= 8 else max(8, -(-n_out // 8))
            self._declare(("agg-o", nid), (n_out, dim), backs=nid)
            self._declare(("agg-gc", nid), (chunk, k, dim))
            self._declare(("agg-rc", nid), (chunk, dim))
        else:
            self._declare(("agg-g", nid), (n_out, k, dim), backs=nid)

        def kernel(env, ctx):
            src = env[source]
            rows = env[search]
            base = (np.arange(ctx["batch"], dtype=np.int64) * n_in)[:, None]
            # The centroid rows of the flat table.
            crows = (env[sample][None, :] + base).reshape(-1)
            n_rows = rows.shape[0]
            if reduce:
                out = self._buffer(ctx, ("agg-o", nid), (n_rows, dim))
                step = ctx["batch"] * chunk
                gbuf = self._buffer(ctx, ("agg-gc", nid), (step, k, dim))
                rbuf = self._buffer(ctx, ("agg-rc", nid), (step, dim))
                for start in range(0, n_rows, step):
                    stop = min(start + step, n_rows)
                    c = stop - start
                    block = np.take(src, rows[start:stop], axis=0,
                                    out=gbuf[:c])
                    reduced = np.max(block, axis=1, out=rbuf[:c])
                    np.subtract(reduced, src[crows[start:stop]],
                                out=out[start:stop])
                env[nid] = out
            else:
                gathered = np.take(
                    src, rows, axis=0,
                    out=self._buffer(ctx, ("agg-g", nid), (n_rows, k, dim)),
                )
                centroids = src[crows].reshape(n_rows, 1, dim)
                np.subtract(gathered, centroids, out=gathered)
                env[nid] = gathered.reshape(n_rows * k, dim)

        return kernel

    def _k_reduce_max(self, node):
        source, nid = node.inputs[0], node.id
        k = node.attrs["k"]
        self._declare(("max", nid),
                      (node.attrs["n_centroids"], node.attrs["feature_dim"]),
                      backs=nid)

        def kernel(env, ctx):
            # The post-MLP reduction of original/limited: rows*k flat
            # rows back to (rows, k, dim) before the neighborhood
            # reduction.
            x = env[source]
            x = x.reshape(-1, k, x.shape[-1])
            env[nid] = np.max(
                x, axis=1,
                out=self._buffer(ctx, ("max", nid), (x.shape[0], x.shape[2])),
            )

        return kernel

    def _k_epilogue(self, graph, node):
        _, bias, relu = self.table.segment(node)
        source, nid = node.inputs[0], node.id
        # The epilogue runs in place; copy first unless it is the sole
        # consumer of its input, whose buffer then holds its value too.
        shared = len(graph.consumers(source)) > 1
        backing = None if shared else self._backing.get(source)
        if backing is not None:
            backing.nodes.add(nid)
            self._backing[nid] = backing

        def kernel(env, ctx):
            x = env[source]
            if shared:
                x = x.copy()
            env[nid] = _bias_relu(x, bias, relu)

        return kernel

    # -- network-level kernels ----------------------------------------------

    def _k_coords(self, node):
        nid = node.id
        if not node.inputs:
            def kernel(env, ctx):
                env[nid] = ctx["coords"]
            return kernel
        prev, sample = node.inputs

        def kernel(env, ctx):
            env[nid] = env[prev][:, env[sample]]

        return kernel

    def _k_lift(self, node):
        source, nid = node.inputs[0], node.id

        def kernel(env, ctx):
            coords = env[source]
            env[nid] = coords.reshape(-1, coords.shape[-1])

        return kernel

    def _k_concat(self, node):
        sources = node.inputs
        axis = node.attrs.get("axis", 1)
        nid = node.id
        self._declare(("cat", nid), (node.attrs["rows"], node.attrs["dim"]),
                      backs=nid)

        def kernel(env, ctx):
            parts = [env[i] for i in sources]
            shape = list(parts[0].shape)
            shape[axis] = sum(p.shape[axis] for p in parts)
            env[nid] = np.concatenate(
                parts, axis=axis, out=self._buffer(ctx, ("cat", nid), shape)
            )

        return kernel

    def _k_decoder_search(self, node):
        points_id, queries_id = node.inputs
        k, nid = node.attrs["k"], node.id

        def kernel(env, ctx):
            points, queries = env[points_id], env[queries_id]
            # Unlike module searches (index-only: neighbor order washes
            # out in the max-reduction), interpolation consumes the
            # *distances* — inverse-distance weights shift whenever a
            # float32 search reorders near-tied coarse neighbors.  Keep
            # decoder searches at the brute kernel's float64 default so
            # the float32 backend stays within its logit tolerance.
            # Untagged: the cache keys on the fine coords themselves.
            idx, dist = _knn(ctx["cache"], points, queries, k)
            base = (np.arange(ctx["batch"], dtype=np.int64)
                    * points.shape[1])[:, None, None]
            env[nid] = ((idx + base).reshape(-1, k), dist.reshape(-1, k))

        return kernel

    def _k_interpolate(self, node):
        search, source = node.inputs
        nid = node.id
        dtype = self.dtype
        shape = (node.attrs["n_points"], node.attrs["feature_dim"])
        self._declare(("interp", nid), shape, backs=nid)
        if node.attrs["k"] > 1:
            self._declare(("interp-g", nid), shape)

        def kernel(env, ctx):
            rows, dist = env[search]
            weights = 1.0 / np.maximum(dist, 1e-8)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            weights = weights.astype(dtype, copy=False)
            src = env[source]
            (n_rows, k), width = rows.shape, src.shape[1]
            # One neighbor column at a time, added in column order: the
            # sum over k of the (n_rows, k, width) gather, without it.
            out = np.take(
                src, rows[:, 0], axis=0,
                out=self._buffer(ctx, ("interp", nid), (n_rows, width)),
            )
            out *= weights[:, :1]
            for j in range(1, k):
                column = np.take(
                    src, rows[:, j], axis=0,
                    out=self._buffer(ctx, ("interp-g", nid), (n_rows, width)),
                )
                column *= weights[:, j:j + 1]
                out += column
            env[nid] = out

        return kernel

    def _k_global_max(self, node):
        source, nid = node.inputs[0], node.id
        self._declare(("gm", nid), (1, node.attrs["dim"]), backs=nid)

        def kernel(env, ctx):
            x = env[source]
            nclouds = ctx["batch"]
            rows = x.shape[0] // nclouds
            env[nid] = np.max(
                x.reshape(nclouds, rows, x.shape[1]), axis=1,
                out=self._buffer(ctx, ("gm", nid), (nclouds, x.shape[1])),
            )

        return kernel

    def _k_broadcast(self, node):
        source, nid = node.inputs[0], node.id
        rows = node.attrs["rows"]
        width = feature_width(self.ngraph.graph.node(source))
        self._declare(("bc", nid), (rows, width), backs=nid)

        def kernel(env, ctx):
            idx = np.repeat(np.arange(ctx["batch"]), rows)
            x = env[source]
            env[nid] = np.take(
                x, idx, axis=0,
                out=self._buffer(ctx, ("bc", nid), (len(idx), x.shape[1])),
            )

        return kernel

    def _k_select(self, node):
        coords_id, scores_id = node.inputs
        n_select = node.attrs["n_select"]
        nid = node.id

        def kernel(env, ctx):
            logits = env[scores_id]
            scores = (logits[:, 1] - logits[:, 0]).reshape(ctx["batch"], -1)
            order = np.argsort(-scores, axis=1, kind="stable")[:, :n_select]
            selected = np.take_along_axis(env[coords_id], order[:, :, None],
                                          axis=1)
            env[nid] = selected - selected.mean(axis=1, keepdims=True)

        return kernel

    # -- execution -----------------------------------------------------------

    def plan_for(self, height=1):
        """The arena plan for ``height`` clouds: the per-cloud plan
        scaled and packed again (memoised per height)."""
        height = int(height)
        with self._plans_lock:
            plan = self._plans.get(height)
            if plan is None:
                plan = self._plans[height] = validate_plan(plan_arena(
                    at_height(self.per_cloud_plan.buffers, height),
                    self._liveness))
            return plan

    def _arena(self, height):
        """The calling thread's arena, bound to ``height`` clouds' plan."""
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = _ArenaPool(self)
        pool.bind(height, self.plan_for(height))
        return pool

    def run(self, coords, on_kernel=None, cache=None):
        """Execute the program over a ``(batch, n_points, 3)`` stack.

        Returns the network outputs as inference :class:`~repro.neural.Tensor`
        values (a dict for multi-output networks), matching the network
        executors' contract.  Output arrays are fresh copies — scratch
        buffers never escape a run.

        Every run, the first included, at any stack height and on any
        thread, executes out of the calling thread's arena under the
        plan compiled from the graph, bit-identically.
        ``on_kernel(pos, label, env, ctx)``, when
        given, is invoked after each kernel — the hook the aliasing tests
        use to corrupt dead arena regions mid-run.  ``env`` maps node ids
        to values, and a kernel reads only its nodes' input edges there;
        ``ctx`` holds the run's state only: ``coords``, ``batch``, the
        scratch allocator ``alloc`` and the ``cache``.  ``cache``, when
        given, is the :class:`~repro.engine.cache.NeighborIndexCache`
        every neighbor search of this run consults; it belongs to the
        run, not the program, so replicas sharing one program each bring
        their own.
        """
        from ..neural import Tensor

        coords = np.asarray(coords).astype(self.dtype, copy=False)
        if coords.ndim != 3 or coords.shape[1:] != (self.n_points, 3) \
                or not coords.shape[0]:
            raise ValueError(
                "kernel programs take stacks only: expected (batch, "
                f"{self.n_points}, 3) coords for {self.ngraph.network}, "
                f"batch >= 1, got {coords.shape} — lift one cloud with "
                "cloud[None]"
            )
        ctx = {
            "coords": coords,
            "batch": coords.shape[0],
            "alloc": self._arena(coords.shape[0]),
            "cache": cache,
        }
        env = {}
        for pos, (label, kernel) in enumerate(self._kernels):
            kernel(env, ctx)
            if on_kernel is not None:
                on_kernel(pos, label, env, ctx)
        values = {}
        for out in self.ngraph.outputs:
            value = env[out.node].copy()
            if out.per_point:
                rows = value.shape[0] // ctx["batch"]
                value = value.reshape(ctx["batch"], rows, value.shape[1])
            values[out.name] = Tensor(value)
        if len(values) == 1 and None in values:
            return values[None]
        return values

    # -- planner introspection ----------------------------------------------

    def memory_stats(self):
        """Planner statistics, sized by the tallest height planned so far.

        ``unplanned`` counts scratch requests the plan did not describe —
        zero unless a kernel's declaration misses its request.
        """
        with self._plans_lock:
            heights = tuple(sorted(self._plans))
            tallest = self._plans[heights[-1]] if heights \
                else ArenaPlan(0, (), 0, 0)
            return {
                "heights": heights,
                "buffers": len(self.per_cloud_plan.buffers),
                "arena_bytes": tallest.total_bytes,
                "pool_bytes": tallest.pool_bytes,
                "peak_live_bytes": tallest.peak_live_bytes,
                "unplanned": self._unplanned,
            }

    def memory_report(self, height=1):
        """Per-phase peaks before/after planning, plus the arena plan
        for ``height`` clouds.

        ``repro trace --memory`` prints this: *before* is the
        cumulative per-kernel pool (PR 5 never frees, so bytes only
        grow), *after* the planned live bytes at each kernel, both
        bucketed by the executing node's phase.
        """
        plan = self.plan_for(height)
        phase_of = self._liveness.phase_of(self.ngraph.graph)
        allocated, phases = 0, {}
        by_def = {}
        for b in plan.buffers:
            by_def.setdefault(b.def_pos, []).append(b)
        for pos in range(len(self._kernels)):
            allocated += sum(b.nbytes for b in by_def.get(pos, ()))
            entry = phases.setdefault(phase_of[pos],
                                      {"before": 0, "after": 0})
            entry["before"] = max(entry["before"], allocated)
            entry["after"] = max(entry["after"], plan.live_bytes_at(pos))
        return {
            "plan": plan,
            "phases": phases,
            "n_kernels": len(self._kernels),
            "arena_bytes": plan.total_bytes,
            "pool_bytes": plan.pool_bytes,
            "peak_live_bytes": plan.peak_live_bytes,
        }

    @property
    def kernel_labels(self):
        """The compiled kernel labels, in execution order."""
        return tuple(label for label, _ in self._kernels)


def compile_kernel_program(network, strategy="delayed", backend="float64",
                           batched=True, params=None):
    """Compile ``network`` under ``strategy`` into a :class:`KernelProgram`.

    The network's whole-network graph (memoized on the instance) is
    lowered in ``backend``, a dtype: ``"float64"`` or ``"float32"`` (or
    their numpy dtypes).  ``batched`` is read by
    nothing: programs have one arity (a cloud is a stack of one), and
    the keyword is accepted only because ``benchmarks/ledger/layers.py``
    — which a non-benchmark change may not edit — still passes it; it
    goes with ROADMAP item 10.  ``params`` supplies a pre-built
    :class:`~repro.backend.params.ParameterTable` (e.g. one attached
    zero-copy from a shared file) instead of
    exporting the network's weights.
    """
    return KernelProgram(network.network_graph(strategy), backend,
                         params=params)

