"""The whole-network kernel runtime: autograd-free graph execution.

:func:`compile_kernel_program` lowers a strategy-rewritten
:class:`~repro.graph.network.NetworkGraph` into a
:class:`KernelProgram` — a flat list of ndarray kernels closed over a
pre-packed parameter table (:mod:`repro.backend.params`):

* weights are exported **once per backend** at compile time, in the
  backend's dtype, so a float32 program runs float32 BLAS GEMMs end to
  end with zero per-call casts;
* consecutive shared-MLP ``matmul`` nodes fold into a single batched
  GEMM+bias+ReLU chain kernel running through preallocated ping-pong
  buffers;
* gather / reduce-max / subtract (and the fused ``aggregate``) operate
  on raw arrays with planned output buffers — no ``Tensor`` wrappers,
  no ``_from_op`` closures, no autograd bookkeeping on the inference
  path;
* scratch memory is **arena-planned** (:mod:`repro.backend.memplan`),
  once per program and *per cloud*: the first run, at whatever stack
  height arrives, measures every buffer request; the plan for any
  height is that measurement scaled and packed by liveness into one
  contiguous arena with best-fit reuse.  Each thread keeps one
  grow-only arena and serves every height from views of it — peak
  working-set bytes drop by the measured reuse instead of summing every
  kernel's buffer (``plan_memory=False`` restores the PR 5
  one-buffer-per-kernel pool, the baseline of the CI ``mem`` gates);
* parameters live in one content-hashed
  :class:`~repro.backend.params.ParameterTable` shared across
  executors and same-dtype backends — and, packed, across *processes*
  (:mod:`repro.backend.aot`);
* centroid sampling is resolved at compile time (it is a deterministic
  function of the static graph shapes), and neighbor searches run in
  the backend's search dtype unless the active
  :func:`~repro.neighbors.search_context` pins one — the engine's
  :class:`~repro.engine.cache.NeighborIndexCache` keys on that dtype,
  so float32 and float64 programs never share cache entries.

The float64 reference backend executes the same numpy operations, in
the same order, as :class:`~repro.graph.executors.GraphExecutor`, so
its outputs are bit-exact against it (CI-gated across all seven
networks and all three strategies); the float32 backend trades ≤1e-4
relative logit error for roughly 2× GEMM throughput.

:class:`NetworkKernelExecutor` adapts the runtime to the executor API
the rest of the stack speaks: it satisfies the ``run_network`` contract
of :meth:`repro.networks.base.PointCloudNetwork.forward`, memoizing one
compiled program per graph.  Programs know one arity — a ``(B, N, 3)``
stack; a single cloud arrives as the stack of one the front door lifted
it into.
Programs are thread-compatible — scratch buffers live in thread-local
storage — so one executor instance can serve an
:class:`~repro.engine.scheduler.AsyncRunner` pipeline or every replica
of a :class:`~repro.serve.shard.ShardRouter` fleet.
"""

from __future__ import annotations

import threading

import numpy as np

from ..graph.network import MODULE_KINDS
from ..neighbors import active_search_options, neighbor_search
from .array import get_backend
from .memplan import (
    ArenaPlan,
    BufferRecord,
    GraphLiveness,
    at_height,
    plan_arena,
    record_aliases,
    validate_plan,
)
from .params import ParameterTable

__all__ = ["KernelProgram", "NetworkKernelExecutor", "compile_kernel_program"]


class _DictPool:
    """PR 5 semantics: one persistent buffer per kernel-output key."""

    def __init__(self, backend):
        self.backend = backend
        self.buffers = {}

    def request(self, key, shape, pos):
        buf = self.buffers.get(key)
        if buf is None or buf.shape != tuple(shape):
            buf = self.backend.empty(shape)
            self.buffers[key] = buf
        return buf

    def nbytes(self):
        return sum(b.nbytes for b in self.buffers.values())


class _MeasuringPool(_DictPool):
    """A dict pool that records every request, per cloud, for the planner.

    Scratch is sized by stacked rows, so dividing each leading dimension
    by the ``height`` this run happens to have gives the records every
    height shares.  A buffer that does not divide cannot be planned per
    cloud: that raises rather than under-provisioning some height.
    """

    def __init__(self, backend, height):
        super().__init__(backend)
        self.height = height
        self.records = []

    def request(self, key, shape, pos):
        existing = self.buffers.get(key)
        buf = super().request(key, shape, pos)
        if buf is not existing:
            rows, rest = divmod(shape[0], self.height)
            if rest:
                raise ValueError(
                    f"buffer {key!r} has {shape[0]} leading rows, not a "
                    f"multiple of the stack height {self.height}: it "
                    "cannot be planned per cloud"
                )
            self.records.append(BufferRecord(
                key=key, shape=(rows, *shape[1:]), dtype=str(buf.dtype),
                nbytes=buf.nbytes // self.height, def_pos=pos, array=buf,
            ))
        return buf


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

    def request(self, key, shape, pos):
        view = self.views.get(key)
        if view is None or view.shape != tuple(shape):
            # Not in the plan: served correctly from a fresh allocation,
            # and counted so a planner regression shows in memory_stats().
            with self.program._plans_lock:
                self.program._unplanned += 1
            return self.program.backend.empty(shape)
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
    shared :class:`~repro.backend.params.ParameterTable` (``params=``
    accepts a pre-built — possibly zero-copy-attached — table).
    """

    def __init__(self, ngraph, network, backend, params=None,
                 plan_memory=True):
        self.ngraph = ngraph
        self.network = network
        self.backend = get_backend(backend)
        self.plan_memory = bool(plan_memory)
        if params is None:
            params = ParameterTable.for_graph(ngraph, self.backend,
                                              network=network)
        elif np.dtype(params.dtype) != np.dtype(self.backend.dtype):
            raise ValueError(
                f"parameter table dtype {params.dtype} does not match "
                f"backend {self.backend.name!r}"
            )
        #: The packed parameter table every kernel reads through.
        self.table = params
        self._kernels = []
        self._kernel_nodes = []
        self._local = threading.local()
        #: The height-1 :class:`~repro.backend.memplan.ArenaPlan` every
        #: height is scaled from (and the program cache stores); ``None``
        #: until the program has run or been seeded.
        self.per_cloud_plan = None
        self._plans = {}  # stack height -> ArenaPlan
        self._measuring_runs = 0
        self._unplanned = 0
        self._plans_lock = threading.Lock()
        self._compile()
        self._liveness = GraphLiveness(ngraph.graph, self._kernel_nodes)

    # -- compile-time helpers ------------------------------------------------

    def _stages(self, index):
        """The packed parameter stack of graph ref ``index``."""
        return self.table.stages(index)

    def _buffer(self, ctx, key, shape):
        """Scratch buffer for one kernel output, from the active pool."""
        return ctx["alloc"].request(key, shape, ctx["pos"])

    def _search_dtype(self):
        """Backend search dtype, unless the active context pins one."""
        context = active_search_options()["dtype"]
        return context if context is not None else self.backend.search_dtype

    def _apply_ops(self, ops, x, ctx, key, site=None):
        """Run one packed segment's ops; GEMMs go to preallocated buffers.

        ``site`` is the segment's parameter-table key; when a
        calibration observer is installed (``ctx["observe"]``) it
        receives ``(site, x)`` before each GEMM — including the folded
        chain intermediates that never reach the kernel environment.
        """
        backend = self.backend
        observe = ctx.get("observe")
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "linear":
                if observe is not None:
                    observe(site, x)
                out = self._buffer(ctx, (key, i), (x.shape[0], op[1].shape[1]))
                x = backend.matmul(x, op[1], out=out)
                if op[2] is not None:
                    backend.add_bias(x, op[2])
            elif kind == "qlinear":
                # ("qlinear", qweight, w_scale, bias, a_scale): the
                # quantized GEMM dequantizes into the planned float32
                # buffer; bias and tail stay float32.
                out = self._buffer(ctx, (key, i), (x.shape[0], op[1].shape[1]))
                x = backend.qmatmul(x, op[1], op[2], op[4], out=out)
                if op[3] is not None:
                    backend.add_bias(x, op[3])
            elif kind == "bias":
                x = backend.add_bias(x, op[1])
            elif kind == "relu":
                x = backend.relu(x)
            else:  # ("bn", mean, inv, gamma, beta) — eval-mode batch norm
                x = x - op[1]
                x *= op[2]
                x *= op[3]
                x += op[4]
        return x

    # -- compilation ---------------------------------------------------------

    def _compile(self):
        graph = self.ngraph.graph
        consumed = set()
        for position, node in enumerate(graph.nodes):
            if node.id in consumed:
                continue
            before = set(consumed)
            if node.kind in MODULE_KINDS:
                kernel = self._compile_module_node(graph, position, node,
                                                   consumed)
            else:
                kernel = self._compile_network_node(graph, node)
            self._kernels.append((f"{node.kind}:{node.id}", kernel))
            # The graph values this kernel covers (a folded chain's
            # links all materialize here) — the planner's position map.
            self._kernel_nodes.append(
                (node.id, *sorted(consumed - before))
            )

    def _compile_module_node(self, graph, position, node, consumed):
        kind = node.kind
        midx = node.attrs["module"]
        if kind == "sample":
            return self._k_sample(node, midx)
        if kind == "search":
            return self._k_search(node, midx)
        if kind == "matmul":
            return self._k_matmul_chain(graph, position, node, midx, consumed)
        if kind == "aggregate":
            return self._k_aggregate(node, midx)
        if kind == "gather":
            return self._k_gather(node, midx)
        if kind == "subtract":
            return self._k_subtract(node, midx)
        if kind == "reduce_max":
            return self._k_reduce_max(node, midx)
        if kind == "epilogue":
            return self._k_epilogue(graph, node, midx)
        raise ValueError(f"kernel runtime cannot compile kind {kind!r}")

    def _compile_network_node(self, graph, node):
        kind = node.kind
        if kind == "coords":
            return self._k_coords(node)
        if kind == "lift":
            return self._k_lift(node)
        if kind == "concat":
            return self._k_concat(node)
        if kind == "head":
            return self._k_head(node)
        if kind == "propagate":
            return self._k_propagate(node)
        if kind == "global_max":
            return self._k_global_max(node)
        if kind == "broadcast":
            return self._k_broadcast(node)
        if kind == "select":
            return self._k_select(node)
        raise ValueError(f"kernel runtime cannot compile kind {kind!r}")

    # -- module-region kernels ----------------------------------------------

    def _centroid_rows(self, ctx, midx):
        """Centroid rows in the flat feature table."""
        return ctx["crows"][midx]

    def _k_sample(self, node, midx):
        module = self.ngraph.refs[midx]
        n_in = node.attrs["n_points"]
        # Sampling is a deterministic function of the static input
        # scale, so the centroid ids are a compile-time constant.
        local = np.asarray(module._sample_centroids(n_in))
        nid = node.id

        def kernel(env, ctx):
            env[nid] = local
            base = (np.arange(ctx["batch"], dtype=np.int64) * n_in)[:, None]
            ctx["crows"][midx] = (local[None, :] + base).reshape(-1)

        return kernel

    def _k_search(self, node, midx):
        attrs = node.attrs
        n_in, k = attrs["n_points"], attrs["k"]
        feature_space = attrs["space"] != "coords"
        in_dim = attrs["dim"]
        signature = attrs["signature"]
        coords_id, feats_id = attrs["coords"], attrs["feats"]
        module = self.ngraph.refs[midx]
        local = np.asarray(module._sample_centroids(n_in))
        nid = node.id

        def kernel(env, ctx):
            if feature_space:
                space = env[feats_id].reshape(ctx["batch"], n_in, in_dim)
            else:
                space = env[coords_id]
            queries = space[:, local]
            indices, _ = neighbor_search(
                space, queries, k, dtype=self._search_dtype(), tag=signature
            )
            base = (np.arange(ctx["batch"], dtype=np.int64) * n_in)
            rows = (indices + base[:, None, None]).reshape(
                ctx["batch"] * indices.shape[1], k
            )
            ctx["rows"][midx] = rows
            env[nid] = rows

        return kernel

    def _k_matmul_chain(self, graph, position, node, midx, consumed):
        """Fold a run of consecutive matmul nodes into one chain kernel.

        A node joins the chain when it is the sole consumer of its
        predecessor, so only the final value is externally visible and
        the intermediates can live entirely in the chain's ping-pong
        buffers.
        """
        chain = [node]
        nodes = graph.nodes
        for follower in nodes[position + 1:]:
            if (follower.kind == "matmul"
                    and follower.attrs.get("module") == midx
                    and follower.inputs == (chain[-1].id,)
                    and len(graph.consumers(chain[-1].id)) == 1):
                chain.append(follower)
            else:
                break
        consumed.update(n.id for n in chain[1:])
        specs = []
        for link in chain:
            weight_only = bool(link.attrs.get("weight_only"))
            ops = self.table.module_segment(
                midx, link.attrs["layer"], weight_only=weight_only,
            )
            site = ("module", midx, link.attrs["layer"],
                    "weight_only" if weight_only else "full")
            specs.append((link.id, ops, site))
        source = chain[0].inputs[0]
        last = chain[-1].id

        def kernel(env, ctx):
            x = env[source]
            for link_id, ops, site in specs:
                x = self._apply_ops(ops, x, ctx, ("mm", link_id), site)
            env[last] = x

        return kernel

    def _k_aggregate(self, node, midx):
        """Gather → [reduce-max →] subtract, one NIT-driven pass.

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
        source = node.inputs[0]
        nid = node.id
        backend = self.backend

        def kernel(env, ctx):
            src = env[source]
            rows = ctx["rows"][midx]
            crows = self._centroid_rows(ctx, midx)
            n_rows = rows.shape[0]
            if reduce:
                out = self._buffer(ctx, ("agg-o", nid), (n_rows, dim))
                n_out = n_rows // ctx["batch"]
                step = ctx["batch"] * (
                    n_out if n_out <= 8 else max(8, -(-n_out // 8)))
                gbuf = self._buffer(ctx, ("agg-gc", nid), (step, k, dim))
                rbuf = self._buffer(ctx, ("agg-rc", nid), (step, dim))
                for start in range(0, n_rows, step):
                    stop = min(start + step, n_rows)
                    c = stop - start
                    block = np.take(src, rows[start:stop], axis=0,
                                    out=gbuf[:c])
                    reduced = backend.reduce_max(block, axis=1,
                                                 out=rbuf[:c])
                    backend.subtract(reduced, src[crows[start:stop]],
                                     out=out[start:stop])
                env[nid] = out
            else:
                gathered = np.take(
                    src, rows, axis=0,
                    out=self._buffer(ctx, ("agg-g", nid), (n_rows, k, dim)),
                )
                centroids = src[crows].reshape(n_rows, 1, dim)
                backend.subtract(gathered, centroids, out=gathered)
                env[nid] = gathered.reshape(n_rows * k, dim)

        return kernel

    def _k_gather(self, node, midx):
        source, nid = node.inputs[0], node.id
        k = node.attrs["k"]
        dim = node.attrs["feature_dim"]

        def kernel(env, ctx):
            rows = ctx["rows"][midx]
            env[nid] = np.take(
                env[source], rows, axis=0,
                out=self._buffer(ctx, ("gth", nid), (rows.shape[0], k, dim)),
            )

        return kernel

    def _k_subtract(self, node, midx):
        pre = node.attrs["mode"] == "pre"
        nid = node.id
        backend = self.backend
        a, b = node.inputs[0], node.inputs[1]

        def kernel(env, ctx):
            crows = self._centroid_rows(ctx, midx)
            source = env[b]
            if pre:
                gathered = env[a]
                n_rows, k, dim = gathered.shape
                centroids = source[crows].reshape(n_rows, 1, dim)
                out = backend.subtract(
                    gathered, centroids,
                    out=self._buffer(ctx, ("sub", nid), gathered.shape),
                )
                env[nid] = out.reshape(n_rows * k, dim)
            else:
                reduced = env[a]
                env[nid] = backend.subtract(
                    reduced, source[crows],
                    out=self._buffer(ctx, ("sub", nid), reduced.shape),
                )

        return kernel

    def _k_reduce_max(self, node, midx):
        source, nid = node.inputs[0], node.id
        backend = self.backend

        def kernel(env, ctx):
            # Un-fused original/limited path: rows*k flat rows (or a
            # gather's block) back to (rows, k, dim) before the
            # neighborhood reduction.
            k = ctx["rows"][midx].shape[1]
            x = env[source]
            x = x.reshape(-1, k, x.shape[-1])
            env[nid] = backend.reduce_max(
                x, axis=1,
                out=self._buffer(ctx, ("max", nid), (x.shape[0], x.shape[2])),
            )

        return kernel

    def _k_epilogue(self, graph, node, midx):
        layer = node.attrs["layer"]
        ops = self.table.module_segment(midx, layer, epilogue=True)
        source, nid = node.inputs[0], node.id
        site = ("module", midx, layer, "epilogue")
        # The epilogue runs in place; copy first unless it is the sole
        # consumer of its input.
        shared = len(graph.consumers(source)) > 1

        def kernel(env, ctx):
            x = env[source]
            if shared:
                x = x.copy()
            env[nid] = self._apply_ops(ops, x, ctx, ("epi", nid), site)

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

        def kernel(env, ctx):
            parts = [env[i] for i in sources]
            shape = list(parts[0].shape)
            shape[axis] = sum(p.shape[axis] for p in parts)
            env[nid] = np.concatenate(
                parts, axis=axis, out=self._buffer(ctx, ("cat", nid), shape)
            )

        return kernel

    def _k_head(self, node):
        ref = node.attrs["ref"]
        stages = self._stages(ref)
        source, nid = node.inputs[0], node.id

        def kernel(env, ctx):
            x = env[source]
            for si, ops in enumerate(stages):
                x = self._apply_ops(ops, x, ctx, ("head", nid, si),
                                    ("ref", ref, si))
            env[nid] = x

        return kernel

    def _k_propagate(self, node):
        ref = node.attrs["ref"]
        fp = self.ngraph.refs[ref]
        stages = self._stages(ref)
        cap = fp.K
        fine_c, fine_f, coarse_c, coarse_f = node.inputs
        nid = node.id
        backend = self.backend

        def kernel(env, ctx):
            fine_coords = env[fine_c]
            coarse_coords = env[coarse_c]
            coarse_feats = env[coarse_f]
            n_coarse = coarse_coords.shape[1]
            k = min(cap, n_coarse)
            # Unlike module searches (index-only: neighbor order washes
            # out in the max-reduction), interpolation consumes the
            # *distances* — inverse-distance weights shift whenever a
            # float32 search reorders near-tied coarse neighbors.  Keep
            # propagation searches at the context default (float64)
            # so the float32 backend stays within its logit tolerance.
            idx, dist = neighbor_search(coarse_coords, fine_coords, k)
            weights = 1.0 / np.maximum(dist, 1e-8)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            weights = weights.astype(backend.dtype, copy=False)
            batch, n_fine = fine_coords.shape[0], fine_coords.shape[1]
            base = (np.arange(batch, dtype=np.int64)
                    * n_coarse)[:, None, None]
            idx = (idx + base).reshape(batch * n_fine, k)
            weights = weights.reshape(batch * n_fine, k)
            gathered = coarse_feats[idx]
            x = (gathered * weights[:, :, None]).sum(axis=1)
            x = np.concatenate([env[fine_f], x], axis=1)
            for si, ops in enumerate(stages):
                x = self._apply_ops(ops, x, ctx, ("fp", nid, si),
                                    ("ref", ref, si))
            env[nid] = x

        return kernel

    def _k_global_max(self, node):
        source, nid = node.inputs[0], node.id
        backend = self.backend

        def kernel(env, ctx):
            x = env[source]
            nclouds = ctx["batch"]
            rows = x.shape[0] // nclouds
            env[nid] = backend.reduce_max(
                x.reshape(nclouds, rows, x.shape[1]), axis=1,
                out=self._buffer(ctx, ("gm", nid), (nclouds, x.shape[1])),
            )

        return kernel

    def _k_broadcast(self, node):
        source, nid = node.inputs[0], node.id
        rows = node.attrs["rows"]

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

    def _plan_at(self, height):
        """The per-cloud plan scaled to ``height`` clouds (memoised)."""
        with self._plans_lock:
            plan = self._plans.get(height)
            if plan is None:
                plan = self._plans[height] = validate_plan(plan_arena(
                    at_height(self.per_cloud_plan.buffers, height),
                    self._liveness), self._liveness)
            return plan

    def seed_plan(self, plan, measured=False):
        """Install a per-cloud plan: a stored one (the AOT program-cache
        path), or the one a first run just ``measured``."""
        with self._plans_lock:
            self._measuring_runs += measured
            if self.per_cloud_plan is None:  # two threads may both measure
                self.per_cloud_plan = plan

    def _allocator(self, height):
        """``(pool, measuring)`` for a run over ``height`` clouds;
        ``measuring`` is ``pool`` when this run measures, else ``None``."""
        local = self._local
        pool = getattr(local, "pool", None)
        if not self.plan_memory:
            if pool is None:
                pool = local.pool = _DictPool(self.backend)
            return pool, None
        if self.per_cloud_plan is None:
            measuring = _MeasuringPool(self.backend, height)
            return measuring, measuring
        if pool is None:
            pool = local.pool = _ArenaPool(self)
        pool.bind(height, self._plan_at(height))
        return pool, None

    def run(self, coords, on_kernel=None):
        """Execute the program over a ``(batch, n, 3)`` stack of clouds.

        Returns the network outputs as inference :class:`~repro.neural.Tensor`
        values (a dict for multi-output networks), matching the network
        executors' contract.  Output arrays are fresh copies — scratch
        buffers never escape a run.

        With memory planning on (the default) the program's first run
        measures buffer lifetimes and installs the per-cloud plan; every
        later run, at any stack height and on any thread, executes out
        of the calling thread's arena, bit-identically.  ``on_kernel(pos,
        label, env, ctx)``, when given, is invoked after each kernel —
        the hook the aliasing tests use to corrupt dead arena regions
        mid-run.
        """
        from ..neural import Tensor

        coords = self.backend.asarray(np.asarray(coords))
        if coords.ndim != 3:
            raise ValueError(
                "kernel programs take stacks only: expected (batch, n, 3) "
                f"coords, got {coords.shape} — lift one cloud with "
                "cloud[None]"
            )
        alloc, measuring = self._allocator(coords.shape[0])
        ctx = {
            "coords": coords,
            "batch": coords.shape[0],
            "rows": {},
            "crows": {},
            "alloc": alloc,
            "pos": 0,
        }
        # A hook exposing an ``observe`` method (the quantization
        # CalibrationRecorder) additionally sees every linear segment's
        # (site, input) — folded chain intermediates included.
        observe = getattr(on_kernel, "observe", None)
        if observe is not None:
            ctx["observe"] = observe
        env = {}
        seen = set()
        for pos, (label, kernel) in enumerate(self._kernels):
            ctx["pos"] = pos
            kernel(env, ctx)
            if measuring is not None:
                # Map freshly-produced values onto the buffers backing
                # them — in-place epilogues and reshape escapes extend
                # buffer liveness past the defining kernel.
                fresh = [(nid, env[nid]) for nid in env.keys() - seen]
                record_aliases(measuring.records, fresh)
                seen.update(env.keys())
            if on_kernel is not None:
                on_kernel(pos, label, env, ctx)
        if measuring is not None:
            self.seed_plan(validate_plan(
                plan_arena(measuring.records, self._liveness)), measured=True)
            self._plan_at(ctx["batch"])  # memory_stats() reports this height
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

    def plan_for(self, coords, height=None):
        """The arena plan for ``height`` clouds (default: ``coords``' own).

        Scaled from the per-cloud plan; a program that has neither run
        nor been seeded runs ``coords`` once to measure it.
        """
        if not self.plan_memory:
            raise ValueError("memory planning is disabled on this program")
        if self.per_cloud_plan is None:
            self.run(coords)
        return self._plan_at(len(coords) if height is None else int(height))

    def memory_stats(self):
        """Planner statistics, sized by the tallest height planned so far.

        ``measuring_runs`` is one unless the plan was seeded (or two
        threads raced to be first); ``unplanned`` counts scratch requests
        the plan did not describe — zero unless the planner is wrong.
        """
        if not self.plan_memory:
            pool = getattr(self._local, "pool", None)
            return {
                "planned": False,
                "pool_bytes": 0 if pool is None else pool.nbytes(),
            }
        with self._plans_lock:
            heights = tuple(sorted(self._plans))
            tallest = self._plans[heights[-1]] if heights \
                else ArenaPlan(0, (), 0, 0)
            return {
                "planned": True,
                "heights": heights,
                "buffers": len((self.per_cloud_plan or tallest).buffers),
                "arena_bytes": tallest.total_bytes,
                "pool_bytes": tallest.pool_bytes,
                "peak_live_bytes": tallest.peak_live_bytes,
                "measuring_runs": self._measuring_runs,
                "unplanned": self._unplanned,
            }

    def memory_report(self, coords):
        """Per-phase peaks before/after planning, plus the arena plan.

        ``repro trace --memory`` prints this: *before* is the
        cumulative per-kernel pool (PR 5 never frees, so bytes only
        grow), *after* the planned live bytes at each kernel, both
        bucketed by the executing node's phase.
        """
        plan = self.plan_for(coords)
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

    def module_working_sets(self, plan):
        """Peak planned live bytes per module region under ``plan``.

        Buckets the arena plan's per-position live bytes by the
        executing kernel's network module (the graph node's ``module``
        attr; head/aggregation kernels outside any module bucket under
        ``"head"``) and keeps each bucket's maximum — the memory a
        worker slot must actually provision for that region of the
        network.  The placement planner bin-packs replicas against the
        sum of these peaks plus the packed parameter table
        (:attr:`table`), which is the other resident component of a
        replica's working set.
        """
        module_of = {
            node.id: node.attrs.get("module")
            for node in self.ngraph.graph.nodes
        }
        regions = {}
        for pos in range(len(self._kernels)):
            midx = module_of.get(self._liveness.lead_node[pos])
            label = "head" if midx is None else f"module{midx}"
            regions[label] = max(regions.get(label, 0),
                                 plan.live_bytes_at(pos))
        return regions

    @property
    def kernel_labels(self):
        """The compiled kernel labels, in execution order."""
        return tuple(label for label, _ in self._kernels)


def compile_kernel_program(network, strategy="delayed", backend="float64",
                           batched=True, params=None, plan_memory=True):
    """Compile ``network`` under ``strategy`` into a :class:`KernelProgram`.

    The network's whole-network graph (memoized on the instance) is
    lowered against ``backend`` (a name, dtype or
    :class:`~repro.backend.array.ArrayBackend`).  ``batched`` is read by
    nothing: programs have one arity (a cloud is a stack of one), and
    the keyword is accepted only because ``benchmarks/ledger/layers.py``
    — which a non-benchmark change may not edit — still passes it; it
    goes with ROADMAP item 5(c).  ``params`` supplies a pre-built
    :class:`~repro.backend.params.ParameterTable` (e.g. one attached
    zero-copy from the program cache or a shared file) instead of
    exporting the network's weights; ``plan_memory=False`` restores
    the per-kernel buffer pool.
    """
    return KernelProgram(network.network_graph(strategy), network,
                         get_backend(backend), params=params,
                         plan_memory=plan_memory)


class NetworkKernelExecutor:
    """Kernel-runtime executor behind the standard ``run_network`` API.

    Drop-in wherever the graph executors plug in —
    ``network.forward(cloud, executor=NetworkKernelExecutor("float32"))``
    — and the serving entry point the engine's ``backend=`` parameters
    construct.  One program per graph is compiled lazily and cached on
    the executor — it serves every stack height, one included;
    thread-local scratch keeps one executor safe to share across an
    async pipeline or a fleet of shard replicas.
    """

    def __init__(self, backend="float64", params=None, program_cache=None,
                 plan_memory=True):
        self.backend = get_backend(backend)
        #: Optional pre-built (possibly zero-copy-attached) parameter
        #: table every compiled program reads through — the pool-worker
        #: path, where weights arrive via a mapped file instead of
        #: re-export.
        self.params = params
        #: Optional :class:`~repro.backend.aot.ProgramCache` (opened here
        #: when given as its directory, as the CLI does); programs load
        #: from (and first-compiles persist to) it.
        if program_cache is not None and not hasattr(program_cache,
                                                     "program_for"):
            from .aot import ProgramCache  # which imports this module

            program_cache = ProgramCache(program_cache)
        self.program_cache = program_cache
        self.plan_memory = bool(plan_memory)
        self._programs = {}

    def program(self, ngraph, network):
        """The compiled program for ``ngraph``."""
        key = id(ngraph)
        entry = self._programs.get(key)
        if entry is None or entry[0] is not ngraph:
            if self.program_cache is not None:
                program = self.program_cache.program_for(
                    ngraph, network, self.backend,
                    params=self.params, plan_memory=self.plan_memory,
                )
            else:
                program = KernelProgram(ngraph, network, self.backend,
                                        params=self.params,
                                        plan_memory=self.plan_memory)
            entry = (ngraph, program)
            self._programs[key] = entry
        return entry[1]

    def run_network(self, ngraph, network, coords):
        """Execute ``ngraph`` over a ``(B, n, 3)`` stack of clouds."""
        return self.program(ngraph, network).run(coords)
