"""Engine throughput benchmark: single vs batched vs cached.

``repro bench`` runs this suite and writes ``BENCH_engine.json`` so CI
can track the perf trajectory PR over PR.  Every row compares the
engine's batched/cached path against the per-cloud loop the
repository used before the engine existed (default-precision
:func:`knn_brute_force` calls, single-cloud network forwards).
"""

from __future__ import annotations

import json
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..neighbors import ball_query, knn_brute_force, raw_knn
from ..networks import build_network
from ..neural import no_grad
from .cache import NeighborIndexCache
from .runner import BatchRunner

__all__ = ["bench_mem", "bench_meta", "bench_quant", "run_benchmarks",
           "validate_row", "write_json"]


def bench_meta(quick=False):
    """The environment block every bench JSON leads with, so
    ``BENCH_*.json`` files stay comparable across runners.  Serving
    latency is not a bench row: ``benchmarks/ledger/README.md``
    measures it through the real ``repro serve`` process.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
    }


def _best_ms(fn, repeats):
    """Best-of-``repeats`` wall time in milliseconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _reference_knn_cloud(points, queries, k):
    """The pre-engine per-cloud KNN: full float64 distance matrix + top-K.

    Kept verbatim as the serving baseline the engine is measured
    against (this is what every forward pass paid before this PR).
    """
    from ..neighbors import pairwise_squared_distances

    d = pairwise_squared_distances(queries, points)
    part = np.argpartition(d, k - 1, axis=1)[:, :k]
    part_d = np.take_along_axis(d, part, axis=1)
    order = np.argsort(part_d, axis=1, kind="stable")
    indices = np.take_along_axis(part, order, axis=1)
    return indices, np.sqrt(np.take_along_axis(part_d, order, axis=1))


def _reference_ball_cloud(points, queries, radius, max_samples):
    """The pre-engine ball query: a Python loop over query rows."""
    from ..neighbors import pairwise_squared_distances

    d = pairwise_squared_distances(queries, points)
    r_sq = radius * radius
    indices = np.empty((d.shape[0], max_samples), dtype=np.int64)
    counts = np.empty(d.shape[0], dtype=np.int64)
    for row in range(d.shape[0]):
        hits = np.nonzero(d[row] <= r_sq)[0]
        if len(hits) == 0:
            hits = np.array([int(np.argmin(d[row]))])
        kept = hits[:max_samples]
        counts[row] = len(kept)
        if len(kept) < max_samples:
            kept = np.concatenate(
                [kept, np.full(max_samples - len(kept), kept[0])]
            )
        indices[row] = kept
    return indices, counts


def _threaded_knn(clouds, queries, k, dtype, workers):
    chunks = [c for c in np.array_split(np.arange(len(clouds)), workers) if len(c)]

    def one(chunk):
        return knn_brute_force(clouds[chunk], queries[chunk], k, dtype=dtype)

    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(one, chunks))
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def bench_knn(batch=16, n_points=1024, k=16, repeats=3, seed=0):
    """Brute-force KNN: per-cloud loop vs batched kernel vs warm cache."""
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(batch, n_points, 3)).astype(np.float32)
    workers = os.cpu_count() or 1

    loop_ms = _best_ms(
        lambda: [
            _reference_knn_cloud(clouds[b], clouds[b], k) for b in range(batch)
        ],
        repeats,
    )
    current_loop_ms = _best_ms(
        lambda: [knn_brute_force(clouds[b], clouds[b], k) for b in range(batch)],
        repeats,
    )
    batched_ms = _best_ms(
        lambda: knn_brute_force(clouds, clouds, k, dtype=np.float32), repeats
    )
    result = {
        "workload": {
            "batch": batch,
            "n_points": n_points,
            "k": k,
            "queries_per_cloud": n_points,
        },
        "cpu_count": workers,
        "baseline": "pre-engine per-cloud loop (full float64 distance matrix)",
        "per_cloud_loop_ms": loop_ms,
        "current_kernel_loop_ms": current_loop_ms,
        "batched_ms": batched_ms,
    }
    best_batched = batched_ms
    if workers > 1:
        threaded_ms = _best_ms(
            lambda: _threaded_knn(clouds, clouds, k, np.float32, workers), repeats
        )
        result["batched_threaded_ms"] = threaded_ms
        best_batched = min(best_batched, threaded_ms)

    cache = NeighborIndexCache(maxsize=2 * batch)
    cache.knn(clouds, clouds, k, dtype=np.float32)  # warm
    cached_ms = _best_ms(
        lambda: cache.knn(clouds, clouds, k, dtype=np.float32), repeats
    )
    result["cached_warm_ms"] = cached_ms
    result["speedup_batched"] = loop_ms / best_batched
    result["speedup_cached"] = loop_ms / cached_ms
    return result


def bench_ball(batch=16, n_points=1024, radius=0.5, max_samples=32, repeats=3,
               seed=0):
    """Ball query: per-cloud loop vs the batched vectorized kernel."""
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(batch, n_points, 3)).astype(np.float32)
    loop_ms = _best_ms(
        lambda: [
            _reference_ball_cloud(clouds[b], clouds[b], radius, max_samples)
            for b in range(batch)
        ],
        repeats,
    )
    batched_ms = _best_ms(
        lambda: ball_query(clouds, clouds, radius, max_samples, dtype=np.float32),
        repeats,
    )
    return {
        "workload": {
            "batch": batch,
            "n_points": n_points,
            "radius": radius,
            "max_samples": max_samples,
        },
        "baseline": "pre-engine per-cloud loop (Python row loop)",
        "per_cloud_loop_ms": loop_ms,
        "batched_ms": batched_ms,
        "speedup_batched": loop_ms / batched_ms,
    }


def bench_forward(network="PointNet++ (c)", batch=16, scale=0.125,
                  strategy="delayed", repeats=2, seed=0):
    """Network forward: sequential loop vs batched engine vs warm cache."""
    net = build_network(network, scale=scale)
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(batch, net.n_points, 3))

    runner = BatchRunner(net, strategy=strategy)
    sequential_ms = _best_ms(lambda: runner.run_sequential(clouds), repeats)
    batched_ms = _best_ms(lambda: runner.run(clouds), repeats)

    cached_runner = BatchRunner(
        net, strategy=strategy, cache=NeighborIndexCache(maxsize=512)
    )
    cached_runner.run(clouds)  # warm the neighbor-index cache
    cached_ms = _best_ms(lambda: cached_runner.run(clouds), repeats)

    return {
        "workload": {
            "network": network,
            "strategy": strategy,
            "batch": batch,
            "n_points": net.n_points,
            "scale": scale,
        },
        "baseline": "sequential per-cloud forward loop",
        "sequential_ms": sequential_ms,
        "batched_ms": batched_ms,
        "batched_cached_ms": cached_ms,
        "speedup_batched": sequential_ms / batched_ms,
        "speedup_cached": sequential_ms / cached_ms,
        "cache_stats": cached_runner.cache.stats(),
    }


def _output_leaves(reference, other):
    """Yield (reference, other) array pairs across an output structure.

    The single traversal every output comparison in this module goes
    through; a missing dict key or truncated list is a structure
    mismatch and raises rather than silently comparing a subset.
    """
    if isinstance(reference, dict):
        if set(reference) != set(other):
            raise ValueError("output structures disagree (dict keys)")
        for key in reference:
            yield from _output_leaves(reference[key], other[key])
    elif isinstance(reference, (list, tuple)):
        if len(reference) != len(other):
            raise ValueError("output structures disagree (lengths)")
        for a, b in zip(reference, other):
            yield from _output_leaves(a, b)
    else:
        yield (
            np.asarray(reference.data if hasattr(reference, "data")
                       else reference),
            np.asarray(other.data if hasattr(other, "data") else other),
        )


def _outputs_equal(left, right):
    """Exact equality across the output shapes the networks return."""
    try:
        return all(np.array_equal(a, b) for a, b in _output_leaves(left, right))
    except ValueError:
        return False


def bench_netgraph(network="PointNet++ (c)", batch=8, scale=0.25,
                   strategy="delayed", repeats=2, seed=0):
    """Whole-network graph execution vs per-module composition.

    Every cloud through ``forward`` (the graph executor over a stack of
    one) vs the same modules composed through
    :meth:`~repro.core.module.PointCloudModule.forward_batch` (the
    pre-network-graph path, kept as ``forward_composed``).  Alongside
    the timings the row records the *static* overlap story CI gates on
    deterministically: the whole-network schedule must expose at least
    one cross-module overlap step and at least as many overlap steps as
    the per-module schedules combined — and both execution paths must
    agree bit-exactly.
    """
    from ..graph import module_graph, schedule_graph

    net = build_network(network, scale=scale)
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(batch, net.n_points, 3))

    ngraph = net.network_graph(strategy)
    network_schedule = ngraph.schedule()
    module_overlap = sum(
        len(schedule_graph(module_graph(m.spec, strategy)).overlap_steps())
        for m in net.encoder
    )

    with no_grad():
        graph_out = [net.forward(c, strategy=strategy) for c in clouds]
        composed_out = [net.forward_composed(c, strategy=strategy)
                        for c in clouds]
    exact = all(
        _outputs_equal(a, b) for a, b in zip(graph_out, composed_out)
    )

    def composed_loop():
        with no_grad():
            for cloud in clouds:
                net.forward_composed(cloud, strategy=strategy)

    def graph_loop():
        with no_grad():
            for cloud in clouds:
                net.forward(cloud, strategy=strategy)

    composed_ms = eager_ms = float("inf")
    for _ in range(max(1, repeats) * 2):
        composed_ms = min(composed_ms, _best_ms(composed_loop, 1))
        eager_ms = min(eager_ms, _best_ms(graph_loop, 1))

    return {
        "workload": {
            "network": network,
            "strategy": strategy,
            "batch": batch,
            "n_points": net.n_points,
            "scale": scale,
        },
        "baseline": "per-module composition (PointCloudModule.forward chain)",
        "graph_nodes": ngraph.node_count,
        "module_regions": len(ngraph.regions),
        "network_overlap_steps": len(network_schedule.overlap_steps()),
        "cross_module_overlap_steps": len(
            network_schedule.cross_module_overlap_steps()
        ),
        "module_overlap_steps": module_overlap,
        "composed_ms": composed_ms,
        "netgraph_ms": eager_ms,
        "overhead_ratio": eager_ms / composed_ms,
        "bit_exact": bool(exact),
    }


def _max_rel_err(reference, other):
    """Largest |other - reference| relative to each output's max magnitude.

    Non-finite deviations (NaN/inf in either side) and deviations from
    an all-zero reference report ``inf``, never a passable number — a
    numerically broken backend must not slip through a ``<= tol`` gate.
    """
    worst = 0.0
    for a, b in _output_leaves(reference, other):
        diff = np.abs(np.asarray(b, dtype=np.float64) - a).max()
        if not np.isfinite(diff):
            return float("inf")
        scale = np.abs(a).max()
        if scale == 0.0:
            if diff != 0.0:
                return float("inf")
            continue
        worst = max(worst, float(diff / scale))
    return worst


def _argmax_equal(reference, other):
    """Whether top-1 predictions agree across the output structure."""
    return all(
        np.array_equal(a.argmax(axis=-1), b.argmax(axis=-1))
        for a, b in _output_leaves(reference, other)
    )


def bench_backend(network="PointNet++ (c)", batch=16, scale=0.125,
                  strategy="delayed", repeats=3, seed=0, fast="float32"):
    """Kernel runtime (float64 reference + BLAS fast path) vs eager.

    Serial: a per-cloud loop through the single-cloud programs vs the
    eager network-graph executor.  Batched: :class:`BatchRunner` with
    ``backend=`` vs the batched graph interpreter, over the same
    stack.  Alongside the timings the row records the correctness
    story CI gates on: the float64 programs must match the autograd
    executors bit-exactly, and the fast backend must stay within 1e-4
    relative logit error with identical top-1 predictions.
    """
    from ..backend import NetworkKernelExecutor, get_backend

    fast = get_backend(fast)
    net = build_network(network, scale=scale)
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(batch, net.n_points, 3))

    eager_runner = BatchRunner(net, strategy=strategy)
    k64_runner = BatchRunner(net, strategy=strategy, backend="float64")
    fast_runner = BatchRunner(net, strategy=strategy, backend=fast)

    ngraph = net.network_graph(strategy)
    k64 = NetworkKernelExecutor("float64")
    kfast = NetworkKernelExecutor(fast)

    def serial_eager():
        with no_grad():
            return [net.forward(c, strategy=strategy) for c in clouds]

    def serial_kernel(executor):
        with no_grad():
            return [net.forward(c, strategy=strategy, executor=executor)
                    for c in clouds]

    # Correctness first: the timings below re-run the same programs.
    eager_batched = eager_runner.run(clouds)
    k64_batched = k64_runner.run(clouds)
    fast_batched = fast_runner.run(clouds)
    exact = _outputs_equal(k64_batched.outputs, eager_batched.outputs) and all(
        _outputs_equal(a, b)
        for a, b in zip(serial_kernel(k64), serial_eager())
    )
    fast_rel = _max_rel_err(eager_batched.outputs, fast_batched.outputs)
    fast_argmax = _argmax_equal(eager_batched.outputs, fast_batched.outputs)

    # Interleave the measurements so clock drift hits all sides equally.
    eager_serial_ms = kernel_serial_ms = fast_serial_ms = float("inf")
    eager_ms = kernel_ms = fast_ms = float("inf")
    for _ in range(max(1, repeats)):
        eager_serial_ms = min(eager_serial_ms, _best_ms(serial_eager, 1))
        kernel_serial_ms = min(kernel_serial_ms,
                               _best_ms(lambda: serial_kernel(k64), 1))
        fast_serial_ms = min(fast_serial_ms,
                             _best_ms(lambda: serial_kernel(kfast), 1))
        eager_ms = min(eager_ms, _best_ms(lambda: eager_runner.run(clouds), 1))
        kernel_ms = min(kernel_ms, _best_ms(lambda: k64_runner.run(clouds), 1))
        fast_ms = min(fast_ms, _best_ms(lambda: fast_runner.run(clouds), 1))

    return {
        "workload": {
            "network": network,
            "strategy": strategy,
            "batch": batch,
            "n_points": net.n_points,
            "scale": scale,
        },
        "baseline": "autograd graph executors (eager serial + batched)",
        "fast_backend": fast.name,
        "graph_nodes": ngraph.node_count,
        "eager_serial_ms": eager_serial_ms,
        "eager_batched_ms": eager_ms,
        "kernel64_serial_ms": kernel_serial_ms,
        "kernel64_batched_ms": kernel_ms,
        "kernel_fast_serial_ms": fast_serial_ms,
        "kernel_fast_batched_ms": fast_ms,
        "speedup_kernel64_serial": eager_serial_ms / kernel_serial_ms,
        "speedup_kernel64_batched": eager_ms / kernel_ms,
        "speedup_fast_serial": eager_serial_ms / fast_serial_ms,
        "speedup_fast_batched": eager_ms / fast_ms,
        "bit_exact_float64": bool(exact),
        "fast_max_rel_err": fast_rel,
        "fast_argmax_equal": bool(fast_argmax),
    }


def _top1_fraction(reference, other):
    """Fraction of per-sample top-1 predictions that agree."""
    agree = total = 0
    for a, b in _output_leaves(reference, other):
        flat_a = a.reshape(-1, a.shape[-1])
        flat_b = np.asarray(b).reshape(-1, b.shape[-1])
        agree += int((flat_a.argmax(-1) == flat_b.argmax(-1)).sum())
        total += flat_a.shape[0]
    return agree / total if total else 1.0


def bench_quant(network="PointNet++ (c)", scale=0.125, repeats=2, seed=0,
                epochs=3, quick=False):
    """Int8 quantized backend vs the float64 reference, on trained weights.

    Top-1 preservation under quantization is a statement about decisive
    predictions, so the workload mirrors the paper's Fig 16 protocol at
    toy scale: train the network briefly on the deterministic synthetic
    classification set, calibrate activation scales on the training
    clouds, then compare the int8 and float64 kernel programs on every
    cloud (train + held-out) under all three strategies.  Alongside the
    timings the row records the three stories CI gates on exactly:
    per-strategy top-1 agreement (≥ 99% on every workload), the packed
    int8 blob's size relative to the float64 blob (≤ 30%), and
    calibration determinism (two same-seed runs must serialize to
    byte-identical scale tables).
    """
    from ..backend import ParameterTable, calibrate_scales, get_backend
    from ..backend.quant import Int8Backend
    from ..data import SyntheticModelNet
    from ..networks import train_classifier

    if quick:
        epochs = min(epochs, 2)
        repeats = 1
    dataset = SyntheticModelNet(num_classes=4, n_points=256,
                                train_per_class=8,
                                test_per_class=8 if quick else 24,
                                seed=seed, rotate=False)
    net = build_network(network, num_classes=4, scale=scale,
                        rng=np.random.default_rng(seed))
    n = net.n_points
    train_clouds = dataset.train_clouds[:, :n]
    result = train_classifier(net, train_clouds, dataset.train_labels,
                              epochs=epochs, lr=1e-3, strategy="delayed",
                              seed=1)
    net.eval()
    eval_clouds = np.concatenate([train_clouds,
                                  dataset.test_clouds[:, :n]])

    b64 = get_backend("float64")
    per_strategy = {}
    packed64 = packed8 = None
    int8_ms = float64_ms = float("inf")
    for strategy in ("original", "delayed", "limited"):
        scales = calibrate_scales(net, strategy, clouds=train_clouds)
        b8 = Int8Backend(scales=scales)
        ref_runner = BatchRunner(net, strategy=strategy, backend=b64)
        q_runner = BatchRunner(net, strategy=strategy, backend=b8)
        reference = ref_runner.run(eval_clouds).outputs
        quantized = q_runner.run(eval_clouds).outputs
        per_strategy[strategy] = {
            "top1_agreement": _top1_fraction(reference, quantized),
            "max_rel_err": _max_rel_err(reference, quantized),
            "scale_table_hash": scales.content_hash,
        }
        if strategy == "delayed":
            ngraph = net.network_graph(strategy)
            packed64 = len(ParameterTable.for_graph(
                ngraph, b64, network=net).pack()[1])
            packed8 = len(ParameterTable.for_graph(
                ngraph, b8, network=net).pack()[1])
            for _ in range(max(1, repeats)):
                float64_ms = min(float64_ms, _best_ms(
                    lambda: ref_runner.run(eval_clouds), 1))
                int8_ms = min(int8_ms, _best_ms(
                    lambda: q_runner.run(eval_clouds), 1))
            rerun = calibrate_scales(net, strategy, clouds=train_clouds)
            deterministic = rerun.to_json() == scales.to_json()

    return {
        "workload": {
            "network": network,
            "strategy": "original+delayed+limited",
            "scale": scale,
            "n_points": n,
            "train_clouds": int(train_clouds.shape[0]),
            "eval_clouds": int(eval_clouds.shape[0]),
            "epochs": epochs,
        },
        "baseline": "float64 kernel programs over the same trained weights",
        "final_train_loss": float(result.losses[-1]),
        "per_strategy": per_strategy,
        "min_top1_agreement": min(
            row["top1_agreement"] for row in per_strategy.values()),
        "max_rel_err": max(
            row["max_rel_err"] for row in per_strategy.values()),
        "packed_bytes_float64": packed64,
        "packed_bytes_int8": packed8,
        "packed_bytes_ratio": packed8 / packed64,
        "calibration_deterministic": bool(deterministic),
        "float64_batched_ms": float64_ms,
        "int8_batched_ms": int8_ms,
        "speedup_vs_float64": float64_ms / int8_ms,
    }


def bench_mem(network="PointNet++ (c)", batch=8, scale=0.125,
              strategy="delayed", repeats=2, seed=0):
    """Memory planner + AOT program cache vs the PR 5 runtime.

    Two comparisons over the same batched float64 program:

    * **Arena vs dict pool** — the liveness-planned arena must produce
      bit-identical outputs to the per-kernel buffer pool while its
      peak footprint (arena bytes vs the pool's cumulative high-water
      mark) shrinks by the planner's measured reduction.  Both are
      deterministic, so CI gates them exactly.
    * **AOT cache load** — compiling the program fresh vs loading it
      (packed parameters memmapped, arena plan pre-seeded) from the
      on-disk :class:`~repro.backend.ProgramCache`.
    """
    import tempfile

    from ..backend import ProgramCache, compile_kernel_program

    net = build_network(network, scale=scale)
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(batch, net.n_points, 3))

    planned = compile_kernel_program(net, strategy, backend="float64")
    unplanned = compile_kernel_program(net, strategy, backend="float64",
                                       plan_memory=False)
    planned_out = planned.run(clouds)
    exact = _outputs_equal(planned_out, unplanned.run(clouds))
    plan = planned.plan_for(clouds)

    planned_ms = unplanned_ms = float("inf")
    for _ in range(max(1, repeats)):
        planned_ms = min(planned_ms, _best_ms(lambda: planned.run(clouds), 1))
        unplanned_ms = min(unplanned_ms,
                           _best_ms(lambda: unplanned.run(clouds), 1))

    # AOT cache: fresh compile vs load (memmapped params, seeded plan).
    ngraph = net.network_graph(strategy)
    compile_ms = _best_ms(
        lambda: compile_kernel_program(net, strategy, backend="float64"),
        repeats,
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = ProgramCache(tmp)
        digest = cache.store(planned)
        loaded = cache.load(digest, ngraph, net)
        cache_exact = _outputs_equal(planned_out, loaded.run(clouds))
        load_ms = _best_ms(
            lambda: cache.load(digest, ngraph, net), repeats,
        )

    return {
        "workload": {
            "network": network,
            "strategy": strategy,
            "batch": batch,
            "n_points": net.n_points,
            "scale": scale,
        },
        "baseline": "per-kernel buffer pool + fresh compile",
        "bit_exact": bool(exact),
        "cache_bit_exact": bool(cache_exact),
        "buffers": len(plan.buffers),
        "arena_bytes": plan.total_bytes,
        "pool_bytes": plan.pool_bytes,
        "peak_live_bytes": plan.peak_live_bytes,
        "peak_reduction": plan.reduction,
        "planned_ms": planned_ms,
        "unplanned_ms": unplanned_ms,
        "overhead_ratio": planned_ms / unplanned_ms,
        "compile_ms": compile_ms,
        "cache_load_ms": load_ms,
        "speedup_cache_load": compile_ms / load_ms,
    }


def bench_substrates(n_points=1024, k=16, queries=256, repeats=3, seed=0):
    """One cloud through each substrate behind the common API."""
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=(n_points, 3))
    out = {
        "workload": {"n_points": n_points, "k": k, "queries": queries},
        "baseline": "brute-force kernel behind the common substrate API",
    }
    for substrate in ("brute", "kdtree", "grid"):
        def search(s=substrate):
            return raw_knn(cloud, cloud[:queries], k, substrate=s)

        search()  # untimed: the first kdtree search imports scipy
        out[f"{substrate}_ms"] = _best_ms(search, repeats)
    return out


def run_benchmarks(batch=16, n_points=1024, k=16, network="PointNet++ (c)",
                   scale=0.125, strategy="delayed", repeats=3, quick=False,
                   backend="float32"):
    """Run the full suite; ``quick`` shrinks workloads for CI smoke runs.

    Every row shares the same JSON shape — a ``workload`` dict naming
    the configuration, a ``baseline`` string naming what the row
    measures against, then its timings/speedups — so the
    ``BENCH_engine.json`` trajectory stays machine-comparable PR over
    PR as rows accumulate.  ``backend`` selects the kernel-runtime fast
    path the ``backend`` row measures (the float64 reference is always
    included).
    """
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if not 0 < k <= n_points:
        raise ValueError(f"k must be in [1, n_points={n_points}], got {k}")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if quick:
        batch, n_points, k = min(batch, 4), min(n_points, 256), min(k, 8)
        scale = min(scale, 0.125)
        repeats = 1
    results = {
        "meta": bench_meta(quick),
        "knn": bench_knn(batch=batch, n_points=n_points, k=k, repeats=repeats),
        "ball": bench_ball(batch=batch, n_points=n_points, repeats=repeats),
        "forward": bench_forward(
            network=network,
            batch=batch,
            scale=scale,
            strategy=strategy,
            repeats=max(1, repeats - 1),
        ),
        "netgraph": bench_netgraph(
            network=network,
            batch=max(2, batch // 2),
            scale=scale if quick else max(scale, 0.25),
            strategy=strategy,
            repeats=max(1, repeats - 1),
        ),
        "backend": bench_backend(
            network=network,
            batch=batch,
            scale=scale,
            strategy=strategy,
            repeats=max(1, repeats - 1),
            fast=backend,
        ),
        "quant": bench_quant(
            network=network,
            scale=scale,
            repeats=max(1, repeats - 1),
            quick=quick,
        ),
        "mem": bench_mem(
            network=network,
            batch=max(2, batch // 2),
            scale=scale,
            strategy=strategy,
            repeats=max(1, repeats - 1),
        ),
        "substrates": bench_substrates(
            n_points=n_points, k=k, queries=max(64, n_points // 4),
            repeats=repeats,
        ),
    }
    return results


def _validate_leaves(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(f"bench row key {path}.{key!r} must be a "
                                 "string")
            _validate_leaves(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _validate_leaves(item, f"{path}[{index}]")
    elif isinstance(value, (bool, str)) or value is None:
        return
    elif isinstance(value, (int, float, np.integer, np.floating)):
        if not np.isfinite(value):
            raise ValueError(
                f"bench value {path} is non-finite ({value!r}); CI gates "
                "cannot compare it — record None instead"
            )
    else:
        raise ValueError(
            f"bench value {path} has non-JSON type {type(value).__name__}"
        )


def validate_row(row, name="row"):
    """Validate one bench row against the shared BENCH_*.json schema.

    Every row is a dict leading with a non-empty ``workload`` dict
    (naming the configuration) and a ``baseline`` string (naming what
    the row measures against), and every leaf must be a JSON scalar —
    finite numbers, strings, bools, or None — so the row trajectory
    stays machine-comparable PR over PR and every value can appear in a
    CI gate expression.  Returns the row; raises :class:`ValueError`
    naming the offending path otherwise.
    """
    if not isinstance(row, dict):
        raise ValueError(f"bench row {name!r} must be a dict, got "
                         f"{type(row).__name__}")
    workload = row.get("workload")
    if not isinstance(workload, dict) or not workload:
        raise ValueError(f"bench row {name!r} needs a non-empty 'workload' "
                         "dict naming its configuration")
    baseline = row.get("baseline")
    if not isinstance(baseline, str) or not baseline:
        raise ValueError(f"bench row {name!r} needs a 'baseline' string "
                         "naming what it measures against")
    _validate_leaves(row, name)
    return row


def write_json(results, path):
    """Write a benchmark result dict to ``path`` as sorted, indented JSON.

    Every top-level row except the ``meta`` environment block is
    checked against the shared schema (:func:`validate_row`) first, so
    a malformed row fails the writer instead of silently landing in a
    BENCH_*.json artifact CI gates on.
    """
    for name, row in results.items():
        if name != "meta":
            validate_row(row, name=name)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
