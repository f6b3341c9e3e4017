"""Open-loop arrival-rate harness for the serving frontend.

Closed-loop benchmarks (issue, wait, issue) hide queueing delay: a slow
server slows its own load generator down.  This harness is *open-loop*:
arrival times are drawn up front from a Poisson process at a configured
rate and requests are submitted on that schedule whether or not earlier
ones have finished, so queueing shows up in the latency numbers instead
of disappearing into the generator — and every latency is measured from
the request's *scheduled* arrival, which also immunizes the numbers
against coordinated omission when the generator itself falls behind.

:func:`bench_serve` sweeps a (rate x policy) grid — by default a
no-batching policy (``max_batch=1``, the baseline) against continuous
batching — and reports p50/p99 latency and throughput per cell into
one stable ``serve`` bench row.  Alongside the
timings it records the deterministic correctness story CI gates on:

* every response is bit-exact against a direct
  :class:`~repro.engine.runner.BatchRunner` call on the same clouds —
  replayed with the *same sub-batch composition* the server actually
  formed, because BLAS GEMM results are reproducible for a given stack
  but not across stack heights (the float32 kernel backend is
  additionally gated on top-1 predictions matching a full-batch
  reference; float64 paths get that for free);
* no request ID is dropped or duplicated across the sweep.
"""

from __future__ import annotations

import os
import time
from threading import Thread

import numpy as np

from ..engine.bench import (
    _argmax_equal,
    _best_ms,
    _max_rel_err,
    _outputs_equal,
    bench_meta,
)
from ..engine.runner import BatchRunner
from ..networks import build_network
from .batcher import BatchPolicy
from .queue import QueueFull
from .server import Server

__all__ = ["bench_serve", "bench_shard", "serve_bench_results",
           "shard_bench_results"]


def _default_policies(max_batch, max_queue):
    return (
        ("no_batching", BatchPolicy(max_batch=1, max_queue=max_queue)),
        ("continuous", BatchPolicy(max_batch=max_batch, max_queue=max_queue)),
    )


def _replay(server, clouds, schedule, tenants):
    """Submit requests on ``schedule`` (open loop); collect latencies.

    Returns ``(responses, latencies_ms, rejected, makespan_s)`` where
    latencies are measured from each request's scheduled arrival to its
    completion callback and the makespan spans the first scheduled
    arrival to the last completion.
    """
    futures = {}
    completions = {}
    rejected = []

    t0 = time.perf_counter()

    def on_done(index):
        def callback(_future):
            completions[index] = time.perf_counter()
        return callback

    def generate():
        for i, offset in enumerate(schedule):
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                future = server.submit(
                    clouds[i % len(clouds)],
                    request_id=f"q{i}",
                    tenant=f"t{i % tenants}",
                )
            except QueueFull:
                rejected.append(i)
                continue
            future.add_done_callback(on_done(i))
            futures[i] = future

    generator = Thread(target=generate, name="repro-serve-loadgen")
    generator.start()
    generator.join()

    responses = {i: future.result(timeout=60.0)
                 for i, future in futures.items()}
    latencies = np.array([
        (completions[i] - (t0 + schedule[i])) * 1e3 for i in sorted(futures)
    ])
    makespan = (max(completions.values()) - t0) if completions else 1e-9
    return responses, latencies, rejected, makespan


def bench_serve(network="PointNet++ (c)", scale=0.0625, strategy="delayed",
                backend=None, rates=(30.0, 90.0), requests_per_rate=48,
                distinct_clouds=8, tenants=4, max_batch=8, max_queue=4096,
                workers=1, seed=0, policies=None):
    """Sweep the serving frontend over a (rate x policy) grid.

    Returns one ``serve`` bench row: ``workload`` + ``baseline`` like
    every other row, a ``grid`` of per-(rate, policy) latency/throughput
    cells, the deterministic gates — ``responses_ok`` (bit-exact for
    float64 paths, top-1-identical for float32) and ``ids_ok`` (no
    dropped or duplicated request IDs) — and ``p99_batched_worst_ms``
    (the worst continuous-batching p99).

    ``backend=None`` serves through the batched graph interpreter;
    ``"float64"``/``"float32"`` serve the compiled kernel programs.
    The queue is deliberately deep (``max_queue``) so the open loop
    never sheds load at the benchmarked rates — backpressure behavior
    is pinned by the unit tests, not timed here.
    """
    if len(rates) < 2:
        raise ValueError("serve bench needs at least 2 arrival rates")
    net = build_network(network, scale=scale)
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(distinct_clouds, net.n_points, 3))

    direct = BatchRunner(net, strategy=strategy, backend=backend)
    reference = direct.run(clouds).per_cloud()
    direct_batch_ms = _best_ms(lambda: direct.run(clouds), 2)

    serve_runner = BatchRunner(net, strategy=strategy, backend=backend)
    if policies is None:
        policies = _default_policies(max_batch, max_queue)

    grid = []
    exact = top1 = ids_ok = True
    rel_err = 0.0
    for rate in rates:
        # One schedule per rate, shared by every policy so the policies
        # face identical offered load.
        schedule = np.cumsum(
            rng.exponential(1.0 / rate, size=requests_per_rate)
        )
        for name, policy in policies:
            with Server(serve_runner, policy=policy,
                        workers=workers) as server:
                responses, latencies, rejected, makespan = _replay(
                    server, clouds, schedule, tenants
                )
                stats = server.stats()
            # No request may be dropped or answered twice: every offered
            # ID is either completed or explicitly rejected, exactly once.
            ids = [resp.request_id for resp in responses.values()]
            ids_ok &= len(ids) == len(set(ids))
            ids_ok &= len(responses) + len(rejected) == requests_per_rate
            ids_ok &= all(responses[i].request_id == f"q{i}"
                          for i in responses)
            # Bit-exactness: replay each sub-batch the server actually
            # formed through a direct runner call on the same stack —
            # identical program, identical stack, so any deviation is a
            # serve-pipeline bug (mis-stacked rows, wrong demux, wrong
            # route), never BLAS blocking noise.
            replayed = {}
            for i, resp in responses.items():
                if resp.batch_ids not in replayed:
                    members = [int(rid[1:]) for rid in resp.batch_ids]
                    stack = np.stack(
                        [clouds[m % distinct_clouds] for m in members]
                    )
                    replayed[resp.batch_ids] = dict(zip(
                        resp.batch_ids, direct.run(stack).per_cloud()
                    ))
                same_stack_ref = replayed[resp.batch_ids][resp.request_id]
                exact &= _outputs_equal(same_stack_ref, resp.output)
                # Top-1 agreement vs the full-batch reference: coarse,
                # composition-independent, and the float32 gate.
                ref = reference[i % distinct_clouds]
                top1 &= _argmax_equal(ref, resp.output)
                rel_err = max(rel_err, _max_rel_err(ref, resp.output))
            grid.append({
                "rate_rps": float(rate),
                "policy": name,
                "max_batch": policy.max_batch,
                "offered": requests_per_rate,
                "completed": len(responses),
                "rejected": len(rejected),
                "p50_ms": float(np.percentile(latencies, 50)),
                "p99_ms": float(np.percentile(latencies, 99)),
                "mean_ms": float(latencies.mean()),
                "max_ms": float(latencies.max()),
                "throughput_rps": len(responses) / max(makespan, 1e-9),
                "mean_batch": stats["mean_batch"],
                "batches": stats["batches"],
                "max_queue_depth": stats["max_depth"],
            })

    batched_p99 = [cell["p99_ms"] for cell in grid
                   if cell["policy"] != "no_batching"]
    backend_name = getattr(backend, "name", backend) or "eager-float64"
    fast_path = backend_name in ("float32", "int8")
    return {
        "workload": {
            "network": network,
            "strategy": strategy,
            "scale": scale,
            "n_points": net.n_points,
            "backend": backend_name,
            "requests_per_rate": requests_per_rate,
            "distinct_clouds": distinct_clouds,
            "tenants": tenants,
            "workers": workers,
        },
        "baseline": "direct BatchRunner.run on the same clouds (no queueing)",
        "direct_batch_ms": direct_batch_ms,
        "grid": grid,
        "responses_exact": bool(exact),
        "responses_top1": bool(top1),
        "responses_ok": bool(exact and top1) if fast_path else bool(exact),
        "max_rel_err_vs_full_batch": float(rel_err),
        "ids_ok": bool(ids_ok),
        "p99_batched_worst_ms": float(max(batched_p99)) if batched_p99
        else float("nan"),
    }


def _affinity_hit_rate(mode, network, shards, sequence, clouds, policy,
                       strategy, backend, cache_size, seed):
    """Aggregate neighbor-cache hit rate for one routing mode.

    The sequence is submitted synchronously — one request at a time —
    so the hit/miss counts are deterministic: no concurrent sub-batch
    can compute a cloud's index twice before either install lands.
    """
    from .shard import ShardRouter

    router = ShardRouter.hosting(
        network, shards=shards, strategy=strategy, backend=backend,
        policy=policy, cache_size=cache_size, affinity=mode, seed=seed,
    )
    with router:
        for i, cloud_index in enumerate(sequence):
            router.request(clouds[cloud_index], request_id=f"a{i}",
                           timeout=60.0)
        stats = router.stats()["cache"]
    return stats["hit_rate"]


def bench_shard(network="PointNet++ (c)", scale=0.0625, strategy="delayed",
                backend=None, shard_counts=(1, 2, 4), rate=None,
                requests=64, distinct_clouds=6, tenants=4, max_batch=8,
                max_queue=4096, cache_size=1024, affinity_passes=3, seed=0):
    """Open-loop scaling sweep over shard counts — the ``shard`` row.

    One Poisson schedule (auto-rated to ~3x a single dispatch
    pipeline's batched capacity unless ``rate`` pins it, so the single
    server saturates and extra shards have headroom to show) replays
    against a :class:`~repro.serve.shard.ShardRouter` fleet at each
    shard count; ``shards=1`` is always included as the single-server
    baseline every other cell's ``scaling_vs_single`` divides by.

    Alongside the timings the row records the deterministic gates:

    * every response bit-exact against a direct
      :class:`~repro.engine.runner.BatchRunner` replay of the *same
      formed sub-batch* (identical program and stack, exactly as the
      ``serve`` row checks — sharding must not change a single bit);
    * no request ID dropped or duplicated across the whole sweep;
    * cache-affinity routing's aggregate
      :class:`~repro.engine.cache.NeighborIndexCache` hit rate strictly
      above random routing's on a repeated-cloud workload (submitted
      sequentially so the counter comparison is deterministic).
    """
    shard_counts = tuple(sorted(set(int(s) for s in shard_counts) | {1}))
    if min(shard_counts) < 1:
        raise ValueError("shard counts must be positive")
    net = build_network(network, scale=scale)
    rng = np.random.default_rng(seed)
    clouds = rng.normal(size=(distinct_clouds, net.n_points, 3))

    direct = BatchRunner(net, strategy=strategy, backend=backend)
    reference = direct.run(clouds).per_cloud()
    stack = np.stack([clouds[i % distinct_clouds] for i in range(max_batch)])
    direct_batch_ms = _best_ms(lambda: direct.run(stack), 2)
    if rate is None:
        # ~3x one pipeline's perfectly-batched capacity: enough backlog
        # to saturate the single-server baseline without drowning it.
        rate = 3.0 * max_batch / max(direct_batch_ms / 1e3, 1e-6)
    schedule = np.cumsum(rng.exponential(1.0 / rate, size=requests))
    policy = BatchPolicy(max_batch=max_batch, max_queue=max_queue)

    from .shard import ShardRouter

    grid = []
    exact = top1 = ids_ok = True
    rel_err = 0.0
    for shards in shard_counts:
        router = ShardRouter.hosting(
            net, shards=shards, strategy=strategy, backend=backend,
            policy=policy, cache_size=cache_size, seed=seed,
        )
        with router:
            responses, latencies, rejected, makespan = _replay(
                router, clouds, schedule, tenants
            )
            stats = router.stats()
        ids = [resp.request_id for resp in responses.values()]
        ids_ok &= len(ids) == len(set(ids))
        ids_ok &= len(responses) + len(rejected) == requests
        ids_ok &= all(responses[i].request_id == f"q{i}" for i in responses)
        # Bit-exact replay of each formed sub-batch on a direct runner:
        # identical program, identical stack — the shard that served it
        # is irrelevant to the bits, so any deviation is a routing or
        # demux bug, never BLAS blocking noise.
        replayed = {}
        for i, resp in responses.items():
            if resp.batch_ids not in replayed:
                members = [int(rid[1:]) for rid in resp.batch_ids]
                batch = np.stack(
                    [clouds[m % distinct_clouds] for m in members]
                )
                replayed[resp.batch_ids] = dict(zip(
                    resp.batch_ids, direct.run(batch).per_cloud()
                ))
            exact &= _outputs_equal(
                replayed[resp.batch_ids][resp.request_id], resp.output
            )
            ref = reference[i % distinct_clouds]
            top1 &= _argmax_equal(ref, resp.output)
            rel_err = max(rel_err, _max_rel_err(ref, resp.output))
        per_shard = []
        for entry in stats["per_shard"]:
            cache_stats = entry.get("cache", {})
            per_shard.append({
                "shard": entry["shard"],
                "completed": entry["completed"],
                "sub_batches": entry["sub_batches"],
                # Peak admitted depth during the run — the live depth
                # is always 0 once every future has resolved.
                "queue_depth": entry["max_depth"],
                "hits": cache_stats.get("hits", 0),
                "misses": cache_stats.get("misses", 0),
                "hit_rate": cache_stats.get("hit_rate", 0.0),
            })
        grid.append({
            "shards": shards,
            "replicas": len(stats["per_shard"]),
            "offered": requests,
            "completed": len(responses),
            "rejected": len(rejected),
            "p50_ms": float(np.percentile(latencies, 50)),
            "p99_ms": float(np.percentile(latencies, 99)),
            "mean_ms": float(latencies.mean()),
            "throughput_rps": len(responses) / max(makespan, 1e-9),
            "mean_batch": stats["mean_batch"],
            "spilled": stats["routing"]["spilled"],
            "per_shard": per_shard,
        })
    single = next(c for c in grid if c["shards"] == 1)["throughput_rps"]
    for cell in grid:
        cell["scaling_vs_single"] = cell["throughput_rps"] / single \
            if single > 0 else 0.0

    # Affinity vs random routing on a repeated-cloud workload, at the
    # smallest multi-shard count (2 unless the sweep skips it).
    affinity_shards = min((s for s in shard_counts if s > 1), default=2)
    sequence = [
        int(i) for _ in range(affinity_passes)
        for i in rng.permutation(distinct_clouds)
    ]
    affinity_rate = _affinity_hit_rate(
        "content", net, affinity_shards, sequence, clouds, policy,
        strategy, backend, cache_size, seed,
    )
    random_rate = _affinity_hit_rate(
        "random", net, affinity_shards, sequence, clouds, policy,
        strategy, backend, cache_size, seed,
    )

    scaling_2shard = next(
        (c["scaling_vs_single"] for c in grid if c["shards"] == 2), None
    )
    backend_name = getattr(backend, "name", backend) or "eager-float64"
    fast_path = backend_name in ("float32", "int8")
    return {
        "workload": {
            "network": network,
            "strategy": strategy,
            "scale": scale,
            "n_points": net.n_points,
            "backend": backend_name,
            "requests": requests,
            "distinct_clouds": distinct_clouds,
            "tenants": tenants,
            "rate_rps": float(rate),
            "max_batch": max_batch,
            "cache_size": cache_size,
            "shard_counts": list(shard_counts),
            "cpu_count": int(os.cpu_count() or 1),
        },
        "baseline": "single-Server continuous batching on the same "
                    "open-loop schedule",
        "direct_batch_ms": direct_batch_ms,
        "grid": grid,
        "responses_exact": bool(exact),
        "responses_top1": bool(top1),
        "responses_ok": bool(exact and top1) if fast_path else bool(exact),
        "max_rel_err_vs_full_batch": float(rel_err),
        "ids_ok": bool(ids_ok),
        "scaling_2shard": scaling_2shard,
        "affinity_shards": affinity_shards,
        "affinity_hit_rate": float(affinity_rate),
        "random_hit_rate": float(random_rate),
        "affinity_beats_random": bool(affinity_rate > random_rate),
    }


def shard_bench_results(quick=False, **kwargs):
    """``{"meta": ..., "shard": ...}`` — the ``BENCH_shard.json`` payload."""
    if quick:
        kwargs.setdefault("requests", 32)
        kwargs.setdefault("shard_counts", (1, 2))
        kwargs.setdefault("affinity_passes", 2)
        kwargs.setdefault("scale", 0.03125)
    return {"meta": bench_meta(quick), "shard": bench_shard(**kwargs)}


def serve_bench_results(quick=False, **kwargs):
    """``{"meta": ..., "serve": ...}`` — the ``BENCH_serve.json`` payload.

    ``quick`` shrinks the sweep for CI smoke runs the same way the
    engine suite's ``quick`` flag does.
    """
    if quick:
        kwargs.setdefault("requests_per_rate", 16)
        kwargs.setdefault("rates", (30.0, 60.0))
    return {"meta": bench_meta(quick), "serve": bench_serve(**kwargs)}
