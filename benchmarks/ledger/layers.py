"""The traced run: per-layer numbers, measured in-process from outside.

Nothing under ``src/`` is patched.  Layers are timed by calling their
public functions on the workload's own shapes, and the request path is
traced by handing ``Server`` / ``ShardRouter`` thin proxy runner and
server objects (:class:`Spanned`) through their public constructors.
Spans live in memory and are written once, at the end, to
``out/trace-<workload>.json``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np
from loadgen import Requests

from repro.backend import attach_table, compile_kernel_program, parameter_descriptor
from repro.cli import _serve_handle_line
from repro.engine import BatchRunner, NeighborIndexCache, ParallelRunner, content_digest
from repro.engine.cache import PartitionedIndexCache
from repro.neighbors import ball_query, farthest_point_sampling, neighbor_search
from repro.networks import build_network
from repro.serve import BatchPolicy, Server, ShardRouter, plan_placement

CACHE_SIZE = 256  # the CLI's --cache-size default
MIN_CALLS = 5  # fewest samples behind any timed layer call

#: Kernel label prefix -> the paper's N / A / F split; anything else is "other".
KERNEL_LAYER = {"search": "N", "sample": "N", "aggregate": "A",
                "reduce_max": "A", "matmul": "F", "head": "F"}


def interleaved_ms(fns, budget_s, max_calls):
    """Wall times (ms) of each of ``fns``, called in turn, round after round.

    At most ``max_calls`` rounds, at least ``MIN_CALLS``; in between it
    stops once ``budget_s`` is spent, so a slow workload takes fewer samples
    instead of more time.  Taking turns puts the series that a ratio
    compares under the same minute of this shared box's drifting speed.
    """
    times, start = [[] for _ in fns], time.perf_counter()
    while len(times[0]) < max_calls and (
            len(times[0]) < MIN_CALLS or time.perf_counter() - start < budget_s):
        for fn, series in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            series.append((time.perf_counter() - t0) * 1e3)
    return times


def sample_ms(fn, budget_s, max_calls):
    """Wall times (ms) of repeated ``fn()`` calls (see :func:`interleaved_ms`)."""
    return interleaved_ms([fn], budget_s, max_calls)[0]


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span log: name, start, end, parent, request id, counts.

    A span's parent is the span open on the same thread; work that runs on
    the dispatcher thread (``engine.run``, ``cli.emit``) hangs off the root
    span of the request in flight — the replay keeps exactly one in flight.
    A disabled tracer records nothing (the untraced lane of the replay).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.request = None  # id of the request in flight
        self.root = None  # its root span
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield {}
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "request": self.request,
                  "parent": stack[-1] if stack else self.root,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations_ms(self, name):
        return [(s["end"] - s["start"]) * 1e3
                for s in self.spans if s["name"] == name]


class Spanned:
    """Delegates everything to ``target``; ``method`` runs inside a span."""

    def __init__(self, target, method, name, tracer, counts=None):
        self._target = target
        inner = getattr(target, method)

        def call(*args, **kwargs):
            with tracer.span(name) as span:
                result = inner(*args, **kwargs)
                if counts is not None:
                    span["counts"] = counts(result)
            return result

        setattr(self, method, call)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _run_counts(result):
    return {"batch": result.batch_size,
            "cache_hits": result.cache_stats.get("hits", 0),
            "cache_misses": result.cache_stats.get("misses", 0)}


def build_server(workload, network, tracer):
    """The workload's ``Server`` / ``ShardRouter``, as the CLI configures it.

    The wiring of ``Server.hosting`` / ``ShardRouter.hosting`` done by hand,
    because those build their runners themselves and a proxy has to go
    around each one (``test_ledger.py`` holds the two against each other).
    With an enabled tracer every runner and server is wrapped in a
    :class:`Spanned` proxy; with a disabled one the plain objects are used.
    """
    def wrap(target, method, name, counts=None):
        if not tracer.enabled:
            return target
        return Spanned(target, method, name, tracer, counts)

    def runner(cache, params=None):
        return wrap(BatchRunner(network, strategy="delayed",
                                backend=workload.backend, cache=cache,
                                params=params),
                    "run", "engine.run", _run_counts)

    policy = BatchPolicy()  # the CLI defaults: batch 8, wait 5 ms, queue 64
    if workload.shards == 1:
        return wrap(Server(runner(NeighborIndexCache(CACHE_SIZE)), policy=policy),
                    "submit", "serve.submit")
    plan = plan_placement([network], slots=workload.shards,
                          backend=workload.backend, batch=policy.max_batch)
    cache = PartitionedIndexCache(len(plan.replicas), maxsize=CACHE_SIZE)
    # One packed parameter table in shared memory, attached by every replica.
    descriptor, handle = parameter_descriptor(network, "delayed",
                                              workload.backend, batched=True)
    params = attach_table(descriptor)
    dispatch = ParallelRunner(max_workers=len(plan.replicas), backend="thread",
                              persistent=True)
    servers = [
        wrap(Server(runner(cache.shard(replica.shard), params), policy=policy,
                    dispatch=dispatch, shard=replica.shard),
             "submit", "serve.submit")
        for replica in plan.replicas
    ]
    return wrap(ShardRouter(servers, plan=plan, cache=cache, dispatch=dispatch,
                            shared=[handle]),
                "submit", "shard.submit")


def replay(workload, network, calls, tracer):
    """Feed request lines one at a time through ``_serve_handle_line``.

    Every request goes through a plain server and through the traced one
    (proxies, spans recorded in ``tracer``), so both see the same stretch of
    this box's drifting speed; which of the two goes first alternates, so
    neither always finds the cloud warm in the CPU caches.  Returns ``(plain
    ms, traced ms, error strings, the traced server's stats)``.
    """
    errors = []

    def lane(tracer):
        server = build_server(workload, network, tracer)
        done = threading.Event()

        def emit(payload):
            with tracer.span("cli.emit") as span:
                data = json.dumps(payload)
                span["counts"] = {"response_bytes": len(data)}
            if "error" in payload:
                errors.append(str(payload["error"]))
            done.set()

        def request(call):
            done.clear()
            tracer.request, tracer.root = call.rid, None
            t0 = time.perf_counter()
            with tracer.span("request") as root:
                tracer.root = root.get("id")
                with tracer.span("cli.handle_line") as span:
                    span["counts"] = {"request_bytes": call.request_bytes}
                    _serve_handle_line(server, call.line.decode(), emit)
                if not done.wait(timeout=30.0):
                    errors.append(f"{call.rid}: no response in 30 s")
            return (time.perf_counter() - t0) * 1e3

        return server, request

    lanes = [lane(Tracer(enabled=False)), lane(tracer)]
    times = [[], []]
    try:
        for number, call in enumerate(calls):
            for i in ((0, 1), (1, 0))[number % 2]:
                times[i].append(lanes[i][1](call))
    finally:
        for server, _ in lanes:
            server.close(drain=True)
    return times[0], times[1], errors, lanes[1][0].stats()


def _route_ms(tracer):
    """``ShardRouter.submit`` minus the inner ``Server.submit`` it ends in."""
    inner = {s["parent"]: s["end"] - s["start"]
             for s in tracer.spans if s["name"] == "serve.submit"}
    return [(s["end"] - s["start"] - inner.get(s["id"], 0.0)) * 1e3
            for s in tracer.spans if s["name"] == "shard.submit"]


# -- the layer ledger --------------------------------------------------------


def measure(workload, seed, budget_s, max_calls, replay_count):
    """Per-layer metrics of one workload plus the trace to write out.

    Returns ``(metrics, trace, errors)``.  Layers that are not on the
    workload's path (``backend.*`` on the eager workload, ``shard.*``
    without shards) read 0.
    """
    per = budget_s / 12.0  # time budget of one sampled series
    med = statistics.median
    m = {}

    # Cold, as a server start pays them: the first build in this process.
    t0 = time.perf_counter()
    network = build_network(workload.network, scale=workload.scale)
    t1 = time.perf_counter()
    ngraph = network.network_graph("delayed")
    t2 = time.perf_counter()
    m["networks.build_ms"] = (t1 - t0) * 1e3
    m["graph.build_ms"] = (t2 - t1) * 1e3
    m["graph.nodes"] = ngraph.node_count
    if network.n_points != workload.n_points:
        raise ValueError(f"{workload.network} at scale {workload.scale} serves "
                         f"n_points={network.n_points}, not {workload.n_points}")

    requests = Requests(seed, workload.n_points, workload.pool)
    numbers = iter(range(1 << 30))

    def stack(height):
        """The next ``height`` clouds of the workload's request stream."""
        return np.stack([requests.cloud(requests.cloud_index(next(numbers)))
                         for _ in range(height)])

    x1, x8 = stack(1), stack(8)

    # The engine as a replica drives it: fresh clouds every call and one
    # replica's share of the index cache, so it misses (or, on the pool
    # workload, hits) as it does in serving.
    runner = BatchRunner(network, strategy="delayed", backend=workload.backend,
                         cache=NeighborIndexCache(CACHE_SIZE // workload.shards))
    runner.run(x8)
    runner.run(x1)
    stacks = {height: iter([stack(height) for _ in range(max_calls)])
              for height in (8, 1)}
    series = {"engine.run_ms_b8": lambda: runner.run(next(stacks[8])),
              "engine.run_ms_b1": lambda: runner.run(next(stacks[1]))}

    backend_names = ("N_ms_b8", "A_ms_b8", "F_ms_b8", "other_ms_b8",
                     "run_ms_b1", "run_ms_b8", "cold_run_ms_b8", "compile_ms",
                     "kernels", "arena_mb", "orig_over_delayed_b8")
    m.update({f"backend.{name}": 0.0 for name in backend_names})
    m["trace.kernel_coverage"] = 0.0
    splits = []
    if workload.backend is not None:
        t0 = time.perf_counter()
        program = compile_kernel_program(network, "delayed", workload.backend,
                                         batched=True)
        t1 = time.perf_counter()
        program.run(x8)  # first run of a shape measures and installs its plan
        t2 = time.perf_counter()
        m["backend.compile_ms"] = (t1 - t0) * 1e3
        m["backend.cold_run_ms_b8"] = (t2 - t1) * 1e3
        m["backend.kernels"] = len(program.kernel_labels)
        m["backend.arena_mb"] = program.memory_stats()["arena_bytes"] / 2 ** 20
        program.run(x1)
        original = compile_kernel_program(network, "original", workload.backend,
                                          batched=True)
        original.run(x8)

        def hooked_run():
            split = dict.fromkeys(("N", "A", "F", "other"), 0.0)
            last = [time.perf_counter()]

            def on_kernel(_pos, label, _env, _ctx):
                now = time.perf_counter()
                split[KERNEL_LAYER.get(label.split(":")[0], "other")] += now - last[0]
                last[0] = now

            program.run(x8, on_kernel=on_kernel)
            splits.append(split)

        series.update({"backend.run_ms_b8": lambda: program.run(x8),
                       "backend.run_ms_b1": lambda: program.run(x1),
                       "hooked": hooked_run,
                       "original": lambda: original.run(x8)})

    # One loop, every series taking its turn, so that a ratio between any
    # two of them compares the same stretch of this box's drifting speed.
    times = dict(zip(series, interleaved_ms(list(series.values()),
                                            len(series) * per, max_calls)))
    m.update({name: med(ms) for name, ms in times.items() if "." in name})
    if workload.backend is not None:
        for layer in ("N", "A", "F", "other"):
            m[f"backend.{layer}_ms_b8"] = med(s[layer] for s in splits) * 1e3
        # Per run, so that a burst between two runs cannot fake a gap: the
        # share of a hooked run's wall time that its kernels account for.
        m["trace.kernel_coverage"] = med(
            sum(s.values()) * 1e3 / ms for s, ms in zip(splits, times["hooked"]))
        m["backend.orig_over_delayed_b8"] = (
            med(times["original"]) / m["backend.run_ms_b8"])

    result = runner.run(x8)
    m["engine.per_cloud_ms_b8"] = med(sample_ms(result.per_cloud, per, max_calls))
    m["engine.digest_ms"] = med(
        sample_ms(lambda: content_digest(x1[0]), per, max_calls))

    # The first module's search, at the widest space any module searches
    # (DGCNN's later modules search their input features, not coordinates).
    spec = network.encoder[0].spec
    dim = max(module.spec.search_dim for module in network.encoder)
    dtype = np.float32 if workload.backend == "float32" else None
    space = np.random.default_rng([seed, 3]).standard_normal(
        (8, spec.n_in, dim))
    centroids = np.linspace(0, spec.n_in - 1, spec.n_out).astype(np.int64)
    m["neighbors.knn_ms"] = med(sample_ms(
        lambda: neighbor_search(space, space[:, centroids], spec.k, dtype=dtype),
        per, max_calls))
    m["neighbors.ball_ms"] = med(sample_ms(
        lambda: ball_query(x8, x8[:, centroids], 0.5, spec.k, dtype=dtype),
        per, max_calls))
    m["neighbors.fps_ms"] = med(sample_ms(
        lambda: farthest_point_sampling(x8[0], spec.n_out), per, max_calls))

    m["shard.plan_ms"] = 0.0
    m["shard.route_ms_p50"] = 0.0
    if workload.shards > 1:
        t0 = time.perf_counter()
        plan_placement([network], slots=workload.shards,
                       backend=workload.backend, batch=8)
        m["shard.plan_ms"] = (time.perf_counter() - t0) * 1e3

    # The request path: the same lines without proxies and with.
    calls = requests.take(replay_count)
    tracer = Tracer()
    plain_ms, traced_ms, errors, stats = replay(workload, network, calls, tracer)
    m["trace.overhead_frac"] = med(traced_ms) / med(plain_ms) - 1.0
    m["cli.handle_line_ms_p50"] = med(tracer.durations_ms("cli.handle_line"))
    m["cli.emit_ms_p50"] = med(tracer.durations_ms("cli.emit"))
    m["serve.submit_ms_p50"] = med(tracer.durations_ms("serve.submit"))
    if workload.shards > 1:
        m["shard.route_ms_p50"] = med(_route_ms(tracer))

    cache = stats.get("cache", {})
    trace = {
        "spans": tracer.spans,
        "counts": {
            "requests": len(calls),
            "request_bytes": sum(c.request_bytes for c in calls),
            "response_bytes": sum(s["counts"].get("response_bytes", 0)
                                  for s in tracer.spans),
            "sub_batches": stats["sub_batches"],
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_evictions": cache.get("evictions", 0),
        },
        "replay_ms": {"untraced_p50": med(plain_ms), "traced_p50": med(traced_ms)},
    }
    return m, trace, errors
