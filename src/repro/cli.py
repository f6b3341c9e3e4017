"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
report
    Print the full paper-style evaluation report.
trace NETWORK [--strategy S] [--memory]
    Print the operator trace of one benchmark network (``--memory``
    prints the planner's per-phase peaks and arena layout instead).
compile NETWORK [--strategy S] [--backend B] [--cache DIR]
    Ahead-of-time compile kernel programs into an on-disk program
    cache (packed parameters + the measured per-cloud arena plan).
tune NETWORK [--batch B] [--backends B ...] [--cache DIR]
    Measure the strategy x backend grid for one workload
    shape and store the winning configuration in the program cache.
simulate NETWORK [--config C]
    Simulate one network on one SoC configuration.
networks
    List the benchmark networks (Table I).
train [--network N] [--strategy S] [--epochs E]
    Train a scaled-down classifier on the synthetic dataset.
bench [--batch B] [--n-points N] [--output PATH]
    Benchmark the batched inference engine and write BENCH_engine.json.
bench --serve [--rates R R ...] [--output PATH]
    Open-loop serving latency sweep; writes BENCH_serve.json.
bench --serve --shards S S ... [--output PATH]
    Sharded-serving scaling sweep (placement + affinity routing);
    writes BENCH_shard.json.
serve [--network N ...] [--max-batch B] [--max-wait-ms D] [--port P]
    Long-lived continuous-batching server (stdin or TCP JSON lines).
    ``--shards N`` fronts N placement-planned replica servers with the
    cache-affinity shard router.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

import numpy as np

__all__ = ["main"]


def _cmd_report(_args):
    from .profiling.report import full_report

    print(full_report())
    return 0


def _cmd_networks(_args):
    from .networks import table1_rows

    for domain, name, dataset, year in table1_rows():
        print(f"{domain:15s} {name:16s} {dataset:11s} {year}")
    return 0


def _cmd_trace(args):
    from .graph import compile_network_plan
    from .networks import build_network

    net = build_network(args.network)
    if args.memory:
        return _trace_memory(net, args.strategy)
    trace = net.trace(args.strategy)
    print(f"{net.name} [{args.strategy}] — {len(trace)} ops, "
          f"{trace.mlp_macs() / 1e6:.1f} M MLP MACs")
    if args.schedule:
        # The whole-network N/F-lane schedule the async scheduler
        # executes: steps with both lanes run neighbor search
        # concurrently with the hoisted MLP chain, and cross-module
        # steps start module i+1's N lane while module i still drains.
        schedule = net.network_graph(args.strategy).schedule()
        print(schedule.describe())
        print(f"cross-module overlap steps: "
              f"{len(schedule.cross_module_overlap_steps())}")
        if args.cache:
            _trace_tuned(net, args.cache)
    elif args.graph:
        # The strategy-rewritten whole-network operator graph the
        # executors run and the trace below is lowered from.
        print(compile_network_plan(net, args.strategy).describe())
    else:
        for op in trace:
            fields = {
                k: v for k, v in vars(op).items()
                if k not in ("phase", "module", "parallelizable")
            }
            flag = " ||" if op.parallelizable else ""
            detail = ", ".join(f"{k}={v}" for k, v in fields.items())
            print(f"  [{op.phase}] {op.module:12s} "
                  f"{type(op).__name__:18s} {detail}{flag}")
    print("phase  ops        MACs     bytes read  bytes written")
    for phase, row in trace.phase_summary().items():
        print(f"  {phase}    {row['ops']:3d} {row['macs']:11,d} "
              f"{row['bytes_read']:12,d} {row['bytes_written']:14,d}")
    return 0


def _trace_tuned(net, cache_dir):
    """``repro trace --schedule --cache DIR`` tail: the autotuner's
    chosen configuration, when the program cache holds a stored table."""
    from .backend import ProgramCache, network_fingerprint
    from .tune import TunedTable

    data = ProgramCache(cache_dir).load_tuned(
        net.name, network_fingerprint(net)
    )
    if data is None:
        print(f"tuned config: none stored in {cache_dir} "
              f"(run 'repro tune' first)")
        return
    for line in TunedTable.from_json(data).describe():
        print(f"tuned config: {line}")


def _trace_memory(net, strategy):
    """``repro trace --memory``: planner peaks and the arena layout."""
    from .backend import compile_kernel_program

    program = compile_kernel_program(net, strategy, backend="float64")
    cloud = np.random.default_rng(0).normal(size=(1, net.n_points, 3))
    report = program.memory_report(cloud)
    plan = report["plan"]
    print(f"{net.name} [{strategy}] — {report['n_kernels']} kernels, "
          f"{len(plan.buffers)} scratch buffers")
    print(f"  per-kernel pool peak {report['pool_bytes']:12,d} B   "
          f"(the PR 5 never-freeing baseline)")
    print(f"  planned arena        {report['arena_bytes']:12,d} B   "
          f"(peak live {report['peak_live_bytes']:,} B, "
          f"reduction {plan.reduction * 100:.1f}%)")
    print("  phase   peak before     peak after")
    for phase, row in report["phases"].items():
        print(f"    {phase}   {row['before']:13,d} B {row['after']:13,d} B")
    print(plan.describe())
    return 0


def _cmd_compile(args):
    """Ahead-of-time compile programs into the on-disk cache."""
    from .backend import ProgramCache, compile_kernel_program
    from .networks import build_network

    cache = ProgramCache(args.cache)
    rng = np.random.default_rng(0)
    for name in args.network or ["PointNet++ (c)"]:
        net = build_network(name, scale=args.scale)
        program = compile_kernel_program(net, args.strategy,
                                         backend=args.backend)
        # One cloud measures the per-cloud plan; stored with the
        # program, it serves every stack height with no measuring run.
        cloud = rng.normal(size=(1, net.n_points, 3))
        plan = program.plan_for(cloud)
        digest = cache.store(program)
        batched = program.plan_for(cloud, height=args.batch)
        print(f"{digest[:16]}  {net.name} [{args.strategy}] {args.backend} "
              f"arena {plan.total_bytes:,d} B per cloud, "
              f"{batched.total_bytes:,d} B at B={args.batch} "
              f"(-{plan.reduction * 100:.1f}% vs pool)")
    print(f"programs cached in {cache.directory}")
    return 0


def _cmd_tune(args):
    """Autotune configurations per workload shape; store tuned tables."""
    from .backend import ProgramCache
    from .networks import build_network
    from .tune import Autotuner

    cache = ProgramCache(args.cache) if args.cache else None
    for name in args.network or ["PointNet++ (c)"]:
        net = build_network(name, scale=args.scale)
        tuner = Autotuner(net, program_cache=cache, repeats=args.repeats,
                          seed=args.seed)
        log = []
        table = tuner.tune(batch=args.batch,
                           backends=tuple(args.backends),
                           prune_ratio=args.prune_ratio, report=log)
        for line in log:
            print(f"  {line}")
        for line in table.describe():
            print(line)
        suffix = (f"; table stored in {cache.directory}" if cache else
                  "; pass --cache to persist the table")
        print(f"  ran {tuner.n_benchmarks} benchmark(s){suffix}")
    return 0


def _cmd_simulate(args):
    from .hw import SoC
    from .networks import build_network

    soc = SoC()
    net = build_network(args.network)
    result = soc.simulate(net, args.config)
    print(f"{net.name} on {result.config}:")
    print(f"  latency: {result.latency * 1e3:.2f} ms")
    print(f"  energy:  {result.energy * 1e3:.2f} mJ")
    for phase in "NAFO":
        print(f"  {phase}: {result.phase_times[phase] * 1e3:8.2f} ms   "
              f"{result.phase_energy[phase] * 1e3:8.2f} mJ")
    for module, stats in result.au_stats:
        print(f"  AU {module}: {stats.cycles} cycles, "
              f"{stats.partitions} partitions, "
              f"conflict {stats.conflict_fraction * 100:.0f}%")
    return 0


def _cmd_train(args):
    from .data import SyntheticModelNet
    from .networks import build_network, evaluate_classifier, train_classifier

    ds = SyntheticModelNet(num_classes=4, n_points=256, train_per_class=8,
                           test_per_class=4, seed=0, rotate=False)
    net = build_network(args.network, num_classes=4, scale=0.0625,
                        rng=np.random.default_rng(0))
    n = net.n_points
    result = train_classifier(
        net, ds.train_clouds[:, :n], ds.train_labels,
        epochs=args.epochs, lr=1e-3, strategy=args.strategy, seed=1,
    )
    acc = evaluate_classifier(net, ds.test_clouds[:, :n], ds.test_labels,
                              strategy=args.strategy)
    print(f"{net.name} [{args.strategy}] loss {result.losses[0]:.2f} -> "
          f"{result.losses[-1]:.2f}, test accuracy {acc:.2f}")
    return 0


def _serve_backend(name):
    return None if name == "eager" else name


def _cmd_bench_shard(args):
    from .engine import write_json
    from .serve import shard_bench_results

    results = shard_bench_results(
        quick=args.quick,
        network=args.network,
        strategy=args.strategy,
        backend=_serve_backend(args.serve_backend),
        shard_counts=tuple(args.shards),
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        cache_size=args.cache_size,
    )
    row = results["shard"]
    workload = row["workload"]
    print(f"shard bench ({workload['backend']} backend, "
          f"{workload['requests']} requests, "
          f"{workload['rate_rps']:.1f} rps offered, "
          f"{workload['cpu_count']} cpu(s))")
    for cell in row["grid"]:
        print(f"  shards {cell['shards']:2d}  "
              f"p50 {cell['p50_ms']:7.2f} ms  "
              f"p99 {cell['p99_ms']:7.2f} ms  "
              f"{cell['throughput_rps']:7.1f} rps  "
              f"scaling {cell['scaling_vs_single']:.2f}x  "
              f"spilled {cell['spilled']}")
    print(f"  responses {'ok' if row['responses_ok'] else 'WRONG'} "
          f"(bit-exact {'yes' if row['responses_exact'] else 'NO'})   "
          f"ids {'ok' if row['ids_ok'] else 'BROKEN'}   "
          f"affinity {row['affinity_hit_rate']:.2f} vs "
          f"random {row['random_hit_rate']:.2f} hit rate "
          f"({'better' if row['affinity_beats_random'] else 'NOT BETTER'})")
    output = args.output or "BENCH_shard.json"
    write_json(results, output)
    print(f"wrote {output}")
    return 0


def _cmd_bench_serve(args):
    from .engine import write_json
    from .serve import serve_bench_results

    if args.shards:
        return _cmd_bench_shard(args)
    results = serve_bench_results(
        quick=args.quick,
        network=args.network,
        strategy=args.strategy,
        backend=_serve_backend(args.serve_backend),
        rates=tuple(args.rates) if args.rates else (30.0, 90.0),
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        workers=args.workers,
        deadline_ms=args.deadline_ms,
    )
    row = results["serve"]
    print(f"serve bench ({row['workload']['backend']} backend, "
          f"{row['workload']['requests_per_rate']} requests/rate, "
          f"deadline {row['deadline_ms']:.0f} ms)")
    for cell in row["grid"]:
        print(f"  rate {cell['rate_rps']:6.1f} rps  "
              f"{cell['policy']:12s} p50 {cell['p50_ms']:7.2f} ms  "
              f"p99 {cell['p99_ms']:7.2f} ms  "
              f"{cell['throughput_rps']:6.1f} rps  "
              f"mean batch {cell['mean_batch']:.2f}  "
              f"rejected {cell['rejected']}")
    print(f"  responses {'ok' if row['responses_ok'] else 'WRONG'} "
          f"(bit-exact {'yes' if row['responses_exact'] else 'NO'}, "
          f"top-1 {'yes' if row['responses_top1'] else 'NO'})   "
          f"ids {'ok' if row['ids_ok'] else 'BROKEN'}   "
          f"worst batched p99 {row['p99_batched_worst_ms']:.2f} ms")
    output = args.output or "BENCH_serve.json"
    write_json(results, output)
    print(f"wrote {output}")
    return 0


def _cmd_bench(args):
    from .engine import run_benchmarks, write_json

    if args.serve:
        return _cmd_bench_serve(args)
    args.output = args.output or "BENCH_engine.json"
    results = run_benchmarks(
        batch=args.batch,
        n_points=args.n_points,
        k=args.k,
        network=args.network,
        scale=args.scale,
        strategy=args.strategy,
        repeats=args.repeats,
        quick=args.quick,
        backend=args.backend,
    )
    knn = results["knn"]
    ball = results["ball"]
    forward = results["forward"]
    par = results["parallel"]
    print(f"engine bench ({knn['cpu_count']} cpu(s), "
          f"B={knn['workload']['batch']}, N={knn['workload']['n_points']}, "
          f"k={knn['workload']['k']})")
    print(f"  knn      loop {knn['per_cloud_loop_ms']:8.2f} ms   "
          f"batched {knn['batched_ms']:8.2f} ms   "
          f"speedup {knn['speedup_batched']:.2f}x   "
          f"cached {knn['speedup_cached']:.1f}x")
    print(f"  ball     loop {ball['per_cloud_loop_ms']:8.2f} ms   "
          f"batched {ball['batched_ms']:8.2f} ms   "
          f"speedup {ball['speedup_batched']:.2f}x")
    print(f"  forward  loop {forward['sequential_ms']:8.2f} ms   "
          f"batched {forward['batched_ms']:8.2f} ms   "
          f"speedup {forward['speedup_batched']:.2f}x   "
          f"cached {forward['speedup_cached']:.2f}x")
    print(f"  parallel serial {par['serial_ms']:6.2f} ms   "
          f"{par['workers']} worker(s) {par['parallel_ms']:8.2f} ms   "
          f"speedup {par['speedup_parallel']:.2f}x")
    sched = results["sched"]
    print(f"  sched    serial {sched['serial_ms']:6.2f} ms   "
          f"async   {sched['async_ms']:8.2f} ms   "
          f"speedup {sched['speedup_async']:.2f}x   "
          f"bit-exact {'yes' if sched['bit_exact'] else 'NO'}   "
          f"({sched['workers']} worker(s))")
    ng = results["netgraph"]
    print(f"  netgraph composed {ng['composed_ms']:6.2f} ms   "
          f"graph {ng['netgraph_ms']:8.2f} ms   "
          f"async {ng['async_ms']:8.2f} ms   "
          f"bit-exact {'yes' if ng['bit_exact'] else 'NO'}   "
          f"({ng['cross_module_overlap_steps']} cross-module overlap "
          f"step(s))")
    be = results["backend"]
    print(f"  backend  eager {be['eager_batched_ms']:8.2f} ms   "
          f"float64 {be['kernel64_batched_ms']:8.2f} ms "
          f"({be['speedup_kernel64_batched']:.2f}x, "
          f"bit-exact {'yes' if be['bit_exact_float64'] else 'NO'})   "
          f"{be['fast_backend']} {be['kernel_fast_batched_ms']:8.2f} ms "
          f"({be['speedup_fast_batched']:.2f}x, "
          f"rel err {be['fast_max_rel_err']:.1e}, "
          f"top-1 {'ok' if be['fast_argmax_equal'] else 'DIFFERS'})")
    qt = results["quant"]
    print(f"  quant    int8 {qt['int8_batched_ms']:8.2f} ms "
          f"({qt['speedup_vs_float64']:.2f}x vs float64)   "
          f"top-1 agree {qt['min_top1_agreement'] * 100:5.1f}%   "
          f"packed {qt['packed_bytes_ratio'] * 100:.1f}% of float64   "
          f"calib {'stable' if qt['calibration_deterministic'] else 'DRIFTS'}")
    mem = results["mem"]
    print(f"  mem      pool {mem['pool_bytes'] / 1e6:8.2f} MB   "
          f"arena {mem['arena_bytes'] / 1e6:8.2f} MB "
          f"(-{mem['peak_reduction'] * 100:.1f}%, "
          f"bit-exact {'yes' if mem['bit_exact'] else 'NO'})   "
          f"spin-up {mem['spinup_pickle_ms']:.2f} -> "
          f"{mem['spinup_shared_ms']:.2f} ms "
          f"({mem['speedup_spinup']:.1f}x)   "
          f"cache load {mem['speedup_cache_load']:.1f}x")
    write_json(results, args.output)
    print(f"wrote {args.output}")
    return 0


def _serve_handle_line(server, line, emit):
    """One JSON request line -> submit; ``emit`` gets the response dict.

    Malformed lines (bad JSON, JSON that is not an object, no
    ``cloud``) and rejected requests (unroutable shape, non-finite
    coordinates, queue backpressure, shutdown) are answered immediately
    with an ``error`` response carrying the request id when one was
    parsed.
    """
    from .serve import ServeError

    request_id = None
    try:
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError("request must be a JSON object, got "
                             f"{type(payload).__name__}")
        request_id = payload.get("id")
        future = server.submit(
            payload["cloud"],
            request_id=request_id,
            tenant=payload.get("tenant", "default"),
        )
    except (ServeError, KeyError, TypeError, ValueError) as exc:
        emit({"id": request_id, "error": str(exc)})
        return

    def deliver(done):
        exc = done.exception()
        if exc is not None:
            emit({"id": request_id, "error": str(exc)})
            return
        resp = done.result()
        output = resp.output
        if isinstance(output, dict):
            output = {key: value.tolist() for key, value in output.items()}
        else:
            output = output.tolist()
        emit({
            "id": resp.request_id,
            "tenant": resp.tenant,
            "output": output,
            "batch_size": resp.batch_size,
            "shard": resp.shard,
            "queued_ms": round(resp.queued_ms, 3),
            "latency_ms": round(resp.latency_ms, 3),
        })

    future.add_done_callback(deliver)


def _build_server(args):
    from .engine.cache import NeighborIndexCache
    from .serve import BatchPolicy, Server

    policy = BatchPolicy(max_batch=args.max_batch,
                         max_wait_ms=args.max_wait_ms,
                         max_queue=args.max_queue)
    if args.tuned and not args.program_cache:
        raise SystemExit("--tuned needs --program-cache to load stored "
                         "tables from (warm it with 'repro tune')")
    if args.shards > 1:
        from .serve import ShardRouter

        return ShardRouter.hosting(
            args.network or ["PointNet++ (c)"],
            shards=args.shards,
            strategy=args.strategy,
            scale=args.scale,
            runner=args.runner,
            backend=_serve_backend(args.serve_backend),
            program_cache=args.program_cache,
            policy=policy,
            tuned=args.tuned,
            cache_size=args.cache_size,
            memory_budget_mb=args.memory_budget_mb,
        )
    cache = NeighborIndexCache(maxsize=args.cache_size) \
        if args.cache_size else None
    return Server.hosting(
        args.network or ["PointNet++ (c)"],
        strategy=args.strategy,
        scale=args.scale,
        runner=args.runner,
        backend=_serve_backend(args.serve_backend),
        program_cache=args.program_cache,
        policy=policy,
        workers=args.workers,
        tuned=args.tuned,
        cache=cache,
    )


def _print_serve_stats(stats):
    """Final stderr counters: totals, cache hit rates, per-shard lines."""
    print(f"served {stats['completed']} request(s) in "
          f"{stats['sub_batches']} sub-batch(es) "
          f"(mean batch {stats['mean_batch']:.2f}, "
          f"rejected {stats['rejected']}, failed {stats['failed']})",
          file=sys.stderr)
    cache = stats.get("cache")
    if cache:
        print(f"neighbor-index cache: {cache['hits']} hit(s), "
              f"{cache['misses']} miss(es), "
              f"{cache['evictions']} eviction(s) "
              f"(hit rate {cache['hit_rate']:.2f}, "
              f"{cache['size']}/{cache['maxsize']} entries)",
              file=sys.stderr)
    routing = stats.get("routing")
    if routing:
        print(f"routing: {routing['routed']} routed, "
              f"{routing['affinity_hits']} affinity hit(s), "
              f"{routing['spilled']} spilled, "
              f"{routing['rejected']} rejected",
              file=sys.stderr)
    for entry in stats.get("per_shard", ()):
        shard_cache = entry.get("cache", {})
        hit_rate = shard_cache.get("hit_rate", 0.0)
        print(f"  shard {entry['shard']}: "
              f"{entry['completed']} completed, "
              f"{entry['sub_batches']} sub-batch(es), "
              f"cache {shard_cache.get('hits', 0)}/"
              f"{shard_cache.get('misses', 0)} hit/miss "
              f"(rate {hit_rate:.2f}), "
              f"{shard_cache.get('evictions', 0)} eviction(s)",
              file=sys.stderr)


def _cmd_serve(args):
    """Long-lived request loop: JSON lines on stdin or a TCP socket."""
    import signal

    server = _build_server(args)
    if args.shards > 1:
        print(server.plan.describe(), file=sys.stderr)
    sizes = ", ".join(str(n) for n in server.served_sizes)
    write_lock = threading.Lock()

    def _sigterm(_signum, _frame):
        # Orchestrators stop services with SIGTERM; route it through the
        # KeyboardInterrupt path so shutdown still drains in-flight work.
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:
        pass  # not the main thread (e.g. driven from a test harness)

    def emit(payload, stream=sys.stdout):
        with write_lock:
            stream.write(json.dumps(payload) + "\n")
            stream.flush()

    try:
        if args.port is not None:
            import socketserver

            class Handler(socketserver.StreamRequestHandler):
                def handle(self):
                    def emit_socket(payload):
                        data = (json.dumps(payload) + "\n").encode()
                        with write_lock:
                            self.wfile.write(data)

                    for raw in self.rfile:
                        # One bad byte must not kill the connection's
                        # handler: it becomes a JSON error response.
                        line = raw.decode(errors="replace").strip()
                        if line:
                            _serve_handle_line(server, line, emit_socket)

            with socketserver.ThreadingTCPServer(
                ("127.0.0.1", args.port), Handler
            ) as tcp:
                tcp.daemon_threads = True
                print(f"serving n_points in [{sizes}] on 127.0.0.1:"
                      f"{tcp.server_address[1]} (ctrl-c to stop)",
                      file=sys.stderr)
                try:
                    tcp.serve_forever()
                except KeyboardInterrupt:
                    pass
        else:
            print(f"serving n_points in [{sizes}] on stdin "
                  "(one JSON request per line; EOF drains and exits)",
                  file=sys.stderr)
            for raw in sys.stdin:
                line = raw.strip()
                if line:
                    _serve_handle_line(server, line, emit)
    except KeyboardInterrupt:
        pass
    finally:
        server.close(drain=True)
        _print_serve_stats(server.stats())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="Mesorasi reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("report", help="full paper-style report")
    sub.add_parser("networks", help="list benchmark networks")

    p_trace = sub.add_parser("trace", help="print a network's op trace")
    p_trace.add_argument("network")
    p_trace.add_argument("--strategy", default="delayed",
                         choices=("original", "delayed", "limited"))
    p_trace.add_argument("--graph", action="store_true",
                         help="print the lowered operator graphs instead "
                              "of the flat op list")
    p_trace.add_argument("--schedule", action="store_true",
                         help="print the N/F-lane overlap schedules the "
                              "async scheduler executes")
    p_trace.add_argument("--memory", action="store_true",
                         help="print the kernel runtime's per-phase memory "
                              "peaks before/after arena planning, plus the "
                              "planned arena layout")
    p_trace.add_argument("--cache", default=None, metavar="DIR",
                         help="with --schedule: program cache directory to "
                              "read the autotuner's chosen configuration "
                              "from (see 'repro tune')")

    p_compile = sub.add_parser(
        "compile", help="AOT-compile kernel programs into a program cache"
    )
    p_compile.add_argument("network", nargs="*",
                           help="networks to compile (default PointNet++ (c))")
    p_compile.add_argument("--strategy", default="delayed",
                           choices=("original", "delayed", "limited"))
    p_compile.add_argument("--backend", default="float64",
                           choices=("float64", "float32", "int8"))
    p_compile.add_argument("--scale", type=float, default=0.125)
    p_compile.add_argument("--batch", type=int, default=8,
                           help="batch size whose arena is printed next to "
                                "the stored per-cloud plan's")
    p_compile.add_argument("--cache", default=".repro-programs", metavar="DIR",
                           help="program cache directory (content-addressed; "
                                "safe to reuse across networks and restarts)")

    p_tune = sub.add_parser(
        "tune", help="autotune strategy/backend per workload shape"
    )
    p_tune.add_argument("network", nargs="*",
                        help="networks to tune (default PointNet++ (c))")
    p_tune.add_argument("--scale", type=float, default=0.125)
    p_tune.add_argument("--batch", type=int, default=8,
                        help="workload batch size the shape key records")
    p_tune.add_argument("--repeats", type=int, default=2,
                        help="best-of-N timing per surviving candidate")
    p_tune.add_argument("--seed", type=int, default=2020,
                        help="probe-cloud seed (fixed seed => deterministic "
                             "candidate record)")
    p_tune.add_argument("--backends", nargs="+",
                        default=["float64", "float32", "int8"],
                        choices=("float64", "float32", "int8"),
                        help="kernel backend tiers to enumerate")
    p_tune.add_argument("--prune-ratio", type=float, default=None,
                        help="skip strategies the cost model predicts at "
                             "more than this multiple of the cheapest "
                             "strategy's MACs (skips are recorded, never "
                             "silent)")
    p_tune.add_argument("--cache", default=".repro-programs", metavar="DIR",
                        help="program cache directory the tuned table "
                             "persists in (warm re-tunes run zero "
                             "benchmarks); pass '' to disable")

    p_sim = sub.add_parser("simulate", help="simulate a network on an SoC")
    p_sim.add_argument("network")
    p_sim.add_argument("--config", default="mesorasi_hw")

    p_train = sub.add_parser("train", help="train a toy classifier")
    p_train.add_argument("--network", default="PointNet++ (c)")
    p_train.add_argument("--strategy", default="delayed",
                         choices=("original", "delayed", "limited"))
    p_train.add_argument("--epochs", type=int, default=5)

    p_bench = sub.add_parser("bench", help="benchmark the batched engine")
    p_bench.add_argument("--batch", type=int, default=16)
    p_bench.add_argument("--n-points", type=int, default=1024)
    p_bench.add_argument("--k", type=int, default=16)
    p_bench.add_argument("--network", default="PointNet++ (c)")
    p_bench.add_argument("--scale", type=float, default=0.125)
    p_bench.add_argument("--strategy", default="delayed",
                         choices=("original", "delayed", "limited"))
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--quick", action="store_true",
                         help="tiny workloads (CI smoke)")
    p_bench.add_argument("--backend", default="float32",
                         choices=("float32", "float64", "int8"),
                         help="kernel-runtime fast path the backend row "
                              "measures against eager (the float64 "
                              "reference is always included)")
    p_bench.add_argument("--output", default=None,
                         help="result path (default BENCH_engine.json, or "
                              "BENCH_serve.json with --serve)")
    p_bench.add_argument("--serve", action="store_true",
                         help="run the open-loop serving latency sweep "
                              "instead of the engine suite")
    p_bench.add_argument("--rates", type=float, nargs="+", default=None,
                         help="open-loop Poisson arrival rates in "
                              "requests/s (--serve; default 30 90)")
    _add_serve_options(p_bench, bench=True)

    p_serve = sub.add_parser(
        "serve", help="long-lived continuous-batching inference server"
    )
    p_serve.add_argument("--network", action="append", default=None,
                         help="network to host (repeatable; requests route "
                              "by cloud size, so hosted networks must "
                              "differ in n_points)")
    p_serve.add_argument("--scale", type=float, default=0.125)
    p_serve.add_argument("--strategy", default="delayed",
                         choices=("original", "delayed", "limited"))
    p_serve.add_argument("--runner", default="batch",
                         choices=("batch", "async"),
                         help="drain sub-batches through BatchRunner or "
                              "the overlapped AsyncRunner")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="admission bound; pushes beyond it are "
                              "rejected with a backpressure error")
    p_serve.add_argument("--port", type=int, default=None,
                         help="serve JSON lines over TCP on 127.0.0.1:PORT "
                              "instead of stdin")
    _add_serve_options(p_serve, bench=False)

    return parser


def _add_serve_options(parser, bench):
    """Batching-policy knobs shared by ``serve`` and ``bench --serve``."""
    parser.add_argument("--max-batch", type=int, default=8,
                        help="most requests coalesced into one dispatch")
    parser.add_argument("--max-wait-ms", type=float, default=5.0,
                        help="deadline on the oldest request's queueing "
                             "time before a partial batch flushes")
    parser.add_argument("--workers", type=int, default=1,
                        help="dispatch concurrency (1 = fully serial)")
    parser.add_argument("--serve-backend", default="eager",
                        choices=("eager", "float32", "float64", "int8"),
                        help="execution path requests drain through: the "
                             "batched graph interpreter or a compiled "
                             "kernel backend")
    parser.add_argument("--program-cache", default=None, metavar="DIR",
                        help="on-disk AOT program cache directory; kernel "
                             "programs load precompiled (memmapped packed "
                             "parameters, the measured arena plan) and "
                             "first-compiles persist for the next start — "
                             "warm it with 'repro compile'")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="total neighbor-index cache entries (0 "
                             "disables caching; with --shards the budget "
                             "is partitioned across the replicas)")
    if bench:
        parser.add_argument("--shards", type=int, nargs="+", default=None,
                            metavar="S",
                            help="with --serve: run the sharded-serving "
                                 "scaling sweep at these shard counts "
                                 "instead of the latency sweep (writes "
                                 "BENCH_shard.json; 1 is always included "
                                 "as the scaling baseline)")
    else:
        parser.add_argument("--shards", type=int, default=1,
                            help="worker slots the placement planner "
                                 "bin-packs replicas into; above 1 the "
                                 "cache-affinity shard router fronts the "
                                 "replica fleet")
        parser.add_argument("--memory-budget-mb", type=float, default=None,
                            help="per-slot working-set budget for the "
                                 "placement planner (default: unbounded)")
    if not bench:
        parser.add_argument("--tuned", action="store_true",
                            help="dispatch each hosted network on its "
                                 "stored autotuned table from "
                                 "--program-cache (warm it with 'repro "
                                 "tune'; networks without a stored table "
                                 "keep the fixed configuration)")
    if bench:
        parser.add_argument("--deadline-ms", type=float, default=750.0,
                            help="p99 budget the serve row records for "
                                 "the CI tail-latency gate")


_COMMANDS = {
    "report": _cmd_report,
    "networks": _cmd_networks,
    "trace": _cmd_trace,
    "compile": _cmd_compile,
    "tune": _cmd_tune,
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
