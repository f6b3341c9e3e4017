"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
report
    Print the full paper-style evaluation report.
trace NETWORK [--strategy S] [--graph | --memory]
    Print the operator trace of one benchmark network (``--graph``
    adds the lowered operator graph in place of the op list;
    ``--memory`` prints the planner's per-phase peaks and arena layout
    instead).
simulate NETWORK [--config C]
    Simulate one network on one SoC configuration.
networks
    List the benchmark networks (Table I).
train [--network N] [--strategy S] [--epochs E]
    Train a scaled-down classifier on the synthetic dataset.
serve [--network N ...] [--max-batch B] [--port P]
    Long-lived continuous-batching server (stdin or TCP JSON lines).
    ``--shards N`` fronts N replica servers with the cache-affinity
    shard router.  Its latency and throughput are
    measured by ``benchmarks/ledger/README.md``.

This module holds the parser and ``serve``; the other command bodies
live in :mod:`repro.commands`, which a server start never imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

from .networks.registry import NETWORK_MODULES

__all__ = ["main"]

#: Longest request line the server buffers, on stdin or ``--port``,
#: newline excluded: about 8x the JSON of a 2048-point cloud.  A longer
#: line is discarded up to its newline and answered with one error line.
MAX_LINE_BYTES = 1 << 20


def _request_lines(stream, emit):
    """Yield each non-blank line of binary ``stream``, decoded and stripped.

    A line is read at most ``MAX_LINE_BYTES`` at a time: a longer one is
    discarded up to its newline and answered with one error line through
    ``emit``.  Bytes decode with replacement, so a line that is not
    UTF-8 (or a last line cut inside a character) fails as JSON instead
    of ending the loop.
    """
    while raw := stream.readline(MAX_LINE_BYTES + 1):
        if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
            while raw and not raw.endswith(b"\n"):
                raw = stream.readline(MAX_LINE_BYTES + 1)
            emit({"id": None,
                  "error": "request line longer than the "
                           f"{MAX_LINE_BYTES}-byte limit"})
            continue
        line = raw.decode(errors="replace").strip()
        if line:
            yield line


def _serve_handle_line(server, line, emit):
    """One JSON request line -> submit; ``emit`` gets the response dict.

    Malformed lines (bad JSON, JSON that is not an object, no
    ``cloud``, an id holding NaN or Infinity) and rejected requests
    (unroutable shape, non-finite coordinates, queue backpressure,
    shutdown) are answered immediately with an ``error`` response
    carrying the request id when one was parsed.  Every response dict
    is strict JSON (RFC 8259 has no NaN or Infinity): an output that is
    not finite is answered with an ``error`` too.
    """
    import numpy as np

    from .serve import ServeError

    request_id = None
    try:
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError("request must be a JSON object, got "
                             f"{type(payload).__name__}")
        try:
            json.dumps(payload.get("id"), allow_nan=False)
        except ValueError:
            raise ValueError("request id holds NaN or Infinity, which a "
                             "JSON response cannot echo") from None
        request_id = payload.get("id")
        future = server.submit(
            payload["cloud"],
            request_id=request_id,
            tenant=payload.get("tenant", "default"),
        )
    except (ServeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        emit({"id": request_id, "error": str(exc)})
        return

    def deliver(done):
        exc = done.exception()
        if exc is not None:
            emit({"id": request_id, "error": str(exc)})
            return
        resp = done.result()
        output = resp.output
        leaves = output.values() if isinstance(output, dict) else (output,)
        if not all(np.isfinite(leaf).all() for leaf in leaves):
            emit({"id": resp.request_id,
                  "error": "output is not finite (NaN or inf): the cloud "
                           "overflows the precision it is served in"})
            return
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
    """The server ``args`` describe; a bad configuration is a ValueError."""
    from .engine.cache import NeighborIndexCache
    from .serve import BatchPolicy, Server

    policy = BatchPolicy(max_batch=args.max_batch, max_queue=args.max_queue)
    if args.shards != 1:
        from .serve import ShardRouter

        if args.workers is not None:
            raise ValueError(
                "--workers does not apply under --shards: the router "
                "runs one lane per replica")

        return ShardRouter.hosting(
            args.network or ["PointNet++ (c)"],
            shards=args.shards,
            strategy=args.strategy,
            scale=args.scale,
            backend=args.serve_backend,
            policy=policy,
            cache_size=args.cache_size,
        )
    cache = NeighborIndexCache(maxsize=args.cache_size) \
        if args.cache_size else None
    return Server.hosting(
        args.network or ["PointNet++ (c)"],
        strategy=args.strategy,
        scale=args.scale,
        backend=args.serve_backend,
        policy=policy,
        workers=1 if args.workers is None else args.workers,
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


def _tcp_server(port, server, write_lock):
    """A threading TCP server on 127.0.0.1:``port`` feeding ``server``;
    a port it cannot bind is an ``OSError`` here, before any request."""
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            def emit_socket(payload):
                data = (json.dumps(payload, allow_nan=False)
                        + "\n").encode()
                with write_lock:
                    self.wfile.write(data)

            for line in _request_lines(self.rfile, emit_socket):
                _serve_handle_line(server, line, emit_socket)

    tcp = socketserver.ThreadingTCPServer(("127.0.0.1", port), Handler)
    tcp.daemon_threads = True
    return tcp


def _cmd_serve(args):
    """Long-lived request loop: JSON lines on stdin or a TCP socket."""
    import signal

    from .serve import ServeError

    try:
        server = _build_server(args)
    except (ValueError, ServeError) as exc:
        # A configuration error, found before any request is read.
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    write_lock = threading.Lock()
    tcp = None
    if args.port is not None:
        try:
            tcp = _tcp_server(args.port, server, write_lock)
        except OSError as exc:
            server.close()
            print(f"repro serve: error: cannot listen on 127.0.0.1:"
                  f"{args.port}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    if args.shards > 1:
        print(server.plan.describe(), file=sys.stderr)
    sizes = ", ".join(str(n) for n in server.served_sizes)

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
            stream.write(json.dumps(payload, allow_nan=False) + "\n")
            stream.flush()

    try:
        if tcp is not None:
            with tcp:
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
            for line in _request_lines(sys.stdin.buffer, emit):
                _serve_handle_line(server, line, emit)
    except KeyboardInterrupt:
        pass
    finally:
        server.close(drain=True)
        _print_serve_stats(server.stats())
    return 0


def _network_name(name):
    """Parse-time check of a network argument against the registry.

    A ``type=`` rather than ``choices=``: argparse checks an omitted
    ``nargs="*"`` positional's empty list against ``choices`` and fails.
    """
    if name not in NETWORK_MODULES:
        raise argparse.ArgumentTypeError(
            f"unknown network {name!r} (choose from "
            f"{', '.join(map(repr, NETWORK_MODULES))})")
    return name


_NETWORK = {"type": _network_name, "metavar": "NETWORK"}


def _port(text):
    """Parse-time check of ``--port``: a TCP port number, 0 = any free."""
    if not (text.isdecimal() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(
            f"port must be an integer in 0..65535, got {text!r}")
    return int(text)


def _cache_size(text):
    """Parse-time check of ``--cache-size``: entries, 0 = no cache."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "cache size must be a non-negative integer (0 disables "
            f"caching), got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="Mesorasi reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("report", help="full paper-style report")
    sub.add_parser("networks", help="list benchmark networks")

    p_trace = sub.add_parser("trace", help="print a network's op trace")
    p_trace.add_argument("network", **_NETWORK)
    p_trace.add_argument("--strategy", default="delayed",
                         choices=("original", "delayed", "limited"))
    # Each replaces the flat op list with a different report.
    view = p_trace.add_mutually_exclusive_group()
    view.add_argument("--graph", action="store_true",
                      help="print the lowered operator graphs instead "
                           "of the flat op list")
    view.add_argument("--memory", action="store_true",
                      help="print the kernel runtime's per-phase memory "
                           "peaks before/after arena planning, plus the "
                           "planned arena layout")

    p_sim = sub.add_parser("simulate", help="simulate a network on an SoC")
    p_sim.add_argument("network", **_NETWORK)
    p_sim.add_argument("--config", default="mesorasi_hw")

    p_train = sub.add_parser("train", help="train a toy classifier")
    p_train.add_argument("--network", default="PointNet++ (c)", **_NETWORK)
    p_train.add_argument("--strategy", default="delayed",
                         choices=("original", "delayed", "limited"))
    p_train.add_argument("--epochs", type=int, default=5)

    p_serve = sub.add_parser(
        "serve", help="long-lived continuous-batching inference server"
    )
    p_serve.add_argument("--network", action="append", default=None,
                         **_NETWORK,
                         help="network to host (repeatable; requests route "
                              "by cloud size, so hosted networks must "
                              "differ in n_points)")
    p_serve.add_argument("--scale", type=float, default=0.125)
    p_serve.add_argument("--strategy", default="delayed",
                         choices=("original", "delayed", "limited"))
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="admission bound; pushes beyond it are "
                              "rejected with a backpressure error")
    p_serve.add_argument("--port", type=_port, default=None,
                         help="serve JSON lines over TCP on 127.0.0.1:PORT "
                              "instead of stdin")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="most queued requests one dispatch takes "
                              "(it never waits for more)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="lanes (dispatcher threads), the batches "
                              "in flight at once: 1 to 64, default 1 = "
                              "fully serial; not with --shards")
    p_serve.add_argument("--serve-backend", default="float64",
                         choices=("float32", "float64"),
                         help="precision of the compiled kernel program "
                              "requests drain through")
    p_serve.add_argument("--cache-size", type=_cache_size, default=256,
                         help="total neighbor-index cache entries (0 "
                              "disables caching; with --shards the total "
                              "is split evenly across the replicas, so it "
                              "must be at least their count)")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="replica servers, at most 64, each hosting "
                              "one network round-robin; above 1 the "
                              "shard router fronts them, sending each "
                              "cloud to the replica its content picks")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    from .commands import COMMANDS

    try:
        status = COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (``repro trace ... | head``).
        # Point stdout at devnull so the interpreter's final flush
        # cannot raise again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
