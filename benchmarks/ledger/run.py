#!/usr/bin/env python3
"""Serving ledger benchmark: what a request through ``repro serve`` costs.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

drives a real ``python -m repro.cli serve`` subprocess over stdin/stdout
JSON lines, prints every metric by name with its unit, checks the
outputs, and ends with one JSON result line.  ``--trace 0`` carries the
end-to-end metrics of ``BENCHMARK.json`` on that line (cold starts sit
between the slices); ``--trace 1`` its per-layer metrics (the same slices
without cold starts, an open-loop phase, then the in-process traced run of
``layers.py``).  Without ``--workload`` or ``--trace`` it runs all of them.
See ``README.md`` for the protocol and for why each metric is where it is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

#: One BLAS thread, in the server (which inherits this environment) and in
#: the traced run in this process.  With OpenBLAS's default of a thread per
#: core the same batch burns twice the CPU for the same wall time, and the
#: spinning thread fights the generator for this box's second core.  Set
#: before numpy loads — it reads these once.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import loadgen
import numpy as np

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MAX_BATCH = 8  # the CLI's --max-batch default


@dataclass(frozen=True)
class Workload:
    """One traffic mix; everything else is the CLI's defaults.

    ``unloaded`` and ``capacity`` are the request counts of a run's two
    measured phases at ``--seconds`` = ``REFERENCE_S``, sized so that they
    take about that long on the box the benchmark was written on.  Work is
    fixed by count, never by the clock: two commits do identical work.
    """

    network: str
    scale: float
    backend: str | None  # --serve-backend; None = the default eager executor
    n_points: int  # the cloud size the hosted network serves
    unloaded: int  # closed loop, 1 caller
    capacity: int  # closed loop, MAX_BATCH callers
    loaded: int  # open-loop diagnostic phase (traced runs only) ...
    loaded_rps: float  # ... at this fixed rate, ~25-30 % of probed capacity
    replay: int  # requests the traced run replays in-process
    shards: int = 1
    pool: int = 0  # 0: every cloud distinct; else Zipf(1.0) over this many

    def server_argv(self):
        argv = ["--network", self.network, "--scale", str(self.scale)]
        if self.backend is not None:
            argv += ["--serve-backend", self.backend]
        if self.shards > 1:
            argv += ["--shards", str(self.shards)]
        return argv


REFERENCE_S = 15.0

#: Why each one is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "pnpp_cls_f32_unique": Workload(
        "PointNet++ (c)", 0.5, "float32", 512, unloaded=320, capacity=1920,
        loaded=200, loaded_rps=30.0, replay=200),
    "dgcnn_cls_f32_unique": Workload(
        "DGCNN (c)", 0.5, "float32", 512, unloaded=120, capacity=320,
        loaded=50, loaded_rps=8.0, replay=60),
    "pnpp_seg_eager_unique": Workload(
        "PointNet++ (s)", 0.25, None, 512, unloaded=100, capacity=320,
        loaded=40, loaded_rps=6.0, replay=60),
    "pnpp_cls_f32_shard2_zipf": Workload(
        "PointNet++ (c)", 0.5, "float32", 512, unloaded=320, capacity=2560,
        loaded=250, loaded_rps=40.0, replay=200, shards=2, pool=256),
}

ROUNDS = 4  # [unloaded slice, capacity slice] pairs
WINDOWS = 5  # equal-count windows a capacity slice is cut into


@dataclass(frozen=True)
class Plan:
    """The request counts of one run: the workload's, scaled by ``--seconds``."""

    rounds: int  # [unloaded slice, capacity slice] pairs
    unloaded: int  # requests per unloaded slice
    window: int  # requests per capacity window, whole batches
    loaded: int  # open-loop diagnostic phase (traced runs only)
    probes: int  # timed cold starts in each gap between two rounds
    warm_rounds: int  # closed-loop rounds at each concurrency 1..MAX_BATCH
    layers_s: float  # budget of the in-process layer timings
    layer_calls: int  # most samples per timed layer call

    @classmethod
    def make(cls, workload, seconds, trace, smoke):
        if smoke:
            return cls(rounds=2, unloaded=5, window=MAX_BATCH, loaded=8 * trace,
                       probes=1 - trace, warm_rounds=1, layers_s=0.5,
                       layer_calls=3)
        scale = seconds / REFERENCE_S
        plan = cls(
            rounds=ROUNDS,
            unloaded=max(5, round(workload.unloaded * scale / ROUNDS)),
            window=MAX_BATCH * max(1, round(
                workload.capacity * scale / (ROUNDS * WINDOWS * MAX_BATCH))),
            loaded=0, probes=3, warm_rounds=2, layers_s=0.0, layer_calls=0)
        if trace:
            # No cold starts; the open-loop phase and the in-process layer
            # timings instead.
            plan = replace(plan, probes=0,
                           loaded=max(8, round(workload.loaded * scale)),
                           layers_s=0.8 * seconds, layer_calls=30)
        return plan

    @property
    def capacity(self):
        """Requests per capacity slice: the 8 that fill the loop, the
        windows, and the send that closes the last one."""
        return MAX_BATCH + WINDOWS * self.window + 1


def fingerprint():
    """The machine facts a number from this benchmark depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "scipy": scipy_version,
            "machine": platform.machine(), "thread_env": THREAD_ENV}


# -- the subprocess run ------------------------------------------------------


def cold_start(workload, requests, tag):
    """Spawn -> first response to one request -> drain.

    Returns ``(seconds from spawn to that response, the call)``.
    """
    stderr = OUT / f"stderr-{tag}-probe.txt"
    with loadgen.ServeProcess(workload.server_argv(), stderr) as server:
        [call] = server.closed_loop(requests.take(1), 1, "probe")
        server.drain()
    return call.done - server.spawned, call


def serve_run(name, workload, requests, plan):
    """Every phase against one server; returns the raw observations."""
    calls, slices, setup_s = [], [], []
    steal0, total0 = loadgen.read_host_steal()
    with loadgen.ServeProcess(workload.server_argv(),
                              OUT / f"stderr-{name}.txt") as server:
        # This start is the discarded one: the first in a fresh checkout
        # also compiles the .pyc files.
        server.closed_loop(requests.take(1), 1, "first")
        # Warm-up: every batch height runs before anything is timed — the
        # kernel runtime measures and installs an arena plan the first time
        # it sees an input shape, and that first run is a slow one.  These
        # measuring runs also set the process's peak RSS (see README, "Noise",
        # for why it is two rounds at each height and in this order).
        for concurrency in range(1, MAX_BATCH + 1):
            for _ in range(plan.warm_rounds):
                server.closed_loop(requests.take(concurrency), concurrency,
                                   "warmup")
        # Unloaded and capacity slices alternate, and the cold starts sit in
        # the gaps while this server idles, so a burst from a neighbour on
        # this shared box lands in a minority of the samples of *each* metric.
        for round_ in range(plan.rounds):
            for _ in range(plan.probes if round_ else 0):
                seconds, call = cold_start(workload, requests, name)
                setup_s.append(seconds)
                calls.append(call)
            for count, concurrency, phase in (
                    (plan.unloaded, 1, "unloaded"),
                    (plan.capacity, MAX_BATCH, "capacity")):
                ready = requests.take(count)  # encoded before the clock starts
                cpu0 = server.cpu_seconds()
                server.closed_loop(ready, concurrency, phase)
                slices.append((ready, server.cpu_seconds() - cpu0))
        if plan.loaded:
            offsets = loadgen.poisson_schedule(
                np.random.default_rng([requests.seed, 4]),
                workload.loaded_rps, plan.loaded)
            server.open_loop(requests.take(plan.loaded), offsets, "loaded")
        rss_mb = server.peak_rss_mb()
        stats = server.drain()
        calls += server.calls.values()
        stray = list(server.stray)
    steal1, total1 = loadgen.read_host_steal()
    return {"calls": calls, "slices": slices, "stray": stray, "stats": stats,
            "rss_mb": rss_mb, "setup_s": setup_s,
            "steal_frac": (steal1 - steal0) / max(1, total1 - total0)}


def ledger_metrics(run, plan):
    """Issue 16's five user-facing numbers: a median wherever samples repeat.

    Which of them are bounded end-to-end metrics and which are reported
    without a bound is BENCHMARK.json's decision, not this function's.
    """
    median = statistics.median
    rps, cpu_ms, latency_ms = [], [], []
    for sent, cpu_s in run["slices"]:
        if sent[0].phase == "capacity":
            # Windows are counted over sends: in a closed loop every response
            # triggers the next send.  The first MAX_BATCH sends fill the loop.
            rps += [plan.window / seconds for seconds in loadgen.window_deltas(
                [c.sent for c in sent], plan.window, MAX_BATCH)]
            cpu_ms.append(cpu_s * 1e3 / len(sent))
        else:
            latency_ms += [c.latency_ms for c in sent]
    metrics = {
        "capacity_rps": median(rps),
        "latency_p50_ms": median(latency_ms),
        "cpu_ms_per_request": median(cpu_ms),
        "peak_rss_mb": run["rss_mb"],
    }
    if run["setup_s"]:  # a traced run takes no cold starts
        metrics["setup_s"] = median(run["setup_s"])
    return metrics


def serving_metrics(run):
    """The per-layer numbers the subprocess run yields (response fields, stderr)."""
    med, pct = statistics.median, loadgen.percentile
    by_phase = {}
    for call in run["calls"]:
        by_phase.setdefault(call.phase, []).append(call)
    unloaded, capacity = by_phase["unloaded"], by_phase["capacity"]
    loaded = by_phase.get("loaded", [])
    stats = run["stats"]
    m = {
        "cli.wire_ms_p50": med(c.latency_ms - c.server_ms for c in unloaded),
        "cli.request_bytes": med(c.request_bytes for c in unloaded),
        "cli.response_bytes": med(c.response_bytes for c in unloaded),
        "serve.queued_ms_p50": med(c.queued_ms for c in unloaded),
        "serve.service_ms_p50": med(c.server_ms - c.queued_ms for c in unloaded),
        "serve.service_ms_p50_c8": med(c.server_ms - c.queued_ms for c in capacity),
        # requests per sub-batch, as the server's own mean_batch counts it
        "serve.mean_batch_c8": len(capacity) / sum(1 / c.batch_size for c in capacity),
        "serve.sub_batches": stats["sub_batches"],
        "serve.rejected": stats["rejected"],
        "serve.failed": stats["failed"],
        "serve.unloaded_p99_ms": pct([c.latency_ms for c in unloaded], 99),
        "serve.loaded_p50_ms": pct([c.latency_ms for c in loaded], 50),
        "serve.loaded_p90_ms": pct([c.latency_ms for c in loaded], 90),
        "serve.loaded_p99_ms": pct([c.latency_ms for c in loaded], 99),
        "serve.loaded_mean_batch": (
            len(loaded) / sum(1 / c.batch_size for c in loaded) if loaded else 0.0),
        "serve.loadgen_late_ms_p99": pct([(c.sent - c.due) * 1e3 for c in loaded], 99),
        "engine.cache_hit_rate": stats["cache_hit_rate"],
        "engine.cache_misses": stats["cache_misses"],
        "engine.cache_evictions": stats["cache_evictions"],
        "host.steal_frac": run["steal_frac"],
        "shard.affinity_hit_frac": 0.0,
        "shard.spilled": 0,
        "shard.imbalance": 0.0,
    }
    if "routed" in stats:
        per_shard = stats["per_shard_completed"]
        m["shard.affinity_hit_frac"] = stats["affinity_hits"] / max(1, stats["routed"])
        m["shard.spilled"] = stats["spilled"]
        m["shard.imbalance"] = max(per_shard) / (sum(per_shard) / len(per_shard))
    return m


# -- output check ------------------------------------------------------------


def check(workload, requests, run):
    """Failed-request count and reasons: accounting on all, values on 32.

    A request fails when it got no response, an ``error`` response or a
    wrongly-shaped output, or when it is one of 32 sampled responses whose
    output differs from an in-process ``BatchRunner`` (same backend, batch
    of one, same cloud) by more than the tolerance.  Stray lines (unknown or
    duplicate ids) and the server's own rejected/failed counters count too.
    """
    from repro.engine import BatchRunner
    from repro.networks import build_network

    runner = BatchRunner(build_network(workload.network, scale=workload.scale),
                         strategy="delayed", backend=workload.backend)
    calls = run["calls"]
    kept = [c for c in calls if c.output is not None]
    picks = {int(i) for i in np.linspace(0, len(kept) - 1, min(32, len(kept)))}
    # float32 kernels: 1e-3 of the largest output.  Eager float64 is not
    # bit-exact either — the stack height changes BLAS blocking.
    tolerance = 1e-3 if workload.backend == "float32" else 1e-9
    shape, wrong = None, {}
    for i in sorted(picks):
        call = kept[i]
        reference = runner.run(requests.cloud(call.cloud)[None]).per_cloud()[0]
        shape = reference.shape
        if call.shape == shape:
            error = np.abs(call.output - reference).max()
            if not error <= tolerance * np.abs(reference).max():
                wrong[call.rid] = f"output off by {error:.3g}"
    for call in calls:
        if call.done is None:
            wrong[call.rid] = "no response"
        elif call.error is not None:
            wrong[call.rid] = f"error response: {call.error}"
        elif call.shape != shape:
            wrong[call.rid] = f"output shape {call.shape}, expected {shape}"
    reasons = [f"{rid}: {why}" for rid, why in wrong.items()]
    reasons += [f"stray response line: {line[:80]!r}" for line in run["stray"]]
    stats = run["stats"]
    for key in ("rejected", "failed"):
        reasons += [f"server counted a {key} request"] * stats[key]
    served = sum(c.phase != "probe" for c in calls)
    if stats["completed"] != served:
        reasons.append(f"server counted {stats['completed']} completed requests, "
                       f"the generator sent it {served}")
    return len(picks), reasons


# -- entry point -------------------------------------------------------------


def run_workload(name, seed, seconds, trace, smoke, spec):
    """One run of one workload; prints its metrics and the result line."""
    workload = WORKLOADS[name]
    plan = Plan.make(workload, seconds, trace, smoke)
    requests = loadgen.Requests(seed, workload.n_points, workload.pool)
    machine = fingerprint()
    print(f"# {name} seed={seed} seconds={seconds} trace={trace} "
          f"smoke={int(smoke)} {json.dumps(machine)}")
    stderr = OUT / f"stderr-{name}.txt"
    try:
        run = serve_run(name, workload, requests, plan)
    except (loadgen.ServeFailure, ValueError) as exc:
        print(f"FAILED: {exc}\n--- server stderr ({stderr}) ---\n"
              f"{stderr.read_text() if stderr.exists() else ''}", file=sys.stderr)
        return False
    checked, reasons = check(workload, requests, run)
    metrics = ledger_metrics(run, plan)
    if trace:
        import layers

        metrics.update(serving_metrics(run))

        layer_metrics, trace_data, errors = layers.measure(
            workload, seed, plan.layers_s, plan.layer_calls,
            8 if smoke else workload.replay)
        metrics.update(layer_metrics)
        metrics["trace.service_coverage"] = (
            metrics["engine.run_ms_b1"] / metrics["serve.service_ms_p50"])
        reasons += [f"traced replay: {error}" for error in errors]
        trace_data.update(workload=name, seed=seed, fingerprint=machine,
                          metrics=metrics)
        (OUT / f"trace-{name}.json").write_text(json.dumps(trace_data))
    by_phase = Counter(call.phase for call in run["calls"])
    print("requests_attempted " + " ".join(f"{k}={v}" for k, v in by_phase.items()))
    print(f"requests_failed {len(reasons)} (outputs compared: {checked})")
    # The result line carries the metrics BENCHMARK.json lists for this mode;
    # whatever else was measured on the way is printed after them.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
              for m in spec["per_layer" if trace else "end_to_end"]}
    for name in [*result, *(name for name in metrics if name not in result)]:
        print(f"{name:30s} {float(metrics[name]):14.4f} {units[name]}"
              + ("" if name in result else "  (not in this mode's result line)"))
    for metric in ("trace.kernel_coverage", "trace.service_coverage"):
        applies = metric in result and workload.backend is not None
        if applies and not 0.8 <= result[metric]["value"] <= 1.1:
            print(f"WARNING: {metric} = {result[metric]['value']:.3f} is outside "
                  "[0.8, 1.1]: the stage sums do not reconcile with the total")
    for reason in reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if reasons:
        print(f"--- server stderr ({stderr}) ---\n{stderr.read_text()}",
              file=sys.stderr)
    print(json.dumps({"correct": not reasons, "attempted": len(run["calls"]),
                      "failed": len(reasons), "metrics": result}))
    return not reasons


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts, for the tests: numbers mean nothing")
    args = parser.parse_args(argv)

    if not (loadgen.SRC / "repro" / "cli.py").exists():
        sys.exit(f"no program to measure: {loadgen.SRC / 'repro'} is missing")
    sys.path.insert(0, str(loadgen.SRC))
    spec = json.loads((loadgen.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    ok = True
    for name in [args.workload] if args.workload else list(WORKLOADS):
        for trace in [args.trace] if args.trace is not None else (0, 1):
            ok &= run_workload(name, args.seed, seconds, trace, args.smoke, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
