"""Tests of the ledger benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import io
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import aa_check
import loadgen
import numpy as np
import pytest
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((loadgen.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_lists_the_workloads_run_py_has():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    # Issue 16: a metric that will not repeat to 10 % moves to per_layer, its
    # bound is not widened.  setup_s cannot move — the benchmark contract
    # makes it an end-to-end metric and gives it the largest bound instead.
    assert all(0 < m["bound"] <= 0.10 for m in SPEC["end_to_end"]
               if m["name"] != "setup_s")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_listed_metric(trace, listed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--workload", "pnpp_cls_f32_shard2_zipf", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[listed]]
    for entry, metric in zip(SPEC[listed], result["metrics"].values()):
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
    # ids reconcile: every request of every phase is in `attempted`
    [phases] = [line for line in lines if line.startswith("requests_attempted ")]
    counts = [int(part.split("=")[1]) for part in phases.split()[1:]]
    assert sum(counts) == result["attempted"] >= 1
    if not trace:  # aa_check reads the five user-facing numbers off the table
        printed = dict(aa_check._METRIC_LINE.findall(done.stdout))
        assert set(printed) == {"setup_s", "capacity_rps", "latency_p50_ms",
                                "cpu_ms_per_request", "peak_rss_mb"}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["engine.cache_hit_rate"] > 0
        assert metrics["shard.affinity_hit_frac"] > 0
        assert metrics["backend.kernels"] == 17
        spans = json.loads((HERE / "out" / "trace-pnpp_cls_f32_shard2_zipf.json")
                           .read_text())["spans"]
        assert {s["name"] for s in spans} == {
            "request", "cli.handle_line", "shard.submit", "serve.submit",
            "engine.run", "cli.emit"}
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["name"] != "request":
                assert by_id[span["parent"]]["request"] == span["request"]


def test_windows_are_contiguous():
    times = [0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0]
    assert loadgen.window_deltas(times, 3) == [3.0, 6.0]
    assert loadgen.window_deltas(times, 3, start=1) == [4.0]  # the fill is skipped
    assert loadgen.window_deltas(times[:3], 3) == []  # no full window


def test_work_is_fixed_by_count_and_scales_with_seconds():
    for workload in run.WORKLOADS.values():
        plan = run.Plan.make(workload, run.REFERENCE_S, trace=0, smoke=False)
        assert plan.rounds * plan.unloaded == workload.unloaded
        assert plan.rounds * run.WINDOWS * plan.window == workload.capacity
        assert plan.window % run.MAX_BATCH == 0  # windows of whole batches
        assert (plan.rounds - 1) * plan.probes == 9  # cold starts, in the gaps
        double = run.Plan.make(workload, 2 * run.REFERENCE_S, trace=0, smoke=False)
        assert (double.unloaded, double.window) == (2 * plan.unloaded, 2 * plan.window)
    assert SPEC["run_seconds"] == run.REFERENCE_S


def test_the_five_user_facing_numbers_are_medians():
    plan = run.Plan.make(run.WORKLOADS["pnpp_cls_f32_unique"], 1.0, 0, smoke=True)

    def capacity_slice(window_seconds):
        # the loop fills, then every window's sends are spread evenly over it
        sends = [0.0] * (run.MAX_BATCH + 1)
        for seconds in window_seconds:
            start = sends[-1]
            sends += [start + seconds * (i + 1) / plan.window
                      for i in range(plan.window)]
        return [loadgen.Call(f"c{i}", i, b"", 0, False, phase="capacity", sent=t)
                for i, t in enumerate(sends)]

    def unloaded_slice(latencies_ms):
        return [loadgen.Call(f"u{i}", i, b"", 0, False, phase="unloaded",
                             due=1.0, done=1.0 + ms / 1e3)
                for i, ms in enumerate(latencies_ms)]

    first, second = capacity_slice([1, 1, 2, 4, 8]), capacity_slice([1, 1, 1, 2, 2])
    assert len(first) == plan.capacity
    metrics = run.ledger_metrics({
        "slices": [(unloaded_slice([10, 30, 500]), 0.0), (first, 0.08 * len(first)),
                   (unloaded_slice([20, 20]), 0.0), (second, 0.04 * len(second))],
        "rss_mb": 123.0, "setup_s": [0.9, 0.5, 0.7]}, plan)
    # ten windows of 8 requests lasting 1 1 1 1 1 | 2 2 2 4 8 s: median 1.5 s
    assert metrics["capacity_rps"] == pytest.approx((8 / 1 + 8 / 2) / 2)
    assert metrics["latency_p50_ms"] == pytest.approx(20.0)  # of all five
    assert metrics["cpu_ms_per_request"] == pytest.approx(60.0)  # of both slices
    assert metrics["peak_rss_mb"] == 123.0 and metrics["setup_s"] == 0.7
    # every one of them is listed, with or without a bound, in BENCHMARK.json
    assert set(metrics) <= {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def test_zipf_ids_and_poisson_schedule_follow_the_seed():
    ids = loadgen.zipf_ids(np.random.default_rng(7), 256, 4000)
    again = loadgen.zipf_ids(np.random.default_rng(7), 256, 4000)
    assert (ids == again).all() and ids.min() >= 0 and ids.max() < 256
    assert (ids == 0).sum() > 5 * (ids == 50).sum() > 0  # rank 1 ≫ rank 51
    offsets = loadgen.poisson_schedule(np.random.default_rng(7), 40.0, 4000)
    assert (np.diff(offsets) > 0).all()
    assert offsets[-1] == pytest.approx(100.0, rel=0.1)
    other = loadgen.poisson_schedule(np.random.default_rng(8), 40.0, 4000)
    assert not np.array_equal(offsets, other)


def test_requests_are_a_function_of_the_seed():
    first = loadgen.Requests(5, 16).take(3)
    again = loadgen.Requests(5, 16).take(3)
    assert [c.line for c in first] == [c.line for c in again]
    assert first[0].line != loadgen.Requests(6, 16).take(1)[0].line
    assert len({c.line.split(b'"cloud"')[1] for c in first}) == 3  # all distinct
    cloud = json.loads(first[1].line)["cloud"]
    assert np.array_equal(cloud, loadgen.Requests(5, 16).cloud(first[1].cloud))

    pooled = loadgen.Requests(5, 16, pool=4)
    calls = pooled.take(40)
    assert {c.cloud for c in calls} <= set(range(4))
    assert [c.rid for c in pooled.take(2)] == ["r40", "r41"]  # the stream goes on


def test_proc_parsers():
    stat = ("4242 (python3 (odd) name) S 1 4242 4242 0 -1 4194304 9000 0 0 0 "
            "250 50 7 3 20 0 3 0 100 1000000 5000 18446744073709551615 "
            + "0 " * 30)
    assert loadgen.parse_proc_stat_cpu(stat, 100) == pytest.approx(3.0)
    status = "Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t  176128 kB\nThreads:\t3\n"
    assert loadgen.parse_proc_status_mb(status, "VmHWM") == pytest.approx(172.0)
    with pytest.raises(ValueError):
        loadgen.parse_proc_status_mb(status, "VmSwap")
    host = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n"
    assert loadgen.parse_host_steal(host) == (35, 1000)
    assert loadgen.parse_proc_stat_cpu(  # this very process, whatever it is called
        Path("/proc/self/stat").read_text(), 100) >= 0


def test_stats_parser_reads_what_the_cli_prints():
    from repro.cli import _print_serve_stats

    shard = {"completed": 60, "sub_batches": 20,
             "cache": {"hits": 30, "misses": 50, "evictions": 2, "hit_rate": 0.375}}
    stats = {
        "completed": 100, "sub_batches": 31, "mean_batch": 3.2258, "rejected": 1,
        "failed": 2,
        "cache": {"hits": 60, "misses": 90, "evictions": 4, "hit_rate": 0.4,
                  "size": 86, "maxsize": 256},
        "routing": {"routed": 100, "affinity_hits": 97, "spilled": 3, "rejected": 0},
        "per_shard": [dict(shard, shard=0), dict(shard, shard=1, completed=40)],
    }
    text = io.StringIO()
    with redirect_stderr(text):
        _print_serve_stats(stats)
    parsed = loadgen.parse_serve_stats("serving n_points in [512] on stdin\n"
                                       + text.getvalue())
    assert parsed == {
        "completed": 100, "sub_batches": 31, "mean_batch": 3.23, "rejected": 1,
        "failed": 2, "cache_hits": 60, "cache_misses": 90, "cache_evictions": 4,
        "cache_hit_rate": 0.4, "per_shard_completed": [60, 40],
        "routed": 100, "affinity_hits": 97, "spilled": 3,
    }
    with pytest.raises(ValueError):  # a drifted format must not read as zeros
        loadgen.parse_serve_stats(text.getvalue().replace("served", "handled"))


@pytest.mark.parametrize("name", ["pnpp_seg_eager_unique", "pnpp_cls_f32_shard2_zipf"])
def test_traced_server_is_wired_like_the_one_the_cli_builds(name):
    """``layers.build_server`` copies the hosting constructors by hand (a
    proxy has to go around each runner); this fails when they drift apart."""
    import layers
    from repro import cli
    from repro.networks import build_network

    workload = run.WORKLOADS[name]

    def wiring(server):
        replicas = [server.replica(k) for k in range(server.n_shards)] \
            if workload.shards > 1 else [server]
        runners = [replica._routes[workload.n_points] for replica in replicas]
        return {
            "servers": [(type(r), r.shard, r.policy, r.workers) for r in replicas],
            "runners": [(type(r), r.strategy, r.backend, r.fusion, r.tuned,
                         r.program_cache, r.cache.maxsize) for r in runners],
            "caches": len({id(r.cache) for r in runners}),
            "shared_params": [r.params is not None and r.params is runners[0].params
                              for r in runners],
            "plan": [(p.shard, p.n_points) for p in server.plan.replicas]
            if workload.shards > 1 else None,
        }

    served = cli._build_server(cli.build_parser().parse_args(
        ["serve", *workload.server_argv()]))
    built = layers.build_server(
        workload, build_network(workload.network, scale=workload.scale),
        layers.Tracer(enabled=False))
    try:
        assert wiring(built) == wiring(served)
    finally:
        built.close(drain=False)
        served.close(drain=False)
