"""Tests for the shape-keyed autotuner.

Covers the default delayed program's peak live-bytes bound, pass
idempotence for every graph pass, the
:class:`~repro.tune.Autotuner` cold/warm protocol (warm re-tunes run
zero benchmarks), its correctness gates (a gate-failing configuration
is recorded but never selected), measured dispatch through
``BatchRunner(tuned=)`` / ``AsyncRunner(tuned=)`` / ``Server.hosting``
with nearest-batch fallback — plus the satellites: the shared bench-row
schema validator, the CI gate script's baseline comparison mode, and
the neighbor cache's thread-safe stats counters.
"""

import importlib.util
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.backend import ProgramCache, compile_kernel_program
from repro.engine import AsyncRunner, BatchRunner, NeighborIndexCache
from repro.engine.bench import bench_tune, validate_row, write_json
from repro.graph import (
    build_module_graph,
    dead_code_elimination,
    delay_aggregation,
    fuse_aggregation,
    limit_delay,
)
from repro.networks import ALL_NETWORKS, build_network
from repro.serve import Server
from repro.tune import Autotuner, TunedConfig, TunedTable, shape_key

STRATEGIES = ("original", "delayed", "limited")


def toy(name, seed=0):
    scale = 0.03125 if "(s)" in name else 0.0625
    return build_network(name, num_classes=4, scale=scale,
                         rng=np.random.default_rng(seed))


def cloud_for(net, seed=0):
    return np.random.default_rng(seed).normal(size=(net.n_points, 3))


def clouds_for(net, batch, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, net.n_points, 3))


def assert_outputs_equal(ref, out):
    if isinstance(ref, dict):
        assert set(ref) == set(out)
        for key in ref:
            assert_outputs_equal(ref[key], out[key])
    elif isinstance(ref, (list, tuple)):
        assert len(ref) == len(out)
        for a, b in zip(ref, out):
            assert_outputs_equal(a, b)
    else:
        a = getattr(ref, "data", ref)
        b = getattr(out, "data", out)
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def graph_sig(graph):
    return (
        [(n.id, n.kind, n.inputs, n.attrs, n.phase) for n in graph.nodes],
        tuple(graph.outputs),
    )


# -- the aggregate kernel's working set ---------------------------------------


def test_default_delayed_program_peak_live_bytes():
    """The centroid-chunked aggregate never holds an ``(n_out, k, dim)``
    neighborhood tensor: PointNet++ (c) delayed peaked at 786432 live
    bytes when it did, and at 376832 under the opt-in gather fusion this
    kernel replaced."""
    net = build_network("PointNet++ (c)", scale=0.125)
    program = compile_kernel_program(net, "delayed", backend="float64")
    report = program.memory_report(cloud_for(net)[None])
    assert report["peak_live_bytes"] <= 376832


# -- pass idempotence --------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NETWORKS)
def test_graph_passes_idempotent(name):
    """Every pass applied twice is a structural no-op, on every network.

    The strategy rewrites apply to raw (pre-``fuse_aggregation``)
    module graphs; the aggregation fusion and DCE apply to the lowered
    whole-network graphs the executors actually run.
    """
    net = toy(name)
    checked = 0
    for module in net.encoder:
        spec = getattr(module, "spec", None)
        if spec is None or hasattr(spec, "branches"):
            continue  # MSG modules lower through their own builder
        raw = build_module_graph(spec)
        checked += 1
        for pass_fn in (delay_aggregation, limit_delay):
            once = pass_fn(raw)
            assert graph_sig(pass_fn(once)) == graph_sig(once)
    assert checked, f"{name} exposed no plain module specs"
    for strategy in STRATEGIES:
        graph = net.network_graph(strategy).graph
        for pass_fn in (fuse_aggregation, dead_code_elimination):
            once = pass_fn(graph)
            assert graph_sig(pass_fn(once)) == graph_sig(once)


# -- autotuner ---------------------------------------------------------------

TUNE_KW = dict(backends=("float64", "float32"))


def test_autotuner_cold_then_warm_zero_benchmarks(tmp_path):
    net = toy("PointNet++ (c)")
    cache = ProgramCache(tmp_path)
    cold = Autotuner(net, program_cache=cache, repeats=1, seed=3)
    table = cold.tune(batch=2, **TUNE_KW)
    assert cold.n_benchmarks > 0
    key = shape_key(net.name, net.n_points, 2)
    winner = table.config(key)
    assert winner is not None and winner.gate_passed
    passed = [c for c in table.candidates(key) if c.gate_passed]
    assert winner.ms == min(c.ms for c in passed)

    # Warm: the stored table round-trips through the program cache and
    # not a single runner is constructed or benchmarked again.
    warm = Autotuner(net, program_cache=cache, repeats=1, seed=3)
    warm_table = warm.tune(batch=2, **TUNE_KW)
    assert warm.n_benchmarks == 0
    assert (json.dumps(warm_table.to_json(), sort_keys=True)
            == json.dumps(table.to_json(), sort_keys=True))


def test_autotuner_deterministic_candidate_record():
    net = toy("PointNet++ (c)")
    key = shape_key(net.name, net.n_points, 2)

    def record(table):
        return [(c.key(), c.gate_passed, c.gate)
                for c in table.candidates(key)]

    first = Autotuner(net, repeats=1, seed=5).tune(batch=2, **TUNE_KW)
    second = Autotuner(net, repeats=1, seed=5).tune(batch=2, **TUNE_KW)
    assert record(first) == record(second)


def test_autotuner_never_selects_gate_failing_config(monkeypatch):
    import repro.tune.autotuner as mod

    net = toy("PointNet++ (c)")
    # Make the float32 tier unpassable: its candidates must be recorded
    # as failures with their measured metrics, and the winner must come
    # from the surviving tier no matter how fast float32 ran.
    monkeypatch.setitem(mod.GATE_MIN_TOP1, "float32", 2.0)
    table = Autotuner(net, repeats=1, seed=1).tune(batch=2, **TUNE_KW)
    key = shape_key(net.name, net.n_points, 2)
    assert table.config(key).backend == "float64"
    float32 = [c for c in table.candidates(key) if c.backend == "float32"]
    assert float32 and all(not c.gate_passed for c in float32)
    assert all(c.gate["top1_fraction"] <= 1.0 for c in float32)

    # With every tier unpassable there is no legal winner.
    monkeypatch.setitem(mod.GATE_MIN_TOP1, "float64", 2.0)
    with pytest.raises(RuntimeError, match="correctness gate"):
        Autotuner(net, repeats=1, seed=1).tune(batch=2, **TUNE_KW)


def test_autotuner_prune_is_recorded_not_silent():
    net = toy("PointNet++ (c)")
    log = []
    table = Autotuner(net, repeats=1, seed=2).tune(
        batch=2, backends=("float64",), prune_ratio=1.0, report=log)
    key = shape_key(net.name, net.n_points, 2)
    pruned = [c for c in table.candidates(key) if c.gate.get("pruned")]
    assert pruned, "prune_ratio=1.0 should skip the non-cheapest strategies"
    assert all(not c.gate_passed and not np.isfinite(c.ms) for c in pruned)
    assert table.entry(key)["meta"]["pruned"] == [c.key() for c in pruned]
    assert any("pruned" in line for line in log)
    # The winner still comes from the measured survivors.
    assert table.config(key).gate_passed


# -- measured dispatch -------------------------------------------------------


def test_batch_runner_dispatches_on_tuned_table():
    net = toy("PointNet++ (c)")
    table = Autotuner(net, repeats=1, seed=4).tune(batch=2, **TUNE_KW)
    key = shape_key(net.name, net.n_points, 2)
    winner = table.config(key)
    clouds = clouds_for(net, 2)
    with BatchRunner(net, tuned=table) as tuned, \
            BatchRunner(net, **winner.runner_kwargs(net)) as fixed:
        assert_outputs_equal(fixed.run(clouds).outputs,
                             tuned.run(clouds).outputs)
        assert list(tuned._tuned_runners) == [winner.key()]
        # Nearest-batch fallback: a batch-5 request reuses the batch-2
        # winner (and the already-built delegate runner).
        tuned.run(clouds_for(net, 5))
        assert list(tuned._tuned_runners) == [winner.key()]


def test_tuned_table_lookup_and_round_trip():
    table = TunedTable("PointNet++ (c)", "fp")
    config = TunedConfig("delayed", "float32", ms=1.0)
    assert config.key() == "delayed|float32|brute"
    table.add(shape_key("PointNet++ (c)", 128, 8), config, [config],
              meta={"space": "x"})
    assert table.lookup("PointNet++ (c)", 128, 8).key() == config.key()
    assert table.lookup("PointNet++ (c)", 128, 3).key() == config.key()
    assert table.lookup("PointNet++ (c)", 256, 8) is None
    assert table.lookup("DGCNN (c)", 128, 8) is None
    restored = TunedTable.from_json(
        json.loads(json.dumps(table.to_json())))
    assert restored.lookup("PointNet++ (c)", 128, 8).key() == config.key()
    assert restored.fingerprint == "fp"


def test_async_runner_resolves_tuned_config_at_construction():
    net = toy("PointNet++ (c)")
    config = TunedConfig("limited", "float32", ms=1.0)
    table = TunedTable(net.name, "fp")
    table.add(shape_key(net.name, net.n_points, 2), config, [config], {})
    with AsyncRunner(net, backend="serial", in_flight=2,
                     tuned=table) as runner:
        assert runner.tuned_config.key() == config.key()
        assert runner.strategy == "limited"
        assert runner.kernel_backend == "float32"
        result = runner.run(clouds_for(net, 2))
    with BatchRunner(net, strategy="limited", backend="float32") as fixed:
        fixed_out = fixed.run(clouds_for(net, 2)).outputs
    # Same per-cloud programs, stacked: top-1 sanity (single-cloud vs
    # batched GEMM shapes differ, so only the serial arities match
    # bit-for-bit; here both paths run single-cloud programs).
    with AsyncRunner(net, backend="serial", kernel_backend="float32",
                     strategy="limited") as serial:
        assert_outputs_equal(serial.run(clouds_for(net, 2)).outputs,
                             result.outputs)
    assert np.asarray(fixed_out).shape == np.asarray(result.outputs).shape


def test_server_hosting_tuned(tmp_path):
    net = toy("PointNet++ (c)")
    cache = ProgramCache(tmp_path)
    tuner = Autotuner(net, program_cache=cache, repeats=1, seed=6)
    table = tuner.tune(batch=2, **TUNE_KW)
    key = shape_key(net.name, net.n_points, 2)
    server = Server.hosting([net], tuned=True, program_cache=cache)
    try:
        runner = server._routes[net.n_points]
        assert runner.tuned is not None
        assert (runner.tuned.lookup(net.name, net.n_points, 2).key()
                == table.config(key).key())
    finally:
        server.close()
    # tuned=True without a cache to load from is a configuration error.
    with pytest.raises(ValueError, match="program_cache"):
        Server.hosting([net], tuned=True)


# -- bench row + schema validator --------------------------------------------


def test_bench_tune_row_gates():
    row = bench_tune(scale=0.0625, batch=2, repeats=1, quick=True)
    validate_row(row, name="tune")
    assert row["winner_gate_passed"]
    assert row["warm_rebenchmarks"] == 0
    assert row["table_round_trip"] and row["table_deterministic"]
    assert row["peak_live_bytes"] > 0
    assert row["n_candidates"] == row["cold_benchmarks"] \
        + row["n_gate_failures"]


def test_validate_row_schema(tmp_path):
    good = {"workload": {"batch": 2}, "baseline": "x", "speedup": 1.5,
            "nested": {"values": [1, 2.0, "s", True, None]}}
    assert validate_row(good, name="good") is good
    with pytest.raises(ValueError, match="workload"):
        validate_row({"baseline": "x"}, name="bad")
    with pytest.raises(ValueError, match="baseline"):
        validate_row({"workload": {"a": 1}}, name="bad")
    with pytest.raises(ValueError, match="non-finite"):
        validate_row({"workload": {"a": 1}, "baseline": "x",
                      "ms": float("nan")}, name="bad")
    with pytest.raises(ValueError, match="non-JSON"):
        validate_row({"workload": {"a": 1}, "baseline": "x",
                      "arr": np.zeros(2)}, name="bad")
    # write_json enforces the schema on every non-meta row.
    with pytest.raises(ValueError, match="non-finite"):
        write_json({"meta": {"anything": float("inf")},
                    "row": {"workload": {"a": 1}, "baseline": "x",
                            "ms": float("inf")}},
                   tmp_path / "bad.json")
    path = write_json({"meta": {"quick": True}, "row": good},
                      tmp_path / "good.json")
    assert json.loads(Path(path).read_text())["row"]["speedup"] == 1.5


# -- CI gate script: baseline comparison -------------------------------------


def _gate_module():
    path = (Path(__file__).resolve().parents[1] / "scripts"
            / "ci_bench_gate.py")
    spec = importlib.util.spec_from_file_location("ci_bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_baseline_regression_gate(tmp_path, capsys):
    gate = _gate_module()
    fresh = tmp_path / "fresh.json"
    old = tmp_path / "old.json"
    fresh.write_text(json.dumps({"row": {"speedup": 1.0}}))
    old.write_text(json.dumps({"row": {"speedup": 2.0}}))
    compares = [("speedup", 'results["row"]["speedup"]')]
    # 1.0 < 0.8 * 2.0: a >20% regression fails.
    assert gate.compare_baseline(str(fresh), str(old), compares,
                                 0.2) == ["speedup"]
    # Within tolerance passes.
    old.write_text(json.dumps({"row": {"speedup": 1.2}}))
    assert gate.compare_baseline(str(fresh), str(old), compares, 0.2) == []
    # Missing baseline file and missing metric both skip cleanly.
    assert gate.compare_baseline(str(fresh), str(tmp_path / "none.json"),
                                 compares, 0.2) == []
    old.write_text(json.dumps({"other": {}}))
    assert gate.compare_baseline(str(fresh), str(old), compares, 0.2) == []
    assert gate.compare_baseline(str(fresh), None, compares, 0.2) == []
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "skipped" in out


# -- neighbor cache stats: thread safety -------------------------------------


def test_cache_stats_counters_thread_safe():
    cache = NeighborIndexCache(maxsize=32)
    rng = np.random.default_rng(0)
    cloud = rng.normal(size=(64, 3))
    queries = cloud[:16]
    cache.knn(cloud, queries, 4)  # single warm miss installs the entry
    assert cache.stats()["misses"] == 1

    workers, lookups = 8, 25
    stop = threading.Event()

    def reader():
        # Concurrent stats() readers must never see torn state.
        while not stop.is_set():
            stats = cache.stats()
            assert 0.0 <= stats["hit_rate"] <= 1.0

    def hammer():
        for _ in range(lookups):
            indices, _ = cache.knn(cloud, queries, 4)
            assert indices.shape == (16, 4)

    watcher = threading.Thread(target=reader)
    watcher.start()
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(hammer) for _ in range(workers)]:
                future.result()
    finally:
        stop.set()
        watcher.join()
    stats = cache.stats()
    assert stats["hits"] == workers * lookups
    assert stats["misses"] == 1
    assert stats["hits"] + stats["misses"] == workers * lookups + 1
    assert stats["evictions"] == 0 and stats["size"] == 1
