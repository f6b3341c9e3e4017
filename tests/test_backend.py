"""Tests for the multi-backend kernel runtime (:mod:`repro.backend`).

Covers the ArrayBackend registry, parameter export, float64
bit-exactness against the autograd network executors (all seven
networks, all three strategies, single and batched), the float32
tolerance + top-1 contract, engine integration (BatchRunner /
AsyncRunner ``backend=``), dtype propagation through the neighbor
dispatch and cache, and the inference-mode Tensor dtype fast path.
"""

import threading
import warnings

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    NetworkKernelExecutor,
    NumpyBackend,
    compile_kernel_program,
    export_stack,
    get_backend,
)
from repro.core import ModuleSpec
from repro.engine import AsyncRunner, BatchRunner, NeighborIndexCache, ParallelRunner
from repro.engine.bench import bench_backend
from repro.graph import GraphExecutor, compile_network_plan
from repro.neighbors import neighbor_search, raw_knn, search_context
from repro.networks import ALL_NETWORKS, build_network
from repro.networks.generic import GenericPointCloudNetwork
from repro.neural import BatchNorm, Dropout, Linear, ReLU, SharedMLP, Tensor, no_grad

STRATEGIES = ("original", "delayed", "limited")

#: One-module toys whose centroid count sits on each side of every edge
#: of the aggregate kernel's per-cloud chunk rule (one chunk up to 8
#: centroids, then ceil(n_out / 8) per chunk with a floor of 8; a stack
#: of B takes B chunks to a pass), so full, partial (63 -> 7, 65 -> 2)
#: and single-centroid (9 -> 1) last chunks all occur.  The equivalence
#: matrix runs each as one cloud and as a stack of 3;
#: ``test_chunk_edge_toys_at_heights_1_3_8`` adds 8 on one program.
CHUNK_EDGE_TOYS = {f"{rows}-centroid toy": rows
                   for rows in (1, 7, 8, 9, 63, 64, 65)}


def toy(name, seed=0):
    if name in CHUNK_EDGE_TOYS:
        spec = ModuleSpec("m", n_in=96, n_out=CHUNK_EDGE_TOYS[name], k=6,
                          mlp_dims=(3, 16, 24))
        return GenericPointCloudNetwork([spec], head_dims=(24, 4), name=name,
                                        rng=np.random.default_rng(seed))
    scale = 0.03125 if "(s)" in name else 0.0625
    return build_network(name, num_classes=4, scale=scale,
                         rng=np.random.default_rng(seed))


def cloud_for(net, seed=0):
    return np.random.default_rng(seed).normal(size=(net.n_points, 3))


def clouds_for(net, batch, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, net.n_points, 3))


def leaves(ref, out):
    """Yield (reference, other) array pairs across the output structure."""
    if isinstance(ref, dict):
        assert set(ref) == set(out)
        for key in ref:
            yield from leaves(ref[key], out[key])
    elif isinstance(ref, (list, tuple)):
        assert len(ref) == len(out)
        for a, b in zip(ref, out):
            yield from leaves(a, b)
    else:
        yield (
            np.asarray(ref.data if hasattr(ref, "data") else ref),
            np.asarray(out.data if hasattr(out, "data") else out),
        )


def assert_bit_exact(ref, out):
    for a, b in leaves(ref, out):
        assert np.array_equal(a, b)


def assert_close_with_same_top1(ref, out, rel=1e-4):
    for a, b in leaves(ref, out):
        b = np.asarray(b, dtype=np.float64)
        scale = np.abs(a).max()
        assert np.abs(b - a).max() <= rel * scale
        assert np.array_equal(a.argmax(axis=-1), b.argmax(axis=-1))


class TestArrayBackend:
    def test_registry_resolves_names_dtypes_and_instances(self):
        f64 = get_backend("float64")
        assert f64.dtype == np.float64 and f64.search_dtype is None
        f32 = get_backend(np.float32)
        assert f32.dtype == np.float32 and f32.search_dtype == np.float32
        assert get_backend(f32) is f32
        custom = NumpyBackend(np.float32)
        assert get_backend(custom) is custom

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("bfloat128")
        with pytest.raises(ValueError, match="floating"):
            NumpyBackend(np.int64)

    def test_protocol_kernels(self):
        backend = get_backend("float32")
        a = backend.asarray(np.ones((2, 3)))
        assert a.dtype == np.float32
        out = backend.matmul(a, backend.asarray(np.eye(3)),
                             out=backend.empty((2, 3)))
        assert out.dtype == np.float32
        x = backend.asarray(np.array([[-1.0, 2.0]]))
        assert np.array_equal(backend.relu(x), [[0.0, 2.0]])
        assert issubclass(NumpyBackend, ArrayBackend)


class TestParameterExport:
    def test_stack_packs_linear_bias_relu(self):
        mlp = SharedMLP([3, 8, 4], rng=np.random.default_rng(0))
        stack = export_stack(mlp.export_layers(), get_backend("float32"))
        assert len(stack) == 2
        (linear, relu) = stack[0]
        assert linear[0] == "linear" and relu == ("relu",)
        assert linear[1].dtype == np.float32 and linear[2].dtype == np.float32

    def test_float64_export_shares_parameter_memory(self):
        mlp = SharedMLP([3, 8], rng=np.random.default_rng(0))
        stack = export_stack(mlp.export_layers(), get_backend("float64"))
        assert stack[0][0][1] is mlp.linear_layers()[0].weight.data

    def test_training_batchnorm_and_dropout_rejected(self):
        layers = [Linear(3, 4), BatchNorm(4), ReLU()]
        with pytest.raises(ValueError, match="eval"):
            export_stack(layers, get_backend("float64"))
        for layer in layers:
            layer.training = False
        stack = export_stack(layers, get_backend("float64"))
        assert [op[0] for op in stack[0]] == ["linear", "bn", "relu"]

        dropped = [Linear(3, 4), ReLU(), Dropout(0.5)]
        with pytest.raises(ValueError, match="Dropout"):
            export_stack(dropped, get_backend("float64"))
        dropped[2].training = False
        assert export_stack(dropped, get_backend("float64"))


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", [*ALL_NETWORKS, *CHUNK_EDGE_TOYS])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float64_bit_exact_and_float32_tolerance(self, name, strategy):
        net = toy(name)
        cloud = cloud_for(net, seed=1)
        clouds = clouds_for(net, 3, seed=2)
        k64 = NetworkKernelExecutor("float64")
        k32 = NetworkKernelExecutor("float32")
        ngraph = net.network_graph(strategy)
        with no_grad():
            ref = net.forward(cloud, strategy=strategy)
            out = net.forward(cloud, strategy=strategy, executor=k64)
            bref = GraphExecutor().run_network(ngraph, net, clouds)
            bout = k64.run_network(ngraph, net, clouds)
            fast = k32.run_network(ngraph, net, clouds)
        assert_bit_exact(ref, out)
        assert_bit_exact(bref, bout)
        assert_close_with_same_top1(bref, fast)
        # The fast path really ran in float32 end to end.
        for _, b in leaves(bref, fast):
            assert b.dtype == np.float32

    def test_one_program_per_graph_serves_heights_1_and_3(self):
        net = toy("PointNet++ (c)")
        executor = NetworkKernelExecutor("float64")
        ngraph = net.network_graph("delayed")
        program = executor.program(ngraph, net)
        clouds = clouds_for(net, 3, seed=6)
        with no_grad():
            one = net.forward(clouds[0], strategy="delayed", executor=executor)
            three = executor.run_network(ngraph, net, clouds)
            assert_bit_exact(net.forward(clouds[0], strategy="delayed"), one)
            assert_bit_exact(GraphExecutor().run_network(ngraph, net, clouds),
                             three)
        assert executor.program(ngraph, net) is program
        assert len(executor._programs) == 1
        assert one.shape == (1, 4) and three.shape == (3, 4)
        stats = program.memory_stats()
        # One measured plan, scaled to both heights.
        assert stats["heights"] == (1, 3) and stats["measuring_runs"] == 1
        assert executor.program(net.network_graph("original"), net) \
            is not program

    @pytest.mark.parametrize("name", CHUNK_EDGE_TOYS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_chunk_edge_toys_at_heights_1_3_8(self, name, strategy):
        net = toy(name)
        ngraph = net.network_graph(strategy)
        clouds = clouds_for(net, 8, seed=4)
        kernel = NetworkKernelExecutor("float64")
        with no_grad():
            for height in (3, 8, 1):  # measured at 3, scaled up and down
                stack = clouds[:height]
                assert_bit_exact(
                    GraphExecutor().run_network(ngraph, net, stack),
                    kernel.run_network(ngraph, net, stack))
        assert kernel.program(ngraph, net).memory_stats()["unplanned"] == 0

    def test_program_takes_stacks_only(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", "float64")
        with pytest.raises(ValueError, match="stacks only"):
            program.run(cloud_for(net))

    def test_outputs_do_not_alias_scratch_buffers(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", "float32")
        with no_grad():
            first = program.run(clouds_for(net, 2, seed=3)).data.copy()
            again = program.run(clouds_for(net, 2, seed=3)).data
            program.run(clouds_for(net, 2, seed=4))
        assert np.array_equal(first, again)

    def test_program_is_thread_safe(self):
        net = toy("PointNet++ (c)")
        executor = NetworkKernelExecutor("float32")
        cloud = cloud_for(net, seed=5)
        results, errors = [], []

        def run():
            return net.forward(cloud, strategy="delayed",
                               executor=executor).data.copy()

        def worker():
            try:
                for _ in range(3):
                    results.append(run())
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        # no_grad is entered once on this thread (the global is shared,
        # so worker threads must not enter/exit it concurrently).
        with no_grad():
            expected = run()
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert all(np.array_equal(r, expected) for r in results)


class TestEngineIntegration:
    def test_batch_runner_backend_float64_bit_exact(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4)
        eager = BatchRunner(net).run(clouds)
        kernel = BatchRunner(net, backend="float64").run(clouds)
        assert np.array_equal(eager.outputs, kernel.outputs)

    def test_batch_runner_backend_float32_close(self):
        net = toy("PointNet++ (s)")
        clouds = clouds_for(net, 2)
        eager = BatchRunner(net).run(clouds)
        fast = BatchRunner(net, backend="float32").run(clouds)
        assert fast.outputs.dtype == np.float32
        assert_close_with_same_top1(eager.outputs, fast.outputs)

    def test_plan_records_backend(self):
        net = toy("PointNet++ (c)")
        plan = BatchRunner(net, backend="float32").plan
        assert plan.backend.name == "float32"
        assert "kernel backend: float32" in plan.describe()
        assert BatchRunner(net).plan.backend is None
        assert compile_network_plan(net, "delayed",
                                    backend="float64").backend.dtype \
            == np.float64

    @pytest.mark.parametrize("backend", ["thread", "serial"])
    def test_async_runner_kernel_backend(self, backend):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3)
        with AsyncRunner(net, backend=backend, max_workers=2,
                         kernel_backend="float64") as runner:
            assert runner.kernel_backend == "float64"
            # The serial per-cloud eager loop is the bit-exactness
            # baseline (batched GEMM blocking differs in the last ulp).
            sequential = runner.run_sequential(clouds)
            overlapped = runner.run(clouds)
        assert np.array_equal(sequential.outputs, overlapped.outputs)

    def test_kernel_searches_share_the_runner_cache(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 2)
        cache = NeighborIndexCache(maxsize=64)
        runner = BatchRunner(net, backend="float32", cache=cache)
        runner.run(clouds)
        misses = cache.misses
        assert misses > 0
        result = runner.run(clouds)
        assert cache.misses == misses  # warm: every search hit
        assert result.cache_stats["hits"] > 0

    def test_float32_and_float64_programs_do_not_share_cache_entries(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 2)
        cache = NeighborIndexCache(maxsize=64)
        BatchRunner(net, backend="float64", cache=cache).run(clouds)
        misses = cache.misses
        BatchRunner(net, backend="float32", cache=cache).run(clouds)
        # The float32 program searches in float32, so every search
        # missed again instead of reusing the float64 entries.
        assert cache.misses == 2 * misses

    def test_bench_backend_row(self):
        row = bench_backend(batch=2, scale=0.0625, repeats=1)
        assert row["bit_exact_float64"] is True
        assert row["fast_argmax_equal"] is True
        assert row["fast_max_rel_err"] <= 1e-4
        assert row["fast_backend"] == "float32"
        assert {"workload", "baseline", "eager_batched_ms",
                "kernel64_batched_ms", "kernel_fast_batched_ms",
                "speedup_fast_batched"} <= set(row)


class TestDtypePropagation:
    def test_raw_knn_honors_dtype(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(64, 3))
        _, d32 = raw_knn(points, points[:8], 4, dtype=np.float32)
        _, d64 = raw_knn(points, points[:8], 4)
        assert d32.dtype == np.float32 and d64.dtype == np.float64

    def test_search_context_dtype_reaches_dispatch(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(64, 3))
        with search_context(dtype=np.float32):
            _, dist = neighbor_search(points, points[:8], 4)
        assert dist.dtype == np.float32

    def test_context_dtype_overrides_backend_search_dtype(self):
        net = toy("PointNet++ (c)")
        fast = compile_kernel_program(net, "delayed", "float32")
        reference = compile_kernel_program(net, "delayed", "float64")
        # Outside any context the backend's own search dtype applies...
        assert fast._search_dtype() == np.float32
        assert reference._search_dtype() is None  # historical float64
        # ...but an engine-scoped dtype always wins.
        with search_context(dtype=np.float64):
            assert fast._search_dtype() == np.float64
        with search_context(dtype=np.float32):
            assert reference._search_dtype() == np.float32

    def test_cache_keys_on_dtype_with_single_flight(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(128, 3))
        queries = points[:16]
        cache = NeighborIndexCache(maxsize=16)
        barrier = threading.Barrier(8)
        results = {}

        def lookup(i, dtype):
            barrier.wait()
            results[i] = cache.knn(points, queries, 4, dtype=dtype)

        threads = [
            threading.Thread(target=lookup,
                             args=(i, np.float32 if i % 2 else None))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Two distinct entries (one per dtype), each computed exactly
        # once; the other six concurrent duplicates waited and hit.
        assert cache.misses == 2
        assert cache.hits == 6
        assert len(cache) == 2
        assert results[0][1].dtype == np.float64
        assert results[1][1].dtype == np.float32

    def test_parallel_runner_degrades_serially_with_warning(self):
        runner = ParallelRunner(max_workers=4, backend="process",
                                persistent=True)

        def broken_pool():
            raise OSError("process pools forbidden")

        runner._make_pool = broken_pool
        with pytest.warns(RuntimeWarning, match="running serially"):
            out = runner.map(abs, [-1, 2, -3])
        assert out == [1, 2, 3]
        assert runner._pool is None  # broken pool must not persist

    def test_parallel_runner_warning_includes_backend(self):
        runner = ParallelRunner(max_workers=2, backend="thread")

        def broken_pool():
            raise RuntimeError("thread limit")

        runner._make_pool = broken_pool
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = runner.map(abs, [-5, 6])
        assert out == [5, 6]
        assert any("thread pool unavailable" in str(w.message)
                   for w in caught)


class TestInferenceTensorDtype:
    def test_no_grad_preserves_float32(self):
        data = np.ones((2, 3), dtype=np.float32)
        with no_grad():
            t = Tensor(data)
            assert t.data.dtype == np.float32
            assert t.data is data  # no copy either
            assert (t + t).data.dtype == np.float32
            assert t.relu().data.dtype == np.float32
            assert t.max(axis=1).data.dtype == np.float32

    def test_grad_mode_still_promotes_to_float64(self):
        data = np.ones((2, 3), dtype=np.float32)
        assert Tensor(data).data.dtype == np.float64
        with no_grad():
            # Non-array and integer inputs still promote.
            assert Tensor([1, 2, 3]).data.dtype == np.float64
            assert Tensor(np.arange(3)).data.dtype == np.float64
