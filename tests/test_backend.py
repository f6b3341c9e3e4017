"""Tests for the multi-backend kernel runtime (:mod:`repro.backend`).

Covers backend (dtype) resolution, parameter export, float64
bit-exactness against the autograd network executors (all seven
networks, all three strategies, single and batched), the float32
tolerance + top-1 contract (and top-1 agreement on a briefly trained
classifier), float32 programs at heights 1, 3 and 8 with bit-exact
replay, engine integration (BatchRunner
``backend=``), dtype discipline (a float32 program writes float32
values only), dtype propagation through the neighbor dispatch and
cache, and the inference-mode Tensor dtype fast path.
"""

import threading
import warnings

import numpy as np
import pytest

from conftest import (
    CHUNK_EDGE_TOYS,
    assert_bit_exact,
    cloud_for,
    clouds_for,
    interpret,
    leaves,
    toy,
)
from repro.backend import compile_kernel_program, export_segment
from repro.core import STRATEGIES
from repro.engine import BatchRunner, NeighborIndexCache
from repro.neighbors import neighbor_search
from repro.networks import ALL_NETWORKS, build_network
from repro.neural import Linear, SharedMLP, Tensor, no_grad


def seed_parameters(net, seed):
    """Give every Linear bias a nonzero value."""
    rng = np.random.default_rng(seed)
    for param in net.parameters():
        if param.data.ndim == 1:  # a Linear's bias
            param.data[...] = rng.normal(0.0, 0.5, param.data.shape)


def assert_close_with_same_top1(ref, out, rel=1e-4):
    for a, b in leaves(ref, out):
        b = np.asarray(b, dtype=np.float64)
        scale = np.abs(a).max()
        assert np.abs(b - a).max() <= rel * scale
        assert np.array_equal(a.argmax(axis=-1), b.argmax(axis=-1))


class TestBackendDtype:
    """A program's backend is its dtype: float64 or float32, by name or
    by numpy dtype; everything else is refused by name."""

    @pytest.mark.parametrize("backend", [
        "bfloat128", "int8", np.int8, np.dtype("int8"), np.int64, "float16"])
    def test_unknown_and_integer_backends_are_refused(self, backend):
        net = toy("PointNet++ (c)")
        for build in (
                lambda: compile_kernel_program(net, "delayed", backend),
                lambda: BatchRunner(net, backend=backend)):
            with pytest.raises(ValueError, match="unknown backend") as excinfo:
                build()
            # The error lists what would have resolved.
            assert "['float32', 'float64']" in str(excinfo.value)

    @pytest.mark.parametrize("name, dtype", [
        ("float64", np.float64), ("float32", np.float32)])
    def test_a_name_and_its_dtype_give_one_program_dtype(self, name, dtype):
        net = toy("PointNet++ (c)")
        for backend in (name, dtype, np.dtype(dtype)):
            assert compile_kernel_program(net, "delayed", backend).dtype \
                == np.dtype(dtype)
            assert BatchRunner(net, backend=backend).stack_dtype \
                == np.dtype(dtype)


class TestParameterExport:
    def test_segment_packs_linear_bias_relu(self):
        mlp = SharedMLP([3, 8, 4], rng=np.random.default_rng(0))
        assert mlp.relu == (True, True)
        weight, bias, relu = export_segment(mlp.layers[0], mlp.relu[0],
                                            np.float32)
        assert relu is True
        assert weight.dtype == np.float32 and bias.dtype == np.float32

    def test_float64_export_shares_parameter_memory(self):
        mlp = SharedMLP([3, 8], rng=np.random.default_rng(0))
        weight, bias, _ = export_segment(mlp.layers[0], mlp.relu[0],
                                         np.float64)
        assert weight is mlp.layers[0].weight.data
        assert bias is mlp.layers[0].bias.data

    @pytest.mark.parametrize("relu", [True, False],
                             ids=["with-relu", "head-tail"])
    @pytest.mark.parametrize("form, parts", [
        ({}, ("weight", "bias", "relu")),
        ({"weight_only": True}, ("weight",)),
        ({"epilogue": True}, ("bias", "relu")),
    ], ids=["whole", "weight-only", "epilogue"])
    def test_each_export_form_packs_its_record(self, form, parts, relu):
        # A layer is a Linear and its ReLU, if any: the whole layer
        # packs the GEMM, its bias and the ReLU, the limited variant's
        # hoisted product the GEMM alone (no bias), and its epilogue the
        # bias and the ReLU.
        linear = Linear(3, 4, rng=np.random.default_rng(0))
        weight, bias, relu_out = export_segment(linear, relu, np.float32,
                                                **form)
        assert (weight is not None) == ("weight" in parts)
        assert (bias is not None) == ("bias" in parts)
        assert relu_out is (relu and "relu" in parts)
        if weight is not None:
            np.testing.assert_array_equal(
                weight, linear.weight.data.astype(np.float32))
        arrays = [a for a in (weight, bias) if a is not None]
        assert arrays and all(a.dtype == np.float32 for a in arrays)


class TestHeads:
    """A head is a chain of ``matmul`` nodes, compiled like a module's."""

    @pytest.mark.parametrize("name", ["DGCNN (c)", "LDGCNN", "PointNet++ (s)"])
    def test_each_head_folds_into_one_chain_kernel(self, name):
        # DGCNN's and LDGCNN's one-layer embeds, their classifiers, and
        # PointNet++ (s)'s decoder MLPs.
        program = compile_kernel_program(toy(name), "delayed")
        labels = set(program.kernel_labels)
        heads = {}
        for node in program.ngraph.graph:
            if node.kind == "matmul" and "ref" in node.attrs:
                heads.setdefault(node.attrs["ref"], []).append(node.id)
        assert heads
        for ids in heads.values():
            assert [f"matmul:{i}" in labels for i in ids] \
                == [True] + [False] * (len(ids) - 1)


@pytest.fixture(scope="module")
def trained_classifier():
    """A briefly trained PointNet++ (c) and the clouds to judge it on.

    Random-weight toys have near-tied logits, so their top-1 says
    little; training gives the decisions real margins.  One training
    serves every strategy.
    """
    from repro.data import SyntheticModelNet
    from repro.networks import train_classifier

    dataset = SyntheticModelNet(num_classes=4, n_points=256,
                                train_per_class=8, test_per_class=24,
                                seed=0, rotate=False)
    net = build_network("PointNet++ (c)", num_classes=4, scale=0.125,
                        rng=np.random.default_rng(0))
    n = net.n_points
    train_clouds = dataset.train_clouds[:, :n]
    train_classifier(net, train_clouds, dataset.train_labels,
                     epochs=3, lr=1e-3, strategy="delayed", seed=1)
    return net, np.concatenate([train_clouds, dataset.test_clouds[:, :n]])


class TestTrainedAgreement:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float32_top1_agreement_on_trained_classifier(
            self, trained_classifier, strategy):
        # The float32 program agrees with the graph interpreter on
        # >= 99% of decisions, for each strategy on its own.
        net, clouds = trained_classifier
        expected = interpret(net, clouds, strategy)
        observed = BatchRunner(net, strategy=strategy,
                               backend="float32").run(clouds).outputs
        agree = total = 0
        for a, b in leaves(expected, observed):
            agree += int((a.argmax(-1) == b.argmax(-1)).sum())
            total += a.reshape(-1, a.shape[-1]).shape[0]
        assert agree / total >= 0.99, (strategy, agree, total)


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", [*ALL_NETWORKS, *CHUNK_EDGE_TOYS])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float64_bit_exact_and_float32_tolerance(self, name, strategy):
        net = toy(name)
        cloud = cloud_for(net, seed=1)
        clouds = clouds_for(net, 3, seed=2)
        k64 = compile_kernel_program(net, strategy, "float64")
        k32 = compile_kernel_program(net, strategy, "float32")
        with no_grad():
            out = k64.run(cloud[None])
            bout = k64.run(clouds)
            fast = k32.run(clouds)
        bref = interpret(net, clouds, strategy)
        assert_bit_exact(interpret(net, cloud[None], strategy), out)
        assert_bit_exact(bref, bout)
        assert_close_with_same_top1(bref, fast)
        # The fast path really ran in float32 end to end.
        for _, b in leaves(bref, fast):
            assert b.dtype == np.float32

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float64_bit_exact_with_nonzero_biases(self, name, strategy):
        # Freshly built networks have all-zero biases, so a program that
        # drops or double-adds a bias — the limited epilogue re-adds the
        # one its hoisted product left out — matches the interpreter on
        # them.
        net = toy(name)
        seed_parameters(net, seed=7)
        clouds = clouds_for(net, 3, seed=2)
        with no_grad():
            out = compile_kernel_program(net, strategy, "float64").run(clouds)
        assert_bit_exact(interpret(net, clouds, strategy), out)

    def test_one_program_serves_heights_1_and_3(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", "float64")
        clouds = clouds_for(net, 3, seed=6)
        with no_grad():
            one = program.run(clouds[:1])
            three = program.run(clouds)
        assert_bit_exact(interpret(net, clouds[:1]), one)
        assert_bit_exact(interpret(net, clouds), three)
        assert one.shape == (1, 4) and three.shape == (3, 4)
        stats = program.memory_stats()
        # One compiled plan, scaled to both heights.
        assert stats["heights"] == (1, 3) and stats["unplanned"] == 0

    def test_a_runner_runs_the_program_it_is_handed(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", "float32")
        runner = BatchRunner(net, backend="float32", program=program)
        clouds = clouds_for(net, 2, seed=6)
        runner.run(clouds)
        runner.run(clouds[:1])
        assert runner._program is program
        assert program.memory_stats()["heights"] == (1, 2)
        # Unhanded, a runner compiles its own on the first run, once.
        own = BatchRunner(net, backend="float32")
        assert own._program is None
        own.run(clouds)
        compiled = own._program
        own.run(clouds)
        assert own._program is compiled and compiled is not program

    @pytest.mark.parametrize("name", CHUNK_EDGE_TOYS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_chunk_edge_toys_at_heights_1_3_8(self, name, strategy):
        net = toy(name)
        clouds = clouds_for(net, 8, seed=4)
        program = compile_kernel_program(net, strategy, "float64")
        with no_grad():
            for height in (3, 8, 1):  # first at 3, then up and down
                stack = clouds[:height]
                assert_bit_exact(interpret(net, stack, strategy),
                                 program.run(stack))
        assert program.memory_stats()["unplanned"] == 0

    def test_program_takes_stacks_only(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", "float64")
        with pytest.raises(ValueError, match="stacks only"):
            program.run(cloud_for(net))

    @pytest.mark.parametrize("backend", ["float64", "float32"])
    def test_program_refuses_clouds_of_another_size(self, backend):
        # A stack of the wrong cloud size, or of no cloud, is refused
        # before it touches the arena, first run or not: a wrong size
        # once ran (or raised a bare IndexError) and left later correct
        # runs off the plan.
        net = toy("PointNet++ (c)")
        n = net.n_points
        program = compile_kernel_program(net, "delayed", backend)
        assert program.n_points == n
        rng = np.random.default_rng(1)
        for shape in [(1, n + 16, 3), (1, 2 * n, 3), (1, n - 16, 3),
                      (2, n, 2), (0, n, 3)]:
            with pytest.raises(ValueError, match=rf"\(batch, {n}, 3\)"):
                program.run(rng.normal(size=shape))
        assert program.memory_stats()["heights"] == ()
        with no_grad():
            program.run(clouds_for(net, 2, seed=6))
        stats = program.memory_stats()
        assert stats["heights"] == (2,) and stats["unplanned"] == 0

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
        program = compile_kernel_program(net, "delayed", "float32")
        cloud = cloud_for(net, seed=5)
        results, errors = [], []

        def run():
            return program.run(cloud[None]).data.copy()

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


class TestFloat32Programs:
    """float32 is the served precision: one program per graph compiles
    its arena once and scales it to every height, each height tracks
    the float64 reference within the float32 contract, and a stack
    replays bit for bit after the arena was rescaled."""

    @pytest.mark.parametrize("name", [*ALL_NETWORKS, *CHUNK_EDGE_TOYS])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_heights_1_3_8_track_float64(self, name, strategy):
        net = toy(name)
        clouds = clouds_for(net, 8, seed=4)
        program = compile_kernel_program(net, strategy, "float32")
        outputs = {}
        with no_grad():
            for height in (3, 8, 1):  # first at 3, then up and down
                stack = clouds[:height]
                outputs[height] = program.run(stack)
                reference = interpret(net, stack, strategy)
                assert_close_with_same_top1(reference, outputs[height])
                for _, b in leaves(reference, outputs[height]):
                    assert b.dtype == np.float32
            assert_bit_exact(outputs[3], program.run(clouds[:3]))
            # No BLAS call mixes clouds: every row of a stack is the row
            # its cloud gets alone.
            alone = [program.run(clouds[b:b + 1]) for b in range(8)]
            for height in (3, 8):
                for b in range(height):
                    for one, row in leaves(alone[b], outputs[height]):
                        assert np.array_equal(one[0], row[b])
        stats = program.memory_stats()
        assert stats["unplanned"] == 0

    def test_batch_runner_matches_kernel_program(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3, seed=5)
        program = compile_kernel_program(net, "delayed", "float32")
        with no_grad():
            direct = program.run(clouds)
        runner = BatchRunner(net, strategy="delayed", backend="float32")
        assert_bit_exact(direct, runner.run(clouds).outputs)

class TestEngineIntegration:
    def test_batch_runner_backend_float64_bit_exact(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4)
        kernel = BatchRunner(net, backend="float64").run(clouds)
        assert np.array_equal(interpret(net, clouds), kernel.outputs)

    def test_batch_runner_backend_float32_close(self):
        net = toy("PointNet++ (s)")
        clouds = clouds_for(net, 2)
        fast = BatchRunner(net, backend="float32").run(clouds)
        assert fast.outputs.dtype == np.float32
        assert_close_with_same_top1(interpret(net, clouds), fast.outputs)

    def test_runner_stacks_in_its_backend_dtype(self):
        net = toy("PointNet++ (c)")
        assert BatchRunner(net, backend="float32").stack_dtype == np.float32
        assert BatchRunner(net).stack_dtype == np.float64

    def test_batch_runner_kernel_stacks_of_one_match_sequential(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3)
        with BatchRunner(net, backend="float64") as runner:
            assert runner.backend == "float64"
            one_by_one = [runner.run(cloud[None]).outputs for cloud in clouds]
        sequential = [interpret(net, cloud[None]) for cloud in clouds]
        assert np.array_equal(np.concatenate(sequential),
                              np.concatenate(one_by_one))

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


DUPLICATE_CLOUDS = ("all_but_three", "eightfold", "two_points",
                    "half_at_1e12")


def duplicate_point_clouds(n_points, seed=0):
    """The four hostile clouds of ``n_points``, in :data:`DUPLICATE_CLOUDS`
    order: every point equal but three; every point repeated 8 times;
    only two distinct points; and half the points equal, at coordinates
    of magnitude 1e12."""
    rng = np.random.default_rng(seed)
    all_but_three = np.repeat(rng.normal(size=(1, 3)), n_points, axis=0)
    all_but_three[rng.choice(n_points, 3, replace=False)] = \
        rng.normal(size=(3, 3))
    eightfold = np.repeat(rng.normal(size=(n_points // 8, 3)), 8, axis=0)
    two = rng.normal(size=(2, 3))[rng.integers(0, 2, size=n_points)]
    huge = rng.normal(size=(n_points, 3)) * 1e12
    huge[: n_points // 2] = huge[0]
    return np.stack([all_but_three, eightfold, two, huge])


class TestDuplicatePoints:
    """Clouds made of repeated points go through both serving paths
    without a warning: float64 keeps the interpreter's bits and float32
    keeps the float32 contract."""

    @pytest.mark.parametrize("kind", DUPLICATE_CLOUDS)
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_repeated_points_keep_every_path_exact(self, name, kind):
        net = toy(name)
        cloud = duplicate_point_clouds(net.n_points)[
            DUPLICATE_CLOUDS.index(kind)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = interpret(net, cloud[None])
            exact, fast = (
                BatchRunner(net, backend=backend).run(cloud[None]).outputs
                for backend in ("float64", "float32"))
        assert_bit_exact(oracle, exact)
        for _, b in leaves(oracle, fast):
            assert b.dtype == np.float32 and np.isfinite(b).all()
        assert_close_with_same_top1(oracle, fast)


class TestDtypeDiscipline:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float32_programs_write_float32_values_only(self, name,
                                                        strategy):
        # One dtype per program: every floating value a float32 program
        # writes is float32, except each decoder search's distances,
        # which stay float64 by design (interpolation weighs by them).
        net = toy(name)
        program = compile_kernel_program(net, strategy, "float32")
        graph = program.ngraph.graph
        written = {}

        def on_kernel(pos, label, env, ctx):
            for nid in env.keys() - written.keys():
                written[nid] = (label, env[nid])

        program.run(clouds_for(net, 2), on_kernel=on_kernel)
        floating = 0
        for nid, (label, value) in written.items():
            node = graph.node(nid)
            if node.kind == "search" and "module" not in node.attrs:
                rows, distances = value
                assert rows.dtype.kind == "i", label
                assert distances.dtype == np.float64, label
                continue
            if value.dtype.kind == "f":
                floating += 1
                assert value.dtype == np.float32, (label, value.dtype)
        assert floating > 0


class TestDtypePropagation:
    def test_neighbor_search_honors_dtype(self):
        # The ledger's neighbors.knn_ms call: a float32 search returns
        # float32 distances; the default searches in float64.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(2, 64, 3))
        _, d32 = neighbor_search(points, points[:, :8], 4, dtype=np.float32)
        _, d64 = neighbor_search(points, points[:, :8], 4)
        assert d32.dtype == np.float32 and d64.dtype == np.float64

    @pytest.mark.parametrize("backend, dtype", [
        ("float64", np.float64), ("float32", np.float32)])
    def test_programs_search_in_their_own_dtype(self, backend, dtype,
                                                monkeypatch):
        from repro.backend import runtime

        searched = []
        real = runtime.knn_brute_force

        def recording_search(*args, **kwargs):
            indices, distances = real(*args, **kwargs)
            searched.append(distances.dtype)
            return indices, distances

        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend)
        monkeypatch.setattr(runtime, "knn_brute_force", recording_search)
        program.run(clouds_for(net, 2))
        assert searched == [np.dtype(dtype)] * len(net.encoder)

    def test_decoder_searches_hand_interpolate_float64_distances(self):
        # Interpolation weighs coarse rows by their distances, which a
        # float32 search shifts whenever it reorders near-tied coarse
        # points: a float32 program keeps each decoder search in float64
        # while its module searches run in float32.
        net = toy("PointNet++ (s)")
        program = compile_kernel_program(net, "delayed", "float32")
        graph = program.ngraph.graph
        searched = []

        def on_kernel(pos, label, env, ctx):
            kind, nid = label.split(":")
            if kind != "search":
                return
            node = graph.node(int(nid))
            if "module" in node.attrs:
                # Index-only: the distances live in the entry it cached.
                _, distances = next(reversed(ctx["cache"]._entries.values()))
            else:
                (consumer,) = graph.consumers(node.id)
                assert consumer.kind == "interpolate"
                _, distances = env[node.id]
            searched.append(("module" in node.attrs, distances.dtype))

        program.run(clouds_for(net, 2), on_kernel=on_kernel,
                    cache=NeighborIndexCache(maxsize=64))
        assert searched == ([(True, np.float32)] * len(net.encoder)
                            + [(False, np.float64)] * 3)

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
