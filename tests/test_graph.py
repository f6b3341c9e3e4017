"""Tests for the operator-graph IR: builder, rewrite passes, executors,
trace lowering, plans, and the trace/execution consistency property."""

import numpy as np
import pytest

from repro.core import ModuleSpec, PointCloudModule, emit_module_trace
from repro.core.module import ModuleOutput
from repro.core.tables import NeighborIndexTable, PointFeatureTable
from repro.engine import BatchRunner, NeighborIndexCache
from repro.graph import (
    Graph,
    GraphExecutor,
    OpRecorder,
    build_module_graph,
    compile_network_plan,
    dead_code_elimination,
    delay_aggregation,
    format_graph,
    fuse_aggregation,
    limit_delay,
    module_graph,
    resolve_dim,
    run_pipeline,
    shape_env,
)
from repro.neighbors import neighbor_search, search_context
from repro.networks import build_network
from repro.neural import Tensor
from repro.profiling.trace import (
    GatherOp,
    MatMulOp,
    NeighborSearchOp,
    ReduceMaxOp,
    SampleOp,
    SubtractOp,
    Trace,
)

SPEC = ModuleSpec("m1", n_in=64, n_out=32, k=8, mlp_dims=(3, 16, 24))
FEATURE_SPEC = ModuleSpec("edge", n_in=48, n_out=48, k=6, mlp_dims=(16, 32),
                          search_space="features")
STRATEGIES = ("original", "delayed", "limited")


def reference_emit_module_trace(spec, strategy, trace, n_in=None):
    """The pre-IR hand-written analytic emission, kept verbatim as the
    golden reference the graph lowering must reproduce exactly."""
    n_in = spec.n_in if n_in is None else n_in
    n_out = spec.n_out if n_in == spec.n_in else min(spec.n_out, n_in)
    k = spec.k
    dims = spec.mlp_dims
    name = spec.name

    if n_out < n_in:
        trace.add(SampleOp("O", name, n_points=n_in, n_samples=n_out))

    if strategy == "original":
        trace.add(
            NeighborSearchOp(
                "N", name, n_queries=n_out, n_points=n_in, k=k, dim=spec.search_dim
            )
        )
        trace.add(
            GatherOp(
                "A", name,
                n_centroids=n_out, k=k, feature_dim=dims[0], table_rows=n_in,
            )
        )
        trace.add(SubtractOp("A", name, rows=n_out * k, dim=dims[0]))
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(MatMulOp("F", name, rows=n_out * k, in_dim=a, out_dim=b))
        trace.add(
            ReduceMaxOp("F", name, n_centroids=n_out, k=k, feature_dim=dims[-1])
        )
    elif strategy == "delayed":
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(
                MatMulOp(
                    "F", name, parallelizable=True, rows=n_in, in_dim=a, out_dim=b
                )
            )
        trace.add(
            NeighborSearchOp(
                "N", name, parallelizable=True,
                n_queries=n_out, n_points=n_in, k=k, dim=spec.search_dim,
            )
        )
        trace.add(
            GatherOp(
                "A", name,
                n_centroids=n_out, k=k, feature_dim=dims[-1], table_rows=n_in,
            )
        )
        trace.add(
            ReduceMaxOp("A", name, n_centroids=n_out, k=k, feature_dim=dims[-1])
        )
        trace.add(SubtractOp("A", name, rows=n_out, dim=dims[-1]))
    else:  # limited
        hidden = dims[1]
        trace.add(
            MatMulOp(
                "F", name, parallelizable=True,
                rows=n_in, in_dim=dims[0], out_dim=hidden,
            )
        )
        trace.add(
            NeighborSearchOp(
                "N", name, parallelizable=True,
                n_queries=n_out, n_points=n_in, k=k, dim=spec.search_dim,
            )
        )
        trace.add(
            GatherOp(
                "A", name,
                n_centroids=n_out, k=k, feature_dim=hidden, table_rows=n_in,
            )
        )
        trace.add(SubtractOp("A", name, rows=n_out * k, dim=hidden))
        for a, b in zip(dims[1:-1], dims[2:]):
            trace.add(MatMulOp("F", name, rows=n_out * k, in_dim=a, out_dim=b))
        trace.add(
            ReduceMaxOp("F", name, n_centroids=n_out, k=k, feature_dim=dims[-1])
        )
    return trace


def _reference_module_forward(module, coords, feats, strategy):
    """The pre-IR hand-written module forward, kept verbatim.

    These are the strategy bodies the operator-graph executor replaced
    in :mod:`repro.core.module`; they survive here as the independent
    oracle ``test_matches_reference_bodies_exactly`` holds the executor
    to, bit for bit.
    """
    spec = module.spec
    n_in = coords.shape[0]
    centroid_idx = module._sample_centroids(n_in)
    out_coords = coords[centroid_idx]
    space = coords if spec.search_space == "coords" else feats.data
    indices, _ = neighbor_search(space, space[centroid_idx], spec.k)
    nit = NeighborIndexTable(indices, centroid_idx)

    if strategy == "original":
        k, m_in = spec.k, spec.in_dim
        rows = len(centroid_idx)
        gathered = feats.gather(indices)
        centroids = feats.gather(centroid_idx).reshape(rows, 1, m_in)
        offsets = (gathered - centroids).reshape(rows * k, m_in)
        transformed = module.mlp(offsets).reshape(rows, k, spec.out_dim)
        return ModuleOutput(out_coords, transformed.max(axis=1), nit, None)
    if strategy == "delayed":
        pft_tensor = module.mlp(feats)
        pft = PointFeatureTable(pft_tensor.data)
        gathered = pft_tensor.gather(indices)
        reduced = gathered.max(axis=1)
        out = reduced - pft_tensor.gather(centroid_idx)
        return ModuleOutput(out_coords, out, nit, pft)
    layers = module.mlp.net.layers
    first = layers[0]
    hoisted = feats @ first.weight
    k = spec.k
    rows = len(centroid_idx)
    hidden = hoisted.shape[-1]
    gathered = hoisted.gather(indices)
    centroids = hoisted.gather(centroid_idx).reshape(rows, 1, hidden)
    offsets = (gathered - centroids).reshape(rows * k, hidden)
    if first.bias is not None:
        offsets = offsets + first.bias
    out = offsets
    for layer in layers[1:]:
        out = layer(out)
    transformed = out.reshape(rows, k, spec.out_dim)
    return ModuleOutput(
        out_coords, transformed.max(axis=1), nit, PointFeatureTable(hoisted.data)
    )


class TestIR:
    def test_resolve_dim(self):
        env = {"n_in": 64, "n_out": 32, "k": 8}
        assert resolve_dim(7, env) == 7
        assert resolve_dim("n_in", env) == 64
        assert resolve_dim("n_out*k", env) == 256
        with pytest.raises(KeyError):
            resolve_dim("bogus", env)
        with pytest.raises(TypeError):
            resolve_dim(3.5, env)

    def test_shape_env_clamps_n_out(self):
        env = shape_env(SPEC)
        assert env == {"n_in": 64, "n_out": 32, "k": 8}
        env = shape_env(SPEC, n_in=16)
        assert env["n_out"] == 16

    def test_validate_rejects_forward_reference(self):
        g = Graph("bad")
        g.add("input", attrs={"rows": "n_in", "dim": 3})
        b = g.add("matmul", inputs=(99,), attrs={})
        g.outputs = (b.id,)
        with pytest.raises(ValueError):
            g.validate()

    def test_unknown_kind_rejected(self):
        g = Graph("bad")
        with pytest.raises(ValueError):
            g.add("convolve")

    def test_format_graph_mentions_every_node(self):
        g = module_graph(SPEC, "delayed")
        text = format_graph(g, env=shape_env(SPEC))
        for node in g:
            assert node.kind in text

    def test_build_is_original_order(self):
        g = build_module_graph(SPEC)
        kinds = [n.kind for n in g]
        assert kinds == ["input", "sample", "search", "gather", "subtract",
                         "matmul", "matmul", "reduce_max"]
        assert not any(n.parallelizable for n in g)


class TestPasses:
    def test_delay_hoists_matmuls_before_search(self):
        g = delay_aggregation(build_module_graph(SPEC))
        kinds = [n.kind for n in g]
        assert kinds == ["input", "sample", "matmul", "matmul", "search",
                         "gather", "reduce_max", "subtract"]
        matmuls = g.find("matmul")
        assert all(m.parallelizable for m in matmuls)
        assert all(m.attrs["rows"] == "n_in" for m in matmuls)
        assert matmuls[-1].attrs.get("pft") is True
        assert g.only("search").parallelizable
        assert g.only("reduce_max").phase == "A"
        sub = g.only("subtract")
        assert sub.attrs["mode"] == "post" and sub.attrs["rows"] == "n_out"

    def test_limit_hoists_only_first_layer(self):
        g = limit_delay(build_module_graph(SPEC))
        matmuls = g.find("matmul")
        assert matmuls[0].attrs.get("weight_only") is True
        assert matmuls[0].attrs["rows"] == "n_in" and matmuls[0].parallelizable
        assert matmuls[1].attrs["rows"] == "n_out*k"
        assert not matmuls[1].parallelizable
        assert len(g.find("epilogue")) == 1
        assert g.only("subtract").attrs["mode"] == "pre"

    def test_fuse_produces_single_aggregate(self):
        for strategy in STRATEGIES:
            g = module_graph(SPEC, strategy)
            agg = g.only("aggregate")
            assert agg.attrs["reduce"] == (strategy == "delayed")
            assert not g.find("gather")
            assert not g.find("subtract")

    def test_fuse_is_an_independent_pass(self):
        fused = fuse_aggregation(delay_aggregation(build_module_graph(SPEC)))
        agg = fused.only("aggregate")
        assert agg.attrs["reduce"] is True
        assert fused.outputs == (agg.id,)

    def test_dce_drops_unreachable_node(self):
        g = build_module_graph(SPEC)
        dead = g.add("matmul", inputs=(g.nodes[0].id,),
                     attrs={"layer": 0, "rows": "n_in", "in_dim": 3,
                            "out_dim": 16}, phase="F")
        assert dead.id in {n.id for n in g}
        cleaned = dead_code_elimination(g)
        assert dead.id not in {n.id for n in cleaned}
        assert len(cleaned) == len(build_module_graph(SPEC))

    def test_pipeline_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_pipeline(build_module_graph(SPEC), "eager")

    def test_module_graph_is_memoized(self):
        assert module_graph(SPEC, "delayed") is module_graph(SPEC, "delayed")

    def test_strategy_passes_idempotent_but_exclusive(self):
        # Re-applying a pass to its own output is a structural no-op;
        # applying the *other* variant's pass to it stays an error.
        delayed = delay_aggregation(build_module_graph(SPEC))
        again = delay_aggregation(delayed)
        assert again.nodes == delayed.nodes
        assert again.outputs == delayed.outputs
        with pytest.raises(ValueError):
            limit_delay(delayed)

        limited = limit_delay(build_module_graph(SPEC))
        again = limit_delay(limited)
        assert again.nodes == limited.nodes
        assert again.outputs == limited.outputs
        with pytest.raises(ValueError):
            delay_aggregation(limited)


class TestTraceLowering:
    @pytest.mark.parametrize("spec", [
        SPEC,
        FEATURE_SPEC,
        ModuleSpec("one", n_in=32, n_out=16, k=4, mlp_dims=(3, 8)),
        ModuleSpec("deep", n_in=100, n_out=10, k=10,
                   mlp_dims=(3, 64, 64, 128)),
    ])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n_in", [None, 16, 200])
    def test_matches_hand_written_emission_exactly(self, spec, strategy, n_in):
        lowered = emit_module_trace(spec, strategy, Trace(), n_in=n_in)
        reference = reference_emit_module_trace(spec, strategy, Trace(),
                                                n_in=n_in)
        assert list(lowered) == list(reference)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            emit_module_trace(SPEC, "eager", Trace())


class TestExecutors:
    @pytest.mark.parametrize("spec", [SPEC, FEATURE_SPEC])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_reference_bodies_exactly(self, spec, strategy):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(spec.n_in, 3))
        feats = Tensor(rng.normal(size=(spec.n_in, spec.in_dim)))
        mod = PointCloudModule(spec, rng=np.random.default_rng(1))
        out = mod(coords, feats, strategy=strategy)
        ref = _reference_module_forward(mod, coords, feats, strategy)
        np.testing.assert_array_equal(out.features.data, ref.features.data)
        np.testing.assert_array_equal(out.nit.indices, ref.nit.indices)
        np.testing.assert_array_equal(out.coords, ref.coords)
        if ref.pft is None:
            assert out.pft is None
        else:
            np.testing.assert_array_equal(out.pft.features, ref.pft.features)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_executor_matches_eager(self, strategy):
        rng = np.random.default_rng(2)
        clouds = rng.normal(size=(3, SPEC.n_in, 3))
        mod = PointCloudModule(SPEC, rng=np.random.default_rng(3))
        batched = GraphExecutor().run(
            mod.graph(strategy), mod, clouds,
            Tensor(clouds.reshape(-1, 3).copy()),
        )
        stacked = batched.features.data.reshape(3, SPEC.n_out, SPEC.out_dim)
        for b in range(3):
            single = GraphExecutor().run(
                mod.graph(strategy), mod, clouds[b][None],
                Tensor(clouds[b].copy()),
            )
            np.testing.assert_allclose(stacked[b], single.features.data,
                                       atol=1e-9)
            np.testing.assert_array_equal(batched.indices[b],
                                          single.indices[0])

    @pytest.mark.parametrize("spec", [SPEC, FEATURE_SPEC])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forward_is_forward_batch_of_a_stack_of_one(self, spec, strategy):
        # The one-arity contract at the module door: outputs and
        # parameter gradients agree bit for bit, modulo the leading axis.
        rng = np.random.default_rng(6)
        coords = rng.normal(size=(spec.n_in, 3))
        data = rng.normal(size=(spec.n_in, spec.in_dim))

        def run(door):
            mod = PointCloudModule(spec, rng=np.random.default_rng(7))
            out = door(mod, Tensor(data.copy()))
            out.features.sum().backward()
            return out, [p.grad for p in mod.parameters()]

        one, one_grads = run(
            lambda mod, feats: mod(coords, feats, strategy=strategy))
        stack, stack_grads = run(
            lambda mod, feats: mod.forward_batch(coords[None], feats,
                                                 strategy=strategy))
        assert one.nit.indices.shape == (spec.n_out, spec.k)
        np.testing.assert_array_equal(one.features.data, stack.features.data)
        np.testing.assert_array_equal(one.coords, stack.coords[0])
        np.testing.assert_array_equal(one.nit.indices, stack.nit.indices[0])
        np.testing.assert_array_equal(one.nit.centroids, stack.nit.centroids)
        assert (one.pft is None) == (stack.pft is None)
        assert len(one_grads) == len(stack_grads) > 0
        for a, b in zip(one_grads, stack_grads):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forward_with_pinned_centroids_is_the_stack_path(self, strategy):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(SPEC.n_in, 3))
        pinned = rng.permutation(SPEC.n_in)[:SPEC.n_out]
        mod = PointCloudModule(SPEC, rng=np.random.default_rng(9))
        one = mod(coords, Tensor(coords.copy()), strategy=strategy,
                  centroid_idx=pinned)
        stack = GraphExecutor().run(mod.graph(strategy), mod, coords[None],
                                    Tensor(coords.copy()),
                                    centroid_idx=pinned)
        np.testing.assert_array_equal(one.features.data, stack.features.data)
        np.testing.assert_array_equal(one.nit.indices, stack.indices[0])
        np.testing.assert_array_equal(one.nit.centroids, pinned)
        np.testing.assert_array_equal(one.coords, coords[pinned])

    def test_executor_census(self):
        # One arity, three executors: the graph interpreter, its
        # frontier-walking subclass, and the kernel runtime's adapter.
        import re
        from pathlib import Path

        import repro

        defined = sorted(
            name
            for path in Path(repro.__file__).parent.rglob("*.py")
            for name in re.findall(r"^class (\w*Executor)\b",
                                   path.read_text(), re.MULTILINE)
        )
        assert defined == ["GraphExecutor", "NetworkKernelExecutor",
                           "OverlapExecutor"]

    def test_recorder_captures_fused_constituents(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(SPEC.n_in, 3))
        mod = PointCloudModule(SPEC)
        rec = OpRecorder()
        GraphExecutor(recorder=rec).run(
            mod.graph("delayed"), mod, coords[None], Tensor(coords.copy())
        )
        kinds = [r["kind"] for r in rec.records]
        assert kinds == ["sample", "matmul", "matmul", "search", "gather",
                         "reduce_max", "subtract"]


class TestTraceExecutionConsistency:
    """The lowered Trace op shapes must match the ops actually executed."""

    FIELD_MAP = {
        SampleOp: ("n_points", "n_samples"),
        NeighborSearchOp: ("n_queries", "n_points", "k", "dim"),
        GatherOp: ("n_centroids", "k", "feature_dim", "table_rows"),
        SubtractOp: ("rows", "dim"),
        MatMulOp: ("rows", "in_dim", "out_dim"),
        ReduceMaxOp: ("n_centroids", "k", "feature_dim"),
    }
    KIND_MAP = {
        SampleOp: "sample", NeighborSearchOp: "search", GatherOp: "gather",
        SubtractOp: "subtract", MatMulOp: "matmul", ReduceMaxOp: "reduce_max",
    }

    @pytest.mark.parametrize("name", ["PointNet++ (c)", "DGCNN (c)"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_lowered_trace_matches_executed_ops(self, name, strategy):
        net = build_network(name, scale=0.0625, rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(net.n_points, 3))
        feats = Tensor(coords.copy())
        for module in net.encoder:
            recorder = OpRecorder()
            result = GraphExecutor(recorder=recorder).run(
                module.graph(strategy), module, coords[None], feats
            )
            trace = emit_module_trace(module.spec, strategy, Trace(),
                                      n_in=coords.shape[0])
            executed = list(recorder.records)
            if not trace.by_type(SampleOp):
                # The trace omits the degenerate every-point "sampling";
                # the executor still evaluates the node.
                executed = [r for r in executed if r["kind"] != "sample"]
            assert len(executed) == len(trace)
            for record, op in zip(executed, trace):
                assert record["kind"] == self.KIND_MAP[type(op)]
                for field in self.FIELD_MAP[type(op)]:
                    assert record[field] == getattr(op, field), (
                        f"{module.spec.name} [{strategy}] "
                        f"{record['kind']}.{field}: executed "
                        f"{record[field]} vs traced {getattr(op, field)}"
                    )
            coords = coords[result.centroid_idx]
            feats = result.features


class TestBatchedNetworkCoverage:
    """Every registered network runs batched through the graph executor."""

    @pytest.mark.parametrize("name", ["DensePoint", "LDGCNN"])
    def test_batched_matches_single(self, name):
        net = build_network(name, num_classes=4, scale=0.0625,
                            rng=np.random.default_rng(0))
        clouds = np.random.default_rng(6).normal(size=(3, net.n_points, 3))
        batched = net.forward_batch(clouds, strategy="delayed")
        assert batched.shape == (3, 4)
        for b in range(3):
            single = net.forward(clouds[b], strategy="delayed")
            np.testing.assert_allclose(batched.data[b], single.data[0],
                                       atol=1e-6)

    def test_fpointnet_batched_matches_single(self):
        net = build_network("F-PointNet", num_classes=3, scale=0.0625,
                            rng=np.random.default_rng(0))
        clouds = np.random.default_rng(7).normal(size=(2, net.n_points, 3))
        batched = net.forward_batch(clouds, strategy="delayed")
        assert batched["mask_logits"].shape == (2, net.n_points, 2)
        assert batched["box"].shape[0] == 2
        for b in range(2):
            single = net.forward(clouds[b], strategy="delayed")
            np.testing.assert_allclose(
                batched["mask_logits"].data[b], single["mask_logits"].data,
                atol=1e-6,
            )
            np.testing.assert_allclose(
                batched["box"].data[b], single["box"].data[0], atol=1e-6
            )

    def test_detection_through_batch_runner(self):
        net = build_network("F-PointNet", num_classes=3, scale=0.0625)
        clouds = np.random.default_rng(8).normal(size=(2, net.n_points, 3))
        result = BatchRunner(net).run(clouds)
        assert isinstance(result.outputs, dict)
        assert result.outputs["box"].shape[0] == 2


class TestPlansAndCache:
    def test_compile_network_plan(self):
        net = build_network("F-PointNet", scale=0.0625)
        plan = compile_network_plan(net, "delayed")
        # seg encoder (3) + box encoder (2)
        assert len(plan) == 5
        assert plan.node_count == sum(e.node_count for e in plan)
        text = plan.describe()
        assert "seg_sa1" in text and "box_sa1" in text

    def test_batch_runner_exposes_plan(self):
        net = build_network("PointNet++ (c)", scale=0.0625)
        runner = BatchRunner(net, strategy="limited")
        assert runner.plan.strategy == "limited"
        assert len(runner.plan) == 3
        assert runner.plan is runner.plan  # memoized

    def test_cache_keys_on_search_signature(self):
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        cloud = np.random.default_rng(9).normal(size=(net.n_points, 3))
        cache = NeighborIndexCache(maxsize=64)
        with search_context(cache=cache):
            first = net.forward(cloud, strategy="delayed")
            assert cache.misses == 3 and cache.hits == 0
            second = net.forward(cloud, strategy="delayed")
        assert cache.hits == 3
        # Tagged keys replace the query digest; entries must not be
        # duplicated under both forms.
        assert len(cache) == 3
        assert all(key[2][0] == "tag" for key in cache._entries)
        np.testing.assert_allclose(first.data, second.data, atol=0)

    def test_search_signature_shared_across_strategies(self):
        # The search is strategy-independent, so a delayed warm-up
        # serves the original strategy's searches too.
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        cloud = np.random.default_rng(10).normal(size=(net.n_points, 3))
        cache = NeighborIndexCache(maxsize=64)
        with search_context(cache=cache):
            net.forward(cloud, strategy="delayed")
            misses = cache.misses
            net.forward(cloud, strategy="original")
        assert cache.misses == misses


class TestCLI:
    def test_trace_graph_flag(self, capsys):
        from repro.cli import main

        assert main(["trace", "DGCNN (c)", "--strategy", "delayed",
                     "--graph"]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        assert "phase" in out
