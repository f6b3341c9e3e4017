"""Tests for the operator-graph IR: region emission, rewrite passes, the
interpreter, trace lowering, and the trace/execution consistency
property."""

import numpy as np
import pytest

from conftest import (
    assert_values_match_attrs,
    one_module_net,
    reference_module_emission,
    reference_module_forward,
    region_module,
    run_module,
    toy,
)
from repro.core import ModuleSpec
from repro.engine import BatchRunner, NeighborIndexCache
from repro.graph import (
    Graph,
    GraphExecutor,
    Node,
    dead_code_elimination,
    delay_aggregation,
    format_graph,
    limit_delay,
    run_pipeline,
)
from repro.networks import ALL_NETWORKS, build_network
from repro.neural import Tensor, no_grad
from repro.profiling.trace import Trace

SPEC = ModuleSpec("m1", n_in=64, n_out=32, k=8, mlp_dims=(3, 16, 24))
FEATURE_SPEC = ModuleSpec("edge", n_in=48, n_out=48, k=6, mlp_dims=(16, 32),
                          search_space="features")
STRATEGIES = ("original", "delayed", "limited")


def sa1_spec():
    """PointNet++'s first set-abstraction spec at toy scale."""
    return build_network("PointNet++ (c)", num_classes=4,
                         scale=0.0625).encoder[0].spec


def region_graph(spec, strategy="original"):
    """The graph of ``spec``'s one-module network under ``strategy``:
    the lifted input, the region, a global max and a one-layer head;
    ``original`` holds the region as emitted (DCE only drops its unread
    out-coords)."""
    return one_module_net(spec).network_graph(strategy).graph


def region_matmuls(graph):
    """The ``matmul`` nodes of the graph's module regions (not its head)."""
    return [n for n in graph.find("matmul") if "module" in n.attrs]


class TestIR:
    def test_validate_rejects_forward_reference(self):
        g = Graph("bad")
        g.add("coords", attrs={"rows": 64, "dim": 3})
        b = g.add("matmul", inputs=(99,), attrs={})
        g.outputs = (b.id,)
        with pytest.raises(ValueError):
            g.validate()

    def test_unknown_kind_rejected(self):
        g = Graph("bad")
        with pytest.raises(ValueError):
            g.add("convolve")

    def test_format_graph_mentions_every_node(self):
        g = region_graph(SPEC, "delayed")
        text = format_graph(g)
        for node in g:
            assert node.kind in text

    def test_region_is_emitted_in_original_order(self):
        g = region_graph(SPEC)
        kinds = [n.kind for n in g]
        assert kinds == ["coords", "lift", "sample", "search", "aggregate",
                         "matmul", "matmul", "reduce_max", "global_max",
                         "matmul"]
        assert not any(n.parallelizable for n in g)
        agg = g.only("aggregate")
        assert agg.attrs["reduce"] is False and agg.phase == "A"
        assert agg.inputs == (g.only("lift").id, g.only("search").id,
                              g.only("sample").id)
        assert (agg.attrs["n_centroids"], agg.attrs["k"]) == (32, 8)
        assert (agg.attrs["table_rows"], agg.attrs["dim"]) == (64, 3)
        assert not {"rows", "feature_dim"} & set(agg.attrs)
        assert g.only("reduce_max").phase == "F"
        assert g.only("search").attrs["signature"] == "m1:coords:k=8:n_out=32"

    def test_validate_rejects_a_node_waiting_on_a_later_one(self):
        graph = region_graph(sa1_spec(), "delayed")
        broken = graph.copy()
        nodes = list(broken.nodes)
        nodes[0] = Node(nodes[0].id, nodes[0].kind, (nodes[-1].id,),
                        dict(nodes[0].attrs), nodes[0].phase)
        broken.nodes = nodes
        with pytest.raises(ValueError, match="before it is produced"):
            broken.validate()
        graph.validate()  # the copy shares no list with the memoized graph

    def test_validate_rejects_an_unproduced_output(self):
        g = region_graph(SPEC).copy()
        g.outputs = (len(g) + 5,)
        with pytest.raises(ValueError, match="not produced"):
            g.validate()

    def test_replace_nodes_rejects_duplicate_ids(self):
        g = region_graph(SPEC).copy()
        with pytest.raises(ValueError, match="duplicate"):
            g.replace_nodes(list(g.nodes) + [g.nodes[-1]])


class TestPasses:
    def test_delay_hoists_matmuls_before_search(self):
        g = delay_aggregation(region_graph(SPEC))
        kinds = [n.kind for n in g]
        assert kinds == ["coords", "lift", "sample", "matmul", "matmul",
                         "search", "aggregate", "global_max", "matmul"]
        matmuls = region_matmuls(g)
        assert all(m.parallelizable for m in matmuls)
        assert all(m.attrs["rows"] == 64 for m in matmuls)
        assert g.only("search").parallelizable
        # The module's reduce_max is absorbed: the aggregate reduces,
        # and what read the region's output reads the aggregate.
        agg = g.only("aggregate")
        assert agg.attrs["reduce"] is True and agg.phase == "A"
        assert agg.inputs[0] == matmuls[-1].id
        assert agg.attrs["dim"] == 24
        assert g.only("global_max").inputs == (agg.id,)

    def test_limit_hoists_only_first_layer(self):
        g = limit_delay(region_graph(SPEC))
        matmuls = region_matmuls(g)
        assert matmuls[0].attrs.get("weight_only") is True
        assert matmuls[0].attrs["rows"] == 64 and matmuls[0].parallelizable
        assert matmuls[1].attrs["rows"] == 32 * 8
        assert not matmuls[1].parallelizable
        agg = g.only("aggregate")
        assert agg.attrs["reduce"] is False
        assert agg.inputs[0] == matmuls[0].id
        assert agg.attrs["dim"] == 16
        assert [n.kind for n in g.consumers(agg.id)] == ["epilogue"]

    def test_flags_tell_the_strategy_story(self):
        # The flag is the one description of N/F overlap: original order
        # overlaps nothing, delayed the search with the whole MLP chain,
        # limited the search with exactly the first (linear) product.
        def flagged(strategy):
            return [n.kind for n in region_graph(sa1_spec(), strategy)
                    if n.parallelizable]

        n_layers = len(sa1_spec().mlp_dims) - 1
        assert flagged("original") == []
        assert sorted(flagged("delayed")) == ["matmul"] * n_layers + ["search"]
        assert sorted(flagged("limited")) == ["matmul", "search"]

    def test_every_strategy_has_one_aggregate(self):
        for strategy in STRATEGIES:
            g = region_graph(SPEC, strategy)
            agg = g.only("aggregate")
            assert agg.attrs["reduce"] == (strategy == "delayed")
            assert len(g.find("reduce_max")) == (strategy != "delayed")

    def test_dce_drops_unreachable_node(self):
        g = region_graph(SPEC).copy()
        dead = g.add("matmul", inputs=(g.only("lift").id,),
                     attrs={"layer": 0, "rows": 64, "in_dim": 3,
                            "out_dim": 16}, phase="F")
        assert dead.id in {n.id for n in g}
        cleaned = dead_code_elimination(g)
        assert dead.id not in {n.id for n in cleaned}
        assert len(cleaned) == len(region_graph(SPEC))

    def test_pipeline_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_pipeline(region_graph(SPEC), "eager")

    def test_module_graph_is_memoized(self):
        # The graph a run reads and a trace lowers is the memo, per
        # strategy: running does not rebuild it.
        net = one_module_net(SPEC)
        graph = net.network_graph("delayed")
        with no_grad():
            run_module(net, np.zeros((SPEC.n_in, 3)), "delayed")
        assert net.network_graph("delayed") is graph
        assert net.network_graph("original") is not graph
        assert len(net.trace("delayed").by_phase("N")) == len(
            graph.graph.find("search"))

    def test_strategy_passes_idempotent_but_exclusive(self):
        # Re-applying a pass to its own output is a structural no-op;
        # applying the *other* variant's pass to it stays an error.
        delayed = delay_aggregation(region_graph(SPEC))
        again = delay_aggregation(delayed)
        assert again.nodes == delayed.nodes
        assert again.outputs == delayed.outputs
        with pytest.raises(ValueError):
            limit_delay(delayed)

        limited = limit_delay(region_graph(SPEC))
        again = limit_delay(limited)
        assert again.nodes == limited.nodes
        assert again.outputs == limited.outputs
        with pytest.raises(ValueError):
            delay_aggregation(limited)

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_graph_passes_idempotent(self, name):
        """Every pass applied twice is a structural no-op, on every network.

        The strategy rewrites apply to the original-order graph, and
        (with DCE) to the rewritten graphs the executors actually run: a
        rewritten network graph is a fixed point of its own strategy's
        rewrite.
        """
        def signature(graph):
            return ([(n.id, n.kind, n.inputs, n.attrs, n.phase)
                     for n in graph.nodes], tuple(graph.outputs))

        net = build_network(name, num_classes=4,
                            scale=0.03125 if "(s)" in name else 0.0625,
                            rng=np.random.default_rng(0))
        assert net.encoder
        raw = net.network_graph("original").graph
        for pass_fn in (delay_aggregation, limit_delay):
            once = pass_fn(raw)
            assert signature(pass_fn(once)) == signature(once)
        rewrites = {"delayed": delay_aggregation, "limited": limit_delay}
        for strategy in STRATEGIES:
            graph = net.network_graph(strategy).graph
            once = dead_code_elimination(graph)
            assert signature(dead_code_elimination(once)) == signature(once)
            if strategy in rewrites:
                assert signature(rewrites[strategy](graph)) == \
                    signature(graph)


def assert_producers_first(graph, order):
    """Every node evaluated exactly once, each after all its producers."""
    assert sorted(order) == sorted(node.id for node in graph)
    position = {node_id: index for index, node_id in enumerate(order)}
    for node in graph:
        for parent in node.inputs:
            assert position[parent] < position[node.id], (
                f"{graph.name}: node {node.id} ({node.kind}) ran before "
                f"producer {parent}"
            )


class TestNodeOrder:
    """The dependency structure the paper's hardware exploits, and the
    order the one interpreter walks it in."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_first_matmul_waits_on_search_only_in_original(self, strategy):
        # Delaying aggregation is what frees the first MLP product from
        # the neighbor search: N and F become independent.
        graph = region_graph(sa1_spec(), strategy)
        ancestors = {}
        for node in graph:
            ancestors[node.id] = set(node.inputs).union(
                *(ancestors[parent] for parent in node.inputs))
        search = graph.only("search").id
        first = graph.find("matmul")[0].id
        assert (search in ancestors[first]) == (strategy == "original")
        assert first not in ancestors[search]

    def test_sampled_centroids_feed_search_and_subtraction(self):
        for strategy in STRATEGIES:
            graph = region_graph(sa1_spec(), strategy)
            sample = graph.only("sample").id
            assert [n.kind for n in graph.consumers(sample)] == [
                "search", "aggregate"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_module_walk_runs_producers_first(self, strategy):
        # Each PointNet++ (c) module, run as its own one-module network.
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        for i, module in enumerate(net.encoder):
            mnet = one_module_net(module.spec)
            cloud = np.random.default_rng(8 + i).normal(
                size=(mnet.n_points, 3))
            ngraph = mnet.network_graph(strategy)
            executor = GraphExecutor()
            with no_grad():
                executor.run_network(ngraph, cloud[None])
            # ``values`` is filled in walk order.
            assert_producers_first(ngraph.graph, list(executor.values))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_network_walk_runs_producers_first(self, strategy):
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        cloud = np.random.default_rng(9).normal(size=(net.n_points, 3))
        ngraph = net.network_graph(strategy)
        executor = GraphExecutor()
        with no_grad():
            logged = executor.run_network(ngraph, cloud[None])
            plain = net.forward(cloud, strategy=strategy)
        assert_producers_first(ngraph.graph, list(executor.values))
        np.testing.assert_array_equal(logged.data, plain.data)


class TestTraceLowering:
    """Every region's lowered records are the hand-written emission."""

    @pytest.mark.parametrize("scale", ["paper", "toy"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_every_region_matches_hand_written_emission(self, name, strategy,
                                                        scale):
        net = build_network(name) if scale == "paper" else toy(name)
        ngraph = net.network_graph(strategy)
        trace = net.trace(strategy)
        assert ngraph.regions
        for region in ngraph.regions:
            spec = region_module(net, ngraph, region).spec
            lowered = [op for op in trace if op.module == spec.name]
            reference = reference_module_emission(spec, strategy, Trace())
            assert lowered == list(reference), f"{spec.name} [{strategy}]"

    @pytest.mark.parametrize("spec", [
        SPEC,
        FEATURE_SPEC,
        ModuleSpec("one", n_in=32, n_out=16, k=4, mlp_dims=(3, 8)),
        ModuleSpec("deep", n_in=100, n_out=10, k=10,
                   mlp_dims=(3, 64, 64, 128)),
    ])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_module_trace_matches_hand_written_emission(self, spec, strategy):
        trace = one_module_net(spec).trace(strategy)
        assert trace.strategy == strategy
        lowered = [op for op in trace if op.module == spec.name]
        reference = reference_module_emission(spec, strategy, Trace())
        assert lowered == list(reference)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            one_module_net(SPEC).trace("eager")


class TestExecutors:
    @pytest.mark.parametrize("spec", [SPEC, FEATURE_SPEC])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_reference_bodies_exactly(self, spec, strategy):
        # FEATURE_SPEC reads the 16-wide rows of a module before it.
        net = one_module_net(spec, rng=np.random.default_rng(1))
        cloud = np.random.default_rng(0).normal(size=(spec.n_in, 3))
        with no_grad():
            coords, feats, out = run_module(net, cloud, strategy)
            ref = reference_module_forward(net.encoder[-1], coords, feats,
                                           strategy)
        np.testing.assert_array_equal(out.features.data, ref.features.data)
        np.testing.assert_array_equal(out.indices, ref.indices)
        np.testing.assert_array_equal(out.centroids, ref.centroids)
        np.testing.assert_array_equal(out.coords, ref.coords)
        if ref.pft is None:
            assert out.pft is None
        else:
            np.testing.assert_array_equal(out.pft, ref.pft)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_executor_matches_eager(self, strategy):
        rng = np.random.default_rng(2)
        clouds = rng.normal(size=(3, SPEC.n_in, 3))
        net = one_module_net(SPEC, rng=np.random.default_rng(3))
        ngraph = net.network_graph(strategy)
        region = ngraph.regions[0]
        tall = GraphExecutor()
        with no_grad():
            tall.run_network(ngraph, clouds)
            stacked = tall.values[region.output].data.reshape(
                3, SPEC.n_out, SPEC.out_dim)
            for b in range(3):
                one = GraphExecutor()
                one.run_network(ngraph, clouds[b][None])
                np.testing.assert_array_equal(stacked[b],
                                              one.values[region.output].data)
                # The NIT's flat rows: cloud b's are its own, lifted by
                # b * n_in.
                np.testing.assert_array_equal(
                    tall.values[region.search][
                        b * SPEC.n_out:(b + 1) * SPEC.n_out],
                    one.values[region.search] + b * SPEC.n_in)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forward_is_the_stack_path(self, strategy):
        # The region values ``run_module`` reads off a stack of one are
        # the ones ``forward`` computes its logits from: the head over
        # the global max of the region's output rows.
        cloud = np.random.default_rng(8).normal(size=(SPEC.n_in, 3))
        net = one_module_net(SPEC, rng=np.random.default_rng(9))
        with no_grad():
            coords, feats, run = run_module(net, cloud, strategy)
            logits = net.forward(cloud, strategy=strategy)
            pooled = Tensor(run.features.data.max(axis=0, keepdims=True))
            np.testing.assert_array_equal(logits.data, net.head(pooled).data)
        np.testing.assert_array_equal(coords, cloud)
        np.testing.assert_array_equal(run.coords, cloud[run.centroids])
        if strategy == "original":
            assert run.pft is None
        else:
            # The product the aggregate gathers: the whole MLP once
            # delayed, its first Linear's weight product when limited.
            assert run.pft.shape[0] == SPEC.n_in
            with no_grad():
                mlp = net.encoder[0].mlp
                expected = (mlp(feats).data if strategy == "delayed"
                            else feats.data @ mlp.layers[0].weight.data)
            np.testing.assert_allclose(run.pft, expected, rtol=1e-12,
                                       atol=1e-12)

    def test_executor_census(self):
        # One arity, one executor: the graph interpreter.  Kernel
        # programs run themselves (``program.run(stack)``).
        import re
        from pathlib import Path

        import repro

        defined = sorted(
            name
            for path in Path(repro.__file__).parent.rglob("*.py")
            for name in re.findall(r"^class (\w*Executor)\b",
                                   path.read_text(), re.MULTILINE)
        )
        assert defined == ["GraphExecutor"]

    def test_values_hold_every_node_of_a_run(self):
        rng = np.random.default_rng(4)
        cloud = rng.normal(size=(SPEC.n_in, 3))
        net = one_module_net(SPEC)
        executor = GraphExecutor()
        ngraph = net.network_graph("delayed")
        with no_grad():
            out = executor.run_network(ngraph, cloud[None])
        assert list(executor.values) == [n.id for n in ngraph.graph]
        assert [n.kind for n in ngraph.graph] == [
            "coords", "lift", "sample", "matmul", "matmul", "search",
            "aggregate", "global_max", "matmul"]
        assert executor.values[ngraph.outputs[0].node] is out


class TestTraceExecutionConsistency:
    """The lowered Trace op shapes must match the ops actually executed:
    every value each module computes, run as a one-module network over
    one cloud, has the shape its node's attrs — what the lowering
    reads — declare."""

    @pytest.mark.parametrize("name", ["PointNet++ (c)", "DGCNN (c)"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_lowered_trace_matches_executed_ops(self, name, strategy):
        net = build_network(name, scale=0.0625, rng=np.random.default_rng(0))
        for i, module in enumerate(net.encoder):
            mnet = one_module_net(module.spec)
            cloud = np.random.default_rng(5 + i).normal(
                size=(mnet.n_points, 3))
            ngraph = mnet.network_graph(strategy)
            executor = GraphExecutor()
            with no_grad():
                executor.run_network(ngraph, cloud[None])
            assert_values_match_attrs(ngraph, executor.values, batch=1)


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
            np.testing.assert_array_equal(batched.data[b], single.data[0])

    def test_fpointnet_batched_matches_single(self):
        net = build_network("F-PointNet", num_classes=3, scale=0.0625,
                            rng=np.random.default_rng(0))
        clouds = np.random.default_rng(7).normal(size=(2, net.n_points, 3))
        batched = net.forward_batch(clouds, strategy="delayed")
        assert batched["mask_logits"].shape == (2, net.n_points, 2)
        assert batched["box"].shape[0] == 2
        for b in range(2):
            single = net.forward(clouds[b], strategy="delayed")
            np.testing.assert_array_equal(batched["mask_logits"].data[b],
                                          single["mask_logits"].data)
            np.testing.assert_array_equal(batched["box"].data[b],
                                          single["box"].data[0])

    def test_detection_through_batch_runner(self):
        net = build_network("F-PointNet", num_classes=3, scale=0.0625)
        clouds = np.random.default_rng(8).normal(size=(2, net.n_points, 3))
        result = BatchRunner(net).run(clouds)
        assert isinstance(result.outputs, dict)
        assert result.outputs["box"].shape[0] == 2


class TestPlansAndCache:
    def test_cache_keys_on_search_signature(self):
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        cloud = np.random.default_rng(9).normal(size=(net.n_points, 3))
        cache = NeighborIndexCache(maxsize=64)
        runner = BatchRunner(net, strategy="delayed", cache=cache)
        first = runner.run(cloud[None]).outputs
        assert cache.misses == 3 and cache.hits == 0
        second = runner.run(cloud[None]).outputs
        assert cache.hits == 3
        # Tagged keys replace the query digest; entries must not be
        # duplicated under both forms.
        assert len(cache) == 3
        assert all(key[1][0] == "tag" for key in cache._entries)
        np.testing.assert_array_equal(first, second)

    def test_search_signature_shared_across_strategies(self):
        # The search is strategy-independent, so a delayed warm-up
        # serves the original strategy's searches too.
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.0625)
        cloud = np.random.default_rng(10).normal(size=(net.n_points, 3))
        cache = NeighborIndexCache(maxsize=64)
        BatchRunner(net, strategy="delayed", cache=cache).run(cloud[None])
        misses = cache.misses
        BatchRunner(net, strategy="original", cache=cache).run(cloud[None])
        assert cache.misses == misses


class TestCLI:
    def test_trace_graph_flag(self, capsys):
        from repro.cli import main

        assert main(["trace", "DGCNN (c)", "--strategy", "delayed",
                     "--graph"]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        assert "phase" in out
