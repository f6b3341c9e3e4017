"""Tests for whole-network graphs: builders, network-aware passes,
executors, trace lowering, and the execution/trace equivalence
properties — every module region held to the independent per-module
reference."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    CHUNK_EDGE_TOYS,
    assert_bit_exact,
    assert_values_match_attrs,
    cloud_for,
    clouds_for,
    interpret,
    reference_module_emission,
    reference_module_forward,
    region_module,
    region_pft,
    toy,
)
from repro.backend import KernelProgram, compile_kernel_program
from repro.core import STRATEGIES, ModuleSpec, PointCloudModule
from repro.graph import (
    KINDS,
    GraphExecutor,
    build_network_graph,
    format_graph,
)
from repro.networks import ALL_NETWORKS, PointCloudNetwork, build_network
from repro.neural import SharedMLP, Tensor, no_grad
from repro.profiling.trace import (
    ConcatOp,
    InterpolateOp,
    MatMulOp,
    ReduceMaxOp,
    Trace,
)


class TestBuild:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_network_lowers_to_one_graph(self, name, strategy):
        net = toy(name)
        ngraph = net.network_graph(strategy)
        ngraph.graph.validate()
        expected_modules = len(net.encoder) + len(
            getattr(net, "box_encoder", [])
        )
        assert len(ngraph.regions) == expected_modules
        # Every region's nodes survived the pipeline and stay tagged.
        tagged = {n.attrs.get("module") for n in ngraph.graph
                  if "module" in n.attrs}
        assert len(tagged) == expected_modules

    def test_kinds_lists_no_dead_kind(self):
        # The seven networks under every strategy use every kind.
        used = {node.kind
                for name in ALL_NETWORKS for strategy in STRATEGIES
                for node in toy(name).network_graph(strategy).graph}
        assert used == set(KINDS)

    def test_network_graph_is_memoized_per_strategy(self):
        net = toy("PointNet++ (c)")
        assert net.network_graph("delayed") is net.network_graph("delayed")
        assert net.network_graph("delayed") is not net.network_graph("original")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            toy("PointNet++ (c)").network_graph("eager")

    def test_trace_graph_prints_the_network_graph(self, capsys):
        from repro.cli import main

        assert main(["trace", "F-PointNet", "--graph"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ngraph = build_network("F-PointNet").network_graph("delayed")
        graph = format_graph(ngraph.graph).splitlines()
        assert lines[1] == (f"network graph: {ngraph.node_count} nodes, "
                            f"{len(ngraph.regions)} module regions")
        assert lines[2:2 + len(graph)] == graph
        # Both encoders' regions: the segmentation and the box one.
        names = [ngraph.graph.node(r.sample).attrs["label"]
                 for r in ngraph.regions]
        assert names == ["seg_sa1", "seg_sa2", "seg_sa3", "box_sa1", "box_sa2"]

    def test_delayed_rewrite_applies_per_region(self):
        net = toy("PointNet++ (c)")
        graph = net.network_graph("delayed").graph
        for region in net.network_graph("delayed").regions:
            matmuls = [n for n in graph
                       if n.kind == "matmul"
                       and n.attrs.get("module") == region.module]
            assert matmuls and all(m.parallelizable for m in matmuls)
            aggs = [n for n in graph
                    if n.kind == "aggregate"
                    and n.attrs.get("module") == region.module]
            assert len(aggs) == 1 and aggs[0].attrs["reduce"] is True


class TestExecutionEquivalence:
    """Whole-network graph execution is bit-exact against the
    independent per-module reference, region by region."""

    @pytest.mark.parametrize("height", [1, 3])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", [*ALL_NETWORKS, *CHUNK_EDGE_TOYS])
    def test_every_region_matches_the_reference_bodies(self, name, strategy,
                                                       height):
        # Each region's own inputs, cloud by cloud, go through the pre-IR
        # strategy bodies; the region's output rows, sampled centroids,
        # Neighbor Index Table and Point Feature Table (the table its
        # aggregate gathers, none under ``original``) must be theirs bit
        # for bit.
        net = toy(name)
        ngraph = net.network_graph(strategy)
        executor = GraphExecutor()
        with no_grad():
            executor.run_network(ngraph, clouds_for(net, height, seed=1))
            values = executor.values
            for region in ngraph.regions:
                coords = values[region.coords]
                feats = values[region.feats].data
                output = values[region.output].data
                pft = region_pft(ngraph, values, region)
                n_in = coords.shape[1]
                n_out = output.shape[0] // height
                for b in range(height):
                    ref = reference_module_forward(
                        region_module(net, ngraph, region), coords[b],
                        Tensor(feats[b * n_in:(b + 1) * n_in]), strategy,
                    )
                    where = (region.module, b)
                    assert np.array_equal(
                        output[b * n_out:(b + 1) * n_out], ref.features.data
                    ), where
                    assert np.array_equal(values[region.sample],
                                          ref.centroids), where
                    assert np.array_equal(
                        values[region.search][b * n_out:(b + 1) * n_out],
                        ref.indices + b * n_in), where
                    if ref.pft is None:
                        assert pft is None, where
                    else:
                        assert np.array_equal(
                            pft[b * n_in:(b + 1) * n_in], ref.pft), where

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forward_is_forward_batch_of_a_stack_of_one(self, name, strategy):
        # The one-arity contract at the network door: a cloud is a
        # stack of one, so outputs and parameter gradients (the training
        # path) agree bit for bit, modulo the leading axis of per-point
        # outputs.
        cloud = cloud_for(toy(name), seed=5)

        def run(door):
            net = toy(name)
            out = door(net)
            leaves = list(out.values()) if isinstance(out, dict) else [out]
            total = leaves[0].sum()
            for leaf in leaves[1:]:
                total = total + leaf.sum()
            total.backward()
            return out, [p.grad for p in net.parameters()]

        one, one_grads = run(lambda net: net.forward(cloud, strategy=strategy))
        stack, stack_grads = run(
            lambda net: net.forward_batch(cloud[None], strategy=strategy))
        per_point = {out.name: out.per_point
                     for out in toy(name).network_graph(strategy).outputs}
        if not isinstance(one, dict):
            one, stack = {None: one}, {None: stack}
        assert set(one) == set(stack) == set(per_point)
        for key, value in one.items():
            stacked = stack[key].data
            assert stacked.shape == (
                (1, *value.shape) if per_point[key] else value.shape)
            assert np.array_equal(value.data,
                                  stacked[0] if per_point[key] else stacked)
        assert len(one_grads) == len(stack_grads) > 0
        for a, b in zip(one_grads, stack_grads):
            assert a is not None and np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["PointNet++ (s)", "DGCNN (c)",
                                      "F-PointNet"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stack_rows_match_stacks_of_one(self, name, strategy):
        # Every output leaf of run_network leads with the stack axis:
        # a cloud's slice of a taller stack is its own stack of one.
        net = toy(name)
        clouds = clouds_for(net, 2, seed=7)
        ngraph = net.network_graph(strategy)
        with no_grad():
            stacked = GraphExecutor().run_network(ngraph, clouds)
            for b in range(2):
                one = GraphExecutor().run_network(ngraph, clouds[b:b + 1])
                pairs = ([(stacked[k], one[k]) for k in sorted(one)]
                         if isinstance(one, dict) else [(stacked, one)])
                for tall, single in pairs:
                    assert tall.shape == (2, *single.shape[1:])
                    assert single.shape[0] == 1
                    np.testing.assert_array_equal(tall.data[b],
                                                  single.data[0])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_matches_single_within_tolerance(self, strategy):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3, seed=3)
        with no_grad():
            batched = net.forward_batch(clouds, strategy=strategy)
            for b in range(3):
                single = net.forward(clouds[b], strategy=strategy)
                np.testing.assert_array_equal(batched.data[b],
                                              single.data[0])


    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_a_node_reads_no_ref_but_its_mlp(self, name, strategy):
        # A node runs from its input edges, its attrs and, for an MLP
        # layer, refs[attrs["ref"]]: with every other ref blanked and no
        # network object at hand, the interpreter and both programs
        # compute the bits they compute from the full graph.
        net = toy(name)
        ngraph = net.network_graph(strategy)
        blanked = replace(ngraph, refs=tuple(
            ref if isinstance(ref, SharedMLP) else None
            for ref in ngraph.refs))
        clouds = clouds_for(net, 2, seed=4)
        with no_grad():
            out = GraphExecutor().run_network(blanked, clouds)
        assert_bit_exact(interpret(net, clouds, strategy), out)
        for dtype in ("float64", "float32"):
            full = compile_kernel_program(net, strategy, dtype).run(clouds)
            assert_bit_exact(full,
                             KernelProgram(blanked, dtype).run(clouds))


class TestTraceConsistency:
    """Executed op shapes equal the lowered network-trace op shapes —
    the PR 2 property, spanning heads, decoders and skip glue: every
    value a network run computes has the shape its node's attrs, which
    the lowering reads, declare."""

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_executed_matches_lowered(self, name, strategy):
        net = toy(name)
        ngraph = net.network_graph(strategy)
        executor = GraphExecutor()
        with no_grad():
            executor.run_network(ngraph, clouds_for(net, 2, seed=4))
        assert_values_match_attrs(ngraph, executor.values, batch=2)


class TestTraceMatchesLegacyEmission:
    """The network-graph lowering reproduces the pre-refactor analytic
    emission (module streams + hand-written tails) exactly."""

    def head_ops(self, trace, dims, rows):
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(MatMulOp("F", "head", rows=rows, in_dim=a, out_dim=b))

    def fp_ops(self, trace, label, mlp, n_fine, n_coarse, coarse_width):
        # The interpolation reads what it runs over: the k nearest of
        # the n_coarse points it searches (three_interpolate), at the
        # coarse rows' width.
        dims = mlp.dims
        trace.add(InterpolateOp("O", label, n_points=n_fine,
                                k=min(3, n_coarse),
                                feature_dim=coarse_width))
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(MatMulOp("F", label, rows=n_fine,
                               in_dim=a, out_dim=b))

    def decoder_ops(self, trace, net, prefix=""):
        """fp3, fp2, fp1 over the three-module encoder: each level
        interpolates the coarser level's rows onto its module's input
        points, the last module's output first and then each decoder
        MLP's."""
        coarse_widths = (net.encoder[2].spec.out_dim, net.fp3.dims[-1],
                         net.fp2.dims[-1])
        for level, mlp, module, width in zip(
                (3, 2, 1), (net.fp3, net.fp2, net.fp1), net.encoder[::-1],
                coarse_widths):
            self.fp_ops(trace, f"{prefix}fp{level}", mlp, module.spec.n_in,
                        module.spec.n_out, width)

    def embed_tail(self, trace, net, label="embed"):
        n = net.n_points
        trace.add(MatMulOp("F", label, rows=n, in_dim=net.embed.dims[0],
                           out_dim=net.embed.dims[-1]))
        trace.add(ReduceMaxOp("F", label, n_centroids=1, k=n,
                              feature_dim=net.embed.dims[-1]))

    def reference(self, net, strategy):
        """The legacy per-network emission, ported verbatim; module
        records come from the hand-written per-module emission, not from
        the lowering under test."""
        trace = Trace(net.name, strategy)
        name = net.name
        for module in net.encoder:
            reference_module_emission(module.spec, strategy, trace)
        n = net.n_points
        if name in ("PointNet++ (c)", "DensePoint"):
            self.head_ops(trace, net.head.dims, rows=1)
        elif name == "PointNet++ (s)":
            self.decoder_ops(trace, net)
            self.head_ops(trace, net.head.dims, rows=n)
        elif name in ("DGCNN (c)", "LDGCNN"):
            label = "skip" if name == "DGCNN (c)" else "link"
            trace.add(ConcatOp("O", label, rows=n, dim=net.embed.dims[0]))
            self.embed_tail(trace, net)
            self.head_ops(trace, net.head.dims, rows=1)
        elif name == "DGCNN (s)":
            trace.add(ConcatOp("O", "skip", rows=n, dim=net.embed.dims[0]))
            self.embed_tail(trace, net)
            trace.add(ConcatOp("O", "fuse", rows=n, dim=net.head.dims[0]))
            self.head_ops(trace, net.head.dims, rows=n)
        elif name == "F-PointNet":
            # Execution order: decoders and the mask head run before the
            # box stage (the legacy emission listed the box modules
            # first; same op multiset, grouped per module either way).
            self.decoder_ops(trace, net, prefix="seg_")
            self.head_ops(trace, net.mask_head.dims, rows=n)
            for module in net.box_encoder:
                reference_module_emission(module.spec, strategy, trace)
            self.head_ops(trace, net.box_head.dims, rows=1)
        else:
            raise AssertionError(f"no reference emission for {name}")
        return trace

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_exact_match(self, name, strategy):
        net = build_network(name)  # paper scale — tracing is analytic
        assert list(net.trace(strategy)) == list(self.reference(net, strategy))


class DeadSkipNetwork(PointCloudNetwork):
    """Two-module classifier whose builder can emit a dead skip branch:
    a skip concat (plus a head consuming it) with no path to the
    outputs.  DCE must drop the branch without changing the outputs."""

    name = "dead-skip"
    task = "classification"

    def __init__(self, include_dead, rng=None):
        rng = rng or np.random.default_rng(0)
        specs = [
            ModuleSpec("d1", n_in=64, n_out=32, k=8, mlp_dims=(3, 16)),
            ModuleSpec("d2", n_in=32, n_out=8, k=8, mlp_dims=(16, 24)),
        ]
        super().__init__([PointCloudModule(s, rng=rng) for s in specs])
        self.include_dead = include_dead
        self.num_classes = 4
        self.head = SharedMLP([24, 4], final_activation=False, rng=rng)

    def _build_graph(self, nb):
        coords, feats = nb.input()
        levels = nb.encoder(self.encoder, coords, feats)
        if self.include_dead:
            dead_skip = nb.concat(
                [levels[1][1], levels[2][1]], rows=32, dim=40,
                label="dead-skip",
            )
            nb.head(self.head, dead_skip, rows=32)  # unused head input
        pooled = nb.global_max(levels[2][1], k=8, dim=24, label="pool")
        nb.output(nb.head(self.head, pooled, rows=1))


class TestDeadCodeElimination:
    def test_dead_skip_branch_dropped_outputs_unchanged(self):
        with_dead = DeadSkipNetwork(include_dead=True,
                                    rng=np.random.default_rng(5))
        clean = DeadSkipNetwork(include_dead=False,
                                rng=np.random.default_rng(5))
        dead_graph = with_dead.network_graph("delayed").graph
        clean_graph = clean.network_graph("delayed").graph
        # DCE removed the dead concat and the dead head entirely: the
        # lowered programs are node-for-node identical.
        assert not any(n.kind == "concat" for n in dead_graph)
        assert len(dead_graph) == len(clean_graph)
        assert [n.kind for n in dead_graph] == [n.kind for n in clean_graph]
        cloud = cloud_for(with_dead, seed=6)
        with no_grad():
            assert_bit_exact(with_dead.forward(cloud), clean.forward(cloud))
        # The dead branch never shows up in the trace either.
        assert not with_dead.trace("delayed").by_type(ConcatOp)


class TestBuilderValidation:
    def test_no_outputs_rejected(self):
        class NoOutputs(DeadSkipNetwork):
            def _build_graph(self, nb):
                coords, feats = nb.input()
                nb.encoder(self.encoder, coords, feats)

        with pytest.raises(ValueError, match="no outputs"):
            build_network_graph(NoOutputs(include_dead=False), "delayed")
