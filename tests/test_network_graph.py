"""Tests for whole-network graphs: builders, network-aware passes,
executors, cross-module schedules, trace lowering, and the
execution/trace/composition equivalence properties."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import ModuleSpec, PointCloudModule, emit_module_trace
from repro.engine import AsyncRunner, OverlapExecutor, ParallelRunner
from repro.engine.bench import bench_netgraph
from repro.graph import (
    GraphExecutor,
    OpRecorder,
    build_network_graph,
    compile_network_plan,
    module_graph,
    schedule_graph,
)
from repro.networks import ALL_NETWORKS, FCHead, PointCloudNetwork, build_network
from repro.neural import no_grad
from repro.profiling.trace import (
    ConcatOp,
    GatherOp,
    InterpolateOp,
    MatMulOp,
    NeighborSearchOp,
    ReduceMaxOp,
    SampleOp,
    SubtractOp,
    Trace,
)

STRATEGIES = ("original", "delayed", "limited")


def toy(name, seed=0):
    scale = 0.03125 if "(s)" in name else 0.0625
    return build_network(name, num_classes=4, scale=scale,
                         rng=np.random.default_rng(seed))


def cloud_for(net, seed=0):
    return np.random.default_rng(seed).normal(size=(net.n_points, 3))


def clouds_for(net, batch, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, net.n_points, 3))


def outputs_equal(left, right, atol=0):
    if isinstance(left, dict):
        assert set(left) == set(right)
        return all(outputs_equal(left[k], right[k], atol) for k in left)
    left = left.data if hasattr(left, "data") else left
    right = right.data if hasattr(right, "data") else right
    if atol:
        np.testing.assert_allclose(left, right, atol=atol)
        return True
    return bool(np.array_equal(np.asarray(left), np.asarray(right)))


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

    def test_network_graph_is_memoized_per_strategy(self):
        net = toy("PointNet++ (c)")
        assert net.network_graph("delayed") is net.network_graph("delayed")
        assert net.network_graph("delayed") is not net.network_graph("original")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            toy("PointNet++ (c)").network_graph("eager")

    def test_plan_carries_network_graph(self):
        net = toy("F-PointNet")
        plan = compile_network_plan(net, "delayed")
        assert plan.graph is net.network_graph("delayed")
        text = plan.describe()
        assert "network graph" in text and "module regions" in text

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
    """Whole-network graph execution is bit-exact against composing the
    same modules through the per-module forward path."""

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_cloud_bit_exact_vs_composed(self, name, strategy):
        net = toy(name)
        cloud = cloud_for(net, seed=1)
        with no_grad():
            graph_out = net.forward(cloud, strategy=strategy)
            composed = net.forward_composed(cloud, strategy=strategy)
        assert outputs_equal(graph_out, composed)

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_bit_exact_vs_composed(self, name, strategy):
        net = toy(name)
        clouds = clouds_for(net, 2, seed=2)
        with no_grad():
            graph_out = net.forward_batch(clouds, strategy=strategy)
            composed = net.forward_composed(clouds, strategy=strategy)
        assert outputs_equal(graph_out, composed)

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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_matches_single_within_tolerance(self, strategy):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3, seed=3)
        with no_grad():
            batched = net.forward_batch(clouds, strategy=strategy)
            for b in range(3):
                single = net.forward(clouds[b], strategy=strategy)
                np.testing.assert_allclose(batched.data[b], single.data[0],
                                           atol=1e-6)


class TestTraceConsistency:
    """Executed op shapes equal the lowered network-trace op shapes —
    the PR 2 property, now spanning heads, decoders and skip glue."""

    def expand(self, record):
        """One executed record -> its lowered trace-op equivalents."""
        kind = record["kind"]
        if kind == "sample":
            if record["n_samples"] == record["n_points"]:
                return []  # degenerate sampling is never traced
            return [("sample", record["n_points"], record["n_samples"])]
        if kind == "search":
            return [("search", record["n_queries"], record["n_points"],
                     record["k"], record["dim"])]
        if kind == "gather":
            return [("gather", record["n_centroids"], record["k"],
                     record["feature_dim"], record["table_rows"])]
        if kind == "subtract":
            return [("subtract", record["rows"], record["dim"])]
        if kind == "matmul":
            return [("matmul", record["rows"], record["in_dim"],
                     record["out_dim"])]
        if kind == "reduce_max":
            return [("reduce_max", record["n_centroids"], record["k"],
                     record["feature_dim"])]
        if kind == "concat":
            if not record["traced"]:
                return []
            return [("concat", record["rows"], record["dim"])]
        if kind in ("head", "propagate"):
            dims = record["dims"]
            rows = record["rows"]
            ops = [("matmul", rows, a, b)
                   for a, b in zip(dims[:-1], dims[1:])]
            if kind == "propagate":
                ops = [("interpolate", rows, dims[0])] + ops
            return ops
        if kind == "global_max":
            return [("reduce_max", 1, record["k"], record["dim"])]
        raise AssertionError(f"unexpected executed kind {kind!r}")

    def lower(self, op):
        """One trace op -> the same comparison tuple."""
        if isinstance(op, SampleOp):
            return ("sample", op.n_points, op.n_samples)
        if isinstance(op, NeighborSearchOp):
            return ("search", op.n_queries, op.n_points, op.k, op.dim)
        if isinstance(op, GatherOp):
            return ("gather", op.n_centroids, op.k, op.feature_dim,
                    op.table_rows)
        if isinstance(op, SubtractOp):
            return ("subtract", op.rows, op.dim)
        if isinstance(op, MatMulOp):
            return ("matmul", op.rows, op.in_dim, op.out_dim)
        if isinstance(op, ReduceMaxOp):
            return ("reduce_max", op.n_centroids, op.k, op.feature_dim)
        if isinstance(op, ConcatOp):
            return ("concat", op.rows, op.dim)
        if isinstance(op, InterpolateOp):
            return ("interpolate", op.n_points, op.feature_dim)
        raise AssertionError(f"unexpected trace op {type(op).__name__}")

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_executed_matches_lowered(self, name, strategy):
        net = toy(name)
        recorder = OpRecorder()
        with no_grad():
            net.forward(cloud_for(net, seed=4), strategy=strategy,
                        executor=GraphExecutor(recorder=recorder))
        executed = [item for record in recorder.records
                    for item in self.expand(record)]
        lowered = [self.lower(op) for op in net.trace(strategy)]
        assert executed == lowered, f"{name} [{strategy}]"


class TestTraceMatchesLegacyEmission:
    """The network-graph lowering reproduces the pre-refactor analytic
    emission (module streams + hand-written tails) exactly."""

    def head_ops(self, trace, dims, rows):
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(MatMulOp("F", "head", rows=rows, in_dim=a, out_dim=b))

    def fp_ops(self, trace, fp):
        dims = fp.mlp.dims
        trace.add(InterpolateOp("O", fp.name, n_points=fp.n_points, k=fp.K,
                                feature_dim=dims[0]))
        for a, b in zip(dims[:-1], dims[1:]):
            trace.add(MatMulOp("F", fp.name, rows=fp.n_points,
                               in_dim=a, out_dim=b))

    def embed_tail(self, trace, net, label="embed"):
        n = net.n_points
        trace.add(MatMulOp("F", label, rows=n, in_dim=net.embed.dims[0],
                           out_dim=net.embed.dims[-1]))
        trace.add(ReduceMaxOp("F", label, n_centroids=1, k=n,
                              feature_dim=net.embed.dims[-1]))

    def reference(self, net, strategy):
        """The legacy per-network emission, ported verbatim."""
        trace = Trace(net.name, strategy)
        name = net.name
        for module in net.encoder:
            emit_module_trace(module.spec, strategy, trace)
        n = net.n_points
        if name in ("PointNet++ (c)", "DensePoint"):
            self.head_ops(trace, net.head.dims, rows=1)
        elif name == "PointNet++ (s)":
            for fp in (net.fp3, net.fp2, net.fp1):
                self.fp_ops(trace, fp)
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
            for fp in (net.fp3, net.fp2, net.fp1):
                self.fp_ops(trace, fp)
            self.head_ops(trace, net.mask_head.dims, rows=n)
            for module in net.box_encoder:
                emit_module_trace(module.spec, strategy, trace)
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
        super().__init__([PointCloudModule(s, rng=rng) for s in specs],
                         rng=rng)
        self.include_dead = include_dead
        self.num_classes = 4
        self.head = FCHead([24, 4], rng=rng)

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
            assert outputs_equal(with_dead.forward(cloud),
                                 clean.forward(cloud))
        # The dead branch never shows up in the trace either.
        assert not with_dead.trace("delayed").by_type(ConcatOp)


class TestCrossModuleSchedule:
    def test_delayed_pointnet_has_cross_module_overlap(self):
        net = toy("PointNet++ (c)")
        schedule = net.network_graph("delayed").schedule()
        cross = schedule.cross_module_overlap_steps()
        assert len(cross) >= 1
        # A cross-module step really does pair module i+1's N lane with
        # module i's F-lane compute.
        step = cross[0]
        n_mods = {e.node.attrs.get("module") for e in step if e.lane == "N"}
        f_mods = {e.node.attrs.get("module") for e in step if e.lane == "F"
                  and "module" in e.node.attrs}
        assert n_mods - f_mods

    def test_original_order_has_no_intra_module_overlap(self):
        # Original order cannot overlap a module's own N and F phases
        # (the paper's point) — but the network graph still exposes
        # *cross-module* concurrency even here, because sampling flows
        # through the coords chain and never waits on features.
        net = toy("PointNet++ (c)")
        schedule = net.network_graph("original").schedule()
        for step in schedule.overlap_steps():
            intra = {
                e.node.attrs.get("module")
                for e in step if e.lane == "N"
            } & {
                e.node.attrs.get("module")
                for e in step
                if e.lane == "F" and "module" in e.node.attrs
            }
            assert not intra, "original order must not overlap within a module"

    def test_network_overlap_at_least_per_module_sum(self):
        for strategy in ("delayed", "limited"):
            net = toy("PointNet++ (c)")
            network = net.network_graph(strategy).schedule()
            per_module = sum(
                len(schedule_graph(module_graph(m.spec, strategy))
                    .overlap_steps())
                for m in net.encoder
            )
            assert len(network.overlap_steps()) >= per_module

    def test_describe_mentions_cross_module(self):
        net = toy("PointNet++ (c)")
        text = net.network_graph("delayed").schedule().describe()
        assert "cross-module" in text

    def test_cli_schedule_prints_cross_module(self, capsys):
        from repro.cli import main

        assert main(["trace", "PointNet++ (c)", "--strategy", "delayed",
                     "--schedule"]) == 0
        out = capsys.readouterr().out
        assert "cross-module overlap steps" in out


class ThreadSafeLog:
    def __init__(self):
        self.lock = threading.Lock()
        self.events = []

    def __call__(self, event, node):
        with self.lock:
            self.events.append((event, node.id))


class TestOverlapExecutorOnNetworkGraphs:
    @pytest.mark.parametrize("name", ["PointNet++ (c)", "DGCNN (c)",
                                      "F-PointNet"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bit_exact_vs_serial_network_executor(self, name, strategy):
        net = toy(name)
        cloud = cloud_for(net, seed=7)
        with no_grad(), ThreadPoolExecutor(max_workers=2) as pool:
            serial = net.forward(cloud, strategy=strategy)
            overlapped = net.forward(cloud, strategy=strategy,
                                     executor=OverlapExecutor(pool))
        assert outputs_equal(serial, overlapped)

    def test_dependency_order_property(self):
        net = toy("PointNet++ (c)")
        cloud = cloud_for(net, seed=8)
        graph = net.network_graph("delayed").graph
        pool = ThreadPoolExecutor(max_workers=3)
        try:
            for _ in range(3):
                log = ThreadSafeLog()
                with no_grad():
                    net.forward(cloud, strategy="delayed",
                                executor=OverlapExecutor(
                                    pool, observer=log))
                assert len(log.events) == 2 * len(graph)
                starts, finishes = {}, {}
                for index, (event, nid) in enumerate(log.events):
                    if event == "start":
                        starts.setdefault(nid, index)
                    else:
                        finishes[nid] = index
                for node in graph:
                    for parent in node.inputs:
                        assert finishes[parent] < starts[node.id], (
                            f"node {node.id} ({node.kind}) started before "
                            f"producer {parent} finished"
                        )
        finally:
            pool.shutdown()

    def test_async_runner_uses_network_graph(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3, seed=9)
        with AsyncRunner(net, max_workers=2, in_flight=2) as runner:
            result = runner.run(clouds)
            expected = runner.run_sequential(clouds)
        np.testing.assert_array_equal(result.outputs, expected.outputs)


class TestPersistentParallelRunner:
    def test_initializer_applied_on_serial_path(self):
        calls = []
        runner = ParallelRunner(backend="serial",
                                initializer=calls.append, initargs=(1,))
        assert runner.map(lambda x: x + 1, [1, 2]) == [2, 3]
        assert calls == [1]
        assert runner.map(lambda x: x * 2, [3]) == [6]
        # Re-applied per map: worker state is typically module-global,
        # so a memoized init would go stale if another runner ran.
        assert calls == [1, 1]

    def test_interleaved_serial_runners_keep_their_own_state(self):
        # Two runners installing different "networks" into shared
        # worker state must not serve each other's tasks after
        # interleaving — the serial path re-initializes per map.
        state = {}

        def install(value):
            state["net"] = value

        a = ParallelRunner(backend="serial", initializer=install,
                           initargs=("A",))
        b = ParallelRunner(backend="serial", initializer=install,
                           initargs=("B",))
        read = lambda _: state["net"]  # noqa: E731
        assert a.map(read, [0]) == ["A"]
        assert b.map(read, [0]) == ["B"]
        assert a.map(read, [0]) == ["A"]  # A's state restored, not B's

    def test_persistent_thread_pool_survives_maps(self):
        with ParallelRunner(max_workers=2, backend="thread",
                            persistent=True) as runner:
            assert runner.map(len, [[1], [1, 2]]) == [1, 2]
            pool = runner._pool
            assert pool is not None
            assert runner.map(len, [[1, 2, 3], []]) == [3, 0]
            assert runner._pool is pool
        assert runner._pool is None  # context exit released it

    def test_async_runner_process_backend_reuses_runner(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 2, seed=10)
        with AsyncRunner(net, backend="process", max_workers=2) as runner:
            first = runner.run(clouds)
            process_runner = runner._process_runner
            assert process_runner is not None
            assert process_runner.persistent
            second = runner.run(clouds)
            assert runner._process_runner is process_runner
        assert runner._process_runner is None
        expected = AsyncRunner(net, backend="serial").run(clouds)
        np.testing.assert_array_equal(first.outputs, expected.outputs)
        np.testing.assert_array_equal(second.outputs, expected.outputs)


class TestNetgraphBenchRow:
    def test_row_passes_its_own_gates(self):
        row = bench_netgraph(batch=2, scale=0.0625, repeats=1)
        assert row["bit_exact"] is True
        assert row["cross_module_overlap_steps"] >= 1
        assert row["network_overlap_steps"] >= row["module_overlap_steps"]
        assert row["composed_ms"] > 0 and row["netgraph_ms"] > 0


class TestBuilderValidation:
    def test_no_outputs_rejected(self):
        class NoOutputs(DeadSkipNetwork):
            def _build_graph(self, nb):
                coords, feats = nb.input()
                nb.encoder(self.encoder, coords, feats)

        with pytest.raises(ValueError, match="no outputs"):
            build_network_graph(NoOutputs(include_dead=False), "delayed")
