"""Tests for the memory planner and parameter tables (:mod:`repro.backend`).

Covers buffer liveness over the whole-network graph (every value dies
at its last reader: dropping it from a run right after changes no bit),
arena planning (best-fit offsets, validation), the per-cloud plan
compiled from the graph (every scratch request of every stack height is
a planned buffer and every planned buffer is requested, one grow-only
arena per thread), planner-on bit-exactness across all seven networks
and three strategies for serial, batched and threaded execution, an
adversarial test that corrupts dead arena regions mid-run on every
network and strategy, parameter-table export and the zero-copy
shared-file transport of float64 and float32 tables, and the engine/CLI
integration (attached tables, ``repro trace --memory``).
"""

import os
import pickle
import stat
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_bit_exact, clouds_for, interpret, leaves, toy
from repro.backend import (
    GraphLiveness,
    ParameterTable,
    attach_table,
    compile_kernel_program,
    parameter_descriptor,
    plan_arena,
    share_table,
    validate_plan,
)
from repro.backend.aot import _share_dir
from repro.core import STRATEGIES, ModuleSpec
from repro.engine import BatchRunner
from repro.networks import ALL_NETWORKS, build_network
from repro.networks.generic import GenericPointCloudNetwork
from repro.neural import no_grad


class RecordingPool:
    """A scratch allocator that records each request's ``(key, shape)``
    and serves it from ``pool`` — or, without one, from a fresh
    allocation, never reusing a byte."""

    def __init__(self, dtype, pool=None):
        self.dtype = dtype
        self.pool = pool
        self.requests = set()

    def request(self, key, shape):
        self.requests.add((key, tuple(shape)))
        if self.pool is None:
            return np.empty(shape, self.dtype)
        return self.pool.request(key, shape)


def unplanned_run(net, strategy, backend, x):
    """The reference a planned run must match bit for bit: the program
    run with every scratch request a fresh allocation instead of an
    arena view."""
    program = compile_kernel_program(net, strategy, backend=backend)
    program._arena = lambda height: RecordingPool(program.dtype)
    return program.run(x)


def assert_same_entries(source, table):
    """``table`` holds ``source``'s entries: the same keys and ``relu``
    flags, and every weight and bias ``array_equal`` in the same dtype."""
    assert table.entries.keys() == source.entries.keys()
    for key, (*arrays, relu) in source.entries.items():
        *others, other_relu = table.entries[key]
        assert other_relu is relu
        for a, b in zip(arrays, others, strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert b.dtype == a.dtype
                assert np.array_equal(a, b)


class TestGraphLiveness:
    def test_intervals_cover_consumers_and_outputs_live_to_end(self):
        # One kernel per node: kernel positions are graph positions.
        net = toy("PointNet++ (c)")
        graph = net.network_graph("delayed").graph
        live = GraphLiveness(graph, [(node.id,) for node in graph.nodes])
        n = len(graph.nodes)
        assert set(live.last_use) == {node.id for node in graph.nodes}
        positions = {node.id: i for i, node in enumerate(graph.nodes)}
        outputs = set(graph.outputs)
        for node in graph.nodes:
            readers = [positions[c.id] for c in graph.consumers(node.id)]
            assert 0 <= positions[node.id] < n
            assert live.last_use[node.id] >= positions[node.id]
            if node.id in outputs:
                assert live.last_use[node.id] == n
            else:
                assert live.last_use[node.id] == max(
                    readers, default=positions[node.id])


class TestEveryValueDiesAtItsLastReader:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_dropping_dead_values_after_each_kernel(self, name, strategy):
        # A kernel reads only its nodes' input edges, so a value no
        # later kernel consumes can leave the run's value table at once
        # without changing a bit — and the run carries no per-module
        # side channel in ``ctx`` beside it.
        net = toy(name)
        clouds = clouds_for(net, 2)
        program = compile_kernel_program(net, strategy, backend="float64")
        last_use = program._liveness.last_use  # outputs: past every kernel

        def drop_dead(pos, label, env, ctx):
            assert set(ctx) == {"coords", "batch", "alloc", "cache"}
            for nid in [nid for nid in env if last_use[nid] <= pos]:
                del env[nid]

        assert_bit_exact(interpret(net, clouds, strategy),
                         program.run(clouds, on_kernel=drop_dead))


class TestArenaPlanning:
    def test_plan_validates_and_packs_below_pool(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        plan = program.plan_for()
        validate_plan(plan)  # alignment, bounds, no live overlap
        assert plan.total_bytes < plan.pool_bytes
        assert plan.peak_live_bytes <= plan.total_bytes
        for b in plan.buffers:
            assert b.offset % 64 == 0
            assert b.offset + b.nbytes <= plan.total_bytes

    def test_live_buffers_never_alias(self):
        net = toy("DGCNN (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        plan = program.plan_for()
        for i, a in enumerate(plan.buffers):
            for b in plan.buffers[i + 1:]:
                overlap_bytes = not (a.end <= b.offset or b.end <= a.offset)
                overlap_live = (a.def_pos <= b.last_pos
                                and b.def_pos <= a.last_pos)
                if overlap_live:
                    assert not overlap_bytes, (a, b)

    def test_reduction_at_least_30pct_everywhere(self):
        for name in ALL_NETWORKS:
            net = toy(name)
            for strategy in STRATEGIES:
                program = compile_kernel_program(net, strategy,
                                                 backend="float64")
                plan = program.plan_for()
                assert plan.reduction >= 0.30, (name, strategy,
                                                plan.reduction)

    def test_empty_records_make_an_empty_arena(self):
        net = toy("PointNet++ (s)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        plan = plan_arena([], program._liveness)
        assert plan.total_bytes == 0 and not plan.buffers


class TestPlannerBitExact:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_serial_all_strategies(self, name):
        net = toy(name)
        cloud = clouds_for(net, 1)
        for strategy in STRATEGIES:
            planned = compile_kernel_program(net, strategy,
                                             backend="float64")
            reference = unplanned_run(net, strategy, "float64", cloud)
            # A first and a second run out of the arena both match
            # fresh allocations bit for bit.
            assert_bit_exact(reference, planned.run(cloud))
            assert_bit_exact(reference, planned.run(cloud))

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_batched_delayed(self, name):
        net = toy(name)
        clouds = clouds_for(net, 3)
        planned = compile_kernel_program(net, "delayed", backend="float64")
        reference = unplanned_run(net, "delayed", "float64", clouds)
        assert_bit_exact(reference, planned.run(clouds))
        assert_bit_exact(reference, planned.run(clouds))

    def test_threads_share_one_planned_program(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4)
        program = compile_kernel_program(net, "delayed", "float64")
        with no_grad():
            reference = [program.run(c[None]).data for c in clouds]
        # Scratch arenas are per thread: two threads running stacks of
        # one through the same program must not see each other's buffers.
        runner = BatchRunner(net, strategy="delayed", program=program)
        with ThreadPoolExecutor(max_workers=2) as pool:
            out = list(pool.map(
                lambda cloud: runner.run(cloud[None]).per_cloud()[0], clouds))
        for a, b in zip(reference, out):
            assert np.array_equal(np.squeeze(a), np.squeeze(b))

    def test_float32_stays_close_with_planner(self):
        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1)
        planned = compile_kernel_program(net, "delayed", backend="float32")
        reference = unplanned_run(net, "delayed", "float32", cloud)
        assert_bit_exact(reference, planned.run(cloud))
        assert_bit_exact(reference, planned.run(cloud))

    def test_height_change_scales_the_one_compiled_plan(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        assert program.memory_stats()["heights"] == ()  # nothing planned yet
        a = program.plan_for(2)
        b = program.plan_for(4)
        assert a is not b and program.plan_for(4) is b  # memoised
        assert [(x.key, x.shape[0] * 2, x.shape[1:]) for x in a.buffers] \
            == [(x.key, x.shape[0], x.shape[1:]) for x in b.buffers]
        stats = program.memory_stats()
        assert stats["heights"] == (2, 4)
        assert stats["buffers"] == len(program.per_cloud_plan.buffers)
        assert stats["arena_bytes"] == b.total_bytes  # the tallest so far


def chunk_edge_toy(n_out=65):
    """One module whose last aggregate chunk is partial: 65 centroids go
    9 to a pass per cloud, which leaves 2."""
    spec = ModuleSpec("m", n_in=96, n_out=n_out, k=6, mlp_dims=(3, 16, 24))
    return GenericPointCloudNetwork([spec], head_dims=(24, 4),
                                    name=f"{n_out}-centroid toy",
                                    rng=np.random.default_rng(0))


class TestPerCloudPlan:
    HEIGHTS = tuple(range(1, 9))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_compiled_plan_is_every_request_at_every_height(self, name,
                                                            strategy):
        # The plan is compiled from the graph, not observed: at every
        # height the run's scratch requests are exactly the plan's
        # buffers — a declaration its kernel never requests fails here
        # as surely as a request nothing declared.
        net = toy(name)
        stack = clouds_for(net, 8)
        program = compile_kernel_program(net, strategy, backend="float32")
        arena, seen = program._arena, {}

        def recording(height):
            seen[height] = RecordingPool(program.dtype, arena(height))
            return seen[height]

        program._arena = recording
        for h in self.HEIGHTS:
            program.run(stack[:h])
            planned = {(b.key, b.shape) for b in program.plan_for(h).buffers}
            assert seen[h].requests == planned, (h, seen[h].requests ^ planned)
        stats = program.memory_stats()
        assert stats["unplanned"] == 0
        assert stats["heights"] == self.HEIGHTS

    def test_unplanned_requests_are_served_and_counted(self):
        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1)
        program = compile_kernel_program(net, "delayed", backend="float64")
        reference = unplanned_run(net, "delayed", "float64", cloud)
        # A planner regression, simulated: the plan loses one buffer.
        plan = program.per_cloud_plan
        program.per_cloud_plan = replace(plan, buffers=plan.buffers[1:])
        assert_bit_exact(reference, program.run(cloud))
        assert program.memory_stats()["unplanned"] == 1

    def test_two_threads_at_two_heights_share_one_program(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 5)
        program = compile_kernel_program(net, "delayed", backend="float64")
        stacks = {2: clouds[:2], 5: clouds}
        references = {h: unplanned_run(net, "delayed", "float64", x)
                      for h, x in stacks.items()}
        start = threading.Barrier(2)
        failures = []

        def serve(height):
            try:
                start.wait(timeout=30)
                # Two heights interleave over one shared plan map.
                for _ in range(20):
                    assert_bit_exact(references[height],
                                     program.run(stacks[height]))
            except BaseException as exc:  # reported on the main thread
                failures.append((height, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(h,))
                       for h in stacks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = program.memory_stats()
        assert stats["heights"] == (2, 5) and stats["unplanned"] == 0


def poison_dead_ranges_on_a_height_walk(net, strategy, heights):
    """Run ``net``'s float64 program over a walk of stack ``heights``,
    scribbling 0xAA over every byte the plan says is dead after each
    kernel, and hold each run to fresh allocations bit for bit."""
    clouds = clouds_for(net, max(heights))
    program = compile_kernel_program(net, strategy, backend="float64")
    arenas = []
    for height in heights:
        stack = clouds[:height]
        plan = program.plan_for(height)
        poisoned = {"ranges": 0}

        def poison(pos, label, env, ctx):
            arena = ctx["alloc"].arena
            arenas.append(arena)
            for start, end in plan.dead_ranges_at(pos):
                arena[start:end] = 0xAA
                poisoned["ranges"] += 1
            arena[plan.total_bytes:] = 0xAA  # a taller height's tail

        assert_bit_exact(unplanned_run(net, strategy, "float64", stack),
                         program.run(stack, on_kernel=poison))
        assert poisoned["ranges"] > 0
    # One allocation per new tallest height, and never one otherwise.
    growths = sum(h > max(heights[:i], default=0)
                  for i, h in enumerate(heights))
    assert len({id(arena) for arena in arenas}) == growths
    assert program.memory_stats()["unplanned"] == 0


class TestAdversarialAliasing:
    # Every kernel fully overwrites its output buffer, so scribbling over
    # every byte the plan says is dead — after each kernel — must not
    # change a single output bit.  If liveness were wrong anywhere (a
    # declaration missing a value its buffer holds, say), a consumer
    # would read 0xAA garbage and these fail.  One program, one thread,
    # a walk over stack heights: the arena only grows, so a short stack
    # runs in the front of a tall stack's arena, a height seen before
    # reuses its cached views, and a new tallest height drops every
    # cached view with the arena it pointed into.

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_poisoning_dead_regions_on_every_program(self, name, strategy):
        poison_dead_ranges_on_a_height_walk(toy(name), strategy, (3, 1, 5))

    @pytest.mark.parametrize("heights", [(8, 3, 1, 8, 5), (1, 3, 8, 3)])
    @pytest.mark.parametrize("name", ["DGCNN (c)", "PointNet++ (s)",
                                      "65-centroid toy"])
    def test_poisoning_dead_regions_mid_run_is_bit_invisible(self, name,
                                                             heights):
        net = chunk_edge_toy() if name.endswith("toy") else toy(name)
        if name.endswith("toy"):
            # An aggregate's last centroid chunk is partial.
            program = compile_kernel_program(net, "delayed", "float64")
            shapes = {b.key: b.shape for b in program.plan_for(8).buffers}
            assert any(shapes["agg-o", key[1]][0] % shape[0]
                       for key, shape in shapes.items()
                       if key[0] == "agg-gc")
        poison_dead_ranges_on_a_height_walk(net, "delayed", heights)

    def test_poisoning_a_live_region_is_detected(self):
        # The counterpart proving the poison harness has teeth: clobber
        # a *live* buffer once and the outputs must change.
        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1)
        program = compile_kernel_program(net, "delayed", backend="float64")
        reference = program.run(cloud)
        plan = program.plan_for()
        victim = max(plan.buffers, key=lambda b: b.last_pos - b.def_pos)
        if victim.last_pos >= len(program.kernel_labels):
            victim = max((b for b in plan.buffers
                          if b.last_pos < len(program.kernel_labels)),
                         key=lambda b: b.last_pos - b.def_pos)

        def clobber(pos, label, env, ctx):
            if pos == victim.def_pos:
                ctx["alloc"].arena[victim.offset:victim.end] = 0xAA

        corrupted = program.run(cloud, on_kernel=clobber)
        assert any(
            not np.array_equal(a, b)
            for a, b in leaves(reference, corrupted)
        )


class TestParameterTable:
    def test_one_program_holds_one_table(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        program = compile_kernel_program(net, "delayed", "float64")
        # Another export is its own table with the same content.
        fresh = ParameterTable.for_graph(ngraph, "float64")
        assert fresh is not program.table
        assert_same_entries(program.table, fresh)

    def test_different_dtypes_do_not_share(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        t64 = ParameterTable.for_graph(ngraph, "float64")
        t32 = ParameterTable.for_graph(ngraph, "float32")
        assert t64 is not t32
        assert t64.entries.keys() == t32.entries.keys()
        assert all(part.dtype == np.float32 for part in t32._arrays())
        assert all(part.dtype == np.float64 for part in t64._arrays())

    def test_pack_roundtrip_preserves_bits(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        table = ParameterTable.for_graph(ngraph, "float64")
        manifest, blob = table.pack()
        assert manifest["total_bytes"] == len(blob)
        restored = ParameterTable.from_buffer(manifest, blob)
        assert_same_entries(table, restored)
        program = compile_kernel_program(net, "delayed", backend="float64",
                                         params=restored)
        reference = compile_kernel_program(net, "delayed", backend="float64")
        cloud = clouds_for(net, 1)
        assert_bit_exact(reference.run(cloud), program.run(cloud))

    def test_float32_pack_roundtrip_preserves_ops_and_bits(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        table = ParameterTable.for_graph(ngraph, "float32")
        manifest, blob = table.pack()
        restored = ParameterTable.from_buffer(manifest, blob)
        assert_same_entries(table, restored)
        assert all(part.dtype == np.float32 for part in restored._arrays())
        program = compile_kernel_program(net, "delayed", backend="float32",
                                         params=restored)
        reference = compile_kernel_program(net, "delayed", backend="float32")
        clouds = clouds_for(net, 2, seed=9)
        assert_bit_exact(reference.run(clouds), program.run(clouds))

    @pytest.mark.parametrize("fmt", [1, None], ids=["format-1", "no-format"])
    def test_a_manifest_of_another_format_is_refused(self, fmt):
        # Format 1 packed op tuples, not layer records: attaching a table
        # it wrote raises a ValueError naming the format, not a KeyError.
        ngraph = toy("PointNet++ (c)").network_graph("delayed")
        manifest, blob = ParameterTable.for_graph(ngraph, "float32").pack()
        with pytest.raises(ValueError, match=f"format {fmt} is not 2"):
            ParameterTable.from_buffer({**manifest, "format": fmt}, blob)

    def test_packed_float32_blob_is_half_of_float64(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        blob64 = ParameterTable.for_graph(ngraph, "float64").pack()[1]
        blob32 = ParameterTable.for_graph(ngraph, "float32").pack()[1]
        # Half the bytes, plus at most a cache line of alignment each.
        assert len(blob32) < 0.55 * len(blob64)

    def test_dtype_mismatch_rejected(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        t32 = ParameterTable.for_graph(ngraph, "float32")
        with pytest.raises(ValueError, match="dtype"):
            compile_kernel_program(net, "delayed", backend="float64",
                                   params=t32)


class TestSharedMemoryTransport:
    def test_shared_table_roundtrips_bit_exact(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        table = ParameterTable.for_graph(ngraph, "float64")
        shared = share_table(table)
        try:
            attached = attach_table(shared.descriptor())
            assert_same_entries(table, attached)
            program = compile_kernel_program(
                net, "delayed", backend="float64", params=attached
            )
            cloud = clouds_for(net, 1)
            reference = compile_kernel_program(net, "delayed",
                                               backend="float64")
            assert_bit_exact(reference.run(cloud), program.run(cloud))
        finally:
            shared.close(unlink=True)

    def test_shared_file_roundtrip_owner_unlinks(self):
        net = toy("PointNet++ (c)", seed=97)
        table = ParameterTable.for_graph(net.network_graph("delayed"),
                                         "float32")
        shared = share_table(table)
        path = shared.path
        try:
            assert os.path.basename(path).startswith(
                f"repro-params-{os.getpid()}-")
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
            descriptor = shared.descriptor()
            assert descriptor["kind"] == "file"
            attached = attach_table(pickle.loads(pickle.dumps(descriptor)))
            assert attached is not table
            assert_same_entries(table, attached)
            assert not any(part.flags.writeable  # mapped read-only
                           for part in attached._arrays())
        finally:
            shared.close(unlink=True)
        assert not os.path.exists(path)
        shared.close(unlink=True)  # a second close is a no-op
        assert_same_entries(table, attached)  # the mapping outlives the unlink

    def test_descriptor_pickles_without_the_weights(self):
        net = toy("PointNet++ (c)")
        descriptor, handle = parameter_descriptor(net, "delayed", "float64")
        try:
            assert descriptor["kind"] == "file"
            assert len(pickle.dumps(descriptor)) < 64 * 1024
            assert len(pickle.dumps(net)) > 1024 * 1024
            attached = attach_table(pickle.loads(pickle.dumps(descriptor)))
            assert_same_entries(
                ParameterTable.for_graph(net.network_graph("delayed"),
                                         "float64"),
                attached)
        finally:
            handle.close(unlink=True)

    def test_descriptor_attaches_in_a_fresh_process(self):
        import repro

        net = toy("PointNet++ (c)")
        descriptor, handle = parameter_descriptor(net, "delayed", "float64")
        # The child sends back what it mapped, copied out of the file.
        code = (
            "import pickle, sys\n"
            "import numpy as np\n"
            "from repro.backend import attach_table\n"
            "table = attach_table(pickle.loads(bytes.fromhex(sys.stdin.read())))\n"
            "entries = {key: tuple(\n"
            "    part if part is None or isinstance(part, bool)\n"
            "    else np.array(part) for part in record)\n"
            "    for key, record in table.entries.items()}\n"
            "print(pickle.dumps(entries).hex())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        try:
            done = subprocess.run(
                [sys.executable, "-c", code],
                input=pickle.dumps(descriptor).hex(), capture_output=True,
                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
            )
        finally:
            handle.close(unlink=True)
        assert done.returncode == 0, done.stderr[-2000:]
        mapped = ParameterTable(np.float64,
                                pickle.loads(bytes.fromhex(done.stdout)))
        assert_same_entries(
            ParameterTable.for_graph(net.network_graph("delayed"),
                                     "float64"),
            mapped)

    def test_next_share_sweeps_files_of_dead_owners_only(self):
        net = toy("PointNet++ (s)")
        table = ParameterTable.for_graph(net.network_graph("delayed"),
                                         "float64")
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=60)
        directory = _share_dir()
        planted = {
            "dead": f"repro-params-{dead.pid}-planted",
            "alive": f"repro-params-{os.getpid()}-planted",
            "not a pid": "repro-params-nobody-planted",
        }
        try:
            for name in planted.values():
                with open(os.path.join(directory, name), "wb") as handle:
                    handle.write(b"x")
            share_table(table).close(unlink=True)
            left = {label for label, name in planted.items()
                    if os.path.exists(os.path.join(directory, name))}
            assert left == {"alive", "not a pid"}
        finally:
            for name in planted.values():
                try:
                    os.unlink(os.path.join(directory, name))
                except FileNotFoundError:
                    pass


class TestEngineIntegration:
    def test_attached_shared_file_table_bit_exact(self):
        net = toy("PointNet++ (s)")
        clouds = clouds_for(net, 3)
        reference = BatchRunner(net, backend="float64").run(clouds).outputs
        descriptor, handle = parameter_descriptor(net, "delayed", "float64")
        try:
            runner = BatchRunner(net, backend="float64",
                                 params=attach_table(descriptor))
            assert_bit_exact(reference, runner.run(clouds).outputs)
        finally:
            handle.close(unlink=True)

    def test_attached_float32_shared_file_table_bit_exact(self):
        # The served precision over the shared file: the consumer maps
        # the packed float32 table as is, with no warning on the way.
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4, seed=5)
        reference = BatchRunner(net, backend="float32").run(clouds).outputs
        descriptor, handle = parameter_descriptor(net, "delayed", "float32")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runner = BatchRunner(net, backend="float32",
                                     params=attach_table(descriptor))
                assert_bit_exact(reference, runner.run(clouds).outputs)
        finally:
            handle.close(unlink=True)

class TestMemoryReporting:
    def test_memory_report_phases(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        report = program.memory_report()
        assert report["arena_bytes"] < report["pool_bytes"]
        for row in report["phases"].values():
            assert row["after"] <= row["before"]

    def test_default_delayed_program_peak_live_bytes(self):
        """The centroid-chunked aggregate never holds an ``(n_out, k, dim)``
        neighborhood tensor: PointNet++ (c) delayed peaked at 786432 live
        bytes when it did, and at 376832 under the opt-in gather fusion this
        kernel replaced."""
        net = build_network("PointNet++ (c)", scale=0.125)
        program = compile_kernel_program(net, "delayed", backend="float64")
        report = program.memory_report()
        assert report["peak_live_bytes"] <= 376832


class TestCLI:
    def test_trace_memory(self, capsys):
        from repro.cli import main

        assert main(["trace", "PointNet++ (s)", "--memory"]) == 0
        out = capsys.readouterr().out
        assert "arena" in out and "reduction" in out
