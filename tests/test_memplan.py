"""Tests for the memory planner + AOT program cache (:mod:`repro.backend`).

Covers buffer liveness over the whole-network graph, arena planning
(best-fit offsets, validation), the per-cloud plan (derived == measured
at every stack height, no unplanned request, one grow-only arena per
thread), planner-on
bit-exactness across all seven networks and three strategies for
serial, batched and threaded execution, an adversarial test that corrupts
dead arena regions mid-run, parameter-table dedup and zero-copy
transports of float64 and float32 tables (shared file + on-disk
program cache), weight fingerprints,
and the engine/CLI integration (``program_cache=``, ``repro compile``,
``repro trace --memory``, the bench ``mem`` row).
"""

import hashlib
import json
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

from conftest import assert_bit_exact, clouds_for, leaves, toy
from repro.backend import (
    NetworkKernelExecutor,
    ParameterTable,
    ProgramCache,
    attach_table,
    compile_kernel_program,
    get_backend,
    network_fingerprint,
    parameter_descriptor,
    plan_arena,
    share_table,
    validate_plan,
)
from repro.backend.aot import FORMAT, _share_dir
from repro.backend.runtime import _MeasuringPool
from repro.core import STRATEGIES, ModuleSpec
from repro.engine import BatchRunner
from repro.graph import value_liveness
from repro.networks import ALL_NETWORKS, build_network
from repro.networks.generic import GenericPointCloudNetwork
from repro.neural import no_grad


def unplanned_run(net, strategy, backend, x):
    """The reference a planned run must match bit for bit: a fresh
    program's first run, which measures out of one never-reused buffer
    per kernel output."""
    return compile_kernel_program(net, strategy, backend=backend).run(x)


class TestValueLiveness:
    def test_intervals_cover_consumers_and_outputs_live_to_end(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        live = value_liveness(ngraph.graph)
        n = len(ngraph.graph.nodes)
        assert set(live) == {node.id for node in ngraph.graph.nodes}
        positions = {node.id: i for i, node in enumerate(ngraph.graph.nodes)}
        for info in live.values():
            assert 0 <= info.def_index < n
            assert info.last_use_index >= info.def_index
            for consumer in info.consumers:
                assert positions[consumer] <= info.last_use_index
        for output in ngraph.outputs:
            assert live[output.node].last_use_index == n


class TestArenaPlanning:
    def test_plan_validates_and_packs_below_pool(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        plan = program.plan_for(clouds_for(net, 1))
        validate_plan(plan)  # alignment, bounds, no live overlap
        assert plan.total_bytes < plan.pool_bytes
        assert plan.peak_live_bytes <= plan.total_bytes
        for b in plan.buffers:
            assert b.offset % 64 == 0
            assert b.offset + b.nbytes <= plan.total_bytes

    def test_live_buffers_never_alias(self):
        net = toy("DGCNN (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        plan = program.plan_for(clouds_for(net, 1))
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
                plan = program.plan_for(clouds_for(net, 1))
                assert plan.reduction >= 0.30, (name, strategy,
                                                plan.reduction)

    def test_empty_records_make_an_empty_arena(self):
        net = toy("PointNet++ (s)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        program.plan_for(clouds_for(net, 1))  # builds the liveness index
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
            # First run measures, second executes out of the arena —
            # both must match the unplanned pool bit-for-bit.
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
        executor = NetworkKernelExecutor("float64")
        with no_grad():
            reference = [np.asarray(
                net.forward(c, strategy="delayed", executor=executor).data
            ) for c in clouds]
        # Scratch arenas are per thread: two threads running stacks of
        # one through the same program must not see each other's buffers.
        runner = BatchRunner(net, strategy="delayed", executor=executor)
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
        planned.run(cloud)  # measures; the run below uses the arena
        assert_bit_exact(reference, planned.run(cloud))

    def test_height_change_scales_the_one_measured_plan(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        a = program.plan_for(clouds_for(net, 2))
        b = program.plan_for(clouds_for(net, 4))
        assert a is not b
        assert [(x.key, x.shape[0] * 2, x.shape[1:]) for x in a.buffers] \
            == [(x.key, x.shape[0], x.shape[1:]) for x in b.buffers]
        stats = program.memory_stats()
        assert stats["heights"] == (2, 4) and stats["measuring_runs"] == 1
        assert stats["arena_bytes"] == b.total_bytes  # the tallest so far


def plan_facts(plan):
    """Everything two equal plans agree on."""
    return (plan.total_bytes, plan.pool_bytes, plan.n_positions,
            [(b.key, b.shape, b.dtype, b.nbytes, b.offset, b.def_pos,
              b.last_pos, b.nodes) for b in plan.buffers])


def chunk_edge_toy(n_out=65):
    """One module whose last aggregate chunk is partial: 65 centroids go
    9 to a pass per cloud, which leaves 2."""
    spec = ModuleSpec("m", n_in=96, n_out=n_out, k=6, mlp_dims=(3, 16, 24))
    return GenericPointCloudNetwork([spec], head_dims=(24, 4),
                                    name=f"{n_out}-centroid toy",
                                    rng=np.random.default_rng(0))


class TestPerCloudPlan:
    HEIGHTS = tuple(range(1, 9))

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_derived_plan_equals_measured_plan_at_every_height(self, name):
        # The differential gate of "measure once, multiply": whichever
        # height a program happened to measure at, the plan it derives
        # for height h is the plan a fresh program measures at h.
        net = build_network(name, scale=0.25)
        stack = np.random.default_rng(3).normal(
            size=(8, net.n_points, 3)).astype(np.float32)
        for strategy in STRATEGIES:
            def fresh():
                return compile_kernel_program(net, strategy,
                                              backend="float32")

            measured = {h: plan_facts(fresh().plan_for(stack[:h]))
                        for h in self.HEIGHTS}
            for first in (1, 5):
                program = fresh()
                program.run(stack[:first])
                derived = {h: plan_facts(program.plan_for(stack[:h]))
                           for h in self.HEIGHTS}
                assert derived == measured, (name, strategy, first)
            # ... and every request of every height is one it planned.
            for h in self.HEIGHTS:
                program.run(stack[:h])
            stats = program.memory_stats()
            assert stats["unplanned"] == 0, (name, strategy)
            assert stats["measuring_runs"] == 1
            assert stats["heights"] == self.HEIGHTS

    def test_a_buffer_that_does_not_divide_raises(self):
        pool = _MeasuringPool(get_backend("float64"), height=2)
        assert pool.request(("x", 0), (6, 4), 0).shape == (6, 4)
        [record] = pool.records  # kept per cloud
        assert record.shape == (3, 4) and record.nbytes == 3 * 4 * 8
        with pytest.raises(ValueError, match="multiple of the stack height"):
            pool.request(("y", 0), (7, 4), 1)

    def test_unplanned_requests_are_served_and_counted(self):
        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1)
        program = compile_kernel_program(net, "delayed", backend="float64")
        reference = program.run(cloud)
        # A planner regression, simulated: the plan loses one buffer.
        plan = program.per_cloud_plan
        program.per_cloud_plan = replace(plan, buffers=plan.buffers[1:])
        program._plans.clear()
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
                # Both first runs may measure; the rest interleave two
                # heights over one shared plan map.
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
        assert 1 <= stats["measuring_runs"] <= 2


class TestAdversarialAliasing:
    @pytest.mark.parametrize("heights", [(8, 3, 1, 8, 5), (1, 3, 8, 3)])
    @pytest.mark.parametrize("name", ["DGCNN (c)", "PointNet++ (s)",
                                      "65-centroid toy"])
    def test_poisoning_dead_regions_mid_run_is_bit_invisible(self, name,
                                                             heights):
        # Every kernel fully overwrites its output buffer, so scribbling
        # over every byte the plan says is dead — after each kernel —
        # must not change a single output bit.  If liveness were wrong
        # anywhere, a consumer would read 0xAA garbage and this fails.
        # One program, one thread, a walk over stack heights: the arena
        # only grows, so a short stack runs in the front of a tall
        # stack's arena, a height seen before reuses its cached views,
        # and a new tallest height drops every cached view with the
        # arena it pointed into.
        net = chunk_edge_toy() if name.endswith("toy") else toy(name)
        clouds = clouds_for(net, 8)
        program = compile_kernel_program(net, "delayed", backend="float64")
        if name.endswith("toy"):
            # An aggregate's last centroid chunk is partial.
            shapes = {b.key: b.shape for b in program.plan_for(clouds).buffers}
            assert any(shapes["agg-o", key[1]][0] % shape[0]
                       for key, shape in shapes.items()
                       if key[0] == "agg-gc")
        arenas = []
        for height in heights:
            stack = clouds[:height]
            plan = program.plan_for(stack)
            poisoned = {"ranges": 0}

            def poison(pos, label, env, ctx):
                arena = ctx["alloc"].arena
                arenas.append(arena)
                for start, end in plan.dead_ranges_at(pos):
                    arena[start:end] = 0xAA
                    poisoned["ranges"] += 1
                arena[plan.total_bytes:] = 0xAA  # a taller height's tail

            assert_bit_exact(unplanned_run(net, "delayed", "float64", stack),
                             program.run(stack, on_kernel=poison))
            assert poisoned["ranges"] > 0
        # One allocation per new tallest height, and never one otherwise.
        growths = sum(h > max(heights[:i], default=0)
                      for i, h in enumerate(heights))
        assert len({id(arena) for arena in arenas}) == growths
        assert program.memory_stats()["unplanned"] == 0

    def test_poisoning_a_live_region_is_detected(self):
        # The counterpart proving the poison harness has teeth: clobber
        # a *live* buffer once and the outputs must change.
        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1)
        program = compile_kernel_program(net, "delayed", backend="float64")
        reference = program.run(cloud)
        plan = program.plan_for(cloud)
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
    def test_one_executor_holds_one_table_per_graph(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        executor = NetworkKernelExecutor("float64")
        program = executor.program(ngraph, net)
        assert executor.program(ngraph, net) is program
        # Another export is its own table with the same content.
        fresh = ParameterTable.for_graph(ngraph, backend=get_backend("float64"))
        assert fresh is not program.table
        assert fresh.content_hash == program.table.content_hash

    def test_different_dtypes_do_not_share(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        t64 = ParameterTable.for_graph(ngraph, backend=get_backend("float64"))
        t32 = ParameterTable.for_graph(ngraph, backend=get_backend("float32"))
        assert t64 is not t32
        assert t64.content_hash != t32.content_hash

    def test_pack_roundtrip_preserves_hash_and_bits(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        table = ParameterTable.for_graph(ngraph,
                                         backend=get_backend("float64"))
        manifest, blob = table.pack()
        assert manifest["total_bytes"] == len(blob)
        restored = ParameterTable.from_buffer(manifest, blob)
        assert restored.content_hash == table.content_hash
        assert restored.verify_buffer()
        program = compile_kernel_program(net, "delayed", backend="float64",
                                         params=restored)
        reference = compile_kernel_program(net, "delayed", backend="float64")
        cloud = clouds_for(net, 1)
        assert_bit_exact(reference.run(cloud), program.run(cloud))

    def test_float32_pack_roundtrip_preserves_ops_and_bits(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        table = ParameterTable.for_graph(ngraph,
                                         backend=get_backend("float32"))
        manifest, blob = table.pack()
        restored = ParameterTable.from_buffer(manifest, blob)
        assert restored.content_hash == table.content_hash
        assert restored.verify_buffer()
        for key, ops in table.entries.items():
            for op, other in zip(ops, restored.entries[key], strict=True):
                assert op[0] == other[0]
                for a, b in zip(op[1:], other[1:], strict=True):
                    if isinstance(a, np.ndarray):
                        assert b.dtype == a.dtype == np.float32
                        assert np.array_equal(a, b)
                    else:
                        assert a == b
        program = compile_kernel_program(net, "delayed", backend="float32",
                                         params=restored)
        reference = compile_kernel_program(net, "delayed", backend="float32")
        clouds = clouds_for(net, 2, seed=9)
        assert_bit_exact(reference.run(clouds), program.run(clouds))

    def test_packed_float32_blob_is_half_of_float64(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        blob64 = ParameterTable.for_graph(
            ngraph, backend=get_backend("float64")).pack()[1]
        blob32 = ParameterTable.for_graph(
            ngraph, backend=get_backend("float32")).pack()[1]
        # Half the bytes, plus at most a cache line of alignment each.
        assert len(blob32) < 0.55 * len(blob64)

    def test_dtype_mismatch_rejected(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        t32 = ParameterTable.for_graph(ngraph, backend=get_backend("float32"))
        with pytest.raises(ValueError, match="dtype"):
            compile_kernel_program(net, "delayed", backend="float64",
                                   params=t32)


class TestParameterTableHashing:
    """A table is hashed when something stores or verifies it."""

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = []
        digest = ParameterTable._digest

        def counting_digest(table):
            calls.append(table)
            return digest(table)

        monkeypatch.setattr(ParameterTable, "_digest", counting_digest)
        return calls

    @staticmethod
    def export(net, backend="float32"):
        return ParameterTable.for_graph(net.network_graph("delayed"),
                                        backend=get_backend(backend))

    def test_a_lone_export_is_not_hashed(self, digests):
        table = self.export(toy("PointNet++ (c)"))
        assert digests == []
        table.content_hash
        table.content_hash
        assert digests == [table]  # memoised

    def test_equal_exports_are_not_hashed(self, digests):
        net = toy("PointNet++ (c)")
        first = self.export(net)
        second = self.export(net)
        assert second is not first and digests == []
        assert first.content_hash == second.content_hash
        assert digests == [first, second]

    def test_dtype_or_weights_keep_tables_apart(self, digests):
        net = toy("PointNet++ (c)")
        t32 = self.export(net)
        t64 = self.export(net, "float64")
        assert t64 is not t32 and digests == []
        other = self.export(toy("PointNet++ (c)", seed=1))
        assert other is not t32
        assert other.content_hash != t32.content_hash

    def test_a_manifest_hash_is_trusted(self, digests):
        table = self.export(toy("PointNet++ (c)"), "float64")
        manifest, blob = table.pack()
        assert digests == [table]
        restored = ParameterTable.from_buffer(manifest, blob)
        assert restored.content_hash == table.content_hash
        assert digests == [table]

    def test_a_flipped_byte_fails_verification(self):
        table = self.export(toy("PointNet++ (c)"), "float64")
        manifest, blob = table.pack()
        corrupted = bytearray(blob)
        corrupted[manifest["arrays"][0]["offset"]] ^= 0x01
        restored = ParameterTable.from_buffer(manifest, corrupted)
        assert restored.content_hash == table.content_hash  # as recorded
        assert not restored.verify_buffer()
        assert ParameterTable.from_buffer(manifest,
                                          bytearray(blob)).verify_buffer()


class TestFingerprint:
    def test_fingerprint_tracks_weights(self):
        a = toy("PointNet++ (s)", seed=0)
        b = toy("PointNet++ (s)", seed=1)
        assert network_fingerprint(a) != network_fingerprint(b)
        assert network_fingerprint(a) == network_fingerprint(
            toy("PointNet++ (s)", seed=0)
        )


class TestSharedMemoryTransport:
    def test_shared_table_roundtrips_bit_exact(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        table = ParameterTable.for_graph(ngraph,
                                         backend=get_backend("float64"))
        shared = share_table(table)
        try:
            attached = attach_table(shared.descriptor())
            assert attached.content_hash == table.content_hash
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
                                         backend=get_backend("float32"))
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
            assert attached.entries.keys() == table.entries.keys()
            for key, ops in table.entries.items():
                for op, mapped in zip(ops, attached.entries[key]):
                    assert op[0] == mapped[0]
                    for a, b in zip(op[1:], mapped[1:]):
                        assert (a is None) == (b is None)
                        if a is not None:
                            assert not b.flags.writeable  # mapped read-only
                            assert np.array_equal(a, b)
        finally:
            shared.close(unlink=True)
        assert not os.path.exists(path)
        shared.close(unlink=True)  # a second close is a no-op
        assert attached.verify_buffer()  # the mapping outlives the unlink

    def test_descriptor_pickles_without_the_weights(self):
        net = toy("PointNet++ (c)")
        descriptor, handle = parameter_descriptor(net, "delayed", "float64")
        try:
            assert descriptor["kind"] == "file"
            assert len(pickle.dumps(descriptor)) < 64 * 1024
            assert len(pickle.dumps(net)) > 1024 * 1024
            attached = attach_table(pickle.loads(pickle.dumps(descriptor)))
            assert attached.verify_buffer()
        finally:
            handle.close(unlink=True)

    def test_descriptor_attaches_in_a_fresh_process(self):
        import repro

        net = toy("PointNet++ (c)")
        descriptor, handle = parameter_descriptor(net, "delayed", "float64")
        code = (
            "import pickle, sys\n"
            "from repro.backend import attach_table\n"
            "table = attach_table(pickle.loads(bytes.fromhex(sys.stdin.read())))\n"
            "print(table.content_hash, table.verify_buffer())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        try:
            done = subprocess.run(
                [sys.executable, "-c", code],
                input=pickle.dumps(descriptor).hex(), capture_output=True,
                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
            )
            local = attach_table(descriptor)
        finally:
            handle.close(unlink=True)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.split() == [local.content_hash, "True"]

    def test_next_share_sweeps_files_of_dead_owners_only(self):
        net = toy("PointNet++ (s)")
        table = ParameterTable.for_graph(net.network_graph("delayed"),
                                         backend=get_backend("float64"))
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


class TestProgramCache:
    def test_store_load_bit_exact_with_seeded_plans(self, tmp_path):
        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1)
        program = compile_kernel_program(net, "delayed", backend="float64")
        reference = program.run(cloud)
        program.plan_for(cloud)
        cache = ProgramCache(tmp_path)
        digest = cache.store(program)
        loaded = cache.load(digest, net.network_graph("delayed"), net)
        stats = loaded.memory_stats()
        assert stats["buffers"] >= 1
        assert_bit_exact(reference, loaded.run(cloud))
        assert loaded.memory_stats()["measuring_runs"] == 0  # it was seeded

    def test_program_for_compiles_once_then_hits(self, tmp_path):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        cache = ProgramCache(tmp_path)
        backend = get_backend("float64")
        first = cache.program_for(ngraph, net, backend)
        index = json.loads((tmp_path / "index.json").read_text())
        assert len(index) == 1
        second = cache.program_for(ngraph, net, backend)
        assert json.loads((tmp_path / "index.json").read_text()) == index
        cloud = clouds_for(net, 1)
        assert_bit_exact(first.run(cloud), second.run(cloud))

    def test_weight_change_misses(self, tmp_path):
        cache = ProgramCache(tmp_path)
        backend = get_backend("float64")
        a = toy("PointNet++ (s)", seed=0)
        b = toy("PointNet++ (s)", seed=1)
        cache.program_for(a.network_graph("delayed"), a, backend)
        cache.program_for(b.network_graph("delayed"), b, backend)
        index = json.loads((tmp_path / "index.json").read_text())
        assert len(index) == 2  # distinct fingerprints, distinct digests

    def test_descriptor_attaches_memmapped_table(self, tmp_path):
        net = toy("PointNet++ (s)")
        cache = ProgramCache(tmp_path)
        descriptor = cache.descriptor_for(net, "delayed",
                                          get_backend("float64"))
        assert descriptor["kind"] == "file"
        attached = attach_table(descriptor)
        program = compile_kernel_program(
            net, "delayed", backend="float64", params=attached,
        )
        cloud = clouds_for(net, 1)
        reference = compile_kernel_program(net, "delayed", backend="float64")
        assert_bit_exact(reference.run(cloud), program.run(cloud))

    def test_stale_kernels_rejected(self, tmp_path):
        net = toy("PointNet++ (s)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        cache = ProgramCache(tmp_path)
        digest = cache.store(program)
        path = tmp_path / f"{digest}.json"
        manifest = json.loads(path.read_text())
        manifest["kernels"] = list(manifest["kernels"])[:-1]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="kernel"):
            cache.load(digest, net.network_graph("delayed"), net)

    def test_damaged_blob_recompiles_once_then_loads_clean(self, tmp_path):
        net = toy("PointNet++ (c)", seed=23)
        cache = ProgramCache(tmp_path)
        digest = cache.store(compile_kernel_program(net, "delayed",
                                                    backend="float64"))
        blob = tmp_path / f"{digest}.bin"
        intact = blob.read_bytes()
        damaged = bytearray(intact)
        damaged[::4096] = bytes(byte ^ 0x01 for byte in damaged[::4096])
        blob.write_bytes(damaged)
        ngraph = net.network_graph("delayed")
        with pytest.raises(ValueError, match="fails verification"):
            cache.load(digest, ngraph, net)
        program = cache.program_for(ngraph, net, "float64")  # recompiles
        assert blob.read_bytes() == intact  # ... and rewrites the entry
        fresh = compile_kernel_program(net, "delayed", backend="float64")
        cloud = clouds_for(net, 1)
        assert_bit_exact(fresh.run(cloud), program.run(cloud))
        assert cache.digest_for(ngraph.network, "delayed", "float64",
                                network_fingerprint(net)) == digest
        loaded = cache.load(digest, ngraph, net)  # the clean entry loads
        assert_bit_exact(fresh.run(cloud), loaded.run(cloud))

    @staticmethod
    def _restamp(cache, key, stamp):
        """Point index entry ``key`` at the same manifest under another
        format stamp — content-addressed, so under its own digest, as a
        directory written by other code holds it."""
        index = cache._read_index()
        body = json.dumps(dict(cache.manifest(index[key]), format=stamp),
                          sort_keys=True)
        index[key] = hashlib.sha256(body.encode()).hexdigest()
        with open(cache._manifest_path(index[key]), "w") as handle:
            handle.write(body)
        cache._write_index(index)
        return index[key]

    def test_entries_under_another_format_are_stale(self, tmp_path):
        net = toy("PointNet++ (s)")
        cloud = clouds_for(net, 1)
        ngraph = net.network_graph("delayed")
        backend = get_backend("float64")
        cache = ProgramCache(tmp_path)
        program = cache.program_for(ngraph, net, backend)
        program.plan_for(cloud)
        cache.store(program)
        config = (ngraph.network, "delayed", "float64",
                  network_fingerprint(net))
        # One entry per configuration: the key has no arity component.
        assert cache.config_key(*config) == "|".join(config)
        # Format 3 stored one measured plan per input signature; such an
        # entry — even one an index key still reaches — is stale.
        assert FORMAT > 3
        stale = self._restamp(cache, cache.config_key(*config), 3)
        # The kernel labels still match: only the stamp can tell that
        # the stored plans may name scratch keys this code never asks for.
        with pytest.raises(ValueError, match="format"):
            cache.load(stale, ngraph, net)
        fresh = cache.program_for(ngraph, net, backend)
        assert fresh.memory_stats()["buffers"] == 0  # compiled, not seeded
        fresh.plan_for(cloud)
        cache.store(fresh)
        digest = cache.digest_for(*config)
        assert digest != stale
        manifest = cache.manifest(digest)
        assert manifest["format"] == FORMAT and "batched" not in manifest
        # One per-cloud plan per entry, whatever heights the program ran.
        assert "plans" not in manifest
        assert any(b["key"][0] == "agg-gc"
                   for b in manifest["plan"]["buffers"])

    def test_warmed_entry_serves_heights_1_and_8(self, tmp_path):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        clouds = clouds_for(net, 8)
        warm = NetworkKernelExecutor("float64",
                                     program_cache=ProgramCache(tmp_path))
        with no_grad():
            one = net.forward(clouds[0], strategy="delayed", executor=warm)
            eight = warm.run_network(ngraph, net, clouds)
        # Persist the plan the first run measured, as `repro compile` does.
        ProgramCache(tmp_path).store(warm.program(ngraph, net))
        index = json.loads((tmp_path / "index.json").read_text())
        assert len(index) == 1

        served = NetworkKernelExecutor("float64",
                                       program_cache=ProgramCache(tmp_path))
        program = served.program(ngraph, net)
        seeded = program.memory_stats()
        assert seeded["buffers"] > 0 and seeded["heights"] == ()
        with no_grad():
            assert_bit_exact(one, net.forward(clouds[0], strategy="delayed",
                                              executor=served))
            assert_bit_exact(eight, served.run_network(ngraph, net, clouds))
        stats = program.memory_stats()
        assert stats["heights"] == (1, 8)  # both derived from the one plan
        assert stats["measuring_runs"] == 0 and stats["unplanned"] == 0
        assert json.loads((tmp_path / "index.json").read_text()) == index


class TestEngineIntegration:
    def test_batch_runner_program_cache_bit_exact(self, tmp_path):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3)
        plain = BatchRunner(net, strategy="delayed", backend="float64")
        cached = BatchRunner(net, strategy="delayed", backend="float64",
                             program_cache=str(tmp_path))
        assert_bit_exact(plain.run(clouds).outputs, cached.run(clouds).outputs)
        assert (tmp_path / "index.json").exists()
        # A fresh runner over the same cache serves the stored program.
        rehosted = BatchRunner(net, strategy="delayed", backend="float64",
                               program_cache=ProgramCache(tmp_path))
        assert_bit_exact(plain.run(clouds).outputs,
                         rehosted.run(clouds).outputs)

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

    def test_attached_program_cache_table_bit_exact(self, tmp_path):
        net = toy("PointNet++ (s)")
        clouds = clouds_for(net, 2)
        reference = BatchRunner(net, backend="float64").run(clouds).outputs
        descriptor, handle = parameter_descriptor(
            net, "delayed", "float64", program_cache=str(tmp_path))
        assert handle is None  # the cache's blob file outlives the caller
        runner = BatchRunner(net, backend="float64",
                             params=attach_table(descriptor))
        assert_bit_exact(reference, runner.run(clouds).outputs)
        assert (tmp_path / "index.json").exists()

    def test_server_hosting_with_program_cache(self, tmp_path):
        from repro.serve import Server

        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1)[0]
        reference = BatchRunner(net, strategy="delayed",
                                backend="float64").run(cloud).per_cloud()[0]
        with Server.hosting([net], backend="float64",
                            program_cache=str(tmp_path)) as server:
            response = server.request(cloud, timeout=60)
        assert np.array_equal(reference, response.output)


class TestMemoryReporting:
    def test_memory_report_phases(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        report = program.memory_report(clouds_for(net, 1))
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
        report = program.memory_report(clouds_for(net, 1))
        assert report["peak_live_bytes"] <= 376832


class TestCLI:
    def test_trace_memory(self, capsys):
        from repro.cli import main

        assert main(["trace", "PointNet++ (s)", "--memory"]) == 0
        out = capsys.readouterr().out
        assert "arena" in out and "reduction" in out

    def test_compile_then_serve_from_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "programs")
        assert main(["compile", "PointNet++ (s)", "--scale", "0.03125",
                     "--batch", "2", "--cache", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "programs cached" in out
        index = json.loads(
            (tmp_path / "programs" / "index.json").read_text()
        )
        assert len(index) == 1  # one program per configuration

    def test_compile_into_a_file_is_one_error_line(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "programs"
        path.write_text("not a directory")
        assert main(["compile", "PointNet++ (c)", "--scale", "0.0625",
                     "--cache", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro compile: error: ")
        assert "not a usable directory" in captured.err
        assert len(captured.err.splitlines()) == 1

    @staticmethod
    def _serve_one(*extra):
        """One request through a fresh ``repro serve``; its output."""
        import repro

        rows = np.random.default_rng(5).normal(size=(64, 3)).tolist()
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--network",
             "PointNet++ (c)", "--scale", "0.0625", "--serve-backend",
             "float32", *extra],
            input=json.dumps({"id": "r0", "cloud": rows}) + "\n",
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(
                os.path.dirname(repro.__file__))),
        )
        assert done.returncode == 0, done.stderr[-2000:]
        response = json.loads(done.stdout.splitlines()[0])
        assert "output" in response, response
        return np.asarray(response["output"])

    @pytest.mark.parametrize("damage", [
        lambda body: body[:5] + b"\xff" + body[6:],  # not UTF-8
        lambda body: b"[]",  # JSON, but not an object
    ], ids=["non-utf8", "non-object"])
    def test_damaged_index_recompiles_and_is_rewritten(self, tmp_path,
                                                       damage):
        from repro.cli import main

        cache_dir = tmp_path / "pc"
        assert main(["compile", "PointNet++ (c)", "--scale", "0.0625",
                     "--backend", "float32", "--cache", str(cache_dir)]) == 0
        path = cache_dir / "index.json"
        keys = set(json.loads(path.read_text()))
        path.write_bytes(damage(path.read_bytes()))
        served = self._serve_one("--program-cache", str(cache_dir))
        assert np.array_equal(served, self._serve_one())
        rewritten = json.loads(path.read_text())
        assert isinstance(rewritten, dict) and set(rewritten) == keys
        for digest in rewritten.values():
            assert (cache_dir / f"{digest}.json").exists()

    def test_a_directory_with_tuned_entries_still_compiles_and_serves(
            self, tmp_path):
        # Older code kept autotuner tables in the same directory: a
        # ``tuned|<network>|<fingerprint>`` index key naming a manifest of
        # kind "tuned-table".  Nothing reads them any more.
        from repro.cli import main

        cache_dir = tmp_path / "pc"
        cache_dir.mkdir()
        body = json.dumps({"format": FORMAT, "kind": "tuned-table",
                           "network": "PointNet++ (c)", "fingerprint": "fp",
                           "table": {"format": 1, "entries": {}}},
                          sort_keys=True)
        digest = hashlib.sha256(body.encode()).hexdigest()
        (cache_dir / f"{digest}.json").write_text(body)
        old = {"tuned|PointNet++ (c)|fp": digest}
        (cache_dir / "index.json").write_text(json.dumps(old))
        assert main(["compile", "PointNet++ (c)", "--scale", "0.0625",
                     "--backend", "float32", "--cache", str(cache_dir)]) == 0
        served = self._serve_one("--program-cache", str(cache_dir))
        assert np.array_equal(served, self._serve_one())
        index = json.loads((cache_dir / "index.json").read_text())
        assert isinstance(index, dict) and len(index) == 2
        assert index.items() >= old.items()
