"""Tests for the memory planner + AOT program cache (:mod:`repro.backend`).

Covers buffer liveness over the whole-network graph, arena planning
(best-fit offsets, validation), the per-cloud plan (derived == measured
at every stack height, no unplanned request, one grow-only arena per
thread), planner-on
bit-exactness across all seven networks and three strategies for
serial, batched and async execution, an adversarial test that corrupts
dead arena regions mid-run, parameter-table dedup and zero-copy
transports (shared file + on-disk program cache), skeleton pickling,
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
from dataclasses import replace

import numpy as np
import pytest

from repro.backend import (
    NetworkKernelExecutor,
    ParameterTable,
    ProgramCache,
    attach_table,
    compile_kernel_program,
    get_backend,
    network_fingerprint,
    network_skeleton,
    plan_arena,
    share_table,
    validate_plan,
)
from repro.backend.aot import FORMAT, _share_dir
from repro.backend.runtime import _MeasuringPool
from repro.core import ModuleSpec
from repro.engine import AsyncRunner, BatchRunner, ParallelRunner
from repro.graph import value_liveness
from repro.networks import ALL_NETWORKS, build_network
from repro.networks.generic import GenericPointCloudNetwork
from repro.neural import no_grad

STRATEGIES = ("original", "delayed", "limited")


def toy(name, seed=0):
    scale = 0.03125 if "(s)" in name else 0.0625
    return build_network(name, num_classes=4, scale=scale,
                         rng=np.random.default_rng(seed))


def cloud_for(net, seed=0):
    """One cloud, as the stack of one kernel programs take."""
    return np.random.default_rng(seed).normal(size=(1, net.n_points, 3))


def clouds_for(net, batch, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, net.n_points, 3))


def leaves(ref, out):
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

    def test_network_plan_exposes_liveness(self):
        from repro.graph import compile_network_plan

        net = toy("PointNet++ (s)")
        plan = compile_network_plan(net, "delayed")
        live = plan.liveness()
        assert live  # non-empty map over the whole-network graph


class TestArenaPlanning:
    def test_plan_validates_and_packs_below_pool(self):
        net = toy("PointNet++ (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        plan = program.plan_for(cloud_for(net))
        validate_plan(plan)  # alignment, bounds, no live overlap
        assert plan.total_bytes < plan.pool_bytes
        assert plan.peak_live_bytes <= plan.total_bytes
        for b in plan.buffers:
            assert b.offset % 64 == 0
            assert b.offset + b.nbytes <= plan.total_bytes

    def test_live_buffers_never_alias(self):
        net = toy("DGCNN (c)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        plan = program.plan_for(cloud_for(net))
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
                plan = program.plan_for(cloud_for(net))
                assert plan.reduction >= 0.30, (name, strategy,
                                                plan.reduction)

    def test_empty_records_make_an_empty_arena(self):
        net = toy("PointNet++ (s)")
        program = compile_kernel_program(net, "delayed", backend="float64")
        program.plan_for(cloud_for(net))  # builds the liveness index
        plan = plan_arena([], program._liveness)
        assert plan.total_bytes == 0 and not plan.buffers


class TestPlannerBitExact:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_serial_all_strategies(self, name):
        net = toy(name)
        cloud = cloud_for(net)
        for strategy in STRATEGIES:
            planned = compile_kernel_program(net, strategy,
                                             backend="float64")
            unplanned = compile_kernel_program(net, strategy,
                                               backend="float64",
                                               plan_memory=False)
            reference = unplanned.run(cloud)
            # First run measures, second executes out of the arena —
            # both must match the unplanned pool bit-for-bit.
            assert_bit_exact(reference, planned.run(cloud))
            assert_bit_exact(reference, planned.run(cloud))

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_batched_delayed(self, name):
        net = toy(name)
        clouds = clouds_for(net, 3)
        planned = compile_kernel_program(net, "delayed", backend="float64")
        unplanned = compile_kernel_program(net, "delayed", backend="float64",
                                           plan_memory=False)
        reference = unplanned.run(clouds)
        assert_bit_exact(reference, planned.run(clouds))
        assert_bit_exact(reference, planned.run(clouds))

    def test_async_overlap_with_planner(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4)
        executor = NetworkKernelExecutor("float64")
        with no_grad():
            reference = [np.asarray(
                net.forward(c, strategy="delayed", executor=executor).data
            ) for c in clouds]
        with AsyncRunner(net, strategy="delayed", kernel_backend="float64",
                         max_workers=2, in_flight=2) as runner:
            out = runner.run(clouds).per_cloud()
        for a, b in zip(reference, out):
            assert np.array_equal(np.squeeze(a), np.squeeze(b))

    def test_float32_stays_close_with_planner(self):
        net = toy("PointNet++ (c)")
        cloud = cloud_for(net)
        planned = compile_kernel_program(net, "delayed", backend="float32")
        unplanned = compile_kernel_program(net, "delayed", backend="float32",
                                           plan_memory=False)
        assert_bit_exact(unplanned.run(cloud), planned.run(cloud))

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
        cloud = cloud_for(net)
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
        unplanned = compile_kernel_program(net, "delayed", backend="float64",
                                           plan_memory=False)
        stacks = {2: clouds[:2], 5: clouds}
        references = {h: unplanned.run(x) for h, x in stacks.items()}
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
        unplanned = compile_kernel_program(net, "delayed", backend="float64",
                                           plan_memory=False)
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

            assert_bit_exact(unplanned.run(stack),
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
        cloud = cloud_for(net)
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


class TestParameterTableDedup:
    def test_programs_and_fresh_backends_share_one_table(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        first = compile_kernel_program(net, "delayed", backend="float64")
        second = compile_kernel_program(net, "delayed", backend="float64")
        assert first is not second and first.table is second.table
        fresh = ParameterTable.for_graph(ngraph, backend=get_backend("float64"))
        assert fresh is first.table
        assert first.table.content_hash == fresh.content_hash

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
        restored = ParameterTable.from_buffer(manifest, blob, dedupe=False)
        assert restored.content_hash == table.content_hash
        assert restored.verify_buffer()
        program = compile_kernel_program(net, "delayed", backend="float64",
                                         params=restored)
        reference = compile_kernel_program(net, "delayed", backend="float64")
        cloud = cloud_for(net)
        assert_bit_exact(reference.run(cloud), program.run(cloud))

    def test_dtype_mismatch_rejected(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        t32 = ParameterTable.for_graph(ngraph, backend=get_backend("float32"))
        with pytest.raises(ValueError, match="dtype"):
            compile_kernel_program(net, "delayed", backend="float64",
                                   params=t32)


class TestSkeleton:
    def test_skeleton_pickles_small_and_keeps_fingerprint(self):
        net = toy("PointNet++ (c)")
        fingerprint = network_fingerprint(net)
        skeleton = network_skeleton(net)
        assert len(pickle.dumps(skeleton)) < 64 * 1024
        assert len(pickle.dumps(net)) > 1024 * 1024
        assert network_fingerprint(skeleton) == fingerprint
        roundtrip = pickle.loads(pickle.dumps(skeleton))
        assert network_fingerprint(roundtrip) == fingerprint

    def test_stripped_network_refuses_to_export(self):
        net = toy("PointNet++ (s)")
        skeleton = network_skeleton(net)
        with pytest.raises(RuntimeError, match="stripped"):
            compile_kernel_program(skeleton, "delayed", backend="float64")

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
            skeleton = network_skeleton(net)
            program = compile_kernel_program(
                skeleton, "delayed", backend="float64", params=attached
            )
            cloud = cloud_for(net)
            reference = compile_kernel_program(net, "delayed",
                                               backend="float64")
            assert_bit_exact(reference.run(cloud), program.run(cloud))
        finally:
            shared.close(unlink=True)

    def test_shared_file_roundtrip_owner_unlinks(self):
        # Weights no other test exports, and dedupe=False: the table
        # registry then holds nothing with this content hash, so
        # attach_table cannot hand an in-memory twin back.
        net = toy("PointNet++ (c)", seed=97)
        table = ParameterTable.for_graph(net.network_graph("delayed"),
                                         backend=get_backend("float32"),
                                         dedupe=False)
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
        cloud = cloud_for(net)
        program = compile_kernel_program(net, "delayed", backend="float64")
        reference = program.run(cloud)
        program.plan_for(cloud)
        cache = ProgramCache(tmp_path)
        digest = cache.store(program)
        loaded = cache.load(digest, net.network_graph("delayed"), net)
        stats = loaded.memory_stats()
        assert stats["planned"] and stats["buffers"] >= 1
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
        cloud = cloud_for(net)
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
            network_skeleton(net), "delayed", backend="float64",
            params=attached,
        )
        cloud = cloud_for(net)
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
        cloud = cloud_for(net)
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

        cache.store_tuned(net.name, "fp", {"entries": {}})
        assert cache.load_tuned(net.name, "fp") == {"entries": {}}
        self._restamp(cache, f"tuned|{net.name}|fp", FORMAT - 1)
        assert cache.load_tuned(net.name, "fp") is None


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

    def test_process_worker_payload_is_shared_not_pickled(self):
        net = toy("PointNet++ (c)")
        runner = AsyncRunner(net, strategy="delayed", backend="process",
                             kernel_backend="float64")
        try:
            payload, descriptor = runner._worker_payload()
            assert descriptor["kind"] == "file"
            assert len(pickle.dumps(payload)) < 64 * 1024
        finally:
            runner.close()
        assert runner._shared_table is None  # close() unlinked it

    def test_async_process_shm_transport_bit_exact(self):
        net = toy("PointNet++ (s)")
        clouds = clouds_for(net, 3)
        executor = NetworkKernelExecutor("float64")
        with no_grad():
            reference = [np.asarray(
                net.forward(c, strategy="delayed", executor=executor).data
            ) for c in clouds]
        with warnings.catch_warnings():
            # 1-core / sandboxed runners degrade the pool to a serial
            # map; the zero-copy attach path still runs either way.
            warnings.simplefilter("ignore", RuntimeWarning)
            with AsyncRunner(net, strategy="delayed", backend="process",
                             kernel_backend="float64") as runner:
                out = runner.run(clouds).per_cloud()
        for a, b in zip(reference, out):
            assert np.array_equal(np.squeeze(a), np.squeeze(b))

    def test_async_process_program_cache_transport_bit_exact(self, tmp_path):
        net = toy("PointNet++ (s)")
        clouds = clouds_for(net, 2)
        executor = NetworkKernelExecutor("float64")
        with no_grad():
            reference = [np.asarray(
                net.forward(c, strategy="delayed", executor=executor).data
            ) for c in clouds]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with AsyncRunner(net, strategy="delayed", backend="process",
                             kernel_backend="float64",
                             program_cache=str(tmp_path)) as runner:
                out = runner.run(clouds).per_cloud()
        for a, b in zip(reference, out):
            assert np.array_equal(np.squeeze(a), np.squeeze(b))
        assert (tmp_path / "index.json").exists()

    def test_parallel_runner_warm(self):
        calls = []
        runner = ParallelRunner(max_workers=1, backend="serial",
                                persistent=True,
                                initializer=calls.append, initargs=(1,))
        seconds = runner.warm()
        assert seconds >= 0.0 and calls == [1]
        runner.close()
        with pytest.raises(ValueError, match="persistent"):
            ParallelRunner(max_workers=1, backend="serial").warm()

    def test_server_hosting_with_program_cache(self, tmp_path):
        from repro.serve import Server

        net = toy("PointNet++ (c)")
        cloud = cloud_for(net)[0]
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
        report = program.memory_report(cloud_for(net))
        assert report["arena_bytes"] < report["pool_bytes"]
        for row in report["phases"].values():
            assert row["after"] <= row["before"]

    def test_memory_stats_unplanned(self):
        net = toy("PointNet++ (s)")
        program = compile_kernel_program(net, "delayed", backend="float64",
                                         plan_memory=False)
        program.run(cloud_for(net))
        stats = program.memory_stats()
        assert stats["planned"] is False and stats["pool_bytes"] > 0


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

    def test_bench_mem_row(self):
        from repro.engine.bench import bench_mem

        row = bench_mem(batch=2, scale=0.0625, repeats=1)
        assert row["bit_exact"] and row["cache_bit_exact"]
        assert row["peak_reduction"] >= 0.30
        assert row["payload_shared_bytes"] < row["payload_pickle_bytes"]
        assert row["spinup_shared_ms"] > 0 and row["spinup_pickle_ms"] > 0
