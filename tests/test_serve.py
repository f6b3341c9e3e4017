"""Serving frontend: admission, batching policy, dispatch, harness.

The edge cases CI pins down: a deadline expiry flushes a partial batch,
a full queue rejects with backpressure instead of deadlocking, mixed-N
arrivals split into per-shape sub-batches that stay bit-exact against
direct BatchRunner calls, graceful shutdown drains everything already
admitted, and a single dispatch worker degrades to fully serial
execution with identical results.
"""

import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.cli import _serve_handle_line
from repro.engine import BatchRunner, ParallelRunner
from repro.engine.runner import BatchResult
from repro.networks import build_network
from repro.serve import (
    BatchPolicy,
    FairQueue,
    QueueFull,
    Request,
    ServeError,
    Server,
    ServerClosed,
    bench_serve,
    split_by_shape,
)

TIMEOUT = 30.0


@pytest.fixture(scope="module")
def small_net():
    return build_network("PointNet++ (c)", scale=0.0625)


@pytest.fixture(scope="module")
def small_clouds(small_net):
    rng = np.random.default_rng(7)
    return rng.normal(size=(12, small_net.n_points, 3))


class StubRunner:
    """Deterministic runner stand-in: output = per-cloud sum.

    ``block`` (a threading.Event) holds every run until set, letting
    tests park the dispatcher to fill the queue deterministically.
    """

    def __init__(self, n_points=8, block=None, fail=False):
        self.network = SimpleNamespace(n_points=n_points)
        self.block = block
        self.fail = fail
        self.calls = []
        self.closed = False

    def run(self, stack):
        if self.block is not None:
            assert self.block.wait(TIMEOUT)
        if self.fail:
            raise RuntimeError("injected runner failure")
        stack = np.asarray(stack)
        self.calls.append(stack.shape)
        return BatchResult(stack.sum(axis=(1, 2), keepdims=True),
                           len(stack), 0.0)

    def close(self):
        self.closed = True


def stub_cloud(n_points=8, value=1.0):
    return np.full((n_points, 3), value)


# ---------------------------------------------------------------- queue


class TestFairQueue:
    def test_bounded_push_rejects_never_blocks(self):
        q = FairQueue(max_queue=2)
        q.push(Request("a", stub_cloud()))
        q.push(Request("b", stub_cloud()))
        start = time.perf_counter()
        with pytest.raises(QueueFull):
            q.push(Request("c", stub_cloud()))
        assert time.perf_counter() - start < 1.0  # rejected, not blocked
        assert len(q) == 2

    def test_round_robin_across_tenants(self):
        q = FairQueue(max_queue=16)
        for i in range(5):
            q.push(Request(f"a{i}", stub_cloud(), tenant="loud"))
        q.push(Request("b0", stub_cloud(), tenant="quiet"))
        taken = q.take(2)
        # The quiet tenant's single request rides the very next batch
        # instead of waiting behind the loud tenant's backlog.
        assert [r.id for r in taken] == ["a0", "b0"]
        assert [r.id for r in q.take(10)] == ["a1", "a2", "a3", "a4"]

    def test_closed_queue_rejects_new_but_drains_old(self):
        q = FairQueue(max_queue=4)
        q.push(Request("a", stub_cloud()))
        q.close()
        with pytest.raises(ServerClosed):
            q.push(Request("b", stub_cloud()))
        assert [r.id for r in q.take(4)] == ["a"]

    def test_oldest_arrival_tracks_head(self):
        q = FairQueue(max_queue=4)
        assert q.oldest_arrival() is None
        first = Request("a", stub_cloud())
        q.push(first)
        q.push(Request("b", stub_cloud()))
        assert q.oldest_arrival() == first.arrival


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=8, max_queue=4)

    def test_split_by_shape_groups_in_first_seen_order(self):
        reqs = [Request("a", stub_cloud(8)), Request("b", stub_cloud(16)),
                Request("c", stub_cloud(8))]
        groups = split_by_shape(reqs)
        assert [n for n in groups] == [8, 16]
        assert [r.id for r in groups[8]] == ["a", "c"]
        assert [r.id for r in groups[16]] == ["b"]


# --------------------------------------------------------------- server


class TestServerEdgeCases:
    def test_deadline_expiry_flushes_partial_batch(self):
        # max_batch far above the offered load: only the max_wait_ms
        # deadline can flush, and it must.
        runner = StubRunner()
        policy = BatchPolicy(max_batch=64, max_wait_ms=25.0, max_queue=64)
        with Server(runner, policy=policy) as server:
            futures = [server.submit(stub_cloud(value=i)) for i in range(3)]
            responses = [f.result(timeout=TIMEOUT) for f in futures]
        assert all(r.batch_size < 64 for r in responses)
        assert sum({r.batch_ids: r.batch_size for r in responses}.values()) == 3
        for i, resp in enumerate(responses):
            assert np.allclose(resp.output, stub_cloud(value=i).sum())

    def test_full_queue_rejects_with_backpressure_not_deadlock(self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=3)
        server = Server(runner, policy=policy)
        try:
            first = server.submit(stub_cloud())  # dispatcher parks on it
            deadline = time.time() + TIMEOUT
            queued = []
            while len(queued) < 3 and time.time() < deadline:
                try:
                    queued.append(server.submit(stub_cloud()))
                except QueueFull:
                    time.sleep(0.005)  # dispatcher hasn't taken `first` yet
            assert len(queued) == 3
            start = time.perf_counter()
            with pytest.raises(QueueFull):
                server.submit(stub_cloud())
            assert time.perf_counter() - start < 1.0
            assert server.stats()["rejected"] >= 1
        finally:
            gate.set()
            server.close()
        assert first.result(timeout=TIMEOUT)
        assert all(f.result(timeout=TIMEOUT) for f in queued)

    def test_mixed_n_arrivals_split_per_shape(self, small_net):
        coarse = build_network("PointNet++ (c)", scale=0.03125)
        assert coarse.n_points != small_net.n_points
        runners = {
            small_net.n_points: BatchRunner(small_net),
            coarse.n_points: BatchRunner(coarse),
        }
        rng = np.random.default_rng(3)
        clouds = {}
        policy = BatchPolicy(max_batch=8, max_wait_ms=20.0, max_queue=64)
        with Server(list(runners.values()), policy=policy) as server:
            futures = {}
            for i in range(8):
                n = small_net.n_points if i % 2 else coarse.n_points
                clouds[f"m{i}"] = rng.normal(size=(n, 3))
                futures[f"m{i}"] = server.submit(
                    clouds[f"m{i}"], request_id=f"m{i}"
                )
            responses = {rid: f.result(timeout=TIMEOUT)
                         for rid, f in futures.items()}
        for rid, resp in responses.items():
            group_ns = {clouds[member].shape[0]
                        for member in resp.batch_ids}
            assert group_ns == {clouds[rid].shape[0]}  # same-N sub-batch
            # Bit-exact against a direct BatchRunner call on the same
            # formed stack (same composition => same BLAS blocking).
            stack = np.stack([clouds[m] for m in resp.batch_ids])
            direct = runners[stack.shape[1]].run(stack).per_cloud()
            position = resp.batch_ids.index(rid)
            assert np.array_equal(resp.output, direct[position])

    def test_graceful_shutdown_drains_in_flight(self):
        runner = StubRunner()
        policy = BatchPolicy(max_batch=4, max_wait_ms=50.0, max_queue=64)
        server = Server(runner, policy=policy)
        futures = [server.submit(stub_cloud(value=i)) for i in range(12)]
        server.close(drain=True)  # immediately: most requests still queued
        for i, future in enumerate(futures):
            assert np.allclose(future.result(timeout=TIMEOUT).output,
                               stub_cloud(value=i).sum())
        assert server.stats()["completed"] == 12
        assert runner.closed

    def test_non_drain_shutdown_fails_queued_requests(self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=8)
        server = Server(runner, policy=policy)
        first = server.submit(stub_cloud())
        # Wait until the dispatcher has parked inside the runner so the
        # later submissions stay queued deterministically.
        deadline = time.time() + TIMEOUT
        while len(server._queue) > 0 and time.time() < deadline:
            time.sleep(0.002)
        queued = [server.submit(stub_cloud()) for _ in range(3)]
        closer = threading.Thread(target=server.close,
                                  kwargs={"drain": False})
        closer.start()
        # Queued futures fail fast with ServerClosed even while the
        # in-flight batch is still executing.
        for future in queued:
            with pytest.raises(ServerClosed):
                future.result(timeout=TIMEOUT)
        gate.set()
        closer.join(TIMEOUT)
        assert not closer.is_alive()
        assert first.result(timeout=TIMEOUT)  # in-flight work completes
        with pytest.raises(ServerClosed):
            server.submit(stub_cloud())

    def test_non_drain_close_returns_without_waiting_deadline(self):
        # Regression: close(drain=False) used to race the dispatcher —
        # queue.close() woke it and it could gather() the still-queued
        # requests (waiting out max_wait_ms) before drain_rejected ran.
        # The atomic close-and-reject means a huge deadline cannot
        # stall a non-drain shutdown.
        runner = StubRunner()
        policy = BatchPolicy(max_batch=64, max_wait_ms=60_000.0,
                             max_queue=64)
        server = Server(runner, policy=policy)
        futures = [server.submit(stub_cloud(value=i)) for i in range(5)]
        start = time.perf_counter()
        server.close(drain=False)
        assert time.perf_counter() - start < 5.0  # not ~60 s
        # Every queued request fails deterministically: none may sneak
        # into a final batch on a non-drain close.
        for future in futures:
            with pytest.raises(ServerClosed):
                future.result(timeout=TIMEOUT)
        assert runner.calls == []

    def test_single_worker_serial_degrade(self, small_net, small_clouds):
        reference = BatchRunner(small_net)
        serial = Server(BatchRunner(small_net),
                        policy=BatchPolicy(max_batch=4, max_wait_ms=5.0))
        assert serial.workers == 1 and serial._dispatch is None
        pooled = Server(BatchRunner(small_net),
                        policy=BatchPolicy(max_batch=4, max_wait_ms=5.0),
                        workers=4)
        assert pooled._dispatch is not None
        for server in (serial, pooled):
            with server:
                futures = [server.submit(c) for c in small_clouds[:6]]
                responses = [f.result(timeout=TIMEOUT) for f in futures]
            for i, resp in enumerate(responses):
                stack = np.stack([
                    small_clouds[int(m[1:])] for m in resp.batch_ids
                ])
                direct = reference.run(stack).per_cloud()
                assert np.array_equal(
                    resp.output, direct[resp.batch_ids.index(f"r{i}")]
                )

    def test_runner_failure_propagates_to_every_rider(self):
        runner = StubRunner(fail=True)
        with Server(runner, policy=BatchPolicy(max_batch=4)) as server:
            futures = [server.submit(stub_cloud()) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="injected"):
                    future.result(timeout=TIMEOUT)
        assert server.stats()["failed"] == 3

    def test_unroutable_and_malformed_clouds_rejected_at_admission(self):
        with Server(StubRunner(n_points=8)) as server:
            with pytest.raises(ServeError, match="n_points=5"):
                server.submit(stub_cloud(5))
            with pytest.raises(ValueError, match="expected an"):
                server.submit(np.zeros((8, 2)))
            assert server.stats()["rejected"] == 1

    def test_duplicate_shape_routes_rejected(self):
        with pytest.raises(ValueError, match="n_points=8"):
            Server([StubRunner(8), StubRunner(8)])

    def test_tenant_fairness_end_to_end(self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=2, max_wait_ms=0.0, max_queue=64)
        server = Server(runner, policy=policy)
        first = server.submit(stub_cloud(), tenant="warm")  # parks dispatcher
        deadline = time.time() + TIMEOUT
        while len(server._queue) > 0 and time.time() < deadline:
            time.sleep(0.002)
        loud = [server.submit(stub_cloud(), request_id=f"loud{i}",
                              tenant="loud") for i in range(4)]
        quiet = server.submit(stub_cloud(), request_id="quiet0",
                              tenant="quiet")
        gate.set()
        resp = quiet.result(timeout=TIMEOUT)
        # Round-robin admission: the quiet tenant shares the first
        # post-release batch instead of queueing behind all of loud's.
        assert resp.batch_ids == ("loud0", "quiet0")
        server.close()
        assert first.result(timeout=TIMEOUT)
        assert all(f.result(timeout=TIMEOUT) for f in loud)

    def test_request_sync_convenience(self):
        with Server(StubRunner()) as server:
            resp = server.request(stub_cloud(value=2.0), request_id="sync")
            assert resp.request_id == "sync"
            assert np.allclose(resp.output, stub_cloud(value=2.0).sum())


# ------------------------------------------------- front-door hardening


class TestHostileRequests:
    """What the front door refuses, and that refusing costs nobody else."""

    def test_non_finite_cloud_refused_batch_mates_unchanged(self, small_net,
                                                            small_clouds):
        # max_batch=2 under a long deadline: "a" and "b" always share one
        # kernel call, whether or not bad requests arrive in between.
        policy = BatchPolicy(max_batch=2, max_wait_ms=10_000.0)

        def serve(poisons):
            server = Server(BatchRunner(small_net), policy=policy)
            with server:
                first = server.submit(small_clouds[0], request_id="a")
                for poison in poisons:
                    bad = small_clouds[2].copy()
                    bad[3, 1] = poison
                    with pytest.raises(ValueError, match="non-finite"):
                        server.submit(bad, request_id="bad")
                second = server.submit(small_clouds[1], request_id="b")
                responses = [f.result(timeout=TIMEOUT)
                             for f in (first, second)]
            return responses, server.stats()

        clean, clean_stats = serve(())
        mixed, mixed_stats = serve((np.nan, np.inf, -np.inf))
        for a, b in zip(clean, mixed):
            assert a.batch_ids == b.batch_ids == ("a", "b")
            assert np.asarray(a.output).tobytes() \
                == np.asarray(b.output).tobytes()
        assert clean_stats["rejected"] == 0
        assert mixed_stats["rejected"] == 3
        for stats in (clean_stats, mixed_stats):
            assert (stats["submitted"], stats["completed"],
                    stats["failed"]) == (2, 2, 0)

    def test_json_line_that_is_not_an_object_gets_an_error_response(self):
        answers = []
        answered = threading.Event()

        def emit(payload):
            answers.append(payload)
            answered.set()

        with Server(StubRunner(n_points=2)) as server:
            for line in ("[]", "3", '"x"', "null", "{", ""):
                _serve_handle_line(server, line, emit)
            assert [a["id"] for a in answers] == [None] * 6
            assert all("error" in a and "output" not in a for a in answers)
            assert "JSON object" in answers[0]["error"]
            _serve_handle_line(
                server, '{"id": 7, "cloud": [[0, NaN, 0], [1, 1, 1]]}', emit)
            assert answers[-1]["id"] == 7
            assert "non-finite" in answers[-1]["error"]
            # ... and the loop still serves the next well-formed line.
            answered.clear()
            _serve_handle_line(
                server, '{"id": 8, "cloud": [[0, 0, 0], [1, 1, 1]]}', emit)
            assert answered.wait(TIMEOUT)
            assert answers[-1]["id"] == "8" and "output" in answers[-1]

    def test_tcp_handler_survives_undecodable_bytes(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--scale", "0.0625",
             "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env,
        )
        try:
            # Bounded reads only: the announcement carries the port.
            announced, port = b"", None
            deadline = time.monotonic() + TIMEOUT
            while port is None:
                ready, _, _ = select.select(
                    [proc.stderr], [], [],
                    max(0.0, deadline - time.monotonic()))
                assert ready, f"no port announced: {announced!r}"
                chunk = os.read(proc.stderr.fileno(), 65536)
                assert chunk, f"server exited early: {announced!r}"
                announced += chunk
                match = re.search(rb"127\.0\.0\.1:(\d+)", announced)
                port = int(match.group(1)) if match else None
            cloud = np.random.default_rng(5).normal(size=(64, 3)).tolist()
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=TIMEOUT) as conn:
                reader = conn.makefile("rb")
                conn.sendall(b'\xff\xfe{"id": "bad"}\n')
                refused = json.loads(reader.readline())
                conn.sendall(
                    json.dumps({"id": "ok", "cloud": cloud}).encode() + b"\n")
                served = json.loads(reader.readline())
            assert refused["id"] is None and "error" in refused
            assert served["id"] == "ok" and len(served["output"]) > 0
            proc.terminate()  # SIGTERM drains and exits 0
            assert proc.wait(timeout=TIMEOUT) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=TIMEOUT)
            proc.stderr.close()


# ----------------------------------------------------- engine drain hooks


class TestDrainHooks:
    def test_per_cloud_splits_arrays(self):
        result = BatchResult(np.arange(12.0).reshape(3, 4), 3, 0.1)
        rows = result.per_cloud()
        assert len(rows) == 3
        assert np.array_equal(rows[1], [4.0, 5.0, 6.0, 7.0])

    def test_per_cloud_splits_detection_dicts(self):
        result = BatchResult(
            {"logits": np.arange(6.0).reshape(2, 3),
             "center": np.arange(4.0).reshape(2, 2)}, 2, 0.1,
        )
        rows = result.per_cloud()
        assert np.array_equal(rows[0]["logits"], [0.0, 1.0, 2.0])
        assert np.array_equal(rows[1]["center"], [2.0, 3.0])

    def test_per_cloud_passes_per_cloud_lists_through(self):
        result = BatchResult([{"a": np.ones(2)}, {"a": np.zeros(2)}], 2, 0.1)
        rows = result.per_cloud()
        assert np.array_equal(rows[1]["a"], np.zeros(2))

    def test_per_cloud_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="cannot split"):
            BatchResult(np.zeros((2, 4)), 3, 0.1).per_cloud()

    def test_batch_runner_close_is_uniform_noop(self, small_net):
        with BatchRunner(small_net) as runner:
            runner.close()  # idempotent, keeps the runner usable
        assert runner.run(np.zeros((1, small_net.n_points, 3))).batch_size == 1

    def test_parallel_submit_serial_degrade_inline(self):
        runner = ParallelRunner(max_workers=1, backend="serial")
        future = runner.submit(lambda x: x * 2, 21)
        assert future.done() and future.result() == 42

    def test_parallel_submit_carries_exceptions(self):
        runner = ParallelRunner(max_workers=1, backend="serial")

        def boom(_):
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            runner.submit(boom, 0).result()

    def test_parallel_submit_persistent_thread_pool(self):
        with ParallelRunner(max_workers=2, backend="thread",
                            persistent=True) as runner:
            futures = [runner.submit(lambda x: x + 1, i) for i in range(8)]
            assert [f.result(TIMEOUT) for f in futures] == list(range(1, 9))

    def test_parallel_submit_requires_persistent_pool(self):
        runner = ParallelRunner(max_workers=2, backend="thread")
        with pytest.raises(ValueError, match="persistent"):
            runner.submit(lambda x: x, 1)


# -------------------------------------------------------------- harness


class TestHarness:
    def test_bench_serve_row_schema_and_gates(self):
        row = bench_serve(scale=0.0625, rates=(120.0, 240.0),
                          requests_per_rate=6, distinct_clouds=3,
                          max_wait_ms=2.0, seed=1)
        assert row["baseline"].startswith("direct BatchRunner")
        assert {"network", "backend", "workers"} <= set(row["workload"])
        assert len(row["grid"]) == 4  # 2 rates x 2 policies
        for cell in row["grid"]:
            assert cell["completed"] == 6 and cell["rejected"] == 0
            assert 0 < cell["p50_ms"] <= cell["p99_ms"] <= cell["max_ms"]
            assert cell["throughput_rps"] > 0
        assert row["responses_exact"] and row["responses_top1"]
        assert row["responses_ok"] and row["ids_ok"]
        assert row["p99_batched_worst_ms"] > 0

    def test_bench_serve_float32_kernel_path(self):
        row = bench_serve(scale=0.0625, rates=(150.0, 300.0),
                          requests_per_rate=5, distinct_clouds=2,
                          backend="float32", max_wait_ms=2.0, seed=2)
        assert row["workload"]["backend"] == "float32"
        assert row["responses_ok"] and row["ids_ok"]

    def test_bench_serve_requires_two_rates(self):
        with pytest.raises(ValueError, match="2 arrival rates"):
            bench_serve(rates=(50.0,))
