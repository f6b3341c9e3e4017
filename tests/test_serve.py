"""Serving frontend: admission, batching policy, dispatch, exactness.

The edge cases CI pins down: a lone queued request is taken at once,
requests queued behind a running batch ride the next one together, a
server's lanes are its dispatcher threads — never more batches in
flight than lanes, and none left alive after close — a full
queue rejects with backpressure instead of deadlocking, mixed-N
arrivals split into per-shape sub-batches, each response bit-exact
against its cloud served alone, graceful shutdown drains everything already
admitted, a single lane degrades to fully serial execution with
identical results, one request that makes its batch
raise fails alone, every batch height runs exactly the strategy and
backend the server was built with, and concurrent submitters across
tenants get responses bit-exact against each cloud served alone,
whatever stack it rode in, with every request ID answered once.

Batches form deterministically in the edge-case tests: a test parks
every lane on a gated first call, queues requests behind it, then
opens the gate.
"""

import contextlib
import io
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
from repro.cli import (
    MAX_LINE_BYTES,
    _build_server,
    _request_lines,
    _serve_handle_line,
    build_parser,
)
from repro.engine import BatchRunner
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
    split_by_shape,
)
from repro.serve.server import MAX_SLOTS

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

    def __init__(self, n_points=8, block=None, fail=False, poison=None):
        self.network = SimpleNamespace(n_points=n_points)
        self.block = block
        self.fail = fail
        self.poison = poison  # a stack holding this all-constant cloud raises
        self.calls = []
        self.closed = False

    def run(self, stack):
        if self.block is not None:
            assert self.block.wait(TIMEOUT)
        stack = np.asarray(stack)
        if self.fail or (self.poison is not None
                         and (stack == self.poison).all(axis=(1, 2)).any()):
            raise RuntimeError("injected runner failure")
        self.calls.append(stack.shape)
        return BatchResult(stack.sum(axis=(1, 2), keepdims=True),
                           len(stack), 0.0)

    def close(self):
        self.closed = True


def stub_cloud(n_points=8, value=1.0):
    return np.full((n_points, 3), value)


class GatedRunner:
    """A real runner whose calls wait for ``gate`` — parks the dispatcher
    for the bit-exact tests the way ``StubRunner(block=gate)`` does."""

    def __init__(self, runner, gate):
        self.runner = runner
        self.network = runner.network
        self.gate = gate

    def run(self, stack):
        assert self.gate.wait(TIMEOUT)
        return self.runner.run(stack)

    def close(self):
        self.runner.close()


class CountingRunner(StubRunner):
    """Counts runner calls in flight.  Every call waits at a barrier of
    ``parties``, so no call finishes until that many run side by side."""

    def __init__(self, parties):
        super().__init__()
        self.barrier = threading.Barrier(parties, timeout=TIMEOUT)
        self.lock = threading.Lock()
        self.active = self.peak = 0

    def run(self, stack):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            self.barrier.wait()
            return super().run(stack)
        finally:
            with self.lock:
                self.active -= 1


def wait_until_taken(server):
    """Block until a lane has taken everything queued."""
    give_up = time.time() + TIMEOUT
    while len(server._queue) > 0 and time.time() < give_up:
        time.sleep(0.002)
    assert len(server._queue) == 0


def dispatch_threads():
    """The live threads a server names as its lanes."""
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-serve-dispatch")]


def park(server, clouds):
    """Submit ``clouds`` one at a time, each taken before the next, so
    each parks one dispatch lane on a gated runner; returns the futures."""
    futures = []
    for cloud in clouds:
        futures.append(server.submit(cloud))
        wait_until_taken(server)
    return futures


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

    def test_lone_queued_request_is_taken_at_once(self):
        q = FairQueue(max_queue=64)
        q.push(Request("lonely", stub_cloud()))
        # Nothing else will ever arrive: take must not wait for riders.
        batch = q.take(64)
        assert [r.id for r in batch] == ["lonely"] and len(q) == 0

    def test_take_takes_at_most_limit_then_exits_on_close(self):
        q = FairQueue(max_queue=8)
        for i in range(3):
            q.push(Request(f"r{i}", stub_cloud()))
        assert [r.id for r in q.take(2)] == ["r0", "r1"]
        q.close()
        assert [r.id for r in q.take(2)] == ["r2"]  # drains first
        assert q.take(2) == []  # closed and drained: exit signal

    def test_take_blocks_until_a_push_and_one_push_feeds_one_taker(self):
        # Two takers wait on an empty queue.  One push wakes both; the
        # one that finds it emptied must go back to waiting, not read
        # ``[]`` (its exit signal) — only the close may end it.
        q = FairQueue(max_queue=8)
        taken = []

        def taker():
            taken.append([r.id for r in q.take(4)])

        takers = [threading.Thread(target=taker, daemon=True)
                  for _ in range(2)]
        try:
            for thread in takers:
                thread.start()
            time.sleep(0.05)
            assert taken == []  # nothing queued: both still wait
            q.push(Request("only", stub_cloud()))
            give_up = time.time() + TIMEOUT
            while not taken and time.time() < give_up:
                time.sleep(0.002)
            time.sleep(0.05)
            assert taken == [["only"]]  # the other taker kept waiting
        finally:
            q.close()
            for thread in takers:
                thread.join(TIMEOUT)
        assert not any(thread.is_alive() for thread in takers)
        assert sorted(taken) == [[], ["only"]]

    def test_takers_outlive_every_push_until_the_close(self):
        # Eight takers, one push at a time, a short switch interval: a
        # take that could read ``[]`` before the close would end its
        # taker early.  Every request is taken once, and every taker
        # is still waiting when the queue closes.
        q = FairQueue(max_queue=256)
        lock = threading.Lock()
        taken, ended = [], []

        def taker():
            while batch := q.take(1):
                with lock:
                    taken.extend(r.id for r in batch)
            with lock:
                ended.append(q.closed)

        takers = [threading.Thread(target=taker, daemon=True)
                  for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in takers:
                thread.start()
            for i in range(400):
                q.push(Request(f"r{i}", stub_cloud()))
                if i % 4 == 0:
                    time.sleep(0.0005)
            give_up = time.time() + TIMEOUT
            while len(q) and time.time() < give_up:
                time.sleep(0.002)
            with lock:
                ended_while_open = list(ended)
        finally:
            q.close()
            sys.setswitchinterval(interval)
            for thread in takers:
                thread.join(TIMEOUT)
        assert ended_while_open == []  # no taker read ``[]`` while open
        assert not any(thread.is_alive() for thread in takers)
        assert sorted(taken) == sorted(f"r{i}" for i in range(400))
        assert ended == [True] * 8


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
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
    def test_requests_queued_behind_a_running_batch_ride_the_next_together(
            self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=8, max_queue=64)
        with Server(runner, policy=policy) as server:
            parked = park(server, [stub_cloud(value=-1.0)])
            futures = [server.submit(stub_cloud(value=i), request_id=f"q{i}")
                       for i in range(3)]
            gate.set()
            responses = [f.result(timeout=TIMEOUT) for f in futures]
            assert parked[0].result(timeout=TIMEOUT).batch_size == 1
        assert all(r.batch_ids == ("q0", "q1", "q2") for r in responses)
        assert runner.calls == [(1, 8, 3), (3, 8, 3)]
        for i, resp in enumerate(responses):
            assert np.allclose(resp.output, stub_cloud(value=i).sum())

    def test_server_never_has_more_batches_in_flight_than_workers(self):
        runner = CountingRunner(parties=2)
        policy = BatchPolicy(max_batch=1, max_queue=64)
        with Server(runner, policy=policy, workers=2) as server:
            futures = [server.submit(stub_cloud(value=i)) for i in range(8)]
            assert all(f.result(timeout=TIMEOUT) for f in futures)
        # The barrier proves two lanes run side by side; the peak proves
        # no third batch ever started.
        assert runner.peak == 2
        assert len(runner.calls) == 8

    def test_lanes_hold_under_concurrent_submitters(self):
        # More lanes than cores, four submitting threads and a short
        # switch interval: a lost lane release would stall the server,
        # a lost count would break the totals.
        runner = CountingRunner(parties=1)
        policy = BatchPolicy(max_batch=3, max_queue=256)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Server(runner, policy=policy, workers=4) as server:
                futures = {}

                def submit(tenant):
                    for i in range(50):
                        rid = f"{tenant}-{i}"
                        futures[rid] = server.submit(
                            stub_cloud(value=i), request_id=rid,
                            tenant=tenant)

                threads = [threading.Thread(target=submit, args=(f"t{t}",))
                           for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(TIMEOUT)
                    assert not thread.is_alive()
                responses = {rid: f.result(timeout=TIMEOUT)
                             for rid, f in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        assert len(responses) == 200
        assert all(resp.request_id == rid for rid, resp in responses.items())
        stats = server.stats()
        assert stats["completed"] == stats["batched_requests"] == 200
        assert sum(shape[0] for shape in runner.calls) == 200
        assert runner.peak <= 4

    def test_full_queue_rejects_with_backpressure_not_deadlock(self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=1, max_queue=3)
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
        gate = threading.Event()
        gated = GatedRunner(runners[coarse.n_points], gate)
        policy = BatchPolicy(max_batch=8, max_queue=64)
        with Server([runners[small_net.n_points], gated],
                    policy=policy) as server:
            park(server, [rng.normal(size=(coarse.n_points, 3))])
            futures = {}
            for i in range(8):
                n = small_net.n_points if i % 2 else coarse.n_points
                clouds[f"m{i}"] = rng.normal(size=(n, 3))
                futures[f"m{i}"] = server.submit(
                    clouds[f"m{i}"], request_id=f"m{i}"
                )
            gate.set()
            responses = {rid: f.result(timeout=TIMEOUT)
                         for rid, f in futures.items()}
        for rid, resp in responses.items():
            # All eight rode one gathered batch, split into two 4-high
            # same-N sub-batches.
            assert resp.batch_size == 4
            group_ns = {clouds[member].shape[0]
                        for member in resp.batch_ids}
            assert group_ns == {clouds[rid].shape[0]}  # same-N sub-batch
            # Bit-exact against the cloud served alone.
            cloud = clouds[rid]
            alone = runners[cloud.shape[0]].run(cloud[None]).per_cloud()
            assert np.array_equal(resp.output, alone[0])

    def test_graceful_shutdown_drains_in_flight(self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=4, max_queue=64)
        server = Server(runner, policy=policy)
        futures = park(server, [stub_cloud(value=0)])
        futures += [server.submit(stub_cloud(value=i)) for i in range(1, 12)]
        closer = threading.Thread(target=server.close, kwargs={"drain": True})
        closer.start()
        give_up = time.time() + TIMEOUT
        while not server._queue.closed and time.time() < give_up:
            time.sleep(0.002)
        assert len(server._queue) == 11  # closed with everything queued
        gate.set()
        closer.join(TIMEOUT)
        assert not closer.is_alive()
        for i, future in enumerate(futures):
            assert np.allclose(future.result(timeout=TIMEOUT).output,
                               stub_cloud(value=i).sum())
        assert server.stats()["completed"] == 12
        # The drain still forms max_batch-high batches from the backlog.
        assert [shape[0] for shape in runner.calls] == [1, 4, 4, 3]
        assert runner.closed

    def test_non_drain_shutdown_fails_queued_requests(self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=1, max_queue=8)
        server = Server(runner, policy=policy)
        # The dispatcher parks inside the runner, so the later
        # submissions stay queued deterministically.
        first, = park(server, [stub_cloud()])
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

    def test_non_drain_close_fails_everything_behind_a_parked_batch(self):
        # Regression: close(drain=False) used to race the dispatcher —
        # queue.close() woke it and it could take() the still-queued
        # requests before drain_rejected ran.  The atomic
        # close-and-reject fails every queued request deterministically:
        # none may sneak into a final batch once the parked one returns.
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=64, max_queue=64)
        server = Server(runner, policy=policy)
        parked, = park(server, [stub_cloud()])
        futures = [server.submit(stub_cloud(value=i)) for i in range(5)]
        closer = threading.Thread(target=server.close,
                                  kwargs={"drain": False})
        closer.start()
        for future in futures:
            with pytest.raises(ServerClosed):
                future.result(timeout=TIMEOUT)
        gate.set()
        closer.join(TIMEOUT)
        assert not closer.is_alive()
        assert parked.result(timeout=TIMEOUT).batch_size == 1
        assert runner.calls == [(1, 8, 3)]  # only the parked call ran

    def test_single_worker_serial_degrade(self, small_net, small_clouds):
        reference = BatchRunner(small_net)
        alone = [reference.run(cloud[None]).per_cloud()[0]
                 for cloud in small_clouds]
        gate = threading.Event()
        policy = BatchPolicy(max_batch=4)
        serial = Server(GatedRunner(BatchRunner(small_net), gate),
                        policy=policy)
        assert serial.workers == len(serial._threads) == 1
        pooled = Server(GatedRunner(BatchRunner(small_net), gate),
                        policy=policy, workers=4)
        assert pooled.workers == len(pooled._threads) == 4
        for server in (serial, pooled):
            gate.clear()
            with server:
                # Park every lane, queue five behind them, release: the
                # five form one 4-high batch and one lone rider.
                lanes = server.workers
                futures = park(server, small_clouds[:lanes])
                futures += [server.submit(c)
                            for c in small_clouds[lanes:lanes + 5]]
                gate.set()
                responses = [f.result(timeout=TIMEOUT) for f in futures]
            assert [r.batch_size for r in responses] \
                == [1] * lanes + [4, 4, 4, 4, 1]
            for i, resp in enumerate(responses):
                assert np.array_equal(resp.output, alone[i])

    @pytest.mark.parametrize("workers", [1, 4])
    def test_close_leaves_no_lane_alive(self, workers):
        before = dispatch_threads()
        server = Server(StubRunner(), policy=BatchPolicy(max_batch=2),
                        workers=workers)
        assert len(set(dispatch_threads()) - set(before)) == workers
        futures = [server.submit(stub_cloud(value=i)) for i in range(6)]
        server.close()
        assert all(f.result(timeout=TIMEOUT) for f in futures)
        assert set(dispatch_threads()) <= set(before)

    @pytest.mark.parametrize("workers", [0, -1, MAX_SLOTS + 1])
    def test_workers_out_of_range_start_no_thread(self, workers):
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"1..{MAX_SLOTS}"):
            Server(StubRunner(), workers=workers)
        assert threading.active_count() == before

    def test_a_lane_that_fails_to_start_stops_the_started_ones(
            self, monkeypatch):
        before = dispatch_threads()
        start = threading.Thread.start
        started = []

        def second_start_fails(thread):
            if thread.name.startswith("repro-serve-dispatch"):
                started.append(thread.name)
                if len(started) == 2:
                    raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", second_start_fails)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            Server(StubRunner(), workers=3)
        assert len(started) == 2  # the third lane was never tried
        assert set(dispatch_threads()) <= set(before)  # the first was joined

    def test_runner_failure_propagates_to_every_rider(self):
        runner = StubRunner(fail=True)
        with Server(runner, policy=BatchPolicy(max_batch=4)) as server:
            futures = [server.submit(stub_cloud()) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="injected"):
                    future.result(timeout=TIMEOUT)
        assert server.stats()["failed"] == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_bad_request_fails_alone(self, workers):
        # Four requests queue behind the parked lanes and form one batch;
        # the stacked call raises on the poisoned cloud, so the group
        # reruns one request at a time and only the culprit fails.
        gate = threading.Event()
        runner = StubRunner(block=gate, poison=-7.0)
        values = {"a": 1.0, "b": 2.0, "bad": -7.0, "c": 3.0}
        with Server(runner, policy=BatchPolicy(max_batch=4),
                    workers=workers) as server:
            parked = park(server, [stub_cloud(value=-1.0)] * workers)
            futures = {rid: server.submit(stub_cloud(value=value),
                                          request_id=rid)
                       for rid, value in values.items()}
            gate.set()
            with pytest.raises(RuntimeError, match="injected"):
                futures.pop("bad").result(timeout=TIMEOUT)
            responses = {rid: f.result(timeout=TIMEOUT)
                         for rid, f in futures.items()}
            assert all(f.result(timeout=TIMEOUT) for f in parked)
        stats = server.stats()
        assert (stats["completed"], stats["failed"]) == (3 + workers, 1)
        assert runner.calls[workers:] == [(1, 8, 3)] * 3
        for rid, resp in responses.items():
            assert resp.batch_ids == (rid,)
            solo = runner.run(stub_cloud(value=values[rid])[None])
            assert np.array_equal(resp.output, solo.per_cloud()[0])

    def test_unroutable_and_malformed_clouds_rejected_at_admission(self):
        with Server(StubRunner(n_points=8)) as server:
            with pytest.raises(ServeError, match="n_points=5"):
                server.submit(stub_cloud(5))
            with pytest.raises(ValueError, match="expected an"):
                server.submit(np.zeros((8, 2)))
            assert server.stats()["rejected"] == 2

    def test_duplicate_shape_routes_rejected(self):
        with pytest.raises(ValueError, match="n_points=8"):
            Server([StubRunner(8), StubRunner(8)])

    def test_tenant_fairness_end_to_end(self):
        gate = threading.Event()
        runner = StubRunner(block=gate)
        policy = BatchPolicy(max_batch=2, max_queue=64)
        server = Server(runner, policy=policy)
        first = server.submit(stub_cloud(), tenant="warm")  # parks dispatcher
        wait_until_taken(server)
        loud =[server.submit(stub_cloud(), request_id=f"loud{i}",
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
        # "a" and "b" queue behind a parked batch and always share the
        # next kernel call, whether or not bad requests arrive in between.
        policy = BatchPolicy(max_batch=2)

        def serve(poisons):
            gate = threading.Event()
            server = Server(GatedRunner(BatchRunner(small_net), gate),
                            policy=policy)
            with server:
                park(server, [small_clouds[3]])
                first = server.submit(small_clouds[0], request_id="a")
                for poison in poisons:
                    bad = small_clouds[2].copy()
                    bad[3, 1] = poison
                    with pytest.raises(ValueError, match="non-finite"):
                        server.submit(bad, request_id="bad")
                second = server.submit(small_clouds[1], request_id="b")
                gate.set()
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
            # The parked request plus "a" and "b".
            assert (stats["submitted"], stats["completed"],
                    stats["failed"]) == (3, 3, 0)

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
            # JSON integers are unbounded; one beyond float64 is refused.
            big = "1" + "0" * 400
            _serve_handle_line(
                server, f'{{"id": 9, "cloud": [[{big}, 0, 0], [1, 1, 1]]}}',
                emit)
            assert answers[-1]["id"] == 9 and "output" not in answers[-1]
            assert "too large" in answers[-1]["error"]
            # ... and the loop still serves the next well-formed line.
            answered.clear()
            _serve_handle_line(
                server, '{"id": 8, "cloud": [[0, 0, 0], [1, 1, 1]]}', emit)
            assert answered.wait(TIMEOUT)
            assert answers[-1]["id"] == 8 and "output" in answers[-1]

    @staticmethod
    def _answer_one(net, backend, cloud):
        """Serve ``cloud`` on ``net`` through the line front door."""
        answers = []
        answered = threading.Event()

        def emit(payload):
            answers.append(payload)
            answered.set()

        line = json.dumps({"id": "big", "cloud": np.asarray(cloud).tolist()})
        with Server.hosting([net], backend=backend) as server:
            _serve_handle_line(server, line, emit)
            assert answered.wait(TIMEOUT)
            stats = server.stats()
        [answer] = answers
        json.dumps(answer, allow_nan=False)  # strict JSON
        assert answer["id"] == "big"
        return answer, stats

    @pytest.mark.parametrize("backend, coordinate", [
        ("float64", 1e200), ("float64", 1e308),
        ("float32", 1e39), ("float32", 1e20),
    ])
    def test_overflowing_cloud_is_answered_in_strict_json(
            self, small_net, backend, coordinate):
        # Finite in float64 is not searchable as served: a squared
        # distance overflows past sqrt(max) / (2 sqrt 3) of the stack
        # dtype (5.3e18 in float32, 3.9e153 in float64), so the cloud
        # is refused at admission instead of answered wrong or as NaN.
        cloud = np.full((small_net.n_points, 3), coordinate)
        answer, stats = self._answer_one(small_net, backend, cloud)
        assert "output" not in answer
        assert "the largest a" in answer["error"]
        assert (stats["rejected"], stats["submitted"]) == (1, 0)

    def test_cloud_at_the_float32_bound_is_answered_within_contract(
            self, small_net, small_clouds):
        bound = np.sqrt(float(np.finfo(np.float32).max)) / (2 * np.sqrt(3))
        cloud = small_clouds[0] * (bound / np.abs(small_clouds[0]).max())
        assert np.abs(cloud).max() <= bound
        answer, stats = self._answer_one(small_net, "float32", cloud)
        assert stats["rejected"] == 0
        expected = BatchRunner(small_net, backend="float64").run(
            cloud[None]).outputs[0]
        observed = np.asarray(answer["output"])
        assert np.abs(observed - expected).max() \
            <= 1e-4 * np.abs(expected).max()
        assert observed.argmax() == expected.argmax()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_output_is_answered_in_strict_json(self):
        # An in-range cloud through weights that overflow float64: the
        # cloud is admitted, and the output guard answers with an error.
        net = build_network("PointNet++ (c)", scale=0.0625)
        for param in net.parameters():
            if param.data.ndim == 2:  # a Linear's weight
                param.data *= 1e100
        cloud = np.random.default_rng(3).normal(size=(net.n_points, 3))
        answer, stats = self._answer_one(net, "float64", cloud)
        assert "output" not in answer
        assert "output is not finite" in answer["error"]
        assert (stats["rejected"], stats["completed"]) == (0, 1)

    @pytest.mark.parametrize("cloud", [
        [[1, 2]] * 2, [], "abc", [[[1, 2, 3]]], [[1, 2, 3], [4]],
    ], ids=["two-columns", "empty", "string", "three-dims", "ragged"])
    def test_malformed_cloud_is_counted_rejected(self, cloud):
        answers = []
        with Server(StubRunner(n_points=2)) as server:
            _serve_handle_line(server, json.dumps({"id": "m", "cloud": cloud}),
                               answers.append)
        [answer] = answers
        assert answer["id"] == "m" and "output" not in answer
        stats = server.stats()
        assert (stats["submitted"], stats["rejected"]) == (0, 1)

    def test_non_finite_request_id_is_not_echoed(self):
        answers = []
        with Server(StubRunner(n_points=2)) as server:
            _serve_handle_line(
                server, '{"id": NaN, "cloud": [[0, 0, 0], [1, 1, 1]]}',
                answers.append)
            assert server.stats()["submitted"] == 0
        [answer] = answers
        json.dumps(answer, allow_nan=False)  # strict JSON
        assert answer["id"] is None and "NaN or Infinity" in answer["error"]

    @staticmethod
    @contextlib.contextmanager
    def _tcp_server():
        """A ``repro serve --port 0`` child: yields its port and a list
        that, once SIGTERM drained it and it exited 0, holds its final
        stderr."""
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
            log = []
            yield port, log
            proc.terminate()  # SIGTERM drains and exits 0
            assert proc.wait(timeout=TIMEOUT) == 0
            log.append((announced + proc.stderr.read()).decode())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=TIMEOUT)
            proc.stderr.close()

    @classmethod
    @contextlib.contextmanager
    def _tcp_connection(cls):
        """A ``repro serve --port 0`` child and a connection to it."""
        with cls._tcp_server() as (port, _), socket.create_connection(
                ("127.0.0.1", port), timeout=TIMEOUT) as conn:
            yield conn, conn.makefile("rb")

    @staticmethod
    def _counted(stderr):
        """``completed + failed + rejected`` off the drain line."""
        served, rejected, failed = map(int, re.search(
            r"served (\d+) request.*rejected (\d+), failed (\d+)",
            stderr).groups())
        return served + rejected + failed

    @pytest.mark.parametrize("cut", [
        b'{"id": "cut", "cloud": [[0.5, 1',
        '{"id": "caf\u00e9"}'.encode()[:-3],  # inside the two-byte é
    ], ids=["mid-json", "mid-character"])
    def test_stdin_line_cut_off_at_eof(self, cut):
        # The last line has no newline: it is answered with one error
        # line, nothing counts it, and EOF still drains and exits 0 —
        # even where stdin decodes strictly (a UTF-8 locale).
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        cloud = np.random.default_rng(5).normal(size=(64, 3)).tolist()
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--scale", "0.0625"],
            input=json.dumps({"id": "ok", "cloud": cloud}).encode() + b"\n"
            + cut, capture_output=True, timeout=TIMEOUT, env=env,
        )
        assert done.returncode == 0, done.stderr.decode()
        answers = [json.loads(line) for line in done.stdout.splitlines()]
        errors = [a for a in answers if "error" in a]
        assert len(answers) == 2 and len(errors) == 1
        assert errors[0]["id"] is None
        assert [a["id"] for a in answers if "output" in a] == ["ok"]
        assert self._counted(done.stderr.decode()) == 1  # one submit

    def test_tcp_client_half_closing_mid_line(self):
        # A client that shuts its write side mid-line gets one error
        # line and the end of the stream; the server goes on to serve
        # the next connection.
        cloud = np.random.default_rng(5).normal(size=(64, 3)).tolist()
        with self._tcp_server() as (port, log):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=TIMEOUT) as conn:
                conn.sendall(b'{"id": "cut", "cloud": [[0.5, 1')
                conn.shutdown(socket.SHUT_WR)
                answers = conn.makefile("rb").readlines()
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=TIMEOUT) as conn:
                conn.sendall(
                    json.dumps({"id": "ok", "cloud": cloud}).encode() + b"\n")
                served = json.loads(conn.makefile("rb").readline())
        assert len(answers) == 1
        refused = json.loads(answers[0])
        assert refused["id"] is None and "error" in refused
        assert served["id"] == "ok" and len(served["output"]) > 0
        assert self._counted(log[0]) == 1  # one submit

    def test_tcp_handler_survives_undecodable_bytes(self):
        cloud = np.random.default_rng(5).normal(size=(64, 3)).tolist()
        with self._tcp_connection() as (conn, reader):
            conn.sendall(b'\xff\xfe{"id": "bad"}\n')
            refused = json.loads(reader.readline())
            conn.sendall(
                json.dumps({"id": "ok", "cloud": cloud}).encode() + b"\n")
            served = json.loads(reader.readline())
        assert refused["id"] is None and "error" in refused
        assert served["id"] == "ok" and len(served["output"]) > 0

    def test_tcp_handler_bounds_a_request_line(self):
        # An over-long line is discarded up to its newline and answered
        # with one error line; the connection goes on serving.
        cloud = np.random.default_rng(5).normal(size=(64, 3)).tolist()
        with self._tcp_connection() as (conn, reader):
            conn.sendall(b'{"id": "long", "cloud": "'
                         + b"x" * (2 * MAX_LINE_BYTES) + b'"}\n')
            refused = json.loads(reader.readline())
            conn.sendall(
                json.dumps({"id": "ok", "cloud": cloud}).encode() + b"\n")
            served = json.loads(reader.readline())
        assert refused["id"] is None
        assert f"{MAX_LINE_BYTES}-byte limit" in refused["error"]
        assert served["id"] == "ok" and len(served["output"]) > 0

    def test_stdin_bounds_a_request_line(self):
        # The bound --port has holds on stdin: a well-formed request
        # one byte past the limit is never parsed.  It is answered with
        # one error line naming the limit, and the next line is served.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        head, tail = b'{"id": "long", "cloud": "', b'"}'
        long = head + b"x" * (MAX_LINE_BYTES + 1 - len(head) - len(tail)) \
            + tail
        assert len(long) == MAX_LINE_BYTES + 1
        cloud = np.random.default_rng(5).normal(size=(64, 3)).tolist()
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--scale", "0.0625"],
            input=long + b"\n"
            + json.dumps({"id": "ok", "cloud": cloud}).encode() + b"\n",
            capture_output=True, timeout=TIMEOUT, env=env,
        )
        assert done.returncode == 0, done.stderr.decode()
        refused, served = map(json.loads, done.stdout.splitlines())
        assert refused == {"id": None, "error": "request line longer than "
                           f"the {MAX_LINE_BYTES}-byte limit"}
        assert served["id"] == "ok" and len(served["output"]) > 0
        assert self._counted(done.stderr.decode()) == 1  # one submit

    @pytest.mark.parametrize("argv, reason", [
        (["--network", "PointNet (x)"], "unknown network 'PointNet (x)'"),
        (["--scale", "0"], "scale factor must be positive"),
        (["--max-batch", "0"], "max_batch must be at least 1"),
        (["--shards", "0"], "slots must be positive, got 0"),
        (["--shards", "-2"], "slots must be positive, got -2"),
        # Refused before any replica thread starts.
        (["--shards", "65"], "slots must be at most 64, got 65"),
        # --cache-size is a total across the shards.
        (["--shards", "2", "--cache-size", "1"],
         "cache size 1 is smaller than the 2 shards it is split across"),
        # Lanes start eagerly: a count past the ceiling starts none.
        (["--workers", "65"], "workers must be in 1..64, got 65"),
        (["--workers", "0"], "workers must be in 1..64, got 0"),
        # The router runs one lane per replica.
        *((["--shards", "2", "--workers", workers],
           "--workers does not apply under --shards")
          for workers in ("4", "1")),
        (["--scale", "inf"], "scale factor must be positive and finite, "
                             "got inf"),
        (["--scale=-inf"], "scale factor must be positive and finite, "
                           "got -inf"),
        (["--scale", "nan"], "scale factor must be positive and finite, "
                             "got nan"),
        (["--port", "-1"], "port must be an integer in 0..65535, got '-1'"),
        (["--port", "65536"],
         "port must be an integer in 0..65535, got '65536'"),
        # A superscript digit is a digit to str.isdigit, not to int().
        (["--port", "\u00b2"], "port must be an integer in 0..65535, got '\u00b2'"),
    ])
    def test_bad_configuration_is_one_error_line(self, argv, reason):
        assert reason in self._refused_serve(argv)

    @staticmethod
    def _refused_serve(argv):
        """``repro serve ARGV`` with a request waiting on stdin: it must
        exit 2 with one ``repro serve: error:`` line and no traceback,
        before the request is read.  Returns that line."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", *argv],
            input='{"id": 1, "cloud": [[0, 0, 0]]}\n', capture_output=True,
            text=True, timeout=TIMEOUT, env=env,
        )
        assert done.returncode == 2 and done.stdout == ""
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("repro serve: error: ")
        assert "Traceback" not in done.stderr
        return errors[0]

    def test_a_port_in_use_is_one_error_line(self):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            error = self._refused_serve(
                ["--scale", "0.0625", "--port", str(port)])
        assert f"cannot listen on 127.0.0.1:{port}: " in error


class TestRequestLines:
    """The one bounded line reader stdin and ``--port`` both read
    requests through."""

    REFUSED = {"id": None, "error": "request line longer than the "
               f"{MAX_LINE_BYTES}-byte limit"}

    @staticmethod
    def read(data):
        errors = []
        lines = list(_request_lines(io.BytesIO(data), errors.append))
        return lines, errors

    def test_a_line_at_the_limit_is_yielded_whole(self):
        line = b"x" * MAX_LINE_BYTES
        lines, errors = self.read(line + b"\nnext\n")
        assert errors == []
        assert [len(line) for line in lines] == [MAX_LINE_BYTES, 4]

    @pytest.mark.parametrize("length", [
        MAX_LINE_BYTES + 1, 2 * MAX_LINE_BYTES, 3 * MAX_LINE_BYTES + 5])
    def test_an_over_long_line_is_one_error_and_the_next_is_read(
            self, length):
        # However many bounded reads the line spans, it is discarded up
        # to its newline and answered once.
        lines, errors = self.read(b"first\n" + b"x" * length + b"\nnext\n")
        assert lines == ["first", "next"]
        assert errors == [self.REFUSED]

    def test_an_over_long_last_line_without_a_newline_ends_the_stream(self):
        lines, errors = self.read(b"first\n" + b"x" * (MAX_LINE_BYTES + 1))
        assert lines == ["first"]
        assert errors == [self.REFUSED]

    def test_a_last_line_without_a_newline_is_yielded(self):
        assert self.read(b"first\nlast") == (["first", "last"], [])

    def test_blank_lines_are_skipped_and_padding_stripped(self):
        lines, errors = self.read(b"\n  \n\t a \r\n\r\n b\n\n")
        assert (lines, errors) == (["a", "b"], [])

    def test_bytes_that_are_not_utf8_decode_with_replacement(self):
        # The line reaches the JSON parser (and fails there) instead
        # of ending the loop; the line after it is still read.
        lines, errors = self.read(b'{"id": "\xff\xfe"}\nnext\n')
        assert lines == ['{"id": "��"}', "next"]
        assert errors == []

    def test_a_line_is_yielded_before_the_next_is_read(self):
        # The server answers a request before the client sends the next:
        # the reader must not read ahead of the line it yields.
        class Recording(io.BytesIO):
            reads = 0

            def readline(self, size=-1):
                self.reads += 1
                return super().readline(size)

        stream = Recording(b"one\ntwo\nthree\n")
        lines = _request_lines(stream, pytest.fail)
        assert next(lines) == "one" and stream.reads == 1
        assert next(lines) == "two" and stream.reads == 2


class TestResponseIds:
    """A response carries the request's ``id`` exactly as it was sent."""

    IDS = [5, True, {"k": [1, 2]}, [1, "a"], 2.5, "s", None]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_every_response_echoes_the_id_as_sent(self, shards):
        server = _build_server(build_parser().parse_args(
            ["serve", "--scale", "0.0625", "--shards", str(shards)]))
        [n] = server.served_sizes
        cloud = np.random.default_rng(3).normal(size=(n, 3)).tolist()
        answers = []
        with server:
            for index, rid in enumerate(self.IDS):
                request = {"cloud": cloud, "tenant": f"t{index}"}
                if rid is not None:
                    request["id"] = rid
                _serve_handle_line(server, json.dumps(request),
                                   answers.append)
                # The same ids on a refused request: an error response.
                _serve_handle_line(server, json.dumps(
                    dict(request, cloud=cloud[:-1])), answers.append)
        stats = server.stats()
        errors = [a for a in answers if "error" in a]
        served = {a["tenant"]: a for a in answers if "output" in a}
        assert len(errors) == len(served) == len(self.IDS)
        for index, rid in enumerate(self.IDS):
            echoed = served[f"t{index}"]["id"]
            if rid is None:
                assert re.fullmatch(r"r\d+", echoed)
            else:
                assert json.dumps(echoed) == json.dumps(rid)
        assert [json.dumps(a["id"]) for a in errors] \
            == [json.dumps(rid) for rid in self.IDS]
        assert (stats["completed"], stats["failed"], stats["rejected"]) \
            == (len(self.IDS), 0, len(self.IDS))


# ---------------------------------------------------------- command line


class TestCommandLine:
    def test_serve_keeps_its_options_and_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert {key: value for key, value in vars(args).items()
                if key != "command"} == {
            "network": None, "scale": 0.125, "strategy": "delayed",
            "max_queue": 64, "port": None, "max_batch": 8, "workers": None,
            "serve_backend": "float64", "cache_size": 256, "shards": 1,
        }

    @pytest.mark.parametrize("argv", [
        ["tune"],
        ["trace", "PointNet++ (c)", "--cache", "dir"],
    ], ids=["tune", "trace --cache"])
    def test_nothing_picks_a_configuration_for_the_caller(self, argv,
                                                          capsys):
        # Strategy and backend are the caller's flags: the autotuner's
        # command and its trace option are argparse errors (serve's
        # option set is pinned exactly by the test above).
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_a_reader_that_goes_away_ends_a_command_quietly(self):
        # ``repro trace ... | head -1``: the child prints one line, the
        # reader takes it and closes the pipe, then the child goes on.
        code = (
            "import builtins, sys\n"
            "import repro.cli\n"
            "first = builtins.print\n"
            "def print_then_wait(*args, **kwargs):\n"
            "    first(*args, **kwargs)\n"
            "    sys.stdout.flush()\n"
            "    builtins.print = first\n"
            "    sys.stdin.readline()\n"
            "builtins.print = print_then_wait\n"
            "sys.exit(repro.cli.main(['trace', 'PointNet++ (c)']))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline().startswith(b"PointNet++ (c)")
            proc.stdout.close()
            proc.stdin.write(b"\n")
            proc.stdin.close()
            assert proc.wait(timeout=TIMEOUT) == 1
            assert proc.stderr.read() == b""
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=TIMEOUT)
            proc.stderr.close()

    @pytest.mark.parametrize("command", ["bench", "compile"])
    def test_there_is_no_bench_command(self, command, capsys):
        # Serving is measured by benchmarks/ledger/ and correctness by
        # the tier-1 tests; there is no second measurement command, and
        # no ahead-of-time compile: every program compiles in process.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["int8", "eager"])
    def test_int8_is_not_a_backend_choice(self, backend, capsys):
        # The two float precisions of the compiled kernel program are the
        # only choices: no quantized backend, and no serve option routes
        # requests through the graph interpreter.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--serve-backend", backend])
        assert exc.value.code == 2
        assert f"invalid choice: '{backend}'" in capsys.readouterr().err


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

    def test_per_cloud_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="cannot split"):
            BatchResult(np.zeros((2, 4)), 3, 0.1).per_cloud()

    def test_batch_runner_close_is_uniform_noop(self, small_net):
        with BatchRunner(small_net) as runner:
            runner.close()  # idempotent, keeps the runner usable
        assert runner.run(np.zeros((1, small_net.n_points, 3))).batch_size == 1



# ------------------------------------------------ concurrent exactness


class TestConcurrentExactness:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("backend", [None, "float32"])
    def test_threads_and_tenants_replay_bit_exact(self, small_net,
                                                  small_clouds, backend,
                                                  workers):
        # Three submitter threads, two tenants, three distinct clouds:
        # whatever sub-batches form, each response equals its cloud
        # served alone, and every request ID is answered once.
        clouds = small_clouds[:3]
        direct = BatchRunner(small_net, backend=backend)
        alone = [direct.run(cloud[None]).per_cloud()[0] for cloud in clouds]

        def cloud_of(rid):
            thread, i = map(int, rid[1:].split("-"))
            return (thread + i) % len(clouds)

        futures = {}
        policy = BatchPolicy(max_batch=4, max_queue=64)
        with Server(BatchRunner(small_net, backend=backend), policy=policy,
                    workers=workers) as server:
            def submit(thread):
                for i in range(8):
                    rid = f"s{thread}-{i}"
                    futures[rid] = server.submit(
                        clouds[cloud_of(rid)], request_id=rid,
                        tenant=f"t{i % 2}")

            threads = [threading.Thread(target=submit, args=(t,))
                       for t in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT)
                assert not thread.is_alive()
            responses = {rid: f.result(timeout=TIMEOUT)
                         for rid, f in futures.items()}
            stats = server.stats()
        assert sorted(resp.request_id for resp in responses.values()) \
            == sorted(f"s{t}-{i}" for t in range(3) for i in range(8))
        assert (stats["completed"], stats["rejected"], stats["failed"]) \
            == (24, 0, 0)
        for rid, resp in responses.items():
            assert np.array_equal(resp.output, alone[cloud_of(rid)])


# ------------------------------------------------- the caller's contract


class TestStrategyAndBackendAreTheCallersFlags:
    """``delayed`` and ``original`` are different functions and float32
    is a precision contract, so nothing may pick either per request:
    every batch height runs exactly the flags the server was built with."""

    @pytest.mark.parametrize("backend", [None, "float32", "float64"])
    @pytest.mark.parametrize("strategy", ["original", "delayed", "limited"])
    def test_every_height_serves_the_flags(self, strategy, backend):
        server = Server.hosting("PointNet++ (c)", strategy=strategy,
                                scale=0.0625, backend=backend,
                                policy=BatchPolicy(max_batch=8))
        rng = np.random.default_rng(17)
        clouds, futures = {}, {}
        with server:
            [(n, runner)] = server._routes.items()
            # No backend is the default: the float64 program.
            assert (runner.strategy, runner.backend) \
                == (strategy, backend or "float64")
            gate = threading.Event()
            server._routes[n] = GatedRunner(runner, gate)

            def submit(rid):
                clouds[rid] = rng.normal(size=(n, 3))
                futures[rid] = server.submit(clouds[rid], request_id=rid)

            for height in (3, 8):
                gate.clear()
                submit(f"parked{height}")  # a batch of one holds the lane
                wait_until_taken(server)
                for i in range(height):
                    submit(f"h{height}-{i}")
                gate.set()
                responses = {rid: f.result(timeout=TIMEOUT)
                             for rid, f in futures.items()}
        assert sorted({r.batch_size for r in responses.values()}) == [1, 3, 8]
        direct = BatchRunner(runner.network, strategy=strategy,
                             backend=backend)
        for rid, resp in responses.items():
            alone = direct.run(clouds[rid][None]).per_cloud()[0]
            assert np.array_equal(resp.output, alone)
