"""Load generator for one ``repro serve`` subprocess.

One process drives the server over stdin/stdout JSON lines: the calling
thread is the only writer, one buffered reader thread stamps every
response the moment its line arrives.  Request lines are encoded by
:meth:`Requests.take` and responses decoded *between* timed phases, never
inside one, so the generator spends next to no CPU while the server works.  The
pure helpers at the top (Zipf ids, Poisson schedule, window rates, the
``/proc`` and stderr parsers) are unit-tested in ``test_ledger.py``.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

RESPONSE_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0


class ServeFailure(RuntimeError):
    """The server died, hung, or exited non-zero."""


# -- pure helpers ------------------------------------------------------------


def zipf_ids(rng, pool, count):
    """``count`` cloud indices in ``[0, pool)``, index ``i`` drawn ∝ 1/(i+1)."""
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64)
    return rng.choice(pool, size=count, p=weights / weights.sum())


def poisson_schedule(rng, rate, count):
    """Send offsets in seconds of ``count`` Poisson arrivals at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def window_deltas(values, size, start=0):
    """``values[i + size] - values[i]`` over contiguous windows of ``size`` samples.

    Windows share their boundaries and begin at index ``start``; a tail
    shorter than ``size`` is dropped.
    """
    return [values[i + size] - values[i]
            for i in range(start, len(values) - size, size)]


def percentile(values, q):
    """``q``-th percentile (0-100) of ``values``; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def parse_proc_stat_cpu(text, ticks_per_s):
    """``utime + stime`` in seconds from one ``/proc/<pid>/stat`` line."""
    # comm (field 2) may hold spaces and parentheses: split after its last ')'.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / ticks_per_s


def parse_proc_status_mb(text, key):
    """A ``kB`` entry of ``/proc/<pid>/status`` (e.g. ``VmHWM``) in MB."""
    match = re.search(rf"^{key}:\s+(\d+) kB$", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no {key} entry in /proc status")
    return int(match.group(1)) / 1024.0


def parse_host_steal(text):
    """``(steal, total)`` jiffies from the aggregate ``cpu`` line of ``/proc/stat``."""
    fields = [int(v) for v in text.split("\n", 1)[0].split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is inside user).
    return fields[7], sum(fields[:8])


_SERVED = re.compile(
    r"^served (\d+) request\(s\) in (\d+) sub-batch\(es\) "
    r"\(mean batch ([\d.]+), rejected (\d+), failed (\d+)\)$", re.MULTILINE)
_CACHE = re.compile(
    r"^neighbor-index cache: (\d+) hit\(s\), (\d+) miss\(es\), "
    r"(\d+) eviction\(s\) \(hit rate ([\d.]+), (\d+)/(\d+) entries\)$",
    re.MULTILINE)
_ROUTING = re.compile(
    r"^routing: (\d+) routed, (\d+) affinity hit\(s\), (\d+) spilled, "
    r"(\d+) rejected$", re.MULTILINE)
_SHARD = re.compile(
    r"^  shard (\d+): (\d+) completed, (\d+) sub-batch\(es\), "
    r"cache (\d+)/(\d+) hit/miss \(rate ([\d.]+)\), (\d+) eviction\(s\)$",
    re.MULTILINE)


def parse_serve_stats(stderr_text):
    """The drain counters ``repro.cli._print_serve_stats`` writes to stderr.

    Raises ``ValueError`` when the totals or cache line is missing, so a
    change to that format fails the benchmark instead of reading zeros.
    """
    served = _SERVED.search(stderr_text)
    cache = _CACHE.search(stderr_text)
    if served is None or cache is None:
        raise ValueError("serve stats lines not found on stderr "
                         "(did _print_serve_stats change its format?)")
    stats = {
        "completed": int(served.group(1)),
        "sub_batches": int(served.group(2)),
        "mean_batch": float(served.group(3)),
        "rejected": int(served.group(4)),
        "failed": int(served.group(5)),
        "cache_hits": int(cache.group(1)),
        "cache_misses": int(cache.group(2)),
        "cache_evictions": int(cache.group(3)),
        "per_shard_completed": [int(m.group(2))
                                for m in _SHARD.finditer(stderr_text)],
    }
    lookups = stats["cache_hits"] + stats["cache_misses"]
    stats["cache_hit_rate"] = stats["cache_hits"] / lookups if lookups else 0.0
    routing = _ROUTING.search(stderr_text)
    if routing is not None:
        stats["routed"] = int(routing.group(1))
        stats["affinity_hits"] = int(routing.group(2))
        stats["spilled"] = int(routing.group(3))
    return stats


def read_host_steal():
    return parse_host_steal(Path("/proc/stat").read_text())


# -- requests ----------------------------------------------------------------


@dataclass
class Call:
    """One request's client-side record; the reader fills in the response."""

    rid: str
    cloud: int  # index into the workload's cloud space (see Requests.cloud)
    line: bytes
    request_bytes: int
    keep: bool  # retain the decoded output for the output check
    phase: str = ""  # stamped when sent
    sent: float = 0.0  # perf_counter just before the write
    due: float = 0.0  # open loop: the scheduled send time; else == sent
    done: float | None = None
    raw: bytes = b""  # the response line, until the phase ends and it is decoded
    response_bytes: int = 0
    server_ms: float = 0.0
    queued_ms: float = 0.0
    batch_size: int = 0
    shape: tuple = ()
    output: np.ndarray | None = None
    error: str | None = None

    @property
    def latency_ms(self):
        """Client-observed latency, from when the request was due."""
        return (self.done - self.due) * 1e3


class Requests:
    """The seeded request stream of one workload.

    ``pool == 0``: request ``n`` carries cloud ``n``, so every cloud is
    distinct.  ``pool > 0``: clouds are drawn Zipf(1.0) from ``pool``
    distinct clouds.  The server only ever sees the encoded lines.
    """

    #: One response in ``KEEP_EVERY`` keeps its decoded output for the check.
    KEEP_EVERY = 8

    def __init__(self, seed, n_points, pool=0):
        self.seed = int(seed)
        self.n_points = int(n_points)
        self._next = 0
        self._ids = None
        if pool:
            self._ids = zipf_ids(np.random.default_rng([self.seed, 1]),
                                 pool, 1 << 16)
        self._encoded = {}  # pool index -> cloud JSON (pool clouds repeat)

    def cloud_index(self, n):
        """Which cloud request number ``n`` carries."""
        return n if self._ids is None else int(self._ids[n % len(self._ids)])

    def cloud(self, index):
        """Cloud ``index``: reproducible from (seed, index) alone."""
        rng = np.random.default_rng([self.seed, 2, index])
        return rng.standard_normal((self.n_points, 3)).round(4)

    def _cloud_json(self, index):
        if self._ids is None:
            return json.dumps(self.cloud(index).tolist())
        text = self._encoded.get(index)
        if text is None:
            text = self._encoded[index] = json.dumps(self.cloud(index).tolist())
        return text

    def take(self, count):
        """The next ``count`` requests, encoded (call between timed phases)."""
        calls = []
        for n in range(self._next, self._next + count):
            index = self.cloud_index(n)
            line = (f'{{"id": "r{n}", "cloud": {self._cloud_json(index)}}}\n'
                    .encode())
            calls.append(Call(rid=f"r{n}", cloud=index, line=line,
                              request_bytes=len(line),
                              keep=n % self.KEEP_EVERY == 0))
        self._next += count
        return calls


# -- the server subprocess ---------------------------------------------------


#: The id leads every response line, so the reader can match the arrival to
#: its request without decoding the (possibly 540 KB) payload.
_RESPONSE_ID = re.compile(rb'\{"id": "([^"]+)"')


class ServeProcess:
    """A ``python -m repro.cli serve`` child and its reader thread.

    Use as a context manager: leaving the block kills a child that is
    still running, so a timeout or an exception never leaks a process.
    """

    def __init__(self, argv, stderr_path):
        self.stderr_path = Path(stderr_path)
        self.calls = {}  # rid -> Call, every request ever written
        self.stray = []  # response lines that match no outstanding request
        self._slots = threading.Semaphore(0)
        self._ticks = os.sysconf("SC_CLK_TCK")
        self._stderr = open(self.stderr_path, "wb")
        self.spawned = time.perf_counter()
        # A large reader buffer: the default reads a 540 KB response line in
        # 8 KB pieces.  It also buffers stdin, hence the flush per request.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT, bufsize=1 << 20,
        )
        # ... and a 1 MB kernel pipe to match: in the default 64 KB one the
        # server's write of a per-point response blocks until this process
        # gets round to reading, which bills generator scheduling to the server.
        fcntl.fcntl(self.proc.stdout, fcntl.F_SETPIPE_SZ, 1 << 20)
        self._reader = threading.Thread(target=self._read,
                                        name="ledger-reader", daemon=True)
        self._reader.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass  # a killed child's pipe may refuse the final flush
        self._stderr.close()

    # -- reader --------------------------------------------------------------

    def _read(self):
        # Stamp and hand over, nothing else: decoding a per-point response
        # takes ~8 ms of CPU, and on a 2-CPU box spending that while the
        # server works lowers the capacity it measures (by ~7 % when probed).
        for raw in self.proc.stdout:
            now = time.perf_counter()
            head = _RESPONSE_ID.match(raw)
            call = self.calls.get(head.group(1).decode()) if head else None
            if call is None or call.done is not None:
                self.stray.append(raw[:200])  # unknown, duplicate or no id
            else:
                call.done = now
                call.raw = raw
            self._slots.release()

    @staticmethod
    def _decode(call):
        """Fill in the response fields; runs after the phase, off the clock."""
        if call.done is None:
            return  # a stray line took its slot; check() reports it unanswered
        raw, call.raw = call.raw, b""
        call.response_bytes = len(raw)
        try:
            payload = json.loads(raw)
            if "error" in payload:
                call.error = str(payload["error"])
                return
            call.server_ms = float(payload["latency_ms"])
            call.queued_ms = float(payload["queued_ms"])
            call.batch_size = int(payload["batch_size"])
            output = np.asarray(payload["output"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            call.error = f"malformed response: {exc!r}"
            return
        call.shape = output.shape
        if call.keep:
            call.output = output

    # -- writer --------------------------------------------------------------

    def _send(self, call, phase, due=None):
        self.calls[call.rid] = call
        call.phase = phase
        call.sent = time.perf_counter()
        call.due = call.sent if due is None else due
        try:
            self.proc.stdin.write(call.line)
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise ServeFailure(f"server stdin closed: {exc!r}") from exc
        call.line = b""

    def _await(self, count=1):
        for _ in range(count):
            if not self._slots.acquire(timeout=RESPONSE_TIMEOUT_S):
                raise ServeFailure(
                    f"no response within {RESPONSE_TIMEOUT_S:.0f} s")

    def closed_loop(self, calls, concurrency, phase):
        """Send ``calls`` keeping ``concurrency`` outstanding; returns them.

        Returns once every response has arrived and been decoded, so the
        server is idle again by then.
        """
        for sent, call in enumerate(calls):
            if sent >= concurrency:
                self._await()
            self._send(call, phase)
        self._await(min(concurrency, len(calls)))
        for call in calls:
            self._decode(call)
        return calls

    def open_loop(self, calls, offsets, phase):
        """Send each call at its scheduled offset whatever the server does."""
        start = time.perf_counter() + 0.01
        for call, offset in zip(calls, offsets):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._send(call, phase, due=due)
        self._await(len(calls))
        for call in calls:
            self._decode(call)

    # -- process counters ----------------------------------------------------

    def cpu_seconds(self):
        """Server-process ``utime + stime`` so far (all its threads)."""
        text = Path(f"/proc/{self.proc.pid}/stat").read_text()
        return parse_proc_stat_cpu(text, self._ticks)

    def peak_rss_mb(self):
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        return parse_proc_status_mb(text, "VmHWM")

    def drain(self):
        """EOF, wait for the drain and exit; returns the parsed stderr stats."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ServeFailure("server did not drain after EOF") from exc
        self._reader.join(timeout=RESPONSE_TIMEOUT_S)
        self._stderr.flush()
        if code != 0:
            raise ServeFailure(f"server exited with code {code}")
        return parse_serve_stats(self.stderr_path.read_text())
