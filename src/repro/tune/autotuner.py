"""Shape-keyed autotuning: measure once per workload shape, dispatch forever.

The paper's headline numbers come from picking the right execution
strategy per network, but the best *configuration* — strategy x kernel
backend x search substrate — shifts with the workload shape (which
network, how many points, what batch size).  The cost model
(:mod:`repro.profiling.cost_model`) predicts the strategy ordering
from MAC counts alone; this module closes the loop by *measuring*:
enumerate the configuration space for one shape key, gate every
candidate for correctness against the float64 reference of its own
strategy, time the survivors, and record the winner in a
:class:`TunedTable` that serializes through the AOT
:class:`~repro.backend.ProgramCache`.  A warm-cache :meth:`Autotuner.tune`
returns the stored table without constructing a single runner — zero
re-benchmarks — and the engine runners dispatch on the measured table
via ``BatchRunner(..., tuned=table)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..backend.aot import network_fingerprint
from ..core import STRATEGIES

__all__ = [
    "Autotuner",
    "TunedConfig",
    "TunedTable",
    "int8_backend_for",
    "shape_key",
]

#: Default search space: every strategy x backend tier, brute-force search.
DEFAULT_STRATEGIES = ("original", "delayed", "limited")
DEFAULT_BACKENDS = ("float64", "float32", "int8")
DEFAULT_SUBSTRATES = ("brute",)

#: Per-backend correctness gates against the float64 reference *of the
#: candidate's own strategy* — the strategies are the paper's
#: accuracy-preserving program transforms and legitimately compute
#: different floats, so the gate checks what tuning actually varies:
#: that backend precision doesn't change the answer.
#: A candidate that fails its tier's gate is recorded (the table tells
#: the whole story) but can never be selected as winner — the autotuner
#: must not trade correctness for speed.
GATE_MAX_REL_ERR = {"float64": 1e-8, "float32": 1e-3, "int8": float("inf")}
GATE_MIN_TOP1 = {"float64": 1.0, "float32": 0.99, "int8": 0.95}


def shape_key(network_name, n_points, batch):
    """The workload shape key a tuned entry is recorded under."""
    return f"{network_name}|{int(n_points)}|{int(batch)}"


def _split_shape_key(key):
    name, n_points, batch = key.rsplit("|", 2)
    return name, int(n_points), int(batch)


def int8_backend_for(network, strategy):
    """An :class:`~repro.backend.Int8Backend` calibrated for one network.

    Calibration runs the float64 reference program, which is far more
    expensive than the candidate measurement itself — so the calibrated
    backend is memoized on the network instance per strategy, shared by
    every autotune pass and every tuned dispatch that resolves an int8
    config for the same network object.
    """
    from ..backend.quant import Int8Backend, calibrate_scales

    memo = getattr(network, "_tuned_int8_backends", None)
    if memo is None:
        memo = {}
        network._tuned_int8_backends = memo
    backend = memo.get(strategy)
    if backend is None:
        backend = Int8Backend(scales=calibrate_scales(network, strategy))
        memo[strategy] = backend
    return backend


@dataclass(frozen=True)
class TunedConfig:
    """One measured point in the configuration space.

    ``ms`` is the best-of-repeats batch latency; ``gate_passed`` says
    whether the candidate met its backend tier's correctness gate, and
    ``gate`` carries the measured gate metrics (max relative error and
    top-1 agreement vs the reference) so a failing candidate explains
    itself.
    """

    strategy: str
    backend: str
    substrate: str = "brute"
    ms: float = float("inf")
    gate_passed: bool = True
    gate: dict = field(default_factory=dict)

    def key(self):
        """Stable identity of the configuration (shape-independent)."""
        return f"{self.strategy}|{self.backend}|{self.substrate}"

    def resolve_backend(self, network):
        """The kernel backend object/name a runner should be built with.

        The int8 tier needs activation scales calibrated against the
        live network; everything else dispatches by registry name.
        """
        if self.backend == "int8":
            return int8_backend_for(network, self.strategy)
        return self.backend

    def runner_kwargs(self, network):
        """Keyword arguments that configure a ``BatchRunner`` like this."""
        return {
            "strategy": self.strategy,
            "substrate": self.substrate,
            "backend": self.resolve_backend(network),
        }

    def to_json(self):
        return {
            "strategy": self.strategy,
            "backend": self.backend,
            "substrate": self.substrate,
            "ms": self.ms if np.isfinite(self.ms) else None,
            "gate_passed": bool(self.gate_passed),
            "gate": dict(self.gate),
        }

    @classmethod
    def from_json(cls, data):
        ms = data.get("ms")
        return cls(
            strategy=data["strategy"],
            backend=data["backend"],
            substrate=data.get("substrate", "brute"),
            ms=float("inf") if ms is None else float(ms),
            gate_passed=bool(data.get("gate_passed", True)),
            gate=dict(data.get("gate", {})),
        )


class TunedTable:
    """Measured winners per workload shape key, JSON round-trippable.

    Each entry records the winning :class:`TunedConfig` *and* every
    candidate that was considered (including gate failures and pruned
    configurations) plus the tuning metadata — the table is both a
    dispatch structure and the audit trail of how it was produced.
    """

    def __init__(self, network, fingerprint="", entries=None):
        self.network = network
        self.fingerprint = fingerprint
        self.entries = dict(entries or {})

    def add(self, key, config, candidates=(), meta=None):
        """Record one tuned shape: winner, full candidate list, metadata."""
        self.entries[key] = {
            "config": config.to_json(),
            "candidates": [c.to_json() for c in candidates],
            "meta": dict(meta or {}),
        }

    def entry(self, key):
        return self.entries.get(key)

    def config(self, key):
        entry = self.entries.get(key)
        return TunedConfig.from_json(entry["config"]) if entry else None

    def candidates(self, key):
        entry = self.entries.get(key) or {"candidates": []}
        return [TunedConfig.from_json(c) for c in entry["candidates"]]

    def lookup(self, network_name, n_points, batch):
        """The winning config for a shape, nearest batch as fallback.

        Exact shape-key hits win; otherwise the entry for the same
        network and point count with the nearest batch size (by log
        ratio — batch 6 is "closer" to 8 than to 2) serves, so a table
        tuned at batch 8 still dispatches a batch-5 request.  Returns
        ``None`` when no entry matches the network/point-count at all.
        """
        exact = self.config(shape_key(network_name, n_points, batch))
        if exact is not None:
            return exact
        best = None
        want = np.log(max(int(batch), 1))
        for key in sorted(self.entries):
            name, pts, b = _split_shape_key(key)
            if name != str(network_name) or pts != int(n_points):
                continue
            distance = abs(np.log(max(b, 1)) - want)
            if best is None or distance < best[0]:
                best = (distance, key)
        return self.config(best[1]) if best else None

    def to_json(self):
        return {
            "format": 1,
            "network": self.network,
            "fingerprint": self.fingerprint,
            "entries": {key: self.entries[key] for key in sorted(self.entries)},
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            network=data.get("network", ""),
            fingerprint=data.get("fingerprint", ""),
            entries=dict(data.get("entries", {})),
        )

    def describe(self):
        """Human-readable summary lines (the ``repro tune`` report body)."""
        lines = []
        for key in sorted(self.entries):
            entry = self.entries[key]
            config = TunedConfig.from_json(entry["config"])
            n_candidates = len(entry.get("candidates", ()))
            ms = f"{config.ms:.3f} ms" if np.isfinite(config.ms) else "-"
            lines.append(
                f"{key}: {config.key()} ({ms}, "
                f"{n_candidates} candidates measured)"
            )
        return lines


class Autotuner:
    """Enumerate, gate, measure, and record configurations per shape.

    Parameters
    ----------
    network:
        The :class:`~repro.networks.base.PointCloudNetwork` to tune.
    program_cache:
        Optional :class:`~repro.backend.ProgramCache` (or directory
        path).  When set, tuned tables persist across processes and a
        warm :meth:`tune` call returns the stored table without running
        a single benchmark; candidate kernel programs also AOT-cache.
    repeats:
        Best-of-``repeats`` timing per surviving candidate.
    seed:
        Seed for the probe clouds — fixed seed means a deterministic
        candidate record (timings vary; gate metrics do not).
    cache:
        Optional :class:`~repro.engine.cache.NeighborIndexCache`
        shared across candidate runs.
    """

    def __init__(self, network, program_cache=None, repeats=2, seed=2020,
                 cache=None):
        self.network = network
        if program_cache is not None and not hasattr(program_cache,
                                                     "store_tuned"):
            from ..backend import ProgramCache

            program_cache = ProgramCache(program_cache)
        self.program_cache = program_cache
        self.repeats = int(repeats)
        self.seed = int(seed)
        self.cache = cache
        #: Timed candidate measurements this instance actually ran —
        #: the warm-path acceptance counter (zero on a table hit).
        self.n_benchmarks = 0

    # -- search space --------------------------------------------------------

    def search_space(self, strategies=DEFAULT_STRATEGIES,
                     backends=DEFAULT_BACKENDS,
                     substrates=DEFAULT_SUBSTRATES):
        """The candidate grid, validated and in deterministic order."""
        for strategy in strategies:
            if strategy not in STRATEGIES:
                raise ValueError(f"unknown strategy {strategy!r}")
        for backend in backends:
            if backend not in GATE_MAX_REL_ERR:
                raise ValueError(f"no correctness gate for backend "
                                 f"{backend!r}")
        return [
            TunedConfig(strategy, backend, substrate)
            for strategy in strategies
            for backend in backends
            for substrate in substrates
        ]

    def _predicted_macs(self):
        """Cost-model prior: forward MACs per strategy (the paper's

        Fig. 7 quantity).  Used to order candidates cheapest-first and,
        with ``prune_ratio``, to skip strategies the model predicts are
        far off the best — the pruning decision is recorded in the
        table, never silent.
        """
        macs = {}
        for strategy in STRATEGIES:
            try:
                macs[strategy] = float(
                    self.network.trace(strategy).mlp_macs())
            except Exception:
                macs[strategy] = float("inf")
        return macs

    def _space_digest(self, space, batch):
        payload = json.dumps(
            {
                "space": [config.key() for config in space],
                "batch": int(batch),
                "seed": self.seed,
                "repeats": self.repeats,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- tuning --------------------------------------------------------------

    def _stored_table(self, fingerprint):
        if self.program_cache is None:
            return None
        data = self.program_cache.load_tuned(self.network.name, fingerprint)
        return None if data is None else TunedTable.from_json(data)

    def tune(self, batch=8, strategies=DEFAULT_STRATEGIES,
             backends=DEFAULT_BACKENDS, substrates=DEFAULT_SUBSTRATES,
             prune_ratio=None, report=None):
        """Tune one workload shape; returns the (possibly stored) table.

        The warm path is checked *before* any runner or probe batch is
        built: if the program cache already holds an entry for this
        shape key produced over the same search space/seed/repeats, the
        stored table is returned as-is and ``n_benchmarks`` stays
        untouched.

        ``prune_ratio``, when set (e.g. ``3.0``), skips candidates whose
        strategy the cost model predicts at more than that multiple of
        the cheapest strategy's MACs; skipped candidates are recorded in
        the table with ``gate["pruned"]`` set.  ``report``, when given a
        list, receives human-readable progress lines.
        """
        log = report if report is not None else []
        space = self.search_space(strategies, backends, substrates)
        digest = self._space_digest(space, batch)
        fingerprint = network_fingerprint(self.network)
        key = shape_key(self.network.name, self.network.n_points, batch)

        table = self._stored_table(fingerprint)
        if table is not None:
            entry = table.entry(key)
            if entry and entry.get("meta", {}).get("space") == digest:
                log.append(f"{key}: warm table hit (0 benchmarks)")
                return table
        if table is None:
            table = TunedTable(self.network.name, fingerprint)

        macs = self._predicted_macs()
        # Order by the cost-model prior so the predicted-best strategy
        # is measured first; ties keep the grid's deterministic order.
        space.sort(key=lambda c: macs.get(c.strategy, float("inf")))
        cheapest = min(macs.get(c.strategy, float("inf")) for c in space)

        references = {}
        candidates = []
        for config in space:
            predicted = macs.get(config.strategy, float("inf"))
            if (prune_ratio is not None and np.isfinite(cheapest)
                    and predicted > cheapest * float(prune_ratio)):
                candidates.append(TunedConfig(
                    config.strategy, config.backend, config.substrate,
                    ms=float("inf"), gate_passed=False,
                    gate={"pruned": True, "predicted_macs": predicted},
                ))
                log.append(f"{key}: pruned {config.key()} "
                           f"(cost model: {predicted:.0f} MACs)")
                continue
            reference = references.get(config.strategy)
            if reference is None:
                reference = self._reference_outputs(config.strategy, batch)
                references[config.strategy] = reference
            candidates.append(self._measure(config, batch, reference,
                                            predicted))
            log.append(f"{key}: measured {candidates[-1].key()} -> "
                       + (f"{candidates[-1].ms:.3f} ms"
                          if candidates[-1].gate_passed else "gate FAILED"))

        passed = [c for c in candidates if c.gate_passed]
        if not passed:
            raise RuntimeError(
                f"autotuning {key}: every candidate failed its "
                f"correctness gate"
            )
        winner = min(passed, key=lambda c: c.ms)
        table.add(key, winner, candidates, meta={
            "space": digest,
            "seed": self.seed,
            "repeats": self.repeats,
            "batch": int(batch),
            "reference": "per-strategy float64|brute",
            "predicted_macs": {s: m for s, m in macs.items()
                               if np.isfinite(m)},
            "pruned": [c.key() for c in candidates
                       if c.gate.get("pruned")],
        })
        log.append(f"{key}: winner {winner.key()} ({winner.ms:.3f} ms)")
        if self.program_cache is not None:
            self.program_cache.store_tuned(self.network.name, fingerprint,
                                           table.to_json())
        return table

    # -- measurement ---------------------------------------------------------

    def _probe_clouds(self, batch):
        rng = np.random.default_rng(self.seed)
        return rng.normal(size=(int(batch), self.network.n_points, 3))

    def _reference_outputs(self, strategy, batch):
        """Float64 outputs of one strategy — its gate's truth."""
        from .. import engine

        runner = engine.BatchRunner(self.network, strategy=strategy,
                                    substrate="brute", backend="float64")
        return runner.run(self._probe_clouds(batch)).outputs

    def _measure(self, config, batch, reference, predicted_macs):
        from .. import engine
        from ..engine.bench import _best_ms, _max_rel_err, _top1_fraction

        clouds = self._probe_clouds(batch)
        runner = engine.BatchRunner(
            self.network, cache=self.cache,
            program_cache=self.program_cache,
            **config.runner_kwargs(self.network),
        )
        outputs = runner.run(clouds).outputs
        rel = _max_rel_err(reference, outputs)
        top1 = _top1_fraction(reference, outputs)
        passed = (rel <= GATE_MAX_REL_ERR[config.backend]
                  and top1 >= GATE_MIN_TOP1[config.backend])
        gate = {
            "max_rel_err": float(rel) if np.isfinite(rel) else None,
            "top1_fraction": float(top1),
            "predicted_macs": (float(predicted_macs)
                               if np.isfinite(predicted_macs) else None),
        }
        ms = float("inf")
        if passed:
            ms = _best_ms(lambda: runner.run(clouds), self.repeats)
            self.n_benchmarks += 1
        return TunedConfig(config.strategy, config.backend,
                           config.substrate, ms=ms,
                           gate_passed=passed, gate=gate)
