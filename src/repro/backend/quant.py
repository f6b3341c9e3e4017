"""Int8 quantized backend: reference-calibrated scales, saturating GEMMs.

The quantization scheme is symmetric and post-training:

* **weights** carry per-output-channel scales — ``max|w| / 127`` per
  column of the ``(in, out)`` GEMM operand, so one saturated outlier
  channel cannot flatten every other channel's resolution;
* **activations** carry one per-tensor scale per *graph site* (the
  :class:`~repro.backend.params.ParameterTable` entry key of the
  segment consuming them), calibrated by running the **float64
  reference program** over seeded standard-normal batches with a
  :class:`CalibrationRecorder` attached through the existing
  ``run(on_kernel=...)`` hook.  Calibration is a
  deterministic function of (weights, strategy, seed): two runs
  produce byte-identical :class:`ScaleTable` serializations, which
  keeps :class:`~repro.backend.aot.ProgramCache` digests stable.

The kernel itself (:meth:`Int8Backend.qmatmul`) quantizes its input
with saturating round-to-nearest at ±127, multiplies int8 × int8 with
**int32 accumulation** (integer addition is associative, so quantized
GEMMs are bit-reproducible under any batch composition — stronger than
the BLAS float paths), and dequantizes per output channel back to
float32.  Everything dtype-sensitive *around* the GEMMs — neighbor
search, inverse-distance interpolation, aggregation, batch norm —
stays in float32: :attr:`Int8Backend.dtype` is ``float32``, so
inter-kernel activations, arena buffers and searches never see int8.

Quantized segments pack as ``("qlinear", qweight, w_scale, bias,
a_scale)`` ops whose parts are all ndarrays, so the existing
:class:`~repro.backend.params.ParameterTable` machinery — content
hashing, :meth:`~repro.backend.params.ParameterTable.pack` /
``from_buffer`` zero-copy loading from the program cache — works on int8
tables unchanged.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref

import numpy as np

from .array import ArrayBackend, get_backend

__all__ = [
    "CALIBRATION_SEED",
    "CalibrationRecorder",
    "Int8Backend",
    "QMAX",
    "ScaleTable",
    "calibrate_scales",
    "dequantize",
    "quantize",
    "quantize_weight",
    "weight_scales",
]

#: Symmetric signed-int8 saturation bound.  ±127 (not -128) keeps the
#: grid symmetric, so negation commutes with quantization.
QMAX = 127

#: Default seed of the calibration workload (seeded standard-normal
#: batches).
CALIBRATION_SEED = 2020


def quantize(x, scale):
    """Saturating symmetric quantization: ``clip(rint(x / scale), ±127)``.

    ``scale`` broadcasts, so a per-channel ``(out,)`` scale row
    quantizes an ``(in, out)`` weight in one call.  Values beyond
    ``±127 * scale`` saturate exactly to ±127.
    """
    q = np.rint(np.asarray(x) / scale)
    np.clip(q, -QMAX, QMAX, out=q)
    return q.astype(np.int8)


def dequantize(q, scale):
    """Back to float32: ``q * scale`` (scale broadcasts per channel)."""
    return np.asarray(q, dtype=np.float32) * np.asarray(scale,
                                                        dtype=np.float32)


def weight_scales(weight):
    """Per-output-channel scales of an ``(in, out)`` GEMM weight.

    ``max|w| / 127`` down each column, as float32.  An all-zero channel
    gets scale 1.0 — any scale maps 0 to 0, and 1.0 keeps the
    dequantization factor finite.
    """
    amax = np.max(np.abs(np.asarray(weight, dtype=np.float64)), axis=0)
    scales = amax / QMAX
    scales[scales == 0.0] = 1.0
    return scales.astype(np.float32)


def quantize_weight(weight):
    """``(qweight int8, w_scale float32)`` for one GEMM weight."""
    scales = weight_scales(weight)
    qweight = quantize(np.asarray(weight, dtype=np.float64),
                       scales.astype(np.float64))
    return np.ascontiguousarray(qweight), scales


class ScaleTable:
    """Per-site activation ranges from one calibration pass.

    Keys are the graph sites the parameter table itself uses —
    ``("module", midx, layer, variant)`` / ``("ref", ref, stage)`` —
    so one table serves every program compiled from the same network
    graph.  Serialization uses
    ``float.hex`` so equal tables are byte-identical, never merely
    close: the determinism regression test (and the program-cache
    digest stability it guards) compares the JSON bytes directly.
    """

    def __init__(self, amax):
        self.amax = {tuple(site): float(peak) for site, peak in amax.items()}

    def scale(self, site):
        """The float32 activation scale of one graph site."""
        site = tuple(site)
        if site not in self.amax:
            raise KeyError(
                f"no calibrated activation range for site {site!r}; "
                "the scale table was calibrated on a different graph"
            )
        peak = self.amax[site]
        return np.float32(peak / QMAX) if peak > 0.0 else np.float32(1.0)

    def sites(self):
        return sorted(self.amax, key=repr)

    def to_json(self):
        """Canonical byte-stable serialization (``float.hex`` values)."""
        entries = [[list(site), self.amax[site].hex()]
                   for site in self.sites()]
        return json.dumps(
            {"format": 1, "kind": "scale-table", "qmax": QMAX,
             "amax": entries},
            sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if data.get("kind") != "scale-table":
            raise ValueError("not a serialized scale table")
        return cls({tuple(site): float.fromhex(peak)
                    for site, peak in data["amax"]})

    @property
    def content_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def __eq__(self, other):
        return isinstance(other, ScaleTable) and self.amax == other.amax

    def __len__(self):
        return len(self.amax)

    def __repr__(self):
        return f"ScaleTable({len(self.amax)} sites, " \
               f"{self.content_hash[:12]})"


class CalibrationRecorder:
    """Records per-site activation peaks during a reference-program run.

    Pass one as ``on_kernel=`` to
    :meth:`~repro.backend.runtime.KernelProgram.run`: the runtime
    additionally routes :meth:`observe` (through ``ctx["observe"]``)
    the graph site and input array of every linear segment — including
    the intermediates of folded GEMM chains, which never appear in the
    kernel environment the ``on_kernel`` hook sees.
    """

    def __init__(self):
        self.amax = {}

    def observe(self, site, x):
        peak = float(np.max(np.abs(x))) if x.size else 0.0
        site = tuple(site)
        if peak > self.amax.get(site, -1.0):
            self.amax[site] = peak

    def __call__(self, pos, label, env, ctx):
        """The per-kernel hook is a no-op; capture happens in observe."""

    def table(self):
        return ScaleTable(self.amax)


def calibrate_scales(network, strategy, batch=8, rounds=2,
                     seed=CALIBRATION_SEED, clouds=None):
    """Calibrate a :class:`ScaleTable` against the float64 reference.

    Runs the float64 reference program with a
    :class:`CalibrationRecorder` attached — over ``rounds`` seeded
    standard-normal batches by default, or over an explicit
    ``(B, n_points, 3)`` calibration set when ``clouds`` is given (the
    trained-agreement test calibrates on its training clouds).  Everything here is
    deterministic under a fixed seed — same weights, same strategy,
    same seed/clouds ⇒ byte-identical table.
    """
    from ..neural import no_grad
    from .runtime import KernelProgram

    ngraph = network.network_graph(strategy)
    program = KernelProgram(ngraph, network, get_backend("float64"))
    recorder = CalibrationRecorder()
    with no_grad():
        if clouds is not None:
            program.run(np.asarray(clouds, dtype=np.float64),
                        on_kernel=recorder)
        else:
            rng = np.random.default_rng(seed)
            for _ in range(max(1, int(rounds))):
                batch_clouds = rng.normal(
                    size=(int(batch), network.n_points, 3))
                program.run(batch_clouds, on_kernel=recorder)
    return recorder.table()


class Int8Backend(ArrayBackend):
    """Int8 GEMM cores inside a float32 activation envelope.

    ``dtype`` is float32, so every inter-kernel activation, scratch
    buffer, neighbor search and aggregation runs exactly as on the
    float32 backend; only the inside of each linear segment dips to
    int8 (quantize input → int8 GEMM with int32 accumulation →
    per-channel dequantize).  Scales come from ``scales=`` when given,
    otherwise the backend auto-calibrates once per (weight
    fingerprint, strategy) on first export and memoizes — a program
    that loads a packed table never calibrates at all.
    """

    name = "int8"
    dtype = np.dtype(np.float32)

    def __init__(self, scales=None, calibration_batch=8,
                 calibration_rounds=2, calibration_seed=CALIBRATION_SEED):
        self.preset_scales = scales
        self.calibration_batch = int(calibration_batch)
        self.calibration_rounds = int(calibration_rounds)
        self.calibration_seed = int(calibration_seed)
        self._scale_cache = {}
        self._shadows = {}
        self._lock = threading.Lock()

    # -- calibration ---------------------------------------------------------

    def scales_for(self, ngraph, network=None):
        """The scale table for one network graph, calibrating at most once."""
        if self.preset_scales is not None:
            return self.preset_scales
        if network is None:
            raise ValueError(
                "int8 export needs the live network to calibrate "
                "activation scales against the float64 reference"
            )
        from .aot import network_fingerprint

        key = (network_fingerprint(network), ngraph.strategy)
        with self._lock:
            cached = self._scale_cache.get(key)
        if cached is not None:
            return cached
        table = calibrate_scales(
            network, ngraph.strategy, batch=self.calibration_batch,
            rounds=self.calibration_rounds, seed=self.calibration_seed,
        )
        with self._lock:
            return self._scale_cache.setdefault(key, table)

    def segment_packer(self, ngraph, network=None):
        """The per-Linear packing hook ``ParameterTable.for_graph`` calls.

        Returns a closure over this graph's scale table; each call
        packs one segment head as a ``("qlinear", qweight int8,
        w_scale float32, bias float32|None, a_scale float32)`` op.
        """
        scales = self.scales_for(ngraph, network)

        def pack(linear, site, weight_only):
            qweight, w_scale = quantize_weight(linear.weight.data)
            bias = None
            if not weight_only and linear.bias is not None:
                bias = np.ascontiguousarray(
                    np.asarray(linear.bias.data).astype(np.float32)
                )
            a_scale = np.asarray([scales.scale(site)], dtype=np.float32)
            return ("qlinear", qweight, w_scale, bias, a_scale)

        return pack

    # -- kernels -------------------------------------------------------------

    def _weight_shadow(self, qweight):
        """A BLAS-ready float view of one packed int8 weight, cached.

        numpy's integer matmul never reaches BLAS, so the GEMM runs
        over integer-*valued* floats instead: every int8 product is
        exact in float32 while partial sums stay below 2**24, i.e. for
        up to ``2**24 / 127**2 ≈ 1040`` input channels; wider weights
        shadow in float64, where int8 accumulation is exact up to
        2**53.  Either way the result is bit-identical to an int8 ×
        int8 → int32 GEMM.  Shadows are cached per weight (weakref
        eviction) — one cast per program lifetime, not per call.
        """
        key = id(qweight)
        with self._lock:
            entry = self._shadows.get(key)
            if entry is not None and entry[0]() is qweight:
                return entry[1]
        dtype = np.float32 if qweight.shape[0] * QMAX * QMAX < 2 ** 24 \
            else np.float64
        shadow = np.ascontiguousarray(qweight, dtype=dtype)
        ref = weakref.ref(qweight,
                          lambda _: self._shadows.pop(key, None))
        with self._lock:
            self._shadows[key] = (ref, shadow)
        return shadow

    def qmatmul(self, x, qweight, w_scale, a_scale, out=None):
        """Quantized GEMM: int8 × int8 → int32, dequantized to float32.

        The activation quantizes with saturating round-to-nearest at
        ±127 in float32 — exactly :func:`quantize` — and the integer
        accumulation runs through a BLAS GEMM over the weight's float
        shadow (see :meth:`_weight_shadow`; bit-identical to int32
        accumulation, so the result is independent of batch
        composition).  ``out`` receives the dequantized float32
        product.
        """
        scale = np.float32(a_scale[0])
        shadow = self._weight_shadow(qweight)
        q = np.rint(np.asarray(x, dtype=np.float32) / scale)
        np.clip(q, -QMAX, QMAX, out=q)
        if shadow.dtype != np.float32:
            q = q.astype(shadow.dtype)
        acc = np.matmul(q, shadow)
        if out is None:
            out = np.empty(acc.shape, dtype=self.dtype)
        return np.multiply(acc, w_scale * scale, out=out)
