"""Tests for the int8 quantized backend (:mod:`repro.backend.quant`).

Covers the backend registry (``"int8"`` / ``np.int8`` resolution, the
unknown-backend error listing), quantize/dequantize properties
(hypothesis: round-trip error bounds, saturation, zero/outlier
channels, non-contiguous inputs, BLAS-shadow exactness against the
int32 reference GEMM), the cross-path differential matrix (int8 vs
float64 across all seven networks × three strategies, single +
batched + async + process-pool + serve paths), trained-network top-1
agreement, parameter-table packing/zero-copy transport of quantized
segments, and calibration determinism.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from test_backend import (
    STRATEGIES,
    clouds_for,
    leaves,
    toy,
)

from repro.backend import (
    CalibrationRecorder,
    Int8Backend,
    KernelProgram,
    NetworkKernelExecutor,
    NumpyBackend,
    ParameterTable,
    ScaleTable,
    calibrate_scales,
    get_backend,
    network_skeleton,
    registered_backends,
)
from repro.backend.quant import (
    QMAX,
    dequantize,
    quantize,
    quantize_weight,
    weight_scales,
)
from repro.engine import AsyncRunner, BatchRunner
from repro.networks import ALL_NETWORKS
from repro.neural import no_grad

#: One calibrating backend for the whole module: scale tables memoize
#: per (network fingerprint, strategy), so the differential matrix
#: calibrates each cell once (default calibration workload — starving
#: it saturates activations and inflates quantization error).
QUANT = Int8Backend()

#: Loose int8 noise ceiling for *random-weight* toy networks.  Per-GEMM
#: quantization error is ~1%, compounding over each network's depth —
#: and regression heads (the F-PointNet box output) divide that noise
#: by a small output magnitude.  This bound only screens for broken
#: scales (10x-100x errors, NaN); the trained-network test below pins
#: the tight top-1 story.
RANDOM_NET_REL_TOL = 0.9


def rel_err(reference, other):
    worst = 0.0
    for a, b in leaves(reference, other):
        b = np.asarray(b, dtype=np.float64)
        scale = np.abs(a).max()
        assert np.isfinite(b).all()
        if scale > 0.0:
            worst = max(worst, float(np.abs(b - a).max() / scale))
    return worst


class TestRegistry:
    def test_int8_resolution_is_a_singleton(self):
        backend = get_backend("int8")
        assert isinstance(backend, Int8Backend)
        assert get_backend("int8") is backend
        assert get_backend(np.int8) is backend
        assert get_backend(np.dtype("int8")) is backend
        assert get_backend(backend) is backend

    def test_registered_backends_lists_all_three(self):
        assert registered_backends() == ["float32", "float64", "int8"]

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            get_backend("int4")
        message = str(excinfo.value)
        for name in ("float32", "float64", "int8"):
            assert name in message

    def test_numpy_backend_still_rejects_integer_dtypes(self):
        with pytest.raises(ValueError, match="floating"):
            NumpyBackend(np.int8)

    def test_float_backends_refuse_qlinear_segments(self):
        qweight = np.zeros((2, 2), dtype=np.int8)
        ones = np.ones(2, dtype=np.float32)
        for name in ("float64", "float32"):
            with pytest.raises(ValueError, match="quantized"):
                get_backend(name).qmatmul(np.zeros((1, 2)), qweight,
                                          ones, None, ones[:1])

    def test_dtype_policy(self):
        backend = get_backend("int8")
        assert backend.dtype == np.float32
        assert backend.search_dtype == np.float32
        assert backend.name == "int8"

    def test_backend_pickles_without_its_lock(self):
        backend = Int8Backend(scales=ScaleTable({("x",): 1.0}))
        clone = pickle.loads(pickle.dumps(backend))
        assert isinstance(clone, Int8Backend)
        assert clone.preset_scales == backend.preset_scales
        assert clone._lock is not backend._lock


finite_activations = st.floats(min_value=-50, max_value=50,
                               allow_nan=False, allow_infinity=False,
                               width=64)
scales_st = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False,
                      allow_infinity=False, width=64)


class TestQuantizeProperties:
    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, (7, 5), elements=finite_activations),
           scales_st)
    def test_round_trip_error_within_half_step(self, x, scale):
        recovered = dequantize(quantize(x, scale), np.float32(scale))
        clipped = np.clip(x, -QMAX * scale, QMAX * scale)
        # Half a quantization step, plus float32 dequant rounding.
        assert np.abs(recovered - clipped).max() <= \
            0.5 * scale + 1e-5 * QMAX * scale

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (4, 3), elements=finite_activations),
           scales_st)
    def test_saturation_clamps_to_qmax(self, x, scale):
        big = np.concatenate([x, [[1e6, -1e6, 2e6 * scale]]])
        q = quantize(big, scale)
        assert q.dtype == np.int8
        assert q.max() <= QMAX and q.min() >= -QMAX
        assert q[-1, 0] == QMAX and q[-1, 1] == -QMAX

    def test_exact_saturation_boundary(self):
        scale = np.float32(0.5)
        x = np.array([QMAX * 0.5, -QMAX * 0.5, QMAX * 0.5 + 0.24,
                      QMAX * 0.5 + 0.26])
        assert quantize(x, scale).tolist() == [QMAX, -QMAX, QMAX, QMAX]

    def test_all_zero_channel_gets_unit_scale(self):
        weight = np.zeros((6, 3))
        weight[:, 0] = np.linspace(-2, 2, 6)
        scales = weight_scales(weight)
        assert scales.dtype == np.float32
        assert scales[1] == 1.0 and scales[2] == 1.0
        qweight, w_scale = quantize_weight(weight)
        assert qweight.dtype == np.int8
        assert not qweight[:, 1].any() and not qweight[:, 2].any()
        assert np.array_equal(w_scale, scales)

    def test_single_outlier_does_not_flatten_other_channels(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(32, 4))
        weight[:, 0] *= 1e4  # outlier channel
        qweight, w_scale = quantize_weight(weight)
        recovered = dequantize(qweight, w_scale)
        for channel in range(4):
            err = np.abs(recovered[:, channel] - weight[:, channel]).max()
            assert err <= 0.51 * w_scale[channel] + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_qmatmul_matches_int32_reference_gemm(self, k, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, k)).astype(np.float32) * 3
        weight = rng.normal(size=(k, m))
        qweight, w_scale = quantize_weight(weight)
        a_scale = np.asarray([np.abs(x).max() / QMAX + 1e-6],
                             dtype=np.float32)
        backend = get_backend("int8")
        out = backend.qmatmul(x, qweight, w_scale, a_scale)
        acc = np.matmul(quantize(x, np.float32(a_scale[0])), qweight,
                        dtype=np.int32)
        reference = np.multiply(acc, w_scale * np.float32(a_scale[0]),
                                out=np.empty(acc.shape, dtype=np.float32))
        assert out.dtype == np.float32
        assert np.array_equal(out, reference)

    def test_qmatmul_non_contiguous_input_bit_exact(self):
        rng = np.random.default_rng(3)
        wide = rng.normal(size=(6, 16)).astype(np.float32)
        x = wide[:, ::2]  # non-contiguous view
        assert not x.flags["C_CONTIGUOUS"]
        weight = rng.normal(size=(8, 4))
        qweight, w_scale = quantize_weight(weight)
        a_scale = np.asarray([0.03], dtype=np.float32)
        backend = get_backend("int8")
        out = backend.qmatmul(x, qweight, w_scale, a_scale)
        contiguous = backend.qmatmul(np.ascontiguousarray(x), qweight,
                                     w_scale, a_scale)
        assert np.array_equal(out, contiguous)

    def test_qmatmul_saturating_requantization(self):
        # Activations 100x beyond the calibrated range must clip to
        # ±127, never wrap or overflow.
        backend = get_backend("int8")
        x = np.array([[100.0, -100.0]], dtype=np.float32)
        weight = np.eye(2)
        qweight, w_scale = quantize_weight(weight)
        a_scale = np.asarray([1.0 / QMAX], dtype=np.float32)
        out = backend.qmatmul(x, qweight, w_scale, a_scale)
        # Saturated activation (±127) times the quantized identity
        # (127 on the diagonal) dequantizes to exactly ±127 * a_scale
        # * 127 * w_scale = ±1.0 — the top of the calibrated range.
        assert np.allclose(out, [[1.0, -1.0]])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ALL_NETWORKS)
class TestDifferentialMatrix:
    """int8 vs float64 over every network × strategy, stacks and single
    clouds."""

    def test_int8_tracks_float64(self, name, strategy):
        net = toy(name)
        ngraph = net.network_graph(strategy)
        reference = KernelProgram(ngraph, net, get_backend("float64"))
        quantized = KernelProgram(ngraph, net, QUANT)
        assert any(op[0] == "qlinear" for ops in
                   quantized.table.entries.values() for op in ops)
        clouds = clouds_for(net, 4, seed=11)
        expected = reference.run(clouds)
        observed = quantized.run(clouds)
        assert rel_err(expected, observed) <= RANDOM_NET_REL_TOL

        # Quantized inference is deterministic and batch-composition
        # independent: rerunning, and re-running a prefix of the batch,
        # reproduces the same bits (integer accumulation).
        rerun = quantized.run(clouds)
        for a, b in leaves(observed, rerun):
            assert np.array_equal(a, b)
        prefix = quantized.run(clouds[:2])
        for full, part in leaves(observed, prefix):
            assert np.array_equal(np.asarray(full)[:2], part)

        # A single cloud — a stack of one through the front door —
        # shares the calibrated scales and must track the float64
        # program just as closely.
        with no_grad():
            single_ref = net.forward(
                clouds[0], strategy=strategy,
                executor=NetworkKernelExecutor("float64"))
            single_q = net.forward(clouds[0], strategy=strategy,
                                   executor=NetworkKernelExecutor(QUANT))
        assert rel_err(single_ref, single_q) <= RANDOM_NET_REL_TOL


class TestTrainedAgreement:
    def test_top1_agreement_on_trained_classifier(self):
        # Quantized top-1 preservation is a statement about decisive
        # predictions — train briefly so margins are real, calibrate on
        # the training clouds, then require >= 99% agreement on every
        # strategy (the same protocol the quant bench row gates in CI).
        from repro.data import SyntheticModelNet
        from repro.networks import build_network, train_classifier

        dataset = SyntheticModelNet(num_classes=4, n_points=256,
                                    train_per_class=8, test_per_class=24,
                                    seed=0, rotate=False)
        net = build_network("PointNet++ (c)", num_classes=4, scale=0.125,
                            rng=np.random.default_rng(0))
        n = net.n_points
        train_clouds = dataset.train_clouds[:, :n]
        train_classifier(net, train_clouds, dataset.train_labels,
                         epochs=3, lr=1e-3, strategy="delayed", seed=1)
        net.eval()
        eval_clouds = np.concatenate(
            [train_clouds, dataset.test_clouds[:, :n]])
        for strategy in STRATEGIES:
            scales = calibrate_scales(net, strategy, clouds=train_clouds)
            backend = Int8Backend(scales=scales)
            expected = BatchRunner(net, strategy=strategy,
                                   backend="float64").run(eval_clouds)
            observed = BatchRunner(net, strategy=strategy,
                                   backend=backend).run(eval_clouds)
            agree = total = 0
            for a, b in leaves(expected.outputs, observed.outputs):
                b = np.asarray(b)
                agree += int((a.argmax(-1) == b.argmax(-1)).sum())
                total += a.reshape(-1, a.shape[-1]).shape[0]
            assert agree / total >= 0.99, (strategy, agree, total)


class TestEnginePaths:
    def test_batch_runner_matches_kernel_program(self):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3, seed=5)
        program = KernelProgram(net.network_graph("delayed"), net, QUANT)
        direct = program.run(clouds)
        runner = BatchRunner(net, strategy="delayed", backend=QUANT)
        for a, b in leaves(direct, runner.run(clouds).outputs):
            assert np.array_equal(a, b)

    def test_kernel_executor_single_cloud(self):
        net = toy("PointNet++ (c)")
        cloud = clouds_for(net, 1, seed=5)[0]
        executor = NetworkKernelExecutor(QUANT)
        with no_grad():
            out = net.forward(cloud, strategy="delayed", executor=executor)
        program = KernelProgram(net.network_graph("delayed"), net, QUANT)
        assert out.shape == (1, 4)
        for a, b in leaves(program.run(cloud[None]), out):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("pool", ["serial", "thread"])
    def test_async_runner_bit_exact_vs_batch(self, pool):
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4, seed=5)
        expected = BatchRunner(net, strategy="delayed",
                               backend=QUANT).run(clouds)
        with AsyncRunner(net, strategy="delayed", backend=pool,
                         max_workers=2, kernel_backend=QUANT) as runner:
            observed = runner.run(clouds)
        for a, b in leaves(expected.outputs, observed.outputs):
            assert np.array_equal(a, b)

    def test_process_pool_ships_quantized_table_zero_copy(self):
        # The worker payload must carry the packed int8 table (workers
        # hold parameter-stripped skeletons and cannot recalibrate);
        # any fallback to pickled-network spin-up warns, which this
        # test escalates.
        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 4, seed=5)
        expected = BatchRunner(net, strategy="delayed",
                               backend="int8").run(clouds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with AsyncRunner(net, strategy="delayed", backend="process",
                             max_workers=2,
                             kernel_backend="int8") as runner:
                observed = runner.run(clouds)
        for a, b in leaves(expected.outputs, observed.outputs):
            assert np.array_equal(a, b)

    def test_serve_path_matches_direct_batch(self):
        from repro.serve import Server

        net = toy("PointNet++ (c)")
        clouds = clouds_for(net, 3, seed=5)
        direct = BatchRunner(net, strategy="delayed",
                             backend="int8").run(clouds).per_cloud()
        with Server.hosting([net], strategy="delayed",
                            backend="int8") as server:
            futures = [server.submit(cloud) for cloud in clouds]
            responses = [f.result(timeout=60) for f in futures]
        for expected, response in zip(direct, responses):
            assert np.array_equal(expected, response.output)


class TestPackaging:
    def test_pack_round_trip_preserves_quantized_ops(self):
        net = toy("PointNet++ (s)")
        ngraph = net.network_graph("delayed")
        table = ParameterTable.for_graph(ngraph, QUANT, network=net)
        manifest, blob = table.pack()
        assert manifest["backend"] == "int8"
        clone = ParameterTable.from_buffer(manifest, blob, dedupe=False)
        assert clone.content_hash == table.content_hash
        assert clone.verify_buffer()
        for key, ops in table.entries.items():
            for op, other in zip(ops, clone.entries[key]):
                assert op[0] == other[0]
                for a, b in zip(op[1:], other[1:]):
                    assert (a is None and b is None) or (
                        a.dtype == b.dtype and np.array_equal(a, b))

    def test_program_runs_on_attached_table(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        original = KernelProgram(ngraph, net, QUANT)
        manifest, blob = original.table.pack()
        attached = ParameterTable.from_buffer(manifest, blob, dedupe=False)
        clone = KernelProgram(ngraph, net, QUANT, params=attached)
        clouds = clouds_for(net, 2, seed=9)
        for a, b in leaves(original.run(clouds), clone.run(clouds)):
            assert np.array_equal(a, b)

    def test_packed_int8_blob_is_quarter_ish_of_float64(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        blob64 = ParameterTable.for_graph(
            ngraph, get_backend("float64"), network=net).pack()[1]
        blob8 = ParameterTable.for_graph(
            ngraph, QUANT, network=net).pack()[1]
        assert len(blob8) <= 0.30 * len(blob64)

    def test_stripped_network_cannot_recalibrate(self):
        net = toy("PointNet++ (c)")
        ngraph = net.network_graph("delayed")
        skeleton = network_skeleton(net)
        backend = Int8Backend()
        with pytest.raises(ValueError, match="calibrate"):
            backend.scales_for(ngraph, skeleton)
        with pytest.raises(ValueError, match="calibrate"):
            backend.scales_for(ngraph, None)


class TestCalibration:
    def test_same_seed_runs_are_byte_identical(self):
        net = toy("PointNet++ (s)", seed=2)
        first = calibrate_scales(net, "delayed", batch=4, rounds=1, seed=9)
        second = calibrate_scales(net, "delayed", batch=4, rounds=1, seed=9)
        assert first.to_json() == second.to_json()
        assert first.content_hash == second.content_hash
        assert first == second
        different = calibrate_scales(net, "delayed", batch=4, rounds=1,
                                     seed=10)
        assert different.to_json() != first.to_json()

    def test_scale_table_serialization_round_trip(self):
        table = ScaleTable({("module", 0, 1, "full"): 3.25,
                            ("ref", 2, 0): 0.0})
        clone = ScaleTable.from_json(table.to_json())
        assert clone == table
        assert clone.content_hash == table.content_hash
        assert clone.scale(("ref", 2, 0)) == np.float32(1.0)  # zero range
        with pytest.raises(ValueError, match="scale table"):
            ScaleTable.from_json("{}")

    def test_missing_site_raises(self):
        table = ScaleTable({("module", 0, 0, "full"): 1.0})
        with pytest.raises(KeyError, match="no calibrated activation"):
            table.scale(("module", 9, 9, "full"))

    def test_recorder_covers_every_linear_site(self):
        # Folded matmul-chain intermediates never reach the kernel env;
        # the observe hook must still see them: every non-epilogue
        # parameter-table entry needs a calibrated range.
        net = toy("PointNet++ (c)")
        table = calibrate_scales(net, "delayed", batch=2, rounds=1)
        reference = ParameterTable.for_graph(
            net.network_graph("delayed"), get_backend("float64"),
            network=net)
        linear_sites = {key for key, ops in reference.entries.items()
                        if any(op[0] == "linear" for op in ops)}
        assert linear_sites
        assert linear_sites <= set(table.amax)

    def test_recorder_tracks_running_peak(self):
        recorder = CalibrationRecorder()
        recorder.observe(("site",), np.array([1.0, -3.0]))
        recorder.observe(("site",), np.array([2.0]))
        recorder.observe(("empty",), np.array([]))
        table = recorder.table()
        assert table.amax[("site",)] == 3.0
        assert table.amax[("empty",)] == 0.0

    def test_scales_memoized_per_network_and_strategy(self):
        net = toy("PointNet++ (s)", seed=4)
        backend = Int8Backend(calibration_batch=2, calibration_rounds=1)
        ngraph = net.network_graph("delayed")
        first = backend.scales_for(ngraph, net)
        assert backend.scales_for(ngraph, net) is first
        other = backend.scales_for(net.network_graph("limited"), net)
        assert other is not first
