"""Unit tests for the autograd engine, including numeric gradient checks."""

import numpy as np
import pytest

from repro.neural import Tensor, concat, no_grad


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at numpy array x."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(op, *shapes, seed=0):
    """Compare autograd against numeric gradients for every input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    loss = (out * out).sum()
    loss.backward()
    for i, (arr, t) in enumerate(zip(arrays, tensors)):
        def scalar_fn(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            o = op(*args)
            return float((o * o).sum().data)

        expected = numeric_grad(scalar_fn, arr.copy())
        assert t.grad is not None, f"input {i} got no gradient"
        np.testing.assert_allclose(t.grad, expected, rtol=1e-4, atol=1e-6)


class TestArithmetic:
    def test_add_grad(self):
        check_grad(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast_grad(self):
        check_grad(lambda a, b: a + b, (3, 4), (4,))

    def test_sub_grad(self):
        check_grad(lambda a, b: a - b, (2, 5), (2, 5))

    def test_sub_broadcast_row(self):
        check_grad(lambda a, b: a - b, (4, 3), (1, 3))

    def test_mul_grad(self):
        check_grad(lambda a, b: a * b, (3, 3), (3, 3))

    def test_div_grad(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)) + 3.0, requires_grad=True)
        ((a / b) ** 2).sum().backward()
        assert a.grad is not None and b.grad is not None

    def test_pow_grad(self):
        check_grad(lambda a: (a * a + 1.0) ** 2, (3, 2))

    def test_neg(self):
        t = Tensor([1.0, -2.0], requires_grad=True)
        (-t).sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, -1.0])

    def test_radd_rsub_rmul(self):
        t = Tensor([2.0])
        assert (1 + t).data[0] == 3.0
        assert (1 - t).data[0] == -1.0
        assert (3 * t).data[0] == 6.0
        assert (4 / t).data[0] == 2.0

    def test_scalar_exponent_required(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestMatmul:
    # The 3-D case is the per-cloud GEMM: a (clouds, rows, K) stack times
    # one shared weight, whose gradient sums over the cloud axis.
    @pytest.mark.parametrize("shapes", [((4, 3), (3, 5)), ((3, 4, 5), (5, 2))],
                             ids=["2d", "3d_per_cloud"])
    def test_matmul_grad(self, shapes):
        check_grad(lambda a, b: a @ b, *shapes)

    def test_matmul_chain(self):
        check_grad(lambda a, b, c: (a @ b) @ c, (2, 3), (3, 4), (4, 2))

    def test_matmul_values(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        np.testing.assert_allclose((a @ b).data, b.data)


class TestNonlinearities:
    def test_relu_grad(self):
        check_grad(lambda a: a.relu(), (5, 4))

    def test_relu_values(self):
        t = Tensor([[-1.0, 2.0], [0.5, -3.0]])
        np.testing.assert_allclose(t.relu().data, [[0, 2.0], [0.5, 0]])

    def test_exp_log_roundtrip(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        out = t.exp().log()
        np.testing.assert_allclose(out.data, t.data)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((1, 2)), atol=1e-9)


class TestReductions:
    def test_sum_all(self):
        check_grad(lambda a: a.sum() * Tensor(1.0), (3, 4))

    def test_sum_axis(self):
        check_grad(lambda a: a.sum(axis=0), (3, 4))

    def test_sum_keepdims(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3), 1 / 6))

    def test_max_reduction_values(self):
        t = Tensor([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_allclose(t.max(axis=0).data, [3.0, 5.0])

    def test_max_grad_flows_to_argmax_only(self):
        t = Tensor([[1.0, 5.0], [3.0, 2.0]], requires_grad=True)
        t.max(axis=0).sum().backward()
        np.testing.assert_allclose(t.grad, [[0, 1.0], [1.0, 0]])

    def test_max_3d_axis1(self):
        # The neighborhood reduction shape: (centroids, k, features).
        check_grad(lambda a: a.max(axis=1), (4, 6, 3), seed=3)


class TestShapes:
    def test_reshape_grad(self):
        check_grad(lambda a: a.reshape(6, 2), (3, 4))

    def test_concat_grad(self):
        check_grad(lambda a, b: concat([a, b], axis=1), (2, 3), (2, 2))


class TestGather:
    def test_gather_values(self):
        t = Tensor(np.arange(12.0).reshape(4, 3))
        out = t.gather(np.array([[0, 2], [1, 1]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[0, 1], [6.0, 7.0, 8.0])

    def test_gather_grad_scatter_adds(self):
        # A point in many neighborhoods accumulates gradient from each —
        # the data-reuse property delayed-aggregation exploits.
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = t.gather(np.array([0, 0, 0, 1]))
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [[3.0, 3.0], [1.0, 1.0], [0.0, 0.0]])

    def test_getitem_grad(self):
        t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        t[np.array([0, 2])].sum().backward()
        np.testing.assert_allclose(t.grad, [[1, 1], [0, 0], [1, 1]])


class TestAutogradMachinery:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor([2.0], requires_grad=True)
        (t * t + t).sum().backward()  # d/dt (t^2 + t) = 2t + 1 = 5
        np.testing.assert_allclose(t.grad, [5.0])

    def test_diamond_graph(self):
        t = Tensor([3.0], requires_grad=True)
        a = t * 2
        b = t * 4
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert out._backward is None
        assert not out.requires_grad

    def test_non_requires_grad_gets_none(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        (a * b).sum().backward()
        assert b.grad is None

    def test_no_grad_is_thread_local(self):
        # Grad mode must not leak across threads: the serving dispatcher
        # and scheduler worker threads enter no_grad() concurrently, and
        # a process-global flag with save/restore semantics can leave
        # inference mode stuck on in the main thread (interleaved
        # enter/exit restoring a stale snapshot).
        from threading import Barrier, Thread

        from repro.neural.tensor import is_grad_enabled

        barrier = Barrier(2)
        seen = []

        def worker():
            with no_grad():
                barrier.wait(timeout=30.0)   # inside worker no_grad
                barrier.wait(timeout=30.0)   # main thread checked
            seen.append(is_grad_enabled())

        thread = Thread(target=worker)
        thread.start()
        barrier.wait(timeout=30.0)
        assert is_grad_enabled()             # unaffected by the worker
        t = Tensor([1.0], requires_grad=True)
        assert t.requires_grad
        barrier.wait(timeout=30.0)
        thread.join(30.0)
        assert seen == [True]                # worker restored its own state
        assert is_grad_enabled()
