"""Unit and property-based tests of the autodiff engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.tensor import concatenate, embedding_lookup, stack, where


def numeric_grad(fn, x, eps=1e-3):
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_unary(op, x, **kwargs):
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t, **kwargs)
    out.sum().backward()
    analytic = t.grad
    numeric = numeric_grad(lambda arr: float(op(Tensor(arr), **kwargs).sum().data), x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=2e-2, atol=2e-3)


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add_broadcast(self):
        a = Tensor(self.rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_grad(self):
        x = self.rng.normal(size=(5,)).astype(np.float32)
        check_unary(lambda t: t * t, x)

    def test_div_grad(self):
        a = Tensor(np.array([2.0, 4.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.5])
        np.testing.assert_allclose(b.grad, [-2.0, -1.0])

    def test_pow_grad(self):
        x = np.abs(self.rng.normal(size=(4,)).astype(np.float32)) + 0.5
        check_unary(lambda t: t ** 3, x)

    @pytest.mark.parametrize("op_name", ["exp", "tanh", "relu", "gelu", "sqrt"])
    def test_nonlinearity_grads(self, op_name):
        x = np.abs(self.rng.normal(size=(6,)).astype(np.float32)) + 0.3
        check_unary(lambda t: getattr(t, op_name)(), x)

    def test_log_grad(self):
        x = np.abs(self.rng.normal(size=(4,)).astype(np.float32)) + 0.5
        check_unary(lambda t: t.log(), x)

    def test_abs_and_clip(self):
        x = self.rng.normal(size=(8,)).astype(np.float32)
        check_unary(lambda t: t.abs(), x)
        t = Tensor(x.copy(), requires_grad=True)
        t.clip(-0.5, 0.5).sum().backward()
        expected = ((x >= -0.5) & (x <= 0.5)).astype(np.float32)
        np.testing.assert_allclose(t.grad, expected)


class TestMatmulAndReductions:
    def setup_method(self):
        self.rng = np.random.default_rng(1)

    def test_matmul_2d(self):
        a = Tensor(self.rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T, rtol=1e-5)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)), rtol=1e-5)

    def test_matmul_batched_broadcast(self):
        a = Tensor(self.rng.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (4, 5)

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), (-1, False)])
    def test_sum_axes(self, axis, keepdims):
        x = self.rng.normal(size=(3, 4)).astype(np.float32)
        t = Tensor(x.copy(), requires_grad=True)
        t.sum(axis=axis, keepdims=keepdims).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_mean_and_var(self):
        x = self.rng.normal(size=(4, 6)).astype(np.float32)
        t = Tensor(x.copy(), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / x.size), rtol=1e-5)
        v = Tensor(x.copy(), requires_grad=True)
        assert abs(float(v.var().data) - x.var()) < 1e-4

    def test_max_grad_distributes_over_ties(self):
        t = Tensor(np.array([[1.0, 3.0, 3.0]], dtype=np.float32), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 0.5, 0.5]])


class TestShapeOps:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_reshape_transpose_roundtrip(self):
        x = self.rng.normal(size=(2, 3, 4)).astype(np.float32)
        t = Tensor(x.copy(), requires_grad=True)
        out = t.reshape(6, 4).transpose(1, 0).reshape(2, 3, 4)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_getitem_basic_and_advanced(self):
        x = self.rng.normal(size=(4, 5)).astype(np.float32)
        t = Tensor(x.copy(), requires_grad=True)
        t[1:3].sum().backward()
        expected = np.zeros_like(x)
        expected[1:3] = 1.0
        np.testing.assert_allclose(t.grad, expected)

        t2 = Tensor(x.copy(), requires_grad=True)
        idx = np.array([0, 0, 2])
        t2[idx].sum().backward()
        expected2 = np.zeros_like(x)
        expected2[0] = 2.0
        expected2[2] = 1.0
        np.testing.assert_allclose(t2.grad, expected2)

    def test_concatenate_and_stack(self):
        a = Tensor(self.rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(self.rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        concatenate([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))
        a.zero_grad(); b.zero_grad()
        stack([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_where_routes_gradients(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_embedding_lookup_accumulates_repeats(self):
        weight = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
        out = embedding_lookup(weight, np.array([[1, 1], [3, 0]]))
        out.sum().backward()
        expected = np.zeros((4, 3), dtype=np.float32)
        expected[1] = 2.0
        expected[3] = 1.0
        expected[0] = 1.0
        np.testing.assert_allclose(weight.grad, expected)


class TestAutogradMachinery:
    def test_no_grad_disables_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_diamond_graph_gradient(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * 3
        z = y + y * y
        z.sum().backward()
        # dz/dx = 3 + 2*9*x = 3 + 18x? z = 3x + 9x^2 -> dz/dx = 3 + 18x = 39
        np.testing.assert_allclose(x.grad, [39.0], rtol=1e-5)

    def test_float64_inputs_downcast(self):
        t = Tensor(np.ones(3, dtype=np.float64))
        assert t.dtype == np.float32

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        d = (x * 2).detach()
        assert not d.requires_grad

    @pytest.mark.parametrize("op", ["mul", "rmul", "sub", "rsub", "div", "rdiv"])
    def test_constant_operand_gets_no_gradient_work(self, op, monkeypatch):
        # A binary op with one constant operand computes only the other
        # operand's gradient: one multiply for ``x * c`` (the constant's
        # ``grad * x`` would be dropped unread), none for ``x - c``.
        rng = np.random.default_rng(4)
        data = rng.uniform(1.0, 2.0, size=(3, 4)).astype(np.float32)
        const = rng.uniform(1.0, 2.0, size=(4,)).astype(np.float32)
        build = {"mul": lambda t, c: t * c, "rmul": lambda t, c: c * t,
                 "sub": lambda t, c: t - c, "rsub": lambda t, c: c - t,
                 "div": lambda t, c: t / c, "rdiv": lambda t, c: c / t}[op]

        x = Tensor(data, requires_grad=True)
        out = build(x, Tensor(const)).sum()
        calls = []
        real = np.multiply

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        counting.__name__ = real.__name__
        monkeypatch.setattr(np, "multiply", counting)
        out.backward()
        monkeypatch.undo()
        # Only the tensor operand's gradient: one full-size multiply for the
        # product, none for the difference (the division's are ndarray
        # operators the shim does not see).
        expected = {"mul": 1, "rmul": 1, "sub": 0, "rsub": 0}.get(op)
        if expected is not None:
            assert calls == [data.shape] * expected
        # Bitwise the gradient a trainable second operand would have given x.
        y = Tensor(data, requires_grad=True)
        build(y, Tensor(const, requires_grad=True)).sum().backward()
        assert np.array_equal(x.grad, y.grad)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    inner=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_matmul_gradient_matches_manual_formula(rows, inner, cols, seed):
    """Property: for C = A @ B with upstream gradient G, dA = G B^T and dB = A^T G."""
    rng = np.random.default_rng(seed)
    a_data = rng.normal(size=(rows, inner)).astype(np.float32)
    b_data = rng.normal(size=(inner, cols)).astype(np.float32)
    g = rng.normal(size=(rows, cols)).astype(np.float32)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a @ b).backward(g)
    np.testing.assert_allclose(a.grad, g @ b_data.T, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(b.grad, a_data.T @ g, rtol=1e-4, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_sum_of_parts_equals_whole(shape, seed):
    """Property: gradient of sum() is all-ones regardless of shape."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones(shape))
