"""Tests of the composite functions (layernorm, losses) and of the reference
softmax twins that back the reference attention and cross entropy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, functional as F, reference


class TestSoftmax:
    """The reference softmax twins: building blocks of the reference SDPA and
    cross entropy, the oracles the fused kernels are checked against."""

    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(self.rng.normal(size=(3, 7)).astype(np.float32))
        probs = reference.softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_softmax_gradient_matches_jacobian(self):
        x_data = self.rng.normal(size=(5,)).astype(np.float32)
        g = self.rng.normal(size=(5,)).astype(np.float32)
        x = Tensor(x_data, requires_grad=True)
        reference.softmax(x).backward(g)
        p = np.exp(x_data - x_data.max())
        p /= p.sum()
        jac = np.diag(p) - np.outer(p, p)
        np.testing.assert_allclose(x.grad, jac @ g, rtol=1e-4, atol=1e-5)

    def test_log_softmax_consistency(self):
        x = Tensor(self.rng.normal(size=(2, 6)).astype(np.float32))
        np.testing.assert_allclose(reference.log_softmax(x).data,
                                   np.log(reference.softmax(x).data + 1e-12),
                                   rtol=1e-4, atol=1e-5)

    def test_masked_softmax_zeroes_masked_positions(self):
        x = Tensor(self.rng.normal(size=(2, 4, 4)).astype(np.float32))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        probs = reference.masked_softmax(x, mask)
        assert np.all(probs.data[:, 0, 1:] == 0)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones((2, 4)), rtol=1e-5)

    def test_masked_softmax_fully_masked_row_is_finite(self):
        x = Tensor(np.zeros((1, 2, 2), dtype=np.float32))
        mask = np.zeros((2, 2), dtype=bool)
        probs = reference.masked_softmax(x, mask)
        assert np.all(np.isfinite(probs.data))


class TestLayerNorm:
    def test_normalises_last_dim(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        out = F.layer_norm(x, w, b)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-2)

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(2, 5)).astype(np.float32)
        w_data = rng.normal(1.0, 0.1, size=(5,)).astype(np.float32)
        b_data = np.zeros(5, dtype=np.float32)

        def loss_fn(xv):
            return float(F.layer_norm(Tensor(xv), Tensor(w_data), Tensor(b_data)).sum().data)

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        F.layer_norm(x, w, b).sum().backward()

        eps = 1e-2
        numeric = np.zeros_like(x_data)
        for i in range(x_data.shape[0]):
            for j in range(x_data.shape[1]):
                pert = x_data.copy(); pert[i, j] += eps
                up = loss_fn(pert)
                pert[i, j] -= 2 * eps
                down = loss_fn(pert)
                numeric[i, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=5e-2, rtol=5e-2)
        np.testing.assert_allclose(b.grad, np.full(5, 2.0), rtol=1e-5)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]], dtype=np.float32),
                        requires_grad=True)
        targets = np.array([[0, 1]])
        loss, n = F.cross_entropy(logits, targets)
        assert n == 2
        manual = -np.log(np.exp(2.0) / (np.exp(2.0) + 2.0))
        np.testing.assert_allclose(float(loss.data), manual, rtol=1e-5)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.zeros((1, 3, 4), dtype=np.float32), requires_grad=True)
        targets = np.array([[1, -100, 2]])
        loss, n = F.cross_entropy(logits, targets)
        assert n == 2
        loss.backward()
        # Ignored position contributes no gradient.
        assert np.allclose(logits.grad[0, 1], 0.0)

    def test_cross_entropy_gradient_sums_to_zero_per_position(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(2, 4, 6)).astype(np.float32), requires_grad=True)
        targets = rng.integers(0, 6, size=(2, 4))
        loss, _ = F.cross_entropy(logits, targets)
        loss.backward()
        np.testing.assert_allclose(logits.grad.sum(axis=-1), np.zeros((2, 4)), atol=1e-6)

    def test_bce_with_logits_pos_weight_increases_positive_grad(self):
        logits_data = np.zeros((4,), dtype=np.float32)
        targets = np.array([1.0, 1.0, 0.0, 0.0], dtype=np.float32)
        plain = Tensor(logits_data.copy(), requires_grad=True)
        F.binary_cross_entropy_with_logits(plain, targets, pos_weight=1.0).backward()
        weighted = Tensor(logits_data.copy(), requires_grad=True)
        F.binary_cross_entropy_with_logits(weighted, targets, pos_weight=4.0).backward()
        # Positive positions push harder (more negative gradient) under pos_weight.
        assert weighted.grad[0] < plain.grad[0] < 0
        np.testing.assert_allclose(weighted.grad[2], plain.grad[2], rtol=1e-5)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(1, 3), classes=st.integers(2, 6),
    seed=st.integers(0, 9999),
)
def test_cross_entropy_is_nonnegative_and_grad_bounded(batch, classes, seed):
    """Property: CE loss >= 0 and per-position gradients lie in [-1/n, 1/n]."""
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(batch, 3, classes)).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, classes, size=(batch, 3))
    loss, n = F.cross_entropy(logits, targets)
    assert float(loss.data) >= 0
    loss.backward()
    assert np.all(np.abs(logits.grad) <= 1.0 / n + 1e-6)
