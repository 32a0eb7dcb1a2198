"""Equivalence tests for the flattened optimizer and the reduceat scatter.

* The flattened single-buffer Adam must reproduce the original
  per-parameter Python loop **bitwise** over a multi-step trajectory —
  including steps where some parameters have no gradient (which exercises
  the per-parameter fallback on the shared flat state) — and the
  ``state_size_bytes`` accounting.
* The route follows ``FLAT_MEAN_SIZE_THRESHOLD`` on the mean parameter size,
  and forcing either route over large parameters leaves the trajectory
  bitwise unchanged.
* The sort/``np.add.reduceat`` embedding-backward scatter must agree with
  ``np.add.at`` — exactly on order-insensitive (integer-valued) updates,
  where any summation order produces the same floats, and to float rounding
  on arbitrary ones (``reduceat`` accumulates long duplicate segments
  pairwise, which is at least as accurate as ``add.at``'s sequential order).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.optim.adam as adam_module
from repro.nn.module import Parameter
from repro.optim import Adam
from repro.optim.adam import FLAT_MEAN_SIZE_THRESHOLD
from repro.tensor import Tensor
from repro.tensor.tensor import embedding_lookup, scatter_add_rows


# ---------------------------------------------------------------------------
# reference: the pre-flattening per-parameter loop implementations
# ---------------------------------------------------------------------------

class LoopAdam:
    """Verbatim re-implementation of the original Python-loop Adam."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m[index]
            v = self._v[index]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_size_bytes(self):
        return int(sum(m.nbytes + v.nbytes for m, v in zip(self._m, self._v)))


SHAPES = [(10, 10), (3,), (4, 5), (1,), (2, 3, 4)]


def _param_pair(seed=0, shapes=SHAPES):
    rng = np.random.default_rng(seed)
    originals = [Parameter(rng.normal(size=s).astype(np.float32)) for s in shapes]
    clones = [Parameter(p.data.copy()) for p in originals]
    return originals, clones


def _run_trajectory(steps=10, none_grad_steps=(), none_grad_param=1,
                    shapes=SHAPES, **kwargs):
    pa, pb = _param_pair(shapes=shapes)
    flat = Adam(pa, **kwargs)
    loop = LoopAdam(pb, **kwargs)
    rng = np.random.default_rng(7)
    for step in range(steps):
        for a, b in zip(pa, pb):
            g = rng.normal(size=a.data.shape).astype(np.float32)
            a.grad = g.copy()
            b.grad = g.copy()
        if step in none_grad_steps:
            pa[none_grad_param].grad = None
            pb[none_grad_param].grad = None
        flat.step()
        loop.step()
    return flat, loop, pa, pb


class TestFlattenedAdamEquivalence:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.01},
        {"lr": 0.005, "betas": (0.85, 0.99), "eps": 1e-6},
    ], ids=["adam", "adam-betas"])
    def test_ten_step_trajectory_bitwise(self, kwargs):
        flat, loop, pa, pb = _run_trajectory(steps=10, **kwargs)
        for a, b in zip(pa, pb):
            np.testing.assert_array_equal(a.data, b.data)
        for m, om, v, ov in zip(flat._m, loop._m, flat._v, loop._v):
            np.testing.assert_array_equal(m, om)
            np.testing.assert_array_equal(v, ov)

    def test_grad_none_steps_fall_back_bitwise(self):
        # Steps 3 and 7 drop one parameter's gradient: its m/v and data must
        # freeze exactly as in the loop version, and later flat steps must
        # continue from the identical shared state.
        flat, loop, pa, pb = _run_trajectory(
            steps=10, none_grad_steps=(3, 7), lr=0.01)
        for a, b in zip(pa, pb):
            np.testing.assert_array_equal(a.data, b.data)
        for m, om, v, ov in zip(flat._m, loop._m, flat._v, loop._v):
            np.testing.assert_array_equal(m, om)
            np.testing.assert_array_equal(v, ov)

    def test_all_grads_none_advances_only_step_count(self):
        params, _ = _param_pair()
        before = [p.data.copy() for p in params]
        optimizer = Adam(params, lr=0.1)
        optimizer.step()
        assert optimizer.step_count == 1
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)
        assert all(np.all(m == 0) for m in optimizer._m)

    def test_state_size_bytes_matches_loop_accounting(self):
        pa, pb = _param_pair()
        flat = Adam(pa, lr=1e-3)
        loop = LoopAdam(pb, lr=1e-3)
        expected = sum(2 * int(np.prod(s)) * 4 for s in SHAPES)
        assert flat.state_size_bytes() == loop.state_size_bytes() == expected

    def test_moment_views_alias_the_flat_buffers(self):
        params, _ = _param_pair()
        optimizer = Adam(params, lr=1e-3)
        assert optimizer._flat_m is not None
        assert optimizer._flat_m.size == sum(int(np.prod(s)) for s in SHAPES)
        for view, param in zip(optimizer._m, params):
            assert view.shape == param.data.shape
            assert view.base is optimizer._flat_m


# Mean size 6445 elements: above the threshold, so the loop route by default.
LARGE_SHAPES = [(8192,), (64, 96), (5000,)]


class TestSizeRouting:
    """The mean parameter size picks flat or loop; both are the same Adam."""

    @pytest.mark.parametrize("size", [256, FLAT_MEAN_SIZE_THRESHOLD,
                                      FLAT_MEAN_SIZE_THRESHOLD + 1, 16384])
    def test_route_follows_mean_size_threshold(self, size):
        params = [Parameter(np.zeros(size, dtype=np.float32)) for _ in range(3)]
        flat = Adam(params)._flat_m is not None
        assert flat == (size <= FLAT_MEAN_SIZE_THRESHOLD)

    def test_route_reads_the_mean_not_the_largest(self):
        # One matrix far above the threshold among many small biases still
        # flattens: call overhead, not the largest tensor, decides.
        sizes = [4 * FLAT_MEAN_SIZE_THRESHOLD] + [64] * 16
        assert sum(sizes) / len(sizes) <= FLAT_MEAN_SIZE_THRESHOLD
        params = [Parameter(np.zeros(s, dtype=np.float32)) for s in sizes]
        assert Adam(params)._flat_m is not None

    def test_state_slabs_are_route_independent(self, monkeypatch):
        # Serving pages tenants through these slabs, so a tenant's paged-out
        # state must not depend on which route its optimizer took.
        slabs = {}
        for route in ("flat", "loop"):
            monkeypatch.setattr(adam_module, "FLAT_MEAN_SIZE_THRESHOLD",
                                float("inf") if route == "flat" else -1.0)
            opt, _, _, _ = _run_trajectory(steps=3, shapes=LARGE_SHAPES,
                                           lr=0.01)
            assert (opt.plan_tail() is None) == (route == "loop")
            total = sum(int(np.prod(s)) for s in LARGE_SHAPES)
            m, v = np.empty(total, np.float32), np.empty(total, np.float32)
            opt.gather_flat_state(m, v)
            slabs[route] = (m, v)
        for a, b in zip(slabs["flat"], slabs["loop"]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("route", ["flat", "loop"])
    def test_forced_route_matches_loop_bitwise(self, monkeypatch, route):
        # Forcing the route through the threshold (as the regime sweep that
        # tuned it did) must not change a single bit of the trajectory.
        monkeypatch.setattr(adam_module, "FLAT_MEAN_SIZE_THRESHOLD",
                            float("inf") if route == "flat" else -1.0)
        opt, loop, pa, pb = _run_trajectory(steps=4, shapes=LARGE_SHAPES,
                                            lr=0.02)
        assert (opt._flat_m is not None) == (route == "flat")
        for a, b in zip(pa, pb):
            np.testing.assert_array_equal(a.data, b.data)
        for m, om, v, ov in zip(opt._m, loop._m, opt._v, loop._v):
            np.testing.assert_array_equal(m, om)
            np.testing.assert_array_equal(v, ov)


# ---------------------------------------------------------------------------
# embedding-backward scatter (sort + np.add.reduceat)
# ---------------------------------------------------------------------------

def _exact_updates(rng, n, dim):
    """Integer-valued float32 updates: every summation order is exact."""
    return rng.integers(-8, 9, size=(n, dim)).astype(np.float32)


class TestScatterAddRows:
    def test_duplicate_indices_exact(self):
        rng = np.random.default_rng(0)
        idx = np.array([3, 1, 3, 3, 0, 1, 3, 9, 9, 3])
        upd = _exact_updates(rng, len(idx), 5)
        expected = np.zeros((10, 5), np.float32)
        np.add.at(expected, idx, upd)
        got = np.zeros((10, 5), np.float32)
        scatter_add_rows(got, idx, upd)
        np.testing.assert_array_equal(got, expected)

    def test_empty_rows_stay_zero(self):
        rng = np.random.default_rng(1)
        idx = np.array([2, 2, 5])
        upd = rng.normal(size=(3, 4)).astype(np.float32)
        out = np.zeros((8, 4), np.float32)
        scatter_add_rows(out, idx, upd)
        untouched = np.setdiff1d(np.arange(8), idx)
        assert np.all(out[untouched] == 0.0)
        assert np.all(out[np.unique(idx)] != 0.0)

    def test_empty_index_array_is_noop(self):
        out = np.ones((4, 3), np.float32)
        scatter_add_rows(out, np.array([], dtype=np.int64),
                         np.zeros((0, 3), np.float32))
        np.testing.assert_array_equal(out, np.ones((4, 3), np.float32))

    def test_negative_indices_alias_positive_rows_exact(self):
        rng = np.random.default_rng(2)
        idx = np.array([-1, 9, 4, -6, 4, -1])
        upd = _exact_updates(rng, len(idx), 3)
        expected = np.zeros((10, 3), np.float32)
        np.add.at(expected, idx, upd)
        got = np.zeros((10, 3), np.float32)
        scatter_add_rows(got, idx, upd)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("distribution", ["uniform", "zipf", "all-same"])
    def test_large_vocab_exact(self, distribution):
        rng = np.random.default_rng(3)
        vocab, dim, n = 50257, 16, 4096
        if distribution == "uniform":
            idx = rng.integers(0, vocab, size=n)
        elif distribution == "zipf":
            idx = np.minimum(rng.zipf(1.3, size=n) - 1, vocab - 1)
        else:
            idx = np.full(n, 42)
        upd = _exact_updates(rng, n, dim)
        expected = np.zeros((vocab, dim), np.float32)
        np.add.at(expected, idx, upd)
        got = np.zeros((vocab, dim), np.float32)
        scatter_add_rows(got, idx, upd)
        np.testing.assert_array_equal(got, expected)

    def test_gaussian_updates_match_to_float_rounding(self):
        rng = np.random.default_rng(4)
        idx = np.minimum(rng.zipf(1.3, size=2048) - 1, 999)
        upd = rng.normal(size=(2048, 8)).astype(np.float32)
        expected = np.zeros((1000, 8), np.float32)
        np.add.at(expected, idx, upd)
        got = np.zeros((1000, 8), np.float32)
        scatter_add_rows(got, idx, upd)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-4)


class TestEmbeddingBackwardScatter:
    def test_duplicate_token_gradients_accumulate_exactly(self):
        rng = np.random.default_rng(5)
        vocab, dim = 64, 8
        weight_data = rng.normal(size=(vocab, dim)).astype(np.float32)
        ids = np.array([[1, 5, 1, 1], [5, 0, 63, 1]])
        seed = _exact_updates(rng, ids.size, dim).reshape(*ids.shape, dim)

        weight = Tensor(weight_data.copy(), requires_grad=True)
        embedding_lookup(weight, ids).backward(seed)
        expected = np.zeros((vocab, dim), np.float32)
        np.add.at(expected, ids.reshape(-1), seed.reshape(-1, dim))
        np.testing.assert_array_equal(weight.grad, expected)
        untouched = np.setdiff1d(np.arange(vocab), ids.reshape(-1))
        assert np.all(weight.grad[untouched] == 0.0)

    def test_large_vocab_gradient_matches_add_at(self):
        rng = np.random.default_rng(6)
        vocab, dim = 50257, 8
        ids = np.minimum(rng.zipf(1.4, size=(2, 256)) - 1, vocab - 1)
        weight = Tensor(rng.normal(size=(vocab, dim)).astype(np.float32),
                        requires_grad=True)
        seed = _exact_updates(rng, ids.size, dim).reshape(*ids.shape, dim)
        embedding_lookup(weight, ids).backward(seed)
        expected = np.zeros((vocab, dim), np.float32)
        np.add.at(expected, ids.reshape(-1), seed.reshape(-1, dim))
        np.testing.assert_array_equal(weight.grad, expected)


class TestGetitemScatter:
    def test_single_array_index_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(10, 4)).astype(np.float32), requires_grad=True)
        idx = np.array([0, 3, 3, 9, 0, 3])
        seed = _exact_updates(rng, len(idx), 4)
        x[idx].backward(seed)
        expected = np.zeros((10, 4), np.float32)
        np.add.at(expected, idx, seed)
        np.testing.assert_array_equal(x.grad, expected)

    def test_two_array_index_gradient(self):
        # The gather pattern of the reference cross entropy: (rows, targets).
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(6, 9)).astype(np.float32), requires_grad=True)
        rows = np.array([0, 1, 2, 2, 5, 2])
        cols = np.array([4, 4, 0, 0, 8, 0])
        seed = _exact_updates(rng, len(rows), 1).reshape(-1)
        x[rows, cols].backward(seed)
        expected = np.zeros((6, 9), np.float32)
        np.add.at(expected, (rows, cols), seed)
        np.testing.assert_array_equal(x.grad, expected)

    def test_boolean_mask_falls_back_to_add_at(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(7, 3)).astype(np.float32), requires_grad=True)
        mask = np.array([True, False, True, False, False, True, False])
        seed = rng.normal(size=(3, 3)).astype(np.float32)
        x[mask].backward(seed)
        expected = np.zeros((7, 3), np.float32)
        expected[mask] = seed
        np.testing.assert_array_equal(x.grad, expected)

    def test_negative_array_index_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(5, 2)).astype(np.float32), requires_grad=True)
        idx = np.array([-1, 4, -1, 0])
        seed = _exact_updates(rng, len(idx), 2)
        x[idx].backward(seed)
        expected = np.zeros((5, 2), np.float32)
        np.add.at(expected, idx, seed)
        np.testing.assert_array_equal(x.grad, expected)