"""Equivalence tests for the flattened optimizer and the gather backwards.

* The flattened single-buffer Adam must reproduce the original
  per-parameter Python loop **bitwise** over a multi-step trajectory, on
  small and on large parameters — including steps where some parameters
  have no gradient (which runs the per-parameter arithmetic over views of
  the shared flat state) — and the ``state_size_bytes`` accounting.
* The embedding and advanced-index ``__getitem__`` backwards must
  scatter-add duplicate rows exactly as ``np.add.at`` does, on
  integer-valued updates (where any summation order gives the same floats),
  alias negative ids onto their positive rows, accept empty index arrays,
  match float64 sums to float32 rounding on Gaussian updates, and leave
  every row no index names at zero, even in a recycled arena buffer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import Adam
from repro.tensor import Tensor
from repro.tensor.arena import BufferArena
from repro.tensor.arena import scope as arena_scope
from repro.tensor.tensor import embedding_lookup


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
# Full-fine-tuning-sized parameters (mean 6445 elements).
LARGE_SHAPES = [(8192,), (64, 96), (5000,)]
SHAPE_SETS = pytest.mark.parametrize("shapes", [SHAPES, LARGE_SHAPES],
                                     ids=["small", "large"])


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
    @SHAPE_SETS
    def test_ten_step_trajectory_bitwise(self, kwargs, shapes):
        flat, loop, pa, pb = _run_trajectory(steps=10, shapes=shapes, **kwargs)
        for a, b in zip(pa, pb):
            np.testing.assert_array_equal(a.data, b.data)
        for m, om, v, ov in zip(flat._m, loop._m, flat._v, loop._v):
            np.testing.assert_array_equal(m, om)
            np.testing.assert_array_equal(v, ov)

    @SHAPE_SETS
    def test_grad_none_steps_fall_back_bitwise(self, shapes):
        # Steps 3 and 7 drop one parameter's gradient: its m/v and data must
        # freeze exactly as in the loop version, and later flat steps must
        # continue from the identical shared state.
        flat, loop, pa, pb = _run_trajectory(
            steps=10, none_grad_steps=(3, 7), shapes=shapes, lr=0.01)
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


class TestFlatLayout:
    """``offsets`` / ``views`` are the one layout of state and exchange."""

    def test_views_follow_the_offsets(self):
        params, _ = _param_pair()
        optimizer = Adam(params)
        sizes = [int(np.prod(s)) for s in SHAPES]
        np.testing.assert_array_equal(optimizer.offsets,
                                      np.concatenate([[0], np.cumsum(sizes)]))
        assert optimizer.grad_layout() == (sum(sizes), np.dtype(np.float32))
        flat = np.arange(sum(sizes), dtype=np.float32)
        for view, param, lo in zip(optimizer.views(flat), params,
                                   optimizer.offsets):
            assert view.shape == param.data.shape and view.base is flat
            assert view.reshape(-1)[0] == lo

    def test_grad_exchange_round_trip_with_a_missing_gradient(self):
        params, _ = _param_pair()
        optimizer = Adam(params)
        for param in params:
            param.grad = np.ones_like(param.data)
        params[1].grad = None
        kept = params[0].grad
        flat = np.full(optimizer.grad_layout()[0], np.nan, np.float32)
        optimizer.gather_flat_grad(flat)
        views = optimizer.views(flat)
        assert np.all(views[1] == 0)
        assert all(np.all(view == 1) for i, view in enumerate(views) if i != 1)
        flat *= 3
        optimizer.scatter_flat_grad(flat)
        assert params[0].grad is kept          # in place: plans keep buffers
        assert params[1].grad.base is None     # missing: a fresh array
        for param in params:
            assert np.all(param.grad == (0 if param is params[1] else 3))

    def test_tenant_slabs_resume_the_trajectory_bitwise(self):
        # Paging a state out and into a fresh optimizer, then stepping both
        # with one gradient, must not change a bit (serve's tenant swap).
        source, _, pa, _ = _run_trajectory(steps=3, shapes=LARGE_SHAPES,
                                           lr=0.01)
        total = source.grad_layout()[0]
        slabs = [np.empty(total, np.float32) for _ in range(3)]
        source.gather_flat_params(slabs[0])
        source.gather_flat_state(slabs[1], slabs[2])
        fresh = [Parameter(np.zeros(s, np.float32)) for s in LARGE_SHAPES]
        target = Adam(fresh, lr=0.01)
        target.scatter_flat_params(slabs[0])
        target.scatter_flat_state(slabs[1], slabs[2])
        target.step_count = source.step_count
        rng = np.random.default_rng(9)
        for a, b in zip(pa, fresh):
            a.grad = rng.normal(size=a.data.shape).astype(np.float32)
            b.grad = a.grad.copy()
        source.step()
        target.step()
        for a, b in zip(pa, fresh):
            np.testing.assert_array_equal(a.data, b.data)
        for m, om, v, ov in zip(source._m, target._m, source._v, target._v):
            np.testing.assert_array_equal(m, om)
            np.testing.assert_array_equal(v, ov)


# ---------------------------------------------------------------------------
# gather backwards: the embedding and advanced-index scatter-adds
# ---------------------------------------------------------------------------

def _exact_updates(rng, n, dim):
    """Integer-valued float32 updates: every summation order is exact."""
    return rng.integers(-8, 9, size=(n, dim)).astype(np.float32)


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

class TestGatherBackwardEdgeCases:
    """Index patterns the two ``np.add.at`` backwards must get right: long
    duplicate runs, aliasing negative ids, empty index arrays and recycled
    arena buffers."""

    def test_duplicate_indices_exact(self):
        # Whole (5, 2) slabs of a 3-D tensor gathered along axis 0.
        rng = np.random.default_rng(0)
        idx = np.array([3, 1, 3, 3, 0, 1, 3, 9, 9, 3])
        x = Tensor(rng.normal(size=(10, 5, 2)).astype(np.float32),
                   requires_grad=True)
        seed = _exact_updates(rng, len(idx), 10).reshape(-1, 5, 2)
        x[idx].backward(seed)
        expected = np.zeros((10, 5, 2), np.float32)
        np.add.at(expected, idx, seed)
        np.testing.assert_array_equal(x.grad, expected)

    def test_empty_rows_stay_zero(self):
        # A recycled arena buffer full of NaN backs the embedding gradient:
        # the rows no id names must come back zero, not stale.
        rng = np.random.default_rng(1)
        ids = np.array([2, 2, 5])
        weight = Tensor(rng.normal(size=(8, 4)).astype(np.float32),
                        requires_grad=True)
        seed = rng.normal(size=(3, 4)).astype(np.float32)
        arena = BufferArena()
        arena.take((8, 4)).fill(np.nan)
        arena.next_generation()
        with arena_scope(arena):
            embedding_lookup(weight, ids).backward(seed)
        assert arena.hits >= 1
        untouched = np.setdiff1d(np.arange(8), ids)
        assert np.all(weight.grad[untouched] == 0.0)
        assert np.all(np.isfinite(weight.grad))
        assert np.all(weight.grad[np.unique(ids)] != 0.0)

    def test_empty_index_array_is_noop(self):
        rng = np.random.default_rng(2)
        weight = Tensor(rng.normal(size=(4, 3)).astype(np.float32),
                        requires_grad=True)
        out = embedding_lookup(weight, np.array([], dtype=np.int64))
        assert out.shape == (0, 3)
        out.backward(np.zeros((0, 3), np.float32))
        np.testing.assert_array_equal(weight.grad, np.zeros((4, 3), np.float32))
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        x[np.array([], dtype=np.int64)].backward(np.zeros((0, 3), np.float32))
        np.testing.assert_array_equal(x.grad, np.zeros((4, 3), np.float32))

    def test_negative_indices_alias_positive_rows_exact(self):
        # -1 aliases row 9 and -6 row 4, each next to its positive twin.
        rng = np.random.default_rng(3)
        ids = np.array([-1, 9, 4, -6, 4, -1])
        weight = Tensor(rng.normal(size=(10, 3)).astype(np.float32),
                        requires_grad=True)
        seed = _exact_updates(rng, len(ids), 3)
        embedding_lookup(weight, ids).backward(seed)
        expected = np.zeros((10, 3), np.float32)
        np.add.at(expected, ids, seed)
        np.testing.assert_array_equal(weight.grad, expected)
        np.testing.assert_array_equal(weight.grad[9], seed[[0, 1, 5]].sum(0))

    @pytest.mark.parametrize("distribution", ["uniform", "zipf", "all-same"])
    def test_large_vocab_exact(self, distribution):
        rng = np.random.default_rng(4)
        vocab, dim, n = 50257, 16, 4096
        if distribution == "uniform":
            ids = rng.integers(0, vocab, size=n)
        elif distribution == "zipf":
            ids = np.minimum(rng.zipf(1.3, size=n) - 1, vocab - 1)
        else:
            ids = np.full(n, 42)
        weight = Tensor(np.zeros((vocab, dim), np.float32), requires_grad=True)
        seed = _exact_updates(rng, n, dim)
        embedding_lookup(weight, ids).backward(seed)
        expected = np.zeros((vocab, dim), np.float32)
        np.add.at(expected, ids, seed)
        np.testing.assert_array_equal(weight.grad, expected)

    def test_gaussian_updates_match_float64_sums_to_rounding(self):
        rng = np.random.default_rng(5)
        ids = np.minimum(rng.zipf(1.3, size=2048) - 1, 999)
        weight = Tensor(np.zeros((1000, 8), np.float32), requires_grad=True)
        seed = rng.normal(size=(2048, 8)).astype(np.float32)
        embedding_lookup(weight, ids).backward(seed)
        expected = np.zeros((1000, 8), np.float64)
        np.add.at(expected, ids, seed.astype(np.float64))
        np.testing.assert_allclose(weight.grad, expected, rtol=1e-5, atol=1e-4)
