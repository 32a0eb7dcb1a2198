"""Tests of the dynamic-aware operators: block-sparse attention and neuron-sparse MLP."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parity
from repro.sparsity.ops import (
    MultiHeadLayout,
    NeuronSparseWeights,
    block_sparse_attention,
    compute_block_geometry,
    neuron_sparse_linear_pair,
)
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.ops.neuron_sparse import expand_block_indices
from repro.sparsity.patterns import block_count, pattern_mask
from repro.tensor import Tensor, functional as F, fused, reference


def make_qkv(batch=2, heads=3, seq=40, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(batch, heads, seq, dim)).astype(np.float32) for _ in range(3)]


def dense_attention(q, k, v, mask):
    """The reference twin's dense attention under an element keep-mask."""
    return reference.scaled_dot_product_attention(
        Tensor(q), Tensor(k), Tensor(v), attn_mask=mask).data


def dense_layout(heads, seq, block):
    n_blocks = block_count(seq, block)
    return layout_from_block_masks(np.ones((heads, n_blocks, n_blocks), dtype=bool), block)


class TestBlockSparseKernels:
    def test_fused_attention_matches_dense_reference_forward(self):
        q, k, v = make_qkv(seq=48, dim=8)
        layout = dense_layout(3, 48, 16)
        out = block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout)
        causal = np.tril(np.ones((48, 48), dtype=bool))
        ref = dense_attention(q, k, v, mask=causal)
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-5)

    def test_fused_attention_gradients_match_dense_autograd(self):
        q, k, v = make_qkv(seq=32, dim=4, seed=3)
        layout = dense_layout(3, 32, 16)
        qt, kt, vt = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = block_sparse_attention(qt, kt, vt, layout)

        q2, k2, v2 = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        causal = np.tril(np.ones((32, 32), dtype=bool))
        ref = reference.scaled_dot_product_attention(q2, k2, v2, attn_mask=causal)

        g = np.random.default_rng(5).normal(size=out.shape).astype(np.float32)
        out.backward(g)
        ref.backward(g)
        np.testing.assert_allclose(qt.grad, q2.grad, rtol=1e-3, atol=1e-5)
        np.testing.assert_allclose(kt.grad, k2.grad, rtol=1e-3, atol=1e-5)
        np.testing.assert_allclose(vt.grad, v2.grad, rtol=1e-3, atol=1e-5)

    def test_sparse_layout_masks_excluded_blocks(self):
        q, k, v = make_qkv(seq=32, dim=4)
        masks = np.repeat(np.eye(2, dtype=bool)[None], 3, axis=0)  # diagonal blocks only
        layout = layout_from_block_masks(masks, 16)
        out = block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout)
        # Diagonal-only attention means queries in the second block never see
        # keys from the first block: compare against a manually masked dense run.
        element_mask = layout.to_dense_mask(32)
        ref = dense_attention(q, k, v, mask=element_mask[None])
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-5)

    def test_non_multiple_sequence_length_is_padded_correctly(self):
        q, k, v = make_qkv(seq=37, dim=4)
        layout = dense_layout(3, 37, 16)
        out = block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout)
        causal = np.tril(np.ones((37, 37), dtype=bool))
        ref = dense_attention(q, k, v, mask=causal)
        assert out.shape == (2, 3, 37, 4)
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-5)

    def test_head_count_mismatch_raises(self):
        q, k, v = make_qkv(heads=2, seq=32, dim=4)
        layout = dense_layout(3, 32, 16)
        with pytest.raises(ValueError):
            block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout)

    def test_head_count_mismatch_raises_with_reference_kernels(self):
        # The validation must run before the toggle dispatch; the dense-mask
        # twin would otherwise broadcast a wrong-head layout silently.
        from repro.tensor import fused
        q, k, v = make_qkv(heads=2, seq=32, dim=4)
        layout = dense_layout(3, 32, 16)
        with fused.reference_kernels():
            with pytest.raises(ValueError):
                block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout)

    def test_gradients_zero_for_masked_key_blocks(self):
        """Keys attended by no query block receive zero gradient — the paper's
        Section II-D claim that inactive units drop out of the backward pass."""
        q, k, v = make_qkv(seq=32, dim=4, seed=9)
        masks = np.zeros((3, 2, 2), dtype=bool)
        masks[:, 0, 0] = True
        masks[:, 1, 1] = True   # second row never attends to first key block
        layout = layout_from_block_masks(masks, 16)
        qt, kt, vt = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = block_sparse_attention(qt, kt, vt, layout)
        # Upstream gradient only on the queries of the second block.
        g = np.zeros_like(out.data)
        g[:, :, 16:, :] = 1.0
        out.backward(g)
        np.testing.assert_allclose(vt.grad[:, :, :16, :], 0.0, atol=1e-7)
        np.testing.assert_allclose(kt.grad[:, :, :16, :], 0.0, atol=1e-7)


class TestNeuronSparseKernels:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def _mlp_params(self, d=8, hidden=32):
        fc1_w = Tensor(self.rng.normal(size=(hidden, d)).astype(np.float32), requires_grad=True)
        fc1_b = Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True)
        fc2_w = Tensor(self.rng.normal(size=(d, hidden)).astype(np.float32), requires_grad=True)
        fc2_b = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
        return fc1_w, fc1_b, fc2_w, fc2_b

    def test_expand_block_indices(self):
        np.testing.assert_array_equal(expand_block_indices(np.array([0, 2]), 4, 12),
                                      [0, 1, 2, 3, 8, 9, 10, 11])
        np.testing.assert_array_equal(expand_block_indices(np.array([1]), 8, 10), [8, 9])
        assert expand_block_indices(np.array([]), 4, 8).size == 0

    def test_all_neurons_active_matches_dense(self):
        fc1_w, fc1_b, fc2_w, fc2_b = self._mlp_params()
        x = Tensor(self.rng.normal(size=(2, 5, 8)).astype(np.float32), requires_grad=True)
        active = np.arange(32)
        out = neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b, active)
        dense = np.maximum(x.data @ fc1_w.data.T + fc1_b.data, 0) @ fc2_w.data.T + fc2_b.data
        np.testing.assert_allclose(out.data, dense, rtol=1e-4, atol=1e-5)

    def test_subset_matches_masked_dense(self):
        fc1_w, fc1_b, fc2_w, fc2_b = self._mlp_params()
        x = Tensor(self.rng.normal(size=(3, 8)).astype(np.float32))
        active = np.array([0, 1, 2, 3, 8, 9, 10, 11])
        out = neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b, active)
        hidden = np.maximum(x.data @ fc1_w.data.T + fc1_b.data, 0)
        masked = np.zeros_like(hidden)
        masked[:, active] = hidden[:, active]
        dense = masked @ fc2_w.data.T + fc2_b.data
        np.testing.assert_allclose(out.data, dense, rtol=1e-4, atol=1e-5)

    def test_gradients_only_on_active_neurons(self):
        fc1_w, fc1_b, fc2_w, fc2_b = self._mlp_params()
        x = Tensor(self.rng.normal(size=(4, 8)).astype(np.float32), requires_grad=True)
        active = np.array([4, 5, 6, 7])
        out = neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b, active)
        out.sum().backward()
        inactive = np.setdiff1d(np.arange(32), active)
        assert np.allclose(fc1_w.grad[inactive], 0)
        assert np.allclose(fc1_b.grad[inactive], 0)
        assert np.allclose(fc2_w.grad[:, inactive], 0)
        assert not np.allclose(fc1_w.grad[active], 0)
        assert x.grad is not None

    def test_gradients_match_dense_when_inactive_neurons_never_fire(self):
        """If the filtered-out neurons genuinely never activate, sparse and dense
        training steps produce identical gradients."""
        fc1_w, fc1_b, fc2_w, fc2_b = self._mlp_params()
        # Force neurons 16..31 to never fire by a large negative bias.
        fc1_b.data[16:] = -100.0
        x_data = self.rng.normal(size=(2, 6, 8)).astype(np.float32)
        active = np.arange(16)

        x1 = Tensor(x_data.copy(), requires_grad=True)
        sparse_out = neuron_sparse_linear_pair(x1, fc1_w, fc1_b, fc2_w, fc2_b, active)
        sparse_out.sum().backward()
        sparse_grads = (fc1_w.grad.copy(), fc2_w.grad.copy(), x1.grad.copy())
        for p in (fc1_w, fc1_b, fc2_w, fc2_b):
            p.zero_grad()

        x2 = Tensor(x_data.copy(), requires_grad=True)
        hidden = F.linear(x2, fc1_w, fc1_b).relu()
        dense_out = F.linear(hidden, fc2_w, fc2_b)
        dense_out.sum().backward()
        np.testing.assert_allclose(sparse_grads[0], fc1_w.grad, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(sparse_grads[1], fc2_w.grad, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(sparse_grads[2], x2.grad, rtol=1e-4, atol=1e-5)

    def test_coalesced_cache_matches_uncoalesced(self):
        fc1_w, fc1_b, fc2_w, fc2_b = self._mlp_params()
        x = Tensor(self.rng.normal(size=(3, 8)).astype(np.float32))
        active = np.array([0, 1, 2, 3, 20, 21, 22, 23])
        cache = NeuronSparseWeights(fc1_w.data, fc2_w.data, coalesced=True)
        out_cached = neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b, active, cache=cache)
        out_plain = neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b, active)
        np.testing.assert_allclose(out_cached.data, out_plain.data, rtol=1e-5)
        assert cache.fc2_weight_t.flags["C_CONTIGUOUS"]

    def test_capacity_moves_no_bit(self):
        """A capacity sizes a layer's buffers, not its work: an active set
        run at its own width and at the whole hidden width agrees in every
        bit of the output and gradients."""
        params = self._mlp_params(d=128, hidden=64)
        x_data = self.rng.normal(size=(4, 8, 128)).astype(np.float32)
        active = np.arange(48)
        runs = []
        for capacity in (0, 64):
            x = Tensor(x_data.copy(), requires_grad=True)
            cache = NeuronSparseWeights(params[0].data, params[2].data,
                                        coalesced=False, block=8,
                                        capacity=capacity)
            out = neuron_sparse_linear_pair(x, *params, active, cache=cache)
            (out * out).sum().backward()
            runs.append([out.data.copy(), x.grad.copy()]
                        + [p.grad.copy() for p in params])
            for p in params:
                p.zero_grad()
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_empty_active_set_rejected(self):
        fc1_w, fc1_b, fc2_w, fc2_b = self._mlp_params()
        x = Tensor(np.zeros((2, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b, np.array([], dtype=int))

    def test_gelu_rejected(self):
        fc1_w, fc1_b, fc2_w, fc2_b = self._mlp_params()
        x = Tensor(np.zeros((2, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b,
                                      np.arange(4), activation="gelu")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500), n_blocks=st.integers(2, 4), heads=st.integers(1, 3))
def test_block_sparse_attention_equals_masked_dense_for_random_layouts(seed, n_blocks, heads):
    """Property: for any random causal block mask, the fused sparse kernel equals
    dense attention under the equivalent element-level mask."""
    rng = np.random.default_rng(seed)
    block = 8
    seq = n_blocks * block
    q, k, v = [rng.normal(size=(1, heads, seq, 4)).astype(np.float32) for _ in range(3)]
    masks = rng.random((heads, n_blocks, n_blocks)) > 0.5
    layout = layout_from_block_masks(masks, block)
    out = block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout)
    ref = dense_attention(q, k, v, mask=layout.to_dense_mask(seq)[None])
    np.testing.assert_allclose(out.data, ref, rtol=1e-3, atol=1e-5)


# ---------------------------------------------------------------------------
# the tiled kernel: layout x tiling grid and its structural properties
# ---------------------------------------------------------------------------

def _grid_id(case):
    seq, block, sparsity, *kind = case
    return "-".join([f"seq{seq}-block{block}-sparsity{sparsity}", *kind])


@pytest.mark.parity
@pytest.mark.parametrize("case", parity.TILE_GRID, ids=_grid_id)
def test_tiled_kernel_matches_reference_and_finite_differences(case):
    seq, block, sparsity, kind = case
    parity.run_tile_grid_case(parity.grid_layout(seq, block, sparsity), seq, kind)


@pytest.mark.parity
@pytest.mark.parametrize("name", sorted(parity.EDGE_CASES))
def test_class_kernel_edge_layouts_match_reference_and_finite_differences(name):
    layout, seq, batch = parity.EDGE_CASES[name]()
    parity.run_tile_grid_case(layout, seq, batch=batch)


# name -> (one atomic pattern per head, seq): the predicted mixes sparse
# fine-tuning runs — short sequences with dense and strided heads, and the
# local-window-plus-sink mix long sequences predict, whose kept blocks per
# query row stay constant as the sequence grows.
POOL_MIXES = {
    "mixed-seq256": (("local2", "dense", "local4", "local4+global2", "local2",
                      "dense", "local8+global2", "strided2+local2"), 256),
    "local-sink-seq512": (("local2", "local2+global1", "local4", "local2",
                           "local4+global1", "local2", "local2+global1",
                           "local4"), 512),
}


@pytest.mark.parity
@pytest.mark.parametrize("name", sorted(POOL_MIXES))
def test_pool_pattern_layouts_match_reference_and_finite_differences(name):
    patterns, seq = POOL_MIXES[name]
    block = 32
    n_blocks = block_count(seq, block)
    layout = layout_from_block_masks(
        np.stack([pattern_mask(p, n_blocks) for p in patterns]), block)
    assert 0.0 < layout.sparsity() < 1.0
    parity.run_tile_grid_case(layout, seq)


@pytest.mark.parity
@pytest.mark.parametrize("rungs", [1, 2])
@pytest.mark.parametrize("case", [c[:3] for c in parity.TILE_GRID
                                  if c[3] == "classes"], ids=_grid_id)
def test_widening_a_capacity_class_is_arithmetically_inert(case, rungs):
    parity.assert_padding_inert(*case, rungs)


@pytest.mark.parity
@pytest.mark.parametrize("block", [16, 32, 64])
@pytest.mark.parametrize("seq", [48, 100, 128, 256])
def test_dense_streaming_is_the_all_causal_blocks_layout(seq, block):
    parity.assert_dense_is_degenerate_sparse(seq, block)


def test_rows_without_a_kept_block_are_exactly_zero():
    # Head 0 keeps nothing in block row 1: its rows there read exactly zero,
    # and pulling on them moves no gradient.
    layout, seq = parity.empty_row_layout(), 21
    arrays = make_qkv(batch=2, heads=2, seq=seq, dim=4, seed=3)
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    out = fused.tiled_attention(q, k, v, compute_block_geometry(layout, seq))
    ref = dense_attention(*arrays, mask=layout.to_dense_mask(seq)[None])
    np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-6)
    assert not out.data[:, 0, 8:16].any()
    grad = np.zeros_like(out.data)
    grad[:, 0, 8:16] = 1.0                     # only the empty rows pull
    out.backward(grad)
    for tensor in (q, k, v):
        assert not tensor.grad.any()


# ---------------------------------------------------------------------------
# perf_smoke gates that read no clock
# ---------------------------------------------------------------------------

def _sink_window_layout(seq, block=16, heads=3):
    """Every block row keeps key block 0, the previous block and its own: the
    same per-row block counts at any length."""
    n_blocks = seq // block
    masks = np.eye(n_blocks, dtype=bool) | np.eye(n_blocks, k=-1, dtype=bool)
    masks[:, 0] = True
    return layout_from_block_masks(np.repeat(masks[None], heads, axis=0), block)


@pytest.mark.perf_smoke
def test_seven_gemms_per_class_chunk_whatever_the_length(monkeypatch):
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul",
                        lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
    counts = {}
    for seq in (256, 1024):
        geometry = compute_block_geometry(_sink_window_layout(seq), seq)
        q, k, v = (Tensor(a, requires_grad=True)
                   for a in make_qkv(batch=1, heads=3, seq=seq, dim=8))
        calls.clear()
        out = fused.tiled_attention(q, k, v, geometry)
        assert len(calls) == 2 * len(geometry.tiles)
        out.backward(np.ones_like(out.data))
        assert len(calls) == 7 * len(geometry.tiles)
        counts[seq] = len(calls)
    # Row tiles made 7 GEMMs per block row; classes do not grow with length.
    assert counts[256] == counts[1024] == 7 * 8
