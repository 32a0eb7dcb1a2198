"""Correctness tests for the fused kernels, the tightened backward engine and
the block-sparse geometry.

The per-op gradchecks live in the shared parity harness (:mod:`parity`):
every fused op — including the block-sparse attention chain — is exercised
across a grid of shapes, dtypes and odd/ragged sequence lengths, under both
states of the fused-kernel toggle, against central finite differences (max
rel err <= 1e-3) and the primitive-composition references.  This file drives
that grid and keeps the checks the harness does not parametrise: the kernel
switch plumbing (down to whole-model losses and gradients), overflow safety at extreme score magnitudes, the backward
engine's accumulation semantics, the GEMMs a frozen input saves, and the
held-geometry guarantees.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import parity
from repro.models import build_model
from repro.nn.attention import causal_mask
from repro.optim import Adam
from repro.sparsity.engine import EngineStats
from repro.sparsity.ops import block_sparse_attention, compute_block_geometry
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.patterns import pattern_mask
from repro.tensor import Tensor, arena, fused, no_grad, plan, reference
from repro.tensor.tensor import concatenate

RNG = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# fused-vs-reference parity grid (shared harness in tests/parity.py)
# ---------------------------------------------------------------------------

@pytest.mark.parity
@pytest.mark.parametrize("fused_enabled", [True, False],
                         ids=["fused-on", "fused-off"])
@pytest.mark.parametrize("case", parity.ALL_CASES, ids=str)
def test_parity(case, fused_enabled):
    parity.run_case(case, fused_enabled=fused_enabled)


@pytest.mark.parity
@pytest.mark.parametrize("case", parity.REPLAY_CASES, ids=str)
def test_recorded_replay_matches_interpreted(case):
    parity.run_replay_case(case)


@pytest.mark.parametrize("kernel", [fused.linear, reference.linear],
                         ids=["fused", "reference"])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_linear_rejects_an_activation_it_does_not_fuse(kernel, activation):
    # Only relu and gelu fold into the linear node (and into the MLP kernel
    # the bottleneck adapter runs on); tanh runs as its own op (prefix
    # reparametrisation) and no caller asks for sigmoid.  An unfused name
    # must raise, not come back as the bare affine map.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    with pytest.raises(ValueError, match=activation):
        kernel(x, w, activation=activation)


class TestOverflowSafety:
    """Softmax chains must survive extreme score magnitudes (|x| ~ 1e4)."""

    def test_reference_attention_subtracts_row_max(self):
        rng = np.random.default_rng(0)
        q, k, v = [rng.normal(size=(1, 2, 8, 4)).astype(np.float32) * 100.0
                   for _ in range(3)]
        out = reference.scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), causal_mask(8)).data
        assert np.all(np.isfinite(out))
        # Matches the fused kernel on the same extreme inputs.
        fused_out = fused.scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), causal_mask(8))
        np.testing.assert_allclose(out, fused_out.data, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("magnitude", [1e3, 1e4])
    def test_masked_softmax_extreme_scores(self, magnitude):
        rng = np.random.default_rng(1)
        scores = (rng.normal(size=(2, 6, 6)) * magnitude).astype(np.float32)
        mask = causal_mask(6)
        probs = reference.masked_softmax(Tensor(scores), mask)
        assert np.all(np.isfinite(probs.data))
        # The same scores inside attention: q = scores against identity keys
        # at scale 1, so q k^T reproduces them exactly.
        q = scores[None]                                   # (1, 2, 6, 6)
        k = np.broadcast_to(np.eye(6, dtype=np.float32), q.shape).copy()
        v = rng.normal(size=q.shape).astype(np.float32)
        out = fused.scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), mask, scale=1.0)
        ref = reference.scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), mask, scale=1.0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, ref.data, atol=1e-6)

    def test_sparse_chain_extreme_scores(self):
        layout = parity._random_layout(5, heads=2, n_blocks=2, block_size=8)
        rng = np.random.default_rng(2)
        q, k, v = [(rng.normal(size=(1, 2, 16, 4)) * 100.0).astype(np.float32)
                   for _ in range(3)]
        out = block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout)
        ref = reference.block_sparse_attention(Tensor(q), Tensor(k), Tensor(v),
                                               layout)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-4, atol=1e-4)


class TestKernelSwitch:
    def test_reference_kernels_context_restores(self):
        assert fused.fused_kernels_enabled()
        with fused.reference_kernels():
            assert not fused.fused_kernels_enabled()
        assert fused.fused_kernels_enabled()

    def test_model_loss_matches_between_modes(self):
        from repro.models import build_model
        ids = np.random.default_rng(3).integers(0, 512, size=(2, 32))
        model = build_model("gpt2-tiny", seed=0)
        loss_fused, n_fused = model.loss(ids)
        with fused.reference_kernels():
            loss_ref, n_ref = model.loss(ids)
        assert n_fused == n_ref
        np.testing.assert_allclose(loss_fused.data, loss_ref.data, rtol=2e-4)

    def test_sparse_chain_routes_through_toggle(self):
        """With fused kernels off, the sparse entry point runs the taped twin
        (observable through the much deeper graph it builds)."""
        layout = parity._random_layout(3, heads=2, n_blocks=2, block_size=8)
        rng = np.random.default_rng(4)
        q, k, v = [Tensor(rng.normal(size=(1, 2, 16, 3)).astype(np.float32),
                          requires_grad=True) for _ in range(3)]
        fused_out = block_sparse_attention(q, k, v, layout)
        assert len(fused_out._parents) == 3      # single fused node
        with fused.reference_kernels():
            taped_out = block_sparse_attention(q, k, v, layout)
        assert len(taped_out._parents) == 2      # tail matmul of the taped twin
        np.testing.assert_allclose(fused_out.data, taped_out.data,
                                   rtol=1e-4, atol=1e-5)


def _one_step_grads(model_name: str, seed: int = 0):
    """Loss value and a couple of parameter gradients after one step."""
    model = build_model(model_name, seed=seed)
    ids = np.random.default_rng(5).integers(0, model.config.vocab_size,
                                            size=(2, 32))
    loss, _ = model.loss(ids)
    loss.backward()
    params = model.trainable_parameters()
    return float(loss.data), [p.grad.copy() for p in params[:4]]


@pytest.mark.perf_smoke
@pytest.mark.parametrize("model_name", ["gpt2-tiny", "opt-tiny"])
def test_fused_and_reference_modes_agree_end_to_end(model_name):
    loss_fused, grads_fused = _one_step_grads(model_name)
    with fused.reference_kernels():
        loss_ref, grads_ref = _one_step_grads(model_name)
    np.testing.assert_allclose(loss_fused, loss_ref, rtol=2e-4)
    for gf, gr in zip(grads_fused, grads_ref):
        np.testing.assert_allclose(gf, gr, rtol=5e-3, atol=1e-5)
    assert fused.fused_kernels_enabled()  # switch restored


@pytest.mark.perf_smoke
def test_fused_training_step_reduces_loss():
    model = build_model("gpt2-tiny", seed=0)
    ids = np.random.default_rng(9).integers(0, model.config.vocab_size,
                                            size=(2, 32))
    optimizer = Adam(model.trainable_parameters(), lr=5e-3)
    first = None
    for _ in range(5):
        loss, _ = model.loss(ids)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        model.zero_grad()
        first = first if first is not None else float(loss.data)
    assert float(loss.data) < first


# ---------------------------------------------------------------------------
# backward engine: single accumulation path
# ---------------------------------------------------------------------------

class TestBackwardAccumulation:
    def test_diamond_graph_shared_leaf(self):
        # y = (2x + 3x) * 2x = 10 x**2  ->  dy/dx = 20 x, with x feeding the
        # product through two interior paths plus a reused intermediate.
        x = Tensor(np.array([1.5, -2.0, 3.0], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        y = (a + x * 3.0) * a
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 20.0 * x.data, rtol=1e-6)

    def test_leaf_used_twice_in_one_op(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_add_aliased_gradient_not_corrupted(self):
        # __add__ hands the *same* gradient array to both parents; the
        # accumulation path must not mutate one parent's copy in place while
        # the other still references it.
        x = Tensor(np.array([1.0, -1.0], dtype=np.float32), requires_grad=True)
        y = Tensor(np.array([2.0, 0.5], dtype=np.float32), requires_grad=True)
        s = x + y
        (s * s).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * (x.data + y.data))
        np.testing.assert_allclose(y.grad, 2.0 * (x.data + y.data))

    def test_concatenate_diamond(self):
        x = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        c = concatenate([x * 2.0, x * 3.0], axis=0)
        c.sum().backward()
        np.testing.assert_allclose(x.grad, np.full(4, 5.0))

    def test_grad_accumulates_across_fresh_graphs(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 4.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 6.0))

    def test_retain_graph_allows_second_backward(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = (x * x).sum()
        y.backward(retain_graph=True)
        y.backward(retain_graph=True)
        np.testing.assert_allclose(x.grad, np.array([8.0]))

    def test_graph_is_freed_after_backward(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * 2.0
        z = y.sum()
        z.backward()
        assert z._parents == () and y._parents == ()
        assert z._backward is not None  # freed sentinel, not a leaf marker

    def test_second_backward_on_freed_graph_raises(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        z = (x * 2.0).sum()
        z.backward()
        with pytest.raises(RuntimeError, match="retain_graph"):
            z.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))  # untouched

    def test_backward_accepts_tensor_seed(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        y = x * 3.0
        y.backward(Tensor(np.array([1.0, 0.5], dtype=np.float32)))
        np.testing.assert_allclose(x.grad, np.array([3.0, 1.5]))

    def test_deep_chain_matches_closed_form(self):
        x = Tensor(np.array([0.5], dtype=np.float32), requires_grad=True)
        out = x
        for _ in range(50):
            out = out * 1.1
        out.backward(np.ones(1, dtype=np.float32))
        np.testing.assert_allclose(x.grad, np.array([1.1 ** 50]), rtol=1e-5)


# ---------------------------------------------------------------------------
# a frozen key takes no gradient and costs no GEMM
# ---------------------------------------------------------------------------

def _attention_backward(kernel, k_trainable, monkeypatch):
    """(backward GEMM count, grad_q, grad_k, grad_v) of one attention call."""
    rng = np.random.default_rng(11)
    q, k, v = (rng.normal(size=(1, 2, 48, 8)).astype(np.float32) for _ in range(3))
    q, v = Tensor(q, requires_grad=True), Tensor(v, requires_grad=True)
    k = Tensor(k, requires_grad=k_trainable)
    out = kernel(q, k, v)
    calls = []
    matmul = np.matmul
    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul",
                      lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
        out.backward(rng.normal(size=out.shape).astype(np.float32))
    return len(calls), q.grad, k.grad, v.grad


def _sdpa_in_head_slices(q, k, v):
    """Row tiles of 16 under a budget of one head's widest tile (16 x 48
    float32): the first tile's two-head stack fits, the other two tiles run
    one slice per head — 1 + 2 + 2 slices."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fused, "ATTENTION_TILE_BYTES", 16 * 48 * 4)
        return fused.scaled_dot_product_attention(q, k, v, causal_mask(48), tile=16)


def _class_chunks(q, k, v):
    """Blocks of 8, every block row keeping key block 0, the previous block
    and its own, run in the layout's six capacity-class chunks."""
    masks = np.eye(6, dtype=bool) | np.eye(6, k=-1, dtype=bool)
    masks[:, 0] = True
    layout = layout_from_block_masks(np.repeat(masks[None], 2, axis=0), 8)
    return fused.tiled_attention(q, k, v, compute_block_geometry(layout, 48))


# One tile over all 48 rows, three of 16, those three cut into 1 + 2 + 2
# head slices, and a block-sparse layout's class chunks.
_ATTENTION_KERNELS = {
    "sdpa": lambda q, k, v: fused.scaled_dot_product_attention(q, k, v, causal_mask(48)),
    "row-tiles": lambda q, k, v: fused.scaled_dot_product_attention(
        q, k, v, causal_mask(48), tile=16),
    "head-slices": _sdpa_in_head_slices,
    "class-chunks": _class_chunks,
}


@pytest.mark.perf_smoke
@pytest.mark.parametrize("name,gemms_saved",
                         [("sdpa", 1), ("row-tiles", 3), ("head-slices", 5),
                          ("class-chunks", 6)],
                         ids=["sdpa", "row-tiles", "head-slices", "class-chunks"])
def test_frozen_key_skips_its_gemm(name, gemms_saved, monkeypatch):
    # Layer 0 of a LoRA-q/v model sees a frozen k: no dK is formed, and the
    # gradients that are formed keep every bit.  No stack splits unless the
    # row sets its own budget, so the counts hold whatever the module's.
    # One dK GEMM fewer per tile, per slice once tiles split, and per class
    # chunk.
    monkeypatch.setattr(fused, "ATTENTION_TILE_BYTES", 1 << 62)
    trained = _attention_backward(_ATTENTION_KERNELS[name], True, monkeypatch)
    frozen = _attention_backward(_ATTENTION_KERNELS[name], False, monkeypatch)
    assert frozen[0] == trained[0] - gemms_saved
    assert frozen[2] is None and trained[2] is not None
    assert np.array_equal(frozen[1], trained[1])
    assert np.array_equal(frozen[3], trained[3])


@pytest.mark.perf_smoke
@pytest.mark.parametrize("name,gemms", [
    ("sdpa", (2, 7)), ("row-tiles", (6, 21)), ("head-slices", (10, 35)),
], ids=["sdpa", "row-tiles", "head-slices"])
def test_seven_gemms_per_dense_slice(name, gemms, monkeypatch):
    # (forward, forward + backward) GEMMs over 1, 3 and 1 + 2 + 2 slices:
    # two forward and five backward per slice, as per class chunk
    # (tests/test_sparse_ops.py::test_seven_gemms_per_class_chunk_whatever_the_length).
    monkeypatch.setattr(fused, "ATTENTION_TILE_BYTES", 1 << 62)
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul",
                        lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
    rng = np.random.default_rng(11)
    q, k, v = (Tensor(rng.normal(size=(1, 2, 48, 8)).astype(np.float32),
                      requires_grad=True) for _ in range(3))
    out = _ATTENTION_KERNELS[name](q, k, v)
    forward = len(calls)
    out.backward(np.ones_like(out.data))
    assert (forward, len(calls)) == gemms


# ---------------------------------------------------------------------------
# dense row tiles cut into head slices keep every bit and bound the scratch
# ---------------------------------------------------------------------------

def _split_case():
    """Batch 2 x 4 heads x 100 rows of 16, a per-batch ragged keep-mask (causal,
    ~20 % more dropped) with one fully masked row, a random upstream gradient."""
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(2, 4, 100, 16)).astype(np.float32) for _ in range(6)]
    mask = np.tril(np.ones((100, 100), bool)) & (rng.random((2, 1, 100, 100)) < 0.8)
    mask[0, 0, 37] = False
    grad = rng.normal(size=(2, 4, 100, 16)).astype(np.float32)
    return arrays[:3], arrays[3:], mask, grad


def _attention_at_budget(monkeypatch, budget, k_trainable, replayed=False):
    """(out, grad_q, grad_k, grad_v) of :func:`_split_case`'s attention at
    row tile 32 with ``ATTENTION_TILE_BYTES = budget``.  ``replayed``
    records the call on the first inputs, restages the second ones and
    replays the plan; otherwise the second inputs run interpreted."""
    recorded, restaged, mask, grad = _split_case()
    monkeypatch.setattr(fused, "ATTENTION_TILE_BYTES", budget)
    q, k, v = (Tensor((recorded if replayed else restaged)[i].copy(),
                      requires_grad=i != 1 or k_trainable) for i in range(3))
    rec = plan.ForwardRecorder() if replayed else None
    plan.set_recorder(rec)
    try:
        out = fused.scaled_dot_product_attention(q, k, v, mask, tile=32)
    finally:
        plan.set_recorder(None)
    if replayed:
        assert rec.ok(), rec.fail_reason
        for tensor, values in zip((q, k, v), restaged):
            tensor.data[...] = values
        plan.ForwardPlan(rec.entries).run()
    out.backward(grad)
    return out.data, q.grad, k.grad, v.grad


@pytest.mark.parametrize("k_trainable", [True, False], ids=["k-trained", "k-frozen"])
@pytest.mark.parametrize("budget", [
    1,                  # every tile's stack splits, one head per slice
    32 * 100 * 4,       # one head's widest tile: the first tile in 3 + 1 heads
], ids=["per-head", "head-groups"])
@pytest.mark.parametrize("replayed", [False, True], ids=["interpreted", "replayed"])
def test_head_slices_are_bitwise_the_whole_stack(budget, k_trainable, replayed,
                                                 monkeypatch):
    whole = _attention_at_budget(monkeypatch, 1 << 62, k_trainable)
    sliced = _attention_at_budget(monkeypatch, budget, k_trainable, replayed)
    assert (whole[2] is None) == (not k_trainable) == (sliced[2] is None)
    for a, b in zip(whole, sliced):
        assert a is None or np.array_equal(a, b)
    # The fully masked row keeps exact zeros through the slices.
    assert not sliced[0][0, :, 37].any() and not sliced[1][0, :, 37].any()


@pytest.mark.alloc
@pytest.mark.parametrize("recorded", [False, True], ids=["interpreted", "recorded"])
def test_split_attention_holds_no_buffer_over_the_budget(recorded, monkeypatch):
    # Batch 2 x 4 heads x 256 rows of 8, causal, row tiles of 128, under a
    # budget of one head's widest tile (128 x 256 float32 = 128 KiB): the
    # stacks (512 KiB and 1 MiB) split, and no buffer the plan, its scratch
    # pool or the arena holds after forward and backward is larger than the
    # budget.  Unsliced, the score scratch alone is 1 MiB.
    budget = 128 * 256 * 4
    monkeypatch.setattr(fused, "ATTENTION_TILE_BYTES", budget)
    rng = np.random.default_rng(9)
    q, k, v = (Tensor(rng.normal(size=(2, 4, 256, 8)).astype(np.float32),
                      requires_grad=True) for _ in range(3))
    rec = plan.ForwardRecorder() if recorded else None
    pool = arena.BufferArena()
    with arena.scope(pool):
        plan.set_recorder(rec)
        try:
            out = fused.scaled_dot_product_attention(q, k, v, causal_mask(256))
        finally:
            plan.set_recorder(None)
        out.backward(rng.normal(size=out.shape).astype(np.float32))
    buffers = pool.buffers() + (rec.owned() if recorded else ())
    assert buffers and max(buf.nbytes for buf in buffers) <= budget, \
        sorted((buf.nbytes, buf.shape) for buf in buffers)[-3:]


# ---------------------------------------------------------------------------
# the fused LM-head loss binds no gradient half where none is needed
# ---------------------------------------------------------------------------

def _head_loss(monkeypatch, h_grad, grad_enabled=True):
    """(loss, GEMM count, plan-buffer shapes) of one recorded fused LM-head
    loss over two sequences of 150 tokens (two chunks each)."""
    rng = np.random.default_rng(12)
    h = Tensor(rng.normal(size=(2, 150, 8)).astype(np.float32),
               requires_grad=h_grad)
    w = Tensor(rng.normal(size=(40, 8)).astype(np.float32))
    targets = rng.integers(0, 40, size=(2, 150))
    calls = []
    matmul = np.matmul
    rec = plan.ForwardRecorder()
    with monkeypatch.context() as patch, \
            (contextlib.nullcontext() if grad_enabled else no_grad()):
        patch.setattr(np, "matmul",
                      lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
        plan.set_recorder(rec)
        try:
            loss, _ = fused.linear_cross_entropy(h, w, targets)
        finally:
            plan.set_recorder(None)
    return loss.data, len(calls), [buf.shape for buf in rec.buffers]


@pytest.mark.perf_smoke
def test_linear_cross_entropy_without_gradients_runs_no_dx_gemm(monkeypatch):
    # With a gradient the forward forms dX chunk by chunk: one logits GEMM
    # and one dX GEMM per chunk, into a plan buffer shaped like the hidden
    # states.  Under no_grad, or with every input frozen, only the logits
    # GEMMs run and the loss is the one plan buffer — and the same bits.
    chunks = 2 * 2
    loss, gemms, buffers = _head_loss(monkeypatch, h_grad=True)
    assert gemms == 2 * chunks and buffers == [(), (2, 150, 8)]
    for off in (_head_loss(monkeypatch, h_grad=True, grad_enabled=False),
                _head_loss(monkeypatch, h_grad=False)):
        assert off[1] == chunks and off[2] == [()]
        assert off[0].tobytes() == loss.tobytes()


# ---------------------------------------------------------------------------
# the MLP walks the LM head's row chunks; whole arrays only for what trains
# ---------------------------------------------------------------------------

def test_row_chunks_cover_the_rows_with_no_one_row_chunk():
    # Contiguous chunks of at most LOSS_ROW_CHUNK rows; a one-row remainder
    # joins the chunk before it (BLAS runs a one-row product as a GEMV), so
    # a one-row chunk is only ever a single row.
    for n in range(1, 4 * fused.LOSS_ROW_CHUNK + 2):
        chunks = fused.row_chunks(n)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        sizes = [r1 - r0 for r0, r1 in chunks]
        assert max(sizes) <= fused.LOSS_ROW_CHUNK
        assert n == 1 or min(sizes) > 1
    assert fused.row_chunks(129) == ((0, 127), (127, 129))


@pytest.mark.perf_smoke
@pytest.mark.parametrize("trains,extra", [
    ((), 0), (("b1", "b2"), 0), (("w1", "w2"), 2)],
    ids=["frozen", "biases", "weights"])
def test_mlp_runs_two_gemms_per_chunk_and_one_per_trained_weight(
        trains, extra, monkeypatch):
    # 300 rows are three chunks (128, 128, 44): two GEMMs per chunk forward
    # and two backward; a trained weight's gradient is one more GEMM over
    # the whole array, and a trained bias one reduction, never a GEMM.
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(1, 300, 8)).astype(np.float32), requires_grad=True)
    names = ("w1", "b1", "w2", "b2")
    params = [Tensor(rng.normal(size=shape).astype(np.float32),
                     requires_grad=name in trains)
              for name, shape in zip(names, [(16, 8), (16,), (8, 16), (8,)])]
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul",
                        lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
    out = fused.mlp(x, *params, activation="relu")
    forward = len(calls)
    out.backward(np.ones_like(out.data))
    assert (forward, len(calls) - forward) == (2 * 3, 2 * 3 + extra)
    assert all((p.grad is not None) == (name in trains)
               for name, p in zip(names, params))


# ---------------------------------------------------------------------------
# cached causal mask
# ---------------------------------------------------------------------------

class TestCausalMaskCache:
    def test_same_object_returned(self):
        assert causal_mask(16) is causal_mask(16)

    def test_read_only(self):
        mask = causal_mask(16)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = False

    def test_values(self):
        np.testing.assert_array_equal(causal_mask(4),
                                      np.tril(np.ones((4, 4), dtype=bool)))


# ---------------------------------------------------------------------------
# block-sparse geometry
# ---------------------------------------------------------------------------

def _random_layout(seed=0, heads=3, n_blocks=4, block_size=8):
    return parity._random_layout(seed, heads, n_blocks, block_size)


class TestBlockGeometry:
    def test_outputs_bitwise_identical_with_held_and_computed_geometry(self):
        layout = _random_layout()
        seq_len = 30  # deliberately not a block multiple
        rng = np.random.default_rng(1)
        shape = (2, layout.n_heads, seq_len, 5)
        q = rng.normal(size=shape).astype(np.float32)
        k = rng.normal(size=shape).astype(np.float32)
        v = rng.normal(size=shape).astype(np.float32)

        def run(**geometry):
            qt = Tensor(q, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            vt = Tensor(v, requires_grad=True)
            out = block_sparse_attention(qt, kt, vt, layout, **geometry)
            out.sum().backward()
            return out.data, qt.grad, kt.grad, vt.grad

        held = compute_block_geometry(layout, seq_len)

        class Lookup:   # any object with ``lookup`` is still taken as ``cache=``
            def lookup(self, layout, seq_len):
                return held

        computed = run()
        for other in (run(geometry=held), run(geometry=held), run(cache=Lookup())):
            for a, b in zip(computed, other):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("seq_len,layout", [
        (30, _random_layout(seed=5)), (32, _random_layout(seed=6)),
        (27, _random_layout(seed=7)),
        (21, parity.empty_row_layout())], ids=["30", "32", "27", "empty-rows"])
    def test_classes_reproduce_the_dense_element_mask(self, seq_len, layout):
        # The panels are the layout: every unit appears once, its panel lists
        # the earlier key blocks it keeps (ascending), inert padding, then its
        # diagonal; the padding mask marks exactly the inert slots; a chunk
        # stays within one staged grid; and scattering the kept blocks back
        # rebuilds ``to_dense_mask``.
        geom = compute_block_geometry(layout, seq_len)
        bs, nb, heads = layout.block_size, layout.n_blocks, layout.n_heads
        lead = heads * nb
        assert np.array_equal(np.sort(geom.units), np.arange(lead))
        assert geom.tiles[0].u0 == 0 and geom.tiles[-1].u1 == lead
        kept = np.zeros((heads, nb, nb), dtype=bool)
        for tile in geom.tiles:
            slots = tile.index.reshape(tile.u1 - tile.u0, tile.capacity)
            assert slots.size <= lead
            # The drop mask: every inert slot, nothing else, one bool a block.
            drop = np.zeros((tile.capacity, len(slots)), dtype=bool)
            if tile.drop is not None:
                drop[tile.first:] = tile.drop
            assert np.array_equal(drop, (slots == lead).T)
            for unit, row in zip(geom.units[tile.u0:tile.u1], slots):
                earlier = row[:-1][row[:-1] != lead]
                assert np.all(np.diff(earlier) > 0) and np.all(earlier < unit)
                assert np.all(row[:earlier.size] == earlier)
                assert row[-1] in (unit, lead)
                head = unit // nb
                kept[head, unit % nb, row[row != lead] - head * nb] = True
        element = np.repeat(np.repeat(kept, bs, axis=1), bs, axis=2)[:, :seq_len, :seq_len]
        rebuilt = element & np.tril(np.ones((seq_len, seq_len), dtype=bool))
        assert np.array_equal(rebuilt, layout.to_dense_mask(seq_len))

    def test_entry_footprint_is_bounded_by_the_causal_half(self):
        # Masks are kept per block, not per element: a held geometry has a
        # slot per executed panel block, one unit permutation and a bool per
        # (inert panel block, unit) — the diagonal's causal triangle is one
        # array shared by every chunk — well under one bool per (head, row,
        # panel column) of the causal half.
        names = ("dense", "strided2+local2", "local4", "dense")
        layout = layout_from_block_masks(np.stack([pattern_mask(n, 16) for n in names]), 16)
        geom = compute_block_geometry(layout, 256)
        held = geom.units.nbytes + sum(
            tile.index.nbytes + (0 if tile.drop is None else tile.drop.nbytes)
            for tile in geom.tiles)
        rows = geom.block
        assert held <= layout.n_heads * 256 * (256 + rows) // 16


# ---------------------------------------------------------------------------
# engine refresh record
# ---------------------------------------------------------------------------

class TestEngineStats:
    def test_reuses_count_steps_not_calls(self):
        """Refreshes on steps 1 and 5 (K=4) plus a second refresh on step 8
        (a sequence-length change): the reuses are the other steps since the
        first refresh, however many backend calls each step made."""
        stats = EngineStats()
        layer = stats.attention_layer(0)
        for step in range(1, 9):
            stats.steps = step
            if step in (1, 5):
                layer.record_refresh(step, 0.25)
        layer.record_refresh(8)
        layer.record_refresh(8)
        assert layer.refreshes == 4
        assert stats.reuses(layer) == 5               # steps 2-4, 6-7
        assert stats.reuses(stats.mlp_layer(0)) == 0  # never refreshed
        assert stats.attention_reuse_rate() == pytest.approx(5 / 9)
        assert stats.mean_attention_drift() == pytest.approx(0.25)

    def test_constant_memory(self):
        stats = EngineStats()
        for step in range(10):
            stats.steps = step
            stats.attention_layer(0).record_refresh(step, 0.25)
        # Fields are scalars, or per-layer dicts whose size is bounded by the
        # layer count (not the step count) and whose entries are scalars.
        assert all(isinstance(v, (int, float, dict)) for v in vars(stats).values())
        assert len(stats.attention_layers) == 1
        layer = stats.attention_layer(0)
        assert all(isinstance(v, (int, float)) for v in vars(layer).values())
        assert layer.refreshes == 10 and stats.reuses(layer) == 0
        assert layer.drift_mean == pytest.approx(0.25)

    def test_reset(self):
        stats = EngineStats(prediction_seconds=1.0, steps=3)
        stats.attention_layer(1).record_refresh(3, 0.5)
        stats.reset()
        assert stats == EngineStats()
        assert stats.layout_reuse_counts() == dict.fromkeys(
            ("attention_reuses", "attention_refreshes", "mlp_reuses", "mlp_refreshes"), 0)
