"""Reusable fused-vs-reference parity harness.

Every fused kernel in the stack has three independent correctness anchors:

* the **primitive-composition twin** in :mod:`repro.tensor.reference`, whose
  backward is derived by autograd from elementary ops;
* **central finite differences** of the dispatched forward itself;
* the **reference tape** (:func:`repro.tensor.fused.reference_kernels`),
  which must route the same call sites through the other implementation.

This module turns those anchors into data: :func:`build_cases` returns one
:class:`ParityCase` per (op, shape/dtype/sequence-length configuration), and
:func:`run_case` executes the full check for a case under either toggle
state.  Ops are always invoked through their *dispatch* entry point (the
``repro.tensor.functional`` layer for the dense kernels,
``repro.sparsity.ops.block_sparse_attention`` for the sparse chain), so a
case run with ``fused_enabled=False`` gradchecks the reference twin and the
toggle plumbing at the same time.

Adding a new fused op = appending cases in :func:`build_cases`; the test
files stay untouched.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.sparsity.ops import (MultiHeadLayout, NeuronSparseWeights,
                                block_sparse_attention, compute_block_geometry,
                                neuron_sparse_linear_pair)
from repro.sparsity.ops.geometry import _CAPACITY_LADDER, _class_chunks
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.patterns import block_count, causal_block_mask
from repro.tensor import Tensor, arena, functional as F, fused, plan, reference


@dataclass
class ParityCase:
    """One op under one input configuration, ready for gradchecking."""

    op: str                       # op family ("layer_norm", "sparse_chain", ...)
    case_id: str                  # unique pytest id, e.g. "layer_norm-3d-f32"
    dispatch: Callable            # toggle-routed entry point, takes Tensors
    reference: Callable           # primitive-composition twin, takes Tensors
    arrays: List[np.ndarray]      # differentiable inputs (gradchecked each)
    tol_fd: float = 1e-3          # max rel err vs central finite differences
    tol_ref: float = 5e-5         # max rel err fused vs reference autograd
    scalar_output: bool = False   # op returns a scalar loss (e.g. (loss, n))
    replayable: bool = False      # the call records as a ForwardPlan entry

    def __str__(self) -> str:  # pragma: no cover - pytest id helper
        return self.case_id


def sample_block_mass(exposer, probs: np.ndarray) -> np.ndarray:
    """Per-sample exposer block mass ``(n, heads, n_blocks, n_blocks)`` of
    full attention probabilities — the reference for what
    ``collect_block_mass`` reduces at production."""
    return np.stack([exposer.block_reduce(probs[i:i + 1])
                     for i in range(probs.shape[0])])


def reference_block_reduce(exposer, probs: np.ndarray) -> np.ndarray:
    """Twin of :meth:`AttentionExposer.block_reduce` as one 6-D reshape-sum
    (the production path reduces in two per-axis ``np.add.reduceat`` stages)."""
    probs = np.asarray(probs)
    if probs.ndim == 3:
        probs = probs[None]
    batch, heads, seq, _ = probs.shape
    bs = exposer.block_size
    n_blocks = block_count(seq, bs)
    padded = n_blocks * bs
    if padded != seq:
        pad = padded - seq
        probs = np.pad(probs, ((0, 0), (0, 0), (0, pad), (0, pad)))
    reduced = probs.reshape(batch, heads, n_blocks, bs, n_blocks, bs).sum(axis=(0, 3, 5))
    return reduced * causal_block_mask(n_blocks)[None]


def reference_probe_scores(predictor, x: np.ndarray) -> np.ndarray:
    """Twin of :meth:`AttentionPredictor.approximate_scores` from per-head
    einsum pairs for Q̂/K̂ (the production path runs one stacked GEMM over
    packed weights, so this twin also sees weight updates the memo missed)."""
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[None]
    batch, seq, dim = x.shape
    n_blocks = block_count(seq, predictor.block_size)
    centers = np.arange(n_blocks) * predictor.block_size + predictor.block_size // 2
    x_ds = x[:, np.minimum(centers, seq - 1), :]
    q_hat = np.einsum("bnd,hdr->bhnr", x_ds, predictor.w_q.data, optimize=True)
    k_hat = np.einsum("bnd,hdr->bhnr", x_ds, predictor.w_k.data, optimize=True)
    return np.matmul(q_hat, np.swapaxes(k_hat, -1, -2)) / np.sqrt(predictor.rank)


# ---------------------------------------------------------------------------
# gradcheck machinery
# ---------------------------------------------------------------------------

def _kernels(fused_enabled: bool):
    """The fused path as is, or the reference tape for the block."""
    return contextlib.nullcontext() if fused_enabled else fused.reference_kernels()


def _unwrap(out):
    """Ops like cross entropy return ``(loss, n_valid)``; keep the Tensor."""
    return out[0] if isinstance(out, tuple) else out


def loss_fn(op: Callable, arrays: Sequence[np.ndarray],
            projection: np.ndarray) -> float:
    """Scalar probe ``sum(op(*arrays) * projection)`` evaluated in float64."""
    out = _unwrap(op(*[Tensor(a) for a in arrays]))
    return float(np.sum(out.data.astype(np.float64) * projection))


def forward_backward(op: Callable, arrays: Sequence[np.ndarray],
                     projection: np.ndarray):
    """One call of ``op`` and a backward of the probe loss through the tape:
    ``(output array, gradient w.r.t. every input)``."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = _unwrap(op(*tensors))
    (out * Tensor(projection.astype(np.float32))).sum().backward()
    return out.data, [t.grad for t in tensors]


def analytic_grads(op: Callable, arrays: Sequence[np.ndarray],
                   projection: np.ndarray) -> List[np.ndarray]:
    """Gradients of the probe loss w.r.t. every input, via the tape."""
    return forward_backward(op, arrays, projection)[1]


def fd_grad(op: Callable, arrays: Sequence[np.ndarray], index: int,
            projection: np.ndarray, h: float = 1e-2) -> np.ndarray:
    """Central finite differences of the probe loss w.r.t. ``arrays[index]``."""
    base = arrays[index]
    grad = np.zeros_like(base, dtype=np.float64)
    flat = base.reshape(-1)
    for i in range(flat.shape[0]):
        original = flat[i]
        flat[i] = original + h
        plus = loss_fn(op, arrays, projection)
        flat[i] = original - h
        minus = loss_fn(op, arrays, projection)
        flat[i] = original
        grad.reshape(-1)[i] = (plus - minus) / (2 * h)
    return grad


def max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max absolute error scaled by the gradient's infinity norm."""
    scale = np.max(np.abs(fd)) + 1e-12
    return float(np.max(np.abs(analytic.astype(np.float64) - fd)) / scale)


def run_case(case: ParityCase, fused_enabled: bool = True) -> None:
    """Gradcheck ``case``'s dispatch entry under the given toggle state.

    Asserts, for every differentiable input: dispatch-vs-reference autograd
    agreement (``tol_ref``) and dispatch-vs-central-finite-differences
    agreement (``tol_fd``).  With ``fused_enabled=False`` the dispatch layer
    resolves to the reference twin, so the same run validates the reference
    implementations and the toggle routing.
    """
    arrays = [a.copy() for a in case.arrays]
    with _kernels(fused_enabled):
        if case.scalar_output:
            projection = np.ones(1, dtype=np.float64)
        else:
            probe = _unwrap(case.dispatch(*[Tensor(a) for a in arrays]))
            rng = np.random.default_rng(99)
            projection = rng.normal(size=probe.shape).astype(np.float32)
            projection = projection.astype(np.float64)
        dispatch_grads = analytic_grads(case.dispatch, arrays, projection)
        fd_grads = [fd_grad(case.dispatch, arrays, i, projection)
                    for i in range(len(arrays))]
    reference_grads = analytic_grads(case.reference, arrays, projection)
    for index, (dg, rg, fd) in enumerate(zip(dispatch_grads, reference_grads,
                                             fd_grads)):
        assert dg is not None and rg is not None, f"missing grad for input {index}"
        ref_err = max_rel_err(dg, rg.astype(np.float64))
        assert ref_err <= case.tol_ref, \
            f"{case.case_id}: dispatch vs reference mismatch for input " \
            f"{index} (max rel err {ref_err:.2e} > {case.tol_ref:.0e})"
        fd_err = max_rel_err(dg, fd)
        assert fd_err <= case.tol_fd, \
            f"{case.case_id}: dispatch vs finite differences mismatch for " \
            f"input {index} (max rel err {fd_err:.2e} > {case.tol_fd:.0e})"


# ---------------------------------------------------------------------------
# case registry
# ---------------------------------------------------------------------------

def _normals(rng, *shapes, dtype=np.float32):
    return [rng.normal(size=s).astype(dtype) for s in shapes]


def _causal(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n), dtype=bool))


def _random_layout(seed: int, heads: int, n_blocks: int, block_size: int):
    rng = np.random.default_rng(seed)
    masks = rng.random((heads, n_blocks, n_blocks)) < 0.5
    return layout_from_block_masks(masks, block_size)


def build_cases() -> List[ParityCase]:
    """The parity grid: every fused op x shapes / dtypes / odd seq lengths.

    Note on the ``f64-input`` tags: the Tensor substrate deliberately
    downcasts float64 inputs to float32 (``_as_array`` — FP32 is the stack's
    compute precision), so these cases cover the *float64 input acceptance /
    downcast* path, not float64 compute.  If a second compute precision is
    ever added, these are the cases to split.
    """
    cases: List[ParityCase] = []
    add = cases.append

    # -- layer norm --------------------------------------------------------
    for seed, (tag, shape, dtype) in enumerate([("3d-f32", (2, 3, 8), np.float32),
                                                ("2d-odd-f32", (4, 7), np.float32),
                                                ("3d-f64-input", (2, 3, 8), np.float64)]):
        rng = np.random.default_rng(120 + seed)
        x, = _normals(rng, shape, dtype=dtype)
        w = (1.0 + 0.1 * rng.normal(size=shape[-1])).astype(dtype)
        b = (0.1 * rng.normal(size=shape[-1])).astype(dtype)
        add(ParityCase("layer_norm", f"layer_norm-{tag}",
                       lambda xx, ww, bb: F.layer_norm(xx, ww, bb),
                       lambda xx, ww, bb: reference.layer_norm(xx, ww, bb),
                       [x, w, b], tol_ref=2e-4, replayable=True))

    # -- fused linear (+bias, +activation) ---------------------------------
    # Seed chosen so every pre-activation is >= 0.16 away from zero —
    # central differences would straddle the ReLU kink otherwise.
    for activation in (None, "relu", "gelu"):
        rng = np.random.default_rng(38)
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        w = rng.normal(0, 0.5, size=(5, 4)).astype(np.float32)
        b = (0.1 * rng.normal(size=5)).astype(np.float32)
        add(ParityCase("linear", f"linear-{activation or 'none'}",
                       lambda xx, ww, bb, a=activation: F.linear(xx, ww, bb, activation=a),
                       lambda xx, ww, bb, a=activation: reference.linear(xx, ww, bb, activation=a),
                       [x, w, b], tol_ref=1e-4, replayable=True))
    rng = np.random.default_rng(39)
    x, w = _normals(rng, (7, 3), (2, 3), dtype=np.float64)
    add(ParityCase("linear", "linear-nobias-f64-input",
                   lambda xx, ww: F.linear(xx, ww),
                   lambda xx, ww: reference.linear(xx, ww), [x, w], tol_ref=1e-4,
                   replayable=True))

    # -- the MLP block, a chunk of rows at a time ----------------------------
    # fused.mlp walks fused.LOSS_ROW_CHUNK (128) rows at a time: one row (a
    # GEMV), 127 (one ragged chunk), 129 (two chunks: the one-row remainder
    # joins the first, 127 + 2) and 1024 (eight chunks).  What the backward
    # keeps follows the trainable set, so each activation runs with the MLP
    # frozen (only x differentiated; parameters are closure constants), its
    # biases trainable and its weights trainable.  ReLU rows are redrawn
    # until every pre-activation is >= 0.1 from the kink, which no central
    # difference step then crosses.
    def mlp_arrays(rows, seed, d_out=4):
        rng = np.random.default_rng(seed)
        w1, b1, w2, b2 = _normals(rng, (6, 3), (6,), (d_out, 6), (d_out,))
        x = rng.normal(size=(rows, 3)).astype(np.float32)
        while True:
            near = np.abs(x @ w1.T + b1).min(axis=1) < 0.1
            if not near.any():
                return x.reshape(1, rows, 3), w1, b1, w2, b2
            x[near] = rng.normal(size=(int(near.sum()), 3))

    def mlp_case(tag, rows, activation, trains, seed, **tols):
        x, *params = mlp_arrays(rows, seed)
        arrays = [x] + [a for a, t in zip(params, trains) if t]

        def bind(kernel, activation=activation, trains=trains, params=params):
            def call(xx, *trained):
                given = iter(trained)
                tensors = [next(given) if t else Tensor(a)
                           for a, t in zip(params, trains)]
                return kernel(xx, *tensors, activation=activation)
            return call

        add(ParityCase("mlp", f"mlp-{tag}", bind(F.mlp), bind(reference.mlp),
                       arrays, tol_ref=1e-4, replayable=True, **tols))

    frozen, biases, weights = (False,) * 4, (False, True, False, True), \
        (True, False, True, False)
    for rows in (1, 127, 129, 1024):
        mlp_case(f"relu-frozen-rows{rows}", rows, "relu", frozen, seed=150 + rows)
    for activation in ("relu", "gelu"):
        for name, trains in (("biases", biases), ("weights", weights)):
            mlp_case(f"{activation}-{name}-rows129", 129, activation, trains,
                     seed=151, tol_fd=5e-3)
    mlp_case("gelu-frozen-rows129", 129, "gelu", frozen, seed=152)

    # -- LoRA-adapted projection -------------------------------------------
    # The PEFT regime differentiates x, A and B over a frozen base (closure
    # constants); the trainable-base case differentiates all five.
    for seed, (tag, x_shape, rank, with_bias) in enumerate([
            ("3d-rank8-bias", (2, 3, 4), 8, True),
            ("3d-rank1-nobias", (2, 3, 4), 1, False),
            ("2d-rank8-nobias", (6, 4), 8, False),
            ("2d-rank1-bias", (6, 4), 1, True)]):
        rng = np.random.default_rng(140 + seed)
        x, a, bm = _normals(rng, x_shape, (rank, 4), (5, rank))
        w = Tensor(rng.normal(0, 0.5, size=(5, 4)).astype(np.float32))
        b = Tensor((0.1 * rng.normal(size=5)).astype(np.float32)) if with_bias else None
        scaling = 16.0 / rank
        add(ParityCase("lora_linear", f"lora_linear-{tag}",
                       lambda xx, aa, bb, w=w, b=b, s=scaling:
                           F.lora_linear(xx, w, b, aa, bb, s),
                       lambda xx, aa, bb, w=w, b=b, s=scaling:
                           reference.lora_linear(xx, w, b, aa, bb, s),
                       [x, a, bm], tol_ref=1e-4, replayable=True))
    rng = np.random.default_rng(145)
    x, w, b, a, bm = _normals(rng, (2, 3, 4), (5, 4), (5,), (8, 4), (5, 8))
    add(ParityCase("lora_linear", "lora_linear-3d-rank8-trainable-base",
                   lambda xx, ww, bb, aa, bbm: F.lora_linear(xx, ww, bb, aa, bbm, 2.0),
                   lambda xx, ww, bb, aa, bbm: reference.lora_linear(xx, ww, bb, aa, bbm, 2.0),
                   [x, w, b, a, bm], tol_ref=1e-4, replayable=True))

    # -- cross entropy on logits -------------------------------------------
    # F.cross_entropy runs the taped reference in both kernel modes (the
    # fused loss is linear_cross_entropy below), so these rows gradcheck that
    # composition against finite differences and record no plan entry.
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(2, 4, 7)).astype(np.float32)
    targets = rng.integers(0, 7, size=(2, 4))
    targets[0, 1] = -100                   # exercise ignore_index
    add(ParityCase("cross_entropy", "cross_entropy-ignore-index",
                   lambda t: F.cross_entropy(t, targets),
                   lambda t: reference.cross_entropy_logits(t, targets),
                   [logits], scalar_output=True))
    logits_s = rng.normal(size=(2, 5, 6)).astype(np.float32)
    targets_s = rng.integers(0, 6, size=(2, 5))
    add(ParityCase("cross_entropy", "cross_entropy-shifted",
                   lambda t: F.cross_entropy(t, targets_s, shift=True),
                   lambda t: reference.cross_entropy_logits(t, targets_s, shift=True),
                   [logits_s], scalar_output=True))
    # One sequence, with an ignored target.
    rng_1 = np.random.default_rng(55)
    logits_1 = rng_1.normal(size=(1, 6, 5)).astype(np.float32)
    targets_1 = rng_1.integers(0, 5, size=(1, 6))
    targets_1[0, 3] = -100
    add(ParityCase("cross_entropy", "cross_entropy-shifted-one-sequence",
                   lambda t: F.cross_entropy(t, targets_1, shift=True),
                   lambda t: reference.cross_entropy_logits(t, targets_1, shift=True),
                   [logits_1], scalar_output=True))
    logits_2d = rng.normal(size=(9, 5)).astype(np.float64)
    targets_2d = rng.integers(0, 5, size=9)
    targets_2d[3] = -100
    add(ParityCase("cross_entropy", "cross_entropy-2d-f64-input",
                   lambda t: F.cross_entropy(t, targets_2d),
                   lambda t: reference.cross_entropy_logits(t, targets_2d),
                   [logits_2d], scalar_output=True))
    # Flat float32 logits with no ignored target, and logits offset far
    # enough that an exp without the row-max subtraction overflows float32.
    rng_f = np.random.default_rng(110)
    logits_f = rng_f.normal(size=(4, 9)).astype(np.float32)
    targets_f = rng_f.integers(0, 9, size=4)
    add(ParityCase("cross_entropy", "cross_entropy-2d-f32",
                   lambda t: F.cross_entropy(t, targets_f),
                   lambda t: reference.cross_entropy_logits(t, targets_f),
                   [logits_f], scalar_output=True))
    logits_o = (rng_f.normal(size=(2, 3, 6)) + 100.0).astype(np.float32)
    targets_o = rng_f.integers(0, 6, size=(2, 3))
    add(ParityCase("cross_entropy", "cross_entropy-offset-logits",
                   lambda t: F.cross_entropy(t, targets_o),
                   lambda t: reference.cross_entropy_logits(t, targets_o),
                   [logits_o], scalar_output=True))

    # -- LM head + cross entropy, chunked over the scored rows ---------------
    # The kernel walks fused.LOSS_ROW_CHUNK (128) scored rows at a time; the
    # reference twin is the taped linear + cross-entropy chain over the whole
    # logits.  Frozen weights are closure constants, as under PEFT.
    def head_case(tag, h, w, targets, trainable=False, upstream=1.0,
                  shift=True, **tols):
        def dispatch(hh, ww=None, w=Tensor(w)):
            loss = F.linear_cross_entropy(hh, w if ww is None else ww, targets,
                                          shift=shift)[0]
            return loss if upstream == 1.0 else loss * upstream

        def twin(hh, ww=None, w=Tensor(w)):
            loss = reference.linear_cross_entropy(hh, w if ww is None else ww,
                                                  targets, shift=shift)[0]
            return loss if upstream == 1.0 else loss * upstream

        add(ParityCase("linear_cross_entropy", f"linear_cross_entropy-{tag}",
                       dispatch, twin, [h, w] if trainable else [h],
                       scalar_output=True, replayable=True, **tols))

    rng = np.random.default_rng(61)
    # Long rows: the mean over ~200-280 scored rows shrinks every gradient
    # entry ~1/n while the float32 loss keeps its absolute rounding, so
    # central differences carry ~2 digits fewer than over a few rows (both
    # toggles read 1-2e-3 here); the fused-vs-reference bound is unchanged.
    long_fd = dict(tol_fd=5e-3)
    # One 200-token sequence: 199 scored rows, a full chunk and a ragged 71.
    h, w = _normals(rng, (1, 200, 4), (7, 4))
    head_case("ragged-seq200", h, w, rng.integers(0, 7, size=(1, 200)),
              **long_fd)
    # Two sequences of 140 (two chunks each) with ignored targets in both.
    h, w = _normals(rng, (2, 140, 3), (6, 3))
    targets_b = rng.integers(0, 6, size=(2, 140))
    targets_b[0, [3, 130]] = -100
    targets_b[1, 60:70] = -100
    head_case("batch2-ignore-index", h, w, targets_b, **long_fd)
    # A shared direction lifts every logit by ~100: exp without the row-max
    # subtraction overflows float32 (max ~88.7), the softmax is unchanged.
    h, w = _normals(rng, (2, 5, 4), (6, 4))
    h[..., 0], w[:, 0] = 10.0, 10.0 + 0.1 * w[:, 0]
    head_case("overflow-logits", h, w, rng.integers(0, 6, size=(2, 5)))
    # A trainable weight: dW sums over a sequence's two chunks.
    h, w = _normals(rng, (1, 140, 3), (5, 3))
    head_case("trainable-weight", h, w, rng.integers(0, 5, size=(1, 140)),
              trainable=True)
    h, w = _normals(rng, (2, 6, 4), (5, 4))
    head_case("upstream-0.5", h, w, rng.integers(0, 5, size=(2, 6)),
              trainable=True, upstream=0.5)
    # Without shift every row is scored, all of them one sequence: flat
    # float64 rows (downcast on input) into a trainable weight, and a batch
    # of sequences with ignored targets.
    h, w = _normals(rng, (9, 4), (5, 4), dtype=np.float64)
    targets_n = rng.integers(0, 5, size=9)
    targets_n[3] = -100
    head_case("noshift-2d-f64-input", h, w, targets_n, trainable=True,
              shift=False)
    h, w = _normals(rng, (2, 4, 3), (7, 3))
    targets_n = rng.integers(0, 7, size=(2, 4))
    targets_n[0, 1] = -100
    head_case("noshift-3d-ignore-index", h, w, targets_n, shift=False)

    # -- dense attention core ----------------------------------------------
    rng = np.random.default_rng(6)
    q, k, v = _normals(rng, (2, 2, 4, 3), (2, 2, 4, 3), (2, 2, 4, 3))
    causal4 = _causal(4)
    add(ParityCase("attention", "attention-causal4",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, causal4),
                   lambda a, bq, c: reference.scaled_dot_product_attention(a, bq, c, causal4),
                   [q, k, v], tol_ref=2e-4, replayable=True))
    q5, k5, v5 = _normals(rng, (1, 2, 5, 3), (1, 2, 5, 3), (1, 2, 5, 3))
    add(ParityCase("attention", "attention-odd-seq-nomask",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c),
                   lambda a, bq, c: reference.scaled_dot_product_attention(a, bq, c),
                   [q5, k5, v5], tol_ref=2e-4, replayable=True))
    q7, k7, v7 = _normals(rng, (1, 1, 7, 2), (1, 1, 7, 2), (1, 1, 7, 2),
                          dtype=np.float64)
    causal7 = _causal(7)
    add(ParityCase("attention", "attention-seq7-f64-input",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, causal7),
                   lambda a, bq, c: reference.scaled_dot_product_attention(a, bq, c, causal7),
                   [q7, k7, v7], tol_ref=2e-4, replayable=True))
    # Cross lengths (sq=4 queries over sk=7 keys) with no mask; a random
    # ragged keep-mask with one fully-masked query row (its output is zero);
    # and an explicit ``scale`` in place of 1/sqrt(head_dim).
    qx, kx, vx = _normals(rng, (2, 1, 4, 3), (2, 1, 7, 3), (2, 1, 7, 3))
    add(ParityCase("attention", "attention-sq4-sk7-nomask",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c),
                   lambda a, bq, c: reference.scaled_dot_product_attention(a, bq, c),
                   [qx, kx, vx], tol_ref=2e-4, replayable=True))
    rng_r = np.random.default_rng(3)
    ragged = rng_r.random((5, 9)) < 0.6
    ragged[2] = False
    qr, kr, vr = _normals(rng_r, (2, 2, 5, 3), (2, 2, 9, 3), (2, 2, 9, 3))
    add(ParityCase("attention", "attention-ragged-zero-row-sq5-sk9",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, ragged),
                   lambda a, bq, c: reference.scaled_dot_product_attention(a, bq, c, ragged),
                   [qr, kr, vr], tol_ref=2e-4, replayable=True))
    qc, kc, vc = _normals(np.random.default_rng(2), (2, 1, 6, 4), (2, 1, 6, 4),
                          (2, 1, 6, 4))
    causal6 = _causal(6)
    add(ParityCase("attention", "attention-causal6-scale0.25",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, causal6,
                                                                   scale=0.25),
                   lambda a, bq, c: reference.scaled_dot_product_attention(
                       a, bq, c, causal6, scale=0.25),
                   [qc, kc, vc], tol_ref=2e-4, replayable=True))

    # -- row tiles of the same kernel ---------------------------------------
    # The kernel pre-scales Q and reduces each row tile's panel in column
    # order, so its rounding differs from the reference single-pass softmax;
    # the tolerance is the float32 rounding of the two orders (same as the
    # sparse cases).  Tiles are chosen to *not* divide the query length so
    # the short last tile is gradchecked, plus a tile >= seq degenerate case.
    rng = np.random.default_rng(21)
    qs6, ks6, vs6 = _normals(rng, (2, 2, 6, 3), (2, 2, 6, 3), (2, 2, 6, 3))
    causal6s = _causal(6)
    add(ParityCase("streaming", "streaming-causal6-tile4",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, causal6s, tile=4),
                   lambda a, bq, c: reference.scaled_dot_product_attention(
                       a, bq, c, causal6s, tile=4),
                   [qs6, ks6, vs6], tol_ref=5e-4, replayable=True))
    qo, ko, vo = _normals(rng, (1, 2, 7, 3), (1, 2, 7, 3), (1, 2, 7, 3))
    add(ParityCase("streaming", "streaming-odd-seq7-nomask-tile3",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, tile=3),
                   lambda a, bq, c: reference.scaled_dot_product_attention(a, bq, c, tile=3),
                   [qo, ko, vo], tol_ref=5e-4, replayable=True))
    # Cross sequence lengths (sq=5 queries, sk=8 keys) with one query row
    # whose keep-mask is empty: the zero-row convention must hold tile-wise.
    zmask = np.random.default_rng(22).random((5, 8)) < 0.5
    zmask[2] = False
    zmask[0, 0] = True                     # every other row keeps something
    zmask[1, :2] = True
    zmask[3, 3] = True
    zmask[4, :5] = True
    qz, kz, vz = _normals(rng, (1, 2, 5, 3), (1, 2, 8, 3), (1, 2, 8, 3))
    add(ParityCase("streaming", "streaming-zero-row-sq5-sk8-tile5",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, zmask, tile=5),
                   lambda a, bq, c: reference.scaled_dot_product_attention(
                       a, bq, c, zmask, tile=5),
                   [qz, kz, vz], tol_ref=5e-4, replayable=True))
    qw, kw, vw = _normals(rng, (1, 1, 4, 2), (1, 1, 4, 2), (1, 1, 4, 2),
                          dtype=np.float64)
    causal4b = _causal(4)
    add(ParityCase("streaming", "streaming-tile-ge-seq-f64-input",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, causal4b, tile=64),
                   lambda a, bq, c: reference.scaled_dot_product_attention(
                       a, bq, c, causal4b, tile=64),
                   [qw, kw, vw], tol_ref=5e-4, replayable=True))
    # Prefix tuning's mask: causal over prefix + sequence, every query
    # keeping all ``plen`` prefix keys (repro.peft.prefix).  Tiles of 3 rows
    # over 9 positions: the prefix columns are never in a tile's drop span.
    plen = 3
    prefix9 = _causal(9).copy()
    prefix9[:, :plen] = True
    qp, kp, vp = _normals(rng, (1, 2, 9, 3), (1, 2, 9, 3), (1, 2, 9, 3))
    add(ParityCase("streaming", "streaming-prefix-tuning-mask-tile3",
                   lambda a, bq, c: F.scaled_dot_product_attention(a, bq, c, prefix9, tile=3),
                   lambda a, bq, c: reference.scaled_dot_product_attention(
                       a, bq, c, prefix9, tile=3),
                   [qp, kp, vp], tol_ref=5e-4, replayable=True))

    # -- block-sparse attention --------------------------------------------
    # The reference twin runs dense attention under the layout's expanded
    # element mask; the kernel sums each unit's gathered panel in column
    # order, so the fused-vs-reference tolerance is the float32 rounding of
    # the two summation orders rather than the ~1e-5 of the shared-algorithm
    # ops.  Ragged lengths record too: the staged K/V grid is padded once.
    def sparse_case(tag, layout, seq, dim, seed, dtype=np.float32):
        rng = np.random.default_rng(seed)
        shape = (1, layout.n_heads, seq, dim)
        qs, ks, vs = _normals(rng, shape, shape, shape, dtype=dtype)
        add(ParityCase("sparse_chain", f"sparse_chain-{tag}",
                       lambda a, bq, c: block_sparse_attention(a, bq, c, layout),
                       lambda a, bq, c: reference.block_sparse_attention(a, bq, c, layout),
                       [qs, ks, vs], tol_ref=5e-4, replayable=True))

    dense_seq12 = layout_from_block_masks(np.ones((2, 3, 3), dtype=bool), 4)
    sparse_case("dense-seq12", dense_seq12, 12, 3, seed=7)
    sparse_case("random-ragged-seq21", _random_layout(11, heads=2, n_blocks=3,
                                                      block_size=8), 21, 3, seed=8)
    sparse_case("random-seq16-f64-input", _random_layout(13, heads=3, n_blocks=2,
                                                   block_size=8), 16, 2, seed=9,
                dtype=np.float64)

    # -- block-sparse attention, ``streaming=True`` ------------------------
    # The argument no longer selects a kernel; the same entry must keep
    # matching the dense-under-mask reference (and, with kernels disabled,
    # fall back to it) across ragged lengths and a layout whose head 0 keeps
    # only the forced diagonal in one query-block row.
    def stream_sparse_case(tag, layout, seq, dim, seed):
        rng = np.random.default_rng(seed)
        shape = (1, layout.n_heads, seq, dim)
        qs, ks, vs = _normals(rng, shape, shape, shape)
        add(ParityCase("stream_sparse", f"stream_sparse-{tag}",
                       lambda a, bq, c: block_sparse_attention(a, bq, c, layout,
                                                               streaming=True),
                       lambda a, bq, c: reference.block_sparse_attention(a, bq, c,
                                                                         layout),
                       [qs, ks, vs], tol_ref=5e-4, replayable=True))

    stream_sparse_case("dense-seq12", dense_seq12, 12, 3, seed=31)
    stream_sparse_case("random-ragged-seq21",
                       _random_layout(11, heads=2, n_blocks=3, block_size=8),
                       21, 3, seed=32)
    empty_row_masks = (np.random.default_rng(33).random((2, 3, 3)) < 0.6)
    empty_row_masks[0, 1, :] = False       # head 0, block row 1: no blocks
    empty_row_masks[:, 0, 0] = True        # every head keeps its first block
    empty_row_masks[1, 1, 0] = True
    empty_row_masks[:, 2, 2] = True
    stream_sparse_case("zero-block-row-seq24",
                       layout_from_block_masks(empty_row_masks, 8), 24, 3,
                       seed=34)

    # -- neuron-sparse MLP -------------------------------------------------
    # Frozen weights (the recorder vetoes trainable ones), so only ``x`` is
    # differentiated; the reference is the two dense layers restricted to the
    # active neurons.  Seed chosen like the ReLU linear case: every active
    # pre-activation is >= 0.6 away from the kink.
    rng = np.random.default_rng(47)
    xm, = _normals(rng, (2, 3, 4))
    w1, b1, w2, b2 = (Tensor(a) for a in _normals(rng, (6, 4), (6,), (4, 6), (4,)))
    active = np.array([0, 2, 5])
    w1a, b1a, w2a = Tensor(w1.data[active]), Tensor(b1.data[active]), \
        Tensor(w2.data[:, active])
    for tag, cache in (("nocache", None),
                       ("coalesced", NeuronSparseWeights(w1.data, w2.data))):
        add(ParityCase("neuron_mlp", f"neuron_mlp-{tag}",
                       lambda xx, c=cache: neuron_sparse_linear_pair(
                           xx, w1, b1, w2, b2, active, cache=c),
                       lambda xx: reference.mlp(xx, w1a, b1a, w2a, b2),
                       [xm], tol_ref=1e-4, replayable=True))
    # Two chunks of rows (127 + 2) through the dense MLP's body.
    xl, w1l, b1l, w2l, b2l = mlp_arrays(129, seed=48, d_out=3)
    w1l, b1l, w2l, b2l = (Tensor(a) for a in (w1l, b1l, w2l, b2l))
    kept = np.array([1, 2, 4])
    w1k, b1k, w2k = (Tensor(w1l.data[kept]), Tensor(b1l.data[kept]),
                     Tensor(w2l.data[:, kept]))
    add(ParityCase("neuron_mlp", "neuron_mlp-coalesced-rows129",
                   lambda xx, c=NeuronSparseWeights(w1l.data, w2l.data):
                       neuron_sparse_linear_pair(xx, w1l, b1l, w2l, b2l, kept, cache=c),
                   lambda xx: reference.mlp(xx, w1k, b1k, w2k, b2l),
                   [xl], tol_ref=1e-4, replayable=True))
    return cases


ALL_CASES = build_cases()
REPLAY_CASES = [case for case in ALL_CASES if case.replayable]


# ---------------------------------------------------------------------------
# the tiled kernel's own grid: layout x tiling, and its structural properties
# ---------------------------------------------------------------------------
#
# One kernel (repro.tensor.fused.tiled_attention) serves dense streaming and
# block-sparse attention, so beyond the dispatch cases above it gets a grid
# over what actually shapes its work — sequence length (ragged and aligned),
# block size, layout sparsity and tiling: the layout's capacity classes, or
# dense row tiles (one block, four blocks, the whole sequence high) under the
# layout's element mask — plus the two structural properties later work
# leans on: widening a capacity class is arithmetically inert, and dense
# streaming attention is the all-causal-blocks layout.

TILE_GRID = [(seq, block, sparsity, kind)
             for seq in (48, 100, 128, 256)
             for block in (16, 32, 64)
             for sparsity in (0.0, 0.17, 0.5, 0.9)
             for kind in ("classes", "block", "4xblock", "whole")]


def grid_layout(seq: int, block: int, sparsity: float, heads: int = 2):
    """Random causal layout at roughly ``sparsity`` (diagonal always kept)."""
    n_blocks = -(-seq // block)
    rng = np.random.default_rng(int(seq * 1000 + block * 10 + sparsity * 100))
    return layout_from_block_masks(
        rng.random((heads, n_blocks, n_blocks)) >= sparsity, block)


def grid_row_tile(kind: str, block: int, seq: int) -> int:
    return {"block": block, "4xblock": 4 * block,
            "whole": -(-seq // block) * block}[kind]


def grid_geometry(layout, seq: int, kind: str = "classes"):
    """``layout``'s capacity classes, or the dense row tiles ``kind`` names
    over its element mask."""
    if kind == "classes":
        return compute_block_geometry(layout, seq)
    return fused.mask_tile_layout(layout.to_dense_mask(seq), seq, seq,
                                  grid_row_tile(kind, layout.block_size, seq))


def sink_layout(seq: int, block: int, heads: int = 2):
    """Every query block of every head keeps key block 0 — an attention-sink
    column — and its diagonal: the longest dK/dV accumulation chain, and
    every unit but the first rows' in one class."""
    n_blocks = -(-seq // block)
    masks = np.zeros((heads, n_blocks, n_blocks), dtype=bool)
    masks[:, :, 0] = True
    return layout_from_block_masks(masks, block)


def empty_row_layout():
    """Hand-built (``layout_from_block_masks`` would force the diagonal):
    head 0 keeps nothing in block row 1 and only key block 1 in block row 2,
    head 1 keeps a single off-diagonal block in block row 1 — an empty row,
    rows without their diagonal, different live counts."""
    return MultiHeadLayout(n_heads=2, n_blocks=3, block_size=8,
                           heads=np.array([0, 0, 1, 1, 1, 1]),
                           rows=np.array([0, 2, 0, 1, 2, 2]),
                           cols=np.array([0, 1, 0, 0, 0, 2]))


# name -> (layout, seq, batch): the class kernel's edge cases.
EDGE_CASES = {
    "sink-seq256-block16": lambda: (sink_layout(256, 16), 256, 1),
    "sink-ragged-seq100-block16-batch2": lambda: (sink_layout(100, 16), 100, 2),
    "empty-rows-seq21-block8-batch2": lambda: (empty_row_layout(), 21, 2),
    "random-ragged-seq100-block16-batch2":
        lambda: (grid_layout(100, 16, 0.5), 100, 2),
}


def _qkv(layout, seq: int, dim: int = 4, seed: int = 0, batch: int = 1):
    rng = np.random.default_rng(seed)
    shape = (batch, layout.n_heads, seq, dim)
    return _normals(rng, shape, shape, shape)


def directional_fd_err(op: Callable, arrays: Sequence[np.ndarray],
                       grads: Sequence[np.ndarray], projection: np.ndarray,
                       h: float = 1e-2) -> float:
    """Central finite difference of the probe loss along one random direction
    per input, against the analytic gradient's component along it; returns
    the worst error relative to ``|grad| |direction|``."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for index, grad in enumerate(grads):
        direction = rng.choice([-1.0, 1.0], size=arrays[index].shape)
        shifted = [a.copy() for a in arrays]
        shifted[index] = (arrays[index] + h * direction).astype(np.float32)
        plus = loss_fn(op, shifted, projection)
        shifted[index] = (arrays[index] - h * direction).astype(np.float32)
        minus = loss_fn(op, shifted, projection)
        analytic = float(np.sum(grad.astype(np.float64) * direction))
        scale = float(np.linalg.norm(grad) * np.linalg.norm(direction)) + 1e-12
        worst = max(worst, abs((plus - minus) / (2 * h) - analytic) / scale)
    return worst


def run_tile_grid_case(layout, seq: int, kind: str = "classes", batch: int = 1,
                       tol_ref: float = 5e-4, tol_fd: float = 2e-3) -> None:
    """The kernel over ``grid_geometry(layout, seq, kind)`` vs the
    dense-under-mask reference twin and central finite differences."""
    geometry = grid_geometry(layout, seq, kind)
    arrays = _qkv(layout, seq, batch=batch)

    def kernel(a, b, c):
        return fused.tiled_attention(a, b, c, geometry)

    def twin(a, b, c):
        return reference.block_sparse_attention(a, b, c, layout)

    projection = np.random.default_rng(99).normal(
        size=arrays[0].shape).astype(np.float32).astype(np.float64)
    out, grads = forward_backward(kernel, arrays, projection)
    ref_out, ref_grads = forward_backward(twin, arrays, projection)
    tag = f"seq{seq}-block{layout.block_size}-{kind}-batch{batch}"
    assert max_rel_err(out, ref_out.astype(np.float64)) <= tol_ref, tag
    for index, (grad, ref_grad) in enumerate(zip(grads, ref_grads)):
        err = max_rel_err(grad, ref_grad.astype(np.float64))
        assert err <= tol_ref, f"{tag}: input {index} vs reference {err:.2e}"
    fd_err = directional_fd_err(kernel, arrays, grads, projection)
    assert fd_err <= tol_fd, f"{tag}: vs finite differences {fd_err:.2e}"


def pad_tile_layout(geometry, rungs: int = 1):
    """``geometry`` with every capacity class ``rungs`` ladder rungs wider —
    inert slots in front of each unit's diagonal block — cut into chunks
    again, each unit its own scatter round."""
    lead, nb = geometry.units.size, geometry.n_blocks
    classes = {}
    for tile in geometry.tiles:
        classes.setdefault(tile.capacity, []).append(tile)
    tiles = []
    for capacity, chunks in classes.items():
        u0 = chunks[0].u0
        index = np.concatenate([t.index.reshape(-1, capacity) for t in chunks])
        wider = int(_CAPACITY_LADDER[np.searchsorted(_CAPACITY_LADDER, capacity,
                                                     side="right") + rungs - 1])
        index = np.concatenate(
            [index[:, :-1], np.full((len(index), wider - capacity), lead),
             index[:, -1:]], axis=1)
        # One scatter round per unit: the order every key block meets its
        # query blocks in is the unit order, whatever the rounds.
        tiles += _class_chunks(u0, index, np.arange(len(index)), lead,
                               fused.chunk_panel_blocks(lead // nb, nb))
    return dataclasses.replace(geometry, tiles=tuple(tiles))


def _kernel_results(run: Callable, arrays: Sequence[np.ndarray]):
    projection = np.random.default_rng(3).normal(
        size=arrays[0].shape).astype(np.float32)
    out, grads = forward_backward(run, arrays, projection)
    return [out] + grads


def assert_padding_inert(seq: int, block: int, sparsity: float,
                         rungs: int = 1) -> None:
    """Widening every capacity class ``rungs`` ladder rungs changes no
    output bit."""
    layout = grid_layout(seq, block, sparsity)
    geometry = compute_block_geometry(layout, seq)
    padded = pad_tile_layout(geometry, rungs)
    arrays = _qkv(layout, seq)
    plain = _kernel_results(
        lambda a, b, c: fused.tiled_attention(a, b, c, geometry), arrays)
    grown = _kernel_results(
        lambda a, b, c: fused.tiled_attention(a, b, c, padded), arrays)
    for name, a, b in zip(("out", "dq", "dk", "dv"), plain, grown):
        assert np.array_equal(a, b), \
            f"seq{seq}-block{block}-sparsity{sparsity}+{rungs}: {name}"


def assert_dense_is_degenerate_sparse(seq: int, block: int) -> None:
    """An all-causal-blocks layout's capacity classes and
    ``F.scaled_dot_product_attention`` under the causal mask one block high are the
    same computation: bit for bit when ``seq`` is a block multiple.  A ragged
    last block runs its dK/dV GEMMs over the block's zero-padded query rows,
    which the BLAS may sum in another order — there dK/dV agree to an ulp."""
    layout = layout_from_block_masks(
        np.ones((2, -(-seq // block), -(-seq // block)), dtype=bool), block)
    geometry = compute_block_geometry(layout, seq)
    arrays = _qkv(layout, seq)
    causal = _causal(seq)
    sparse = _kernel_results(
        lambda a, b, c: fused.tiled_attention(a, b, c, geometry), arrays)
    dense = _kernel_results(
        lambda a, b, c: F.scaled_dot_product_attention(a, b, c, causal, tile=block),
        arrays)
    for name, a, b in zip(("out", "dq", "dk", "dv"), sparse, dense):
        where = f"seq{seq}-block{block}: {name}"
        if seq % block and name in ("dk", "dv"):
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-7, err_msg=where)
        else:
            assert np.array_equal(a, b), where


# ---------------------------------------------------------------------------
# recorded-vs-interpreted kernel parity (one body, two buffer provenances)
# ---------------------------------------------------------------------------

def run_replay_case(case: ParityCase) -> None:
    """Record ``case`` once, restage its inputs in place, replay the plan.

    The replayed output and the input gradients flowing back through the
    recorded call's backward closure must be *bitwise* equal to a fresh
    interpreted call on the restaged inputs, both with no arena (plain heap
    buffers) and inside a :class:`BufferArena` scope (recycled ones).  Each
    input is restaged from its own mean and spread (standard deviation, at
    least one), so a row built around a scale — an offset, an overflow
    regime — replays in that regime.
    """
    rng = np.random.default_rng(7)
    restaged = [rng.normal(a.mean(), max(float(a.std()), 1.0),
                           size=a.shape).astype(np.float32)
                for a in case.arrays]
    for a, values in zip(case.arrays, restaged):
        assert not np.array_equal(a, values), f"{case.case_id}: restaged as recorded"
    tensors = [Tensor(a.astype(np.float32), requires_grad=True)
               for a in case.arrays]
    rec = plan.ForwardRecorder()
    plan.set_recorder(rec)
    try:
        out = _unwrap(case.dispatch(*tensors))
    finally:
        plan.set_recorder(None)
    assert rec.ok(), f"{case.case_id}: not recordable ({rec.fail_reason})"
    for tensor, values in zip(tensors, restaged):
        tensor.data[...] = values
    plan.ForwardPlan(rec.entries).run()
    projection = rng.normal(size=out.shape or (1,)).astype(np.float32)
    (out * Tensor(projection)).sum().backward()
    for scoped in (None, arena.BufferArena()):
        with arena.scope(scoped):
            fresh_out, fresh_grads = forward_backward(case.dispatch, restaged,
                                                      projection)
        where = f"{case.case_id} ({'arena' if scoped else 'no arena'})"
        assert np.array_equal(out.data, fresh_out), f"{where}: output differs"
        for index, (tensor, grad) in enumerate(zip(tensors, fresh_grads)):
            assert np.array_equal(tensor.grad, grad), \
                f"{where}: gradient {index} differs"


# ---------------------------------------------------------------------------
# captured-vs-uncaptured step parity (the step-capture axis)
# ---------------------------------------------------------------------------
#
# Step capture (repro.runtime.capture.StepCapture) must be *bitwise* invisible:
# replaying the compiled forward and the recorded backward schedule through
# bound and recycled buffers has to produce exactly the floats the ordinary
# interpreted step produces.  The helpers
# below train a tiny model for a few steps with and without capture — same
# seeds, same batches — and return everything a step mutates: per-step
# losses, per-step parameter gradients (snapshotted inside the optimizer,
# before zero_grad), the Adam moment state and the final parameters.  The
# horizon crosses the whole capture lifecycle on *different* batches; the
# schedule (steps, predict_interval) decides what follows the capture step
# for the sparse backends.

CAPTURE_BACKENDS = ("dense", "oracle", "predicted")
# (steps, predict_interval): the sparse backends refresh their masks on steps
# 1, 1 + K, 1 + 2K, ...; step 1 captures + compiles.
CAPTURE_SCHEDULES = {
    # step 2 replays step 1's plan; step 3 is a refresh that drops it and
    # records its own
    "replay_then_refresh": (3, 2),
    # steps 2 and 3 replay, step 4 is the refresh that re-captures, step 5
    # replays the new plan
    "replays_then_refresh": (5, 3),
}


def run_capture_training(backend: str, fused_enabled: bool, steps: int = 3,
                         capture: bool = False, seq: int = 32,
                         predict_interval: int = 2):
    """Train ``steps`` steps; returns (losses, grad_log, moments, params, stats).

    ``stats`` holds the StepCapture counters (empty dict when capture is
    off) so callers can assert which tier actually ran the steps.
    """
    from repro.models import build_model
    from repro.optim import Adam
    from repro.peft import apply_lora
    from repro.runtime import CaptureConfig, FineTuner, TrainingConfig
    from repro.sparsity import LongExposure, LongExposureConfig

    class GradRecordingAdam(Adam):
        """Adam that snapshots the incoming gradients at every step."""

        grad_log: List[List[np.ndarray]]

        def step(self):
            log = getattr(self, "grad_log", None)
            if log is None:
                log = self.grad_log = []
            log.append([p.grad.copy() for p in self.params])
            super().step()

    model_name = "gpt2-tiny" if backend == "dense" else "opt-tiny"
    with _kernels(fused_enabled):
        model = build_model(model_name, seed=0)
        rng = np.random.default_rng(11)
        engine = None
        if backend != "dense":
            calib = rng.integers(0, model.config.vocab_size, size=(2, seq))
            engine = LongExposure(LongExposureConfig(
                block_size=16, seed=0, oracle_mode=(backend == "oracle"),
                predictor_epochs=2, predict_interval=predict_interval))
            engine.prepare(model, [calib])
        if backend == "predicted":
            apply_lora(model)
        if engine is not None:
            engine.install(model)
        optimizer = GradRecordingAdam(model.trainable_parameters(), lr=1e-3)
        tuner = FineTuner(model,
                          TrainingConfig(capture=CaptureConfig(enabled=capture)),
                          optimizer=optimizer, engine=engine)
        losses = []
        for _ in range(steps):
            ids = rng.integers(0, model.config.vocab_size, size=(2, seq))
            loss, _ = tuner.step(ids)
            losses.append(loss)
        moments = [m.copy() for m in optimizer._m] + [v.copy() for v in optimizer._v]
        params = [p.data.copy() for p in optimizer.params]
        if engine is not None:
            engine.uninstall(model)
        stats = {}
        if capture:
            # One capture ran every step: the batches share one signature.
            # (Zero-allocation steady state is asserted by the -m alloc
            # tests, which hold the batch fixed; here every step sees a
            # *fresh* batch, so drifting sparse layouts may legitimately
            # allocate new block shapes.)
            assert tuner.capture.steps == steps, "capture never engaged"
            stats = {
                "full_captures": tuner.capture.full_captures,
                "full_replays": tuner.capture.full_replays,
                "full_fallbacks": tuner.capture.full_fallbacks,
                "full_fail_reason": tuner.capture.full_fail_reason,
            }
        return losses, optimizer.grad_log, moments, params, stats


def _assert_trajectories_equal(tag: str, base, other) -> None:
    losses_a, grads_a, moments_a, params_a = base[:4]
    losses_b, grads_b, moments_b, params_b = other[:4]
    assert losses_a == losses_b, \
        f"{tag}: losses differ: {losses_a} vs {losses_b}"
    assert len(grads_a) == len(grads_b), \
        f"{tag}: grad log lengths differ: {len(grads_a)} vs {len(grads_b)}"
    for step_index, (ga, gb) in enumerate(zip(grads_a, grads_b)):
        for param_index, (a, b) in enumerate(zip(ga, gb)):
            assert np.array_equal(a, b), \
                f"{tag}: grad mismatch at step {step_index}, param {param_index}"
    for index, (a, b) in enumerate(zip(moments_a, moments_b)):
        assert np.array_equal(a, b), \
            f"{tag}: optimizer state mismatch ({index})"
    for index, (a, b) in enumerate(zip(params_a, params_b)):
        assert np.array_equal(a, b), \
            f"{tag}: parameter mismatch ({index})"


def assert_capture_parity(backend: str, fused_enabled: bool,
                          steps: int = 3, predict_interval: int = 2) -> None:
    """Bitwise-compare captured vs. uncaptured training trajectories, and
    check which tier ran the captured steps.

    Step 1 captures; every later step replays the compiled plan — or, on a
    mask-refresh step, records the plan the next steps replay — oracle mode
    too, which fine-tunes the full model through the neuron-sparse MLP's
    re-gathered weights.  Reference kernels rule that out (the forward is
    not a recordable kernel stream): the compiler must then stay cold and
    say why, while the interpreted steps over the arena keep parity.
    """
    tag = f"{backend}/fused={fused_enabled}/steps={steps}/K={predict_interval}"
    base = run_capture_training(backend, fused_enabled, steps, capture=False,
                                predict_interval=predict_interval)
    captured = run_capture_training(backend, fused_enabled, steps,
                                    capture=True,
                                    predict_interval=predict_interval)
    _assert_trajectories_equal(tag, base, captured)
    stats = captured[4]
    if not fused_enabled:
        assert stats["full_captures"] == stats["full_replays"] == 0, \
            f"{tag}: full plan captured under reference kernels ({stats})"
        assert stats["full_fail_reason"] == "reference kernels", f"{tag}: {stats}"
    else:
        refreshes = [step for step in range(2, steps + 1)
                     if backend != "dense" and (step - 1) % predict_interval == 0]
        assert stats["full_captures"] == 1 + len(refreshes), f"{tag}: {stats}"
        assert stats["full_replays"] == steps - 1 - len(refreshes), \
            f"{tag}: {stats}"
        assert stats["full_fallbacks"] == 0, f"{tag}: {stats}"
        assert stats["full_fail_reason"] == "", f"{tag}: {stats}"
