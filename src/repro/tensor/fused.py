"""Fused autograd kernels for the training hot path.

Every function in this module is a *single* tape node created through
:func:`repro.tensor.tensor.custom_op`: the forward is a handful of NumPy
calls that reuse buffers in place where aliasing allows it, and the backward
is a hand-derived vector-Jacobian product that touches only the arrays the
derivation actually needs.  This collapses what would otherwise be chains of
~10 primitive ``Tensor`` operations (each with its own closure, its own
full-size temporary and its own entry in the topological sort) into one node
per mathematical operation — the same idea as xformers' fused
``scaled_dot_product_attention`` core, realised on the NumPy substrate.

The kernels the step compiler can replay (``layer_norm``, ``linear``,
``lora_linear``, ``cross_entropy_logits``, the materialising and the tiled
attention core) write that forward exactly once, as a ``run`` thunk over
buffers bound up front — plan-owned while a
:class:`~repro.tensor.plan.ForwardRecorder` is installed, the arena's
otherwise — and hand it to :func:`repro.tensor.plan.emit`, which runs it and
either records it or returns the scratch.  Recorded and interpreted execution
are therefore the same function body; only buffer provenance differs.

The module pairs with :mod:`repro.tensor.reference`, which implements the
same functions as compositions of primitive ``Tensor`` ops.  The reference
forms serve three purposes:

* they are the ground truth for the numerical ``gradcheck`` tests;
* they are the *baseline* of the parity harness, ``tests/parity.py`` (the
  deep-tape cost model the paper's fused-operator argument is made against);
* entering :func:`reference_kernels` makes the whole stack — ``repro.tensor.
  functional``, ``repro.nn`` and the model loss path — run through them, so
  fused vs. taped execution can be compared end to end on an unmodified
  model.

Derivations (notation: ``g`` is the incoming output gradient):

``softmax``          ``dx = (g - sum(g * p)) * p`` row-wise.
``layer_norm``       ``dx = inv_std * (gw - mean(gw) - n * mean(gw * n))``
                     with ``gw = g * weight`` and ``n`` the normalised input.
                     Every row statistic — the forward's mean and variance,
                     the backward's two means — is one GEMV against a cached
                     read-only ``(D, 1)`` column of ``1/D``: at 1024 x 128
                     float32 the GEMV takes ~0.01 ms where ``np.mean``'s
                     reduce-then-divide takes ~0.04, and ``inv_std`` is one
                     ``np.reciprocal``.
``cross_entropy``    ``dlogits = (softmax(logits) - onehot) * valid / n``;
                     the forward keeps the unnormalised exponentials and
                     their row sums, so normalisation, mask and scale are one
                     per-row factor of a single backward pass.
``linear``           ``dx = g W``, ``dW = g^T x``, ``db = sum(g)``; when an
                     activation is fused, ``g`` is first multiplied by the
                     activation's local derivative.
``lora_linear``      ``y = x W^T + b + s (x A^T) B^T = x M^T + b`` with the
                     merged ``M = W + s B A`` (``s`` the LoRA scaling, ``A``
                     ``(r, in)``, ``B`` ``(out, r)``).  Backward, with
                     ``u = s x A^T`` kept from the forward:
                     ``dx = g M = g W + (s g B) A``, ``dB = g^T u``,
                     ``dA = (s g B)^T x``, and ``dW = g^T x``, ``db = sum(g)``
                     only for a trainable base.  Only ``(N, r)`` arrays are
                     added beside the base GEMM's: no ``(N, out)`` scale or
                     add pass in either direction.
``attention``        softmax backward threaded between the two matmul
                     backwards, all restricted to a single probability
                     buffer (``scaled_dot_product_attention``) or to one
                     tile's K/V panels at a time, probabilities recomputed
                     from the saved logsumexp (``tiled_attention``).
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.tensor import arena as _arena
from repro.tensor import plan as _plan
from repro.tensor.tensor import Tensor, custom_op

__all__ = [
    "fused_kernels_enabled",
    "reference_kernels",
    "guard_zero_rows",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "layer_norm",
    "linear",
    "lora_linear",
    "cross_entropy_logits",
    "scaled_dot_product_attention",
    "RowTile",
    "UnitClass",
    "TileLayout",
    "chunk_panel_blocks",
    "mask_tile_layout",
    "tiled_attention",
    "streaming_attention",
]

_NEG_FILL = np.float32(-1e9)
_MAX_FLOOR = np.float32(-5e8)    # softmax row-max clamp, see tiled_attention
_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
_GELU_A = np.float32(0.044715)

# ---------------------------------------------------------------------------
# the reference-tape seam: fused kernels (default) vs. taped compositions
# ---------------------------------------------------------------------------

# The module's one mutable flag.  It has no setter: the parity tests and the
# model-level tests enter the reference tape through :func:`reference_kernels`,
# which restores the fused path on exit.  Kernel *routing* (which attention
# kernel, which row tile) is not a global — it lives on the modules.
_FUSED_ENABLED = True


def fused_kernels_enabled() -> bool:
    """Whether the stack currently routes through the fused kernels."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def reference_kernels():
    """Context manager running the stack on the primitive-composition tape."""
    global _FUSED_ENABLED
    previous = _FUSED_ENABLED
    _FUSED_ENABLED = False
    try:
        yield
    finally:
        _FUSED_ENABLED = previous


# ---------------------------------------------------------------------------
# shared numerical conventions
# ---------------------------------------------------------------------------

def guard_zero_rows(denom: np.ndarray,
                    scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Replace exactly-zero softmax denominators with one, in place.

    This is the single home of the fully-masked-row convention: rows with no
    kept position (padded sequences, extreme sparsity, zero active blocks)
    have an all-zero exp-sum, and dividing by the guarded denominator leaves
    them as exactly-zero probability rows — in every implementation
    (``masked_softmax``, fused SDPA, the tiled kernel and the oracle
    exposer).  Rows with any kept position are
    untouched bit-for-bit.

    ``scratch`` is an optional boolean buffer of ``denom``'s shape (the
    kernels with a ``run`` body pass one they bound); without it the scratch
    comes from the arena, so no per-step heap allocation survives either way.
    """
    buf = scratch if scratch is not None else _arena.empty(denom.shape, bool)
    np.equal(denom, 0.0, out=buf)
    np.copyto(denom, 1.0, where=buf)
    if scratch is None:
        _arena.release(buf)
    return denom


def _reduced_shape(shape: Tuple[int, ...], axis: int) -> Tuple[int, ...]:
    """The keepdims result shape of a reduction along ``axis``."""
    axis = axis % len(shape)
    return shape[:axis] + (1,) + shape[axis + 1:]


@functools.lru_cache(16)
def _row_indices(n: int) -> np.ndarray:
    """Cached read-only ``arange(n)`` — shared row-index vector for fancy
    indexing, so steady-state steps never re-allocate it."""
    idx = np.arange(n)
    idx.setflags(write=False)
    return idx


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` as one fused node."""
    data = x.data
    red_shape = _reduced_shape(data.shape, axis)
    red = data.max(axis=axis, keepdims=True,
                   out=_arena.empty(red_shape, data.dtype))
    probs = np.subtract(data, red, out=_arena.empty(data.shape, data.dtype))
    np.exp(probs, out=probs)
    probs.sum(axis=axis, keepdims=True, out=red)
    probs /= red
    _arena.release(red)

    def backward(grad):
        tmp = np.multiply(grad, probs, out=_arena.empty(probs.shape, probs.dtype))
        dot = tmp.sum(axis=axis, keepdims=True,
                      out=_arena.empty(red_shape, probs.dtype))
        np.subtract(grad, dot, out=tmp)
        _arena.release(dot)
        tmp *= probs
        return (tmp,)

    return custom_op(probs, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax with a fused backward (used by the LM scoring path)."""
    data = x.data
    red_shape = _reduced_shape(data.shape, axis)
    red = data.max(axis=axis, keepdims=True,
                   out=_arena.empty(red_shape, data.dtype))
    out = np.subtract(data, red, out=_arena.empty(data.shape, data.dtype))
    exp = np.exp(out, out=_arena.empty(out.shape, out.dtype))
    exp.sum(axis=axis, keepdims=True, out=red)
    _arena.release(exp)
    logsumexp = np.log(red, out=red)
    out -= logsumexp
    _arena.release(red)

    def backward(grad):
        tmp = np.exp(out, out=_arena.empty(out.shape, out.dtype))
        dot = grad.sum(axis=axis, keepdims=True,
                       out=_arena.empty(red_shape, out.dtype))
        tmp *= dot
        _arena.release(dot)
        np.subtract(grad, tmp, out=tmp)
        return (tmp,)

    return custom_op(out, (x,), backward)


def masked_softmax(scores: Tensor, mask: Optional[np.ndarray], axis: int = -1,
                   neg_fill: float = float(_NEG_FILL)) -> Tensor:
    """Softmax over attention scores with a boolean keep-mask, one node.

    ``mask`` follows the convention "True = keep, False = drop"; dropped
    positions receive exactly zero probability and fully-masked rows produce
    an all-zero row (padded sequences, extremely sparse patterns).
    """
    if mask is None:
        return softmax(scores, axis=axis)
    mask = np.asarray(mask, dtype=bool)
    data = scores.data
    shape = np.broadcast_shapes(data.shape, mask.shape)
    # Masked fill without the ``np.where`` temporary: pre-fill with the drop
    # value and copy the kept scores over it (identical values).
    probs = _arena.empty(shape, data.dtype)
    probs[...] = np.asarray(neg_fill, dtype=data.dtype)
    np.copyto(probs, np.broadcast_to(data, shape), where=mask)
    red_shape = _reduced_shape(shape, axis)
    red = probs.max(axis=axis, keepdims=True,
                    out=_arena.empty(red_shape, data.dtype))
    probs -= red
    np.exp(probs, out=probs)
    np.multiply(probs, mask, out=probs)
    probs.sum(axis=axis, keepdims=True, out=red)
    guard_zero_rows(red)
    probs /= red
    _arena.release(red)

    def backward(grad):
        grad = np.multiply(grad, mask, out=_arena.empty(probs.shape, probs.dtype))
        tmp = np.multiply(grad, probs, out=_arena.empty(probs.shape, probs.dtype))
        dot = tmp.sum(axis=axis, keepdims=True,
                      out=_arena.empty(red_shape, probs.dtype))
        _arena.release(tmp)
        grad -= dot
        grad *= probs
        _arena.release(dot)
        return (grad,)

    return custom_op(probs, (scores,), backward)


# ---------------------------------------------------------------------------
# layer normalisation
# ---------------------------------------------------------------------------

@functools.lru_cache(16)
def _mean_column(dim: int, dtype: str) -> np.ndarray:
    """Cached read-only ``(dim, 1)`` column of ``1 / dim``: a row mean is one
    GEMV against it."""
    col = np.full((dim, 1), 1.0 / dim, dtype=dtype)
    col.setflags(write=False)
    return col


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension with affine parameters.

    Every row reduction — the forward's mean and variance, the backward's two
    row means — is one GEMV against a cached ``1/D`` column, not an
    ``np.mean``, and the inverse standard deviation is one ``np.reciprocal``.
    """
    data = x.data
    dim = data.shape[-1]
    red_shape = data.shape[:-1] + (1,)
    col = _mean_column(dim, data.dtype.str)
    rec = _plan._RECORDER
    alloc = np.empty if rec is not None else _arena.empty
    w, b = weight.data, bias.data
    normalized = alloc(data.shape, data.dtype)
    mean = alloc(red_shape, data.dtype)
    inv_std = alloc(red_shape, data.dtype)
    out = alloc(data.shape, data.dtype)

    def run(data=data, w=w, b=b, normalized=normalized, mean=mean,
            inv_std=inv_std, out=out):
        np.matmul(data, col, out=mean)
        np.subtract(data, mean, out=normalized)
        # The squared deviations go through ``out`` before it holds the result.
        np.square(normalized, out=out)
        np.matmul(out, col, out=inv_std)
        np.add(inv_std, eps, out=inv_std)
        np.sqrt(inv_std, out=inv_std)
        np.reciprocal(inv_std, out=inv_std)
        np.multiply(normalized, inv_std, out=normalized)
        np.multiply(normalized, w, out=out)
        np.add(out, b, out=out)

    _plan.emit(rec, run, "layer_norm", mean)

    def backward(grad):
        # Affine-parameter gradients only when the parameters are trainable
        # (they are frozen during PEFT fine-tuning — dead reductions else).
        tmp = _arena.empty(normalized.shape, normalized.dtype)
        grad_weight = grad_bias = None
        if weight.requires_grad:
            np.multiply(grad, normalized, out=tmp)
            grad_weight = tmp.reshape(-1, dim).sum(
                axis=0, out=_arena.empty((dim,), normalized.dtype))
        if bias.requires_grad:
            grad_bias = grad.reshape(-1, dim).sum(
                axis=0, out=_arena.empty((dim,), normalized.dtype))
        # ``tmp`` doubles as the grad_norm buffer once grad_weight is reduced.
        grad_norm = np.multiply(grad, weight.data, out=tmp)
        inner = np.matmul(grad_norm, col,
                          out=_arena.empty(red_shape, normalized.dtype))
        grad_x = np.subtract(grad_norm, inner,
                             out=_arena.empty(normalized.shape, normalized.dtype))
        np.multiply(grad_norm, normalized, out=grad_norm)
        np.matmul(grad_norm, col, out=inner)
        np.multiply(normalized, inner, out=grad_norm)
        grad_x -= grad_norm
        grad_x *= inv_std
        _arena.release(tmp, normalized, inner, inv_std)
        return grad_x, grad_weight, grad_bias

    return custom_op(out, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# fused linear (+ bias, + optional activation)
# ---------------------------------------------------------------------------

def _gelu_local_grad(pre: np.ndarray, tanh_inner: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx given the pre-activation and its cached tanh term."""
    sech2 = np.multiply(tanh_inner, tanh_inner,
                        out=_arena.empty(pre.shape, pre.dtype))
    np.subtract(1.0, sech2, out=sech2)
    d_inner = np.multiply(pre, pre, out=_arena.empty(pre.shape, pre.dtype))
    d_inner *= 3.0 * _GELU_A
    d_inner += 1.0
    d_inner *= _GELU_C
    local = np.multiply(sech2, d_inner, out=sech2)
    local *= pre
    # ``local += 1.0 + tanh_inner`` staged through scratch: the expression
    # form materialised a full-size heap temporary on every backward.
    np.add(tanh_inner, 1.0, out=d_inner)
    local += d_inner
    local *= 0.5
    _arena.release(d_inner)
    return local


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           activation: Optional[str] = None) -> Tensor:
    """Fused affine map ``act(x @ weight.T + bias)`` as a single tape node.

    ``weight`` has shape ``(out_features, in_features)`` (PyTorch layout).
    ``activation`` may be ``None``, ``"relu"``, ``"gelu"``, ``"tanh"`` or
    ``"sigmoid"``; fusing it here means the MLP's first half contributes one
    node (and one saved buffer) to the tape instead of two ops plus an
    intermediate Tensor.
    """
    x_data = x.data
    in_features = weight.data.shape[1]
    out_features = weight.data.shape[0]
    if activation not in (None, "none", "relu", "gelu", "tanh", "sigmoid"):
        raise ValueError(f"unsupported fused activation {activation!r}")
    rec = _plan._RECORDER
    if rec is not None and not x_data.flags.c_contiguous:
        # ``reshape`` below would copy, and the copy would go stale between
        # replays; this step's forward runs interpreted.
        rec.fail("linear over a non-contiguous activation")
        rec = None
    # Collapse leading dims into one 2D GEMM: NumPy's matmul runs a Python-
    # level batch loop for (batch, m, k) @ (k, n), while the reshape of a
    # C-contiguous activation is free.
    x2d = x_data.reshape(-1, in_features)

    # Per-activation saved state for the backward (all 2D views).
    relu_mask = gelu_pre = gelu_tanh = act_out = None
    alloc = np.empty if rec is not None else _arena.empty
    w = weight.data
    b = None if bias is None else bias.data
    pre = alloc((x2d.shape[0], out_features), np.result_type(x2d, w))
    out = pre
    if activation == "relu":
        relu_mask = alloc(pre.shape, bool)
    elif activation == "gelu":
        gelu_pre = pre
        gelu_tanh = alloc(pre.shape, pre.dtype)
        out = alloc(pre.shape, pre.dtype)
    elif activation in ("tanh", "sigmoid"):
        act_out = pre

    def run(x2d=x2d, w=w, b=b, pre=pre, out=out, relu_mask=relu_mask,
            gelu_tanh=gelu_tanh, activation=activation):
        np.matmul(x2d, w.T, out=pre)
        if b is not None:
            pre += b
        if activation == "relu":
            np.greater(pre, 0, out=relu_mask)
            np.multiply(pre, relu_mask, out=pre)
        elif activation == "gelu":
            # tanh approximation with multiplications, not ``**``: ``x ** 3``
            # on float32 goes through NumPy's generic pow loop, an order of
            # magnitude slower than two multiplies (GeLU alone was ~35 % of
            # the seed train step for exactly this reason).
            np.multiply(pre, pre, out=gelu_tanh)
            gelu_tanh *= _GELU_A
            gelu_tanh += 1.0
            gelu_tanh *= pre
            gelu_tanh *= _GELU_C
            np.tanh(gelu_tanh, out=gelu_tanh)
            np.add(gelu_tanh, 1.0, out=out)
            out *= pre
            out *= 0.5
        elif activation == "tanh":
            np.tanh(pre, out=pre)
        elif activation == "sigmoid":
            np.negative(pre, out=pre)
            np.exp(pre, out=pre)
            pre += 1.0
            np.reciprocal(pre, out=pre)

    _plan.emit(rec, run, f"linear:{activation or 'none'}")

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        # Gradients are produced only for parents that will consume them:
        # under PEFT the base projections, the tied LM head and the norms
        # are frozen, so their weight-gradient GEMMs/reductions are dead
        # work the autograd loop would discard anyway.
        grad2d = grad.reshape(-1, out_features)
        act_grad = None
        if relu_mask is not None:
            grad2d = act_grad = np.multiply(
                grad2d, relu_mask, out=_arena.empty(grad2d.shape, grad2d.dtype))
            _arena.release(relu_mask)
        elif gelu_pre is not None:
            local = _gelu_local_grad(gelu_pre, gelu_tanh)
            grad2d = act_grad = np.multiply(
                grad2d, local, out=_arena.empty(grad2d.shape, grad2d.dtype))
            _arena.release(local, gelu_pre, gelu_tanh)
        elif act_out is not None:
            local = _arena.empty(act_out.shape, act_out.dtype)
            if activation == "tanh":
                np.multiply(act_out, act_out, out=local)
                np.subtract(1.0, local, out=local)
            else:  # sigmoid
                np.subtract(1.0, act_out, out=local)
                local *= act_out
            grad2d = act_grad = np.multiply(
                grad2d, local, out=_arena.empty(grad2d.shape, grad2d.dtype))
            _arena.release(local)
        grad_x = grad_w = None
        if x.requires_grad:
            grad_x = np.matmul(
                grad2d, weight.data,
                out=_arena.empty((grad2d.shape[0], in_features),
                                 np.result_type(grad2d, weight.data))
            ).reshape(x_data.shape)
        if weight.requires_grad:
            grad_w = np.matmul(grad2d.T, x2d,
                               out=_arena.empty((out_features, in_features),
                                                np.result_type(grad2d, x2d)))
        grad_b = (grad2d.sum(axis=0,
                             out=_arena.empty((out_features,), grad2d.dtype))
                  if bias is not None and bias.requires_grad else None)
        if act_grad is not None:
            _arena.release(act_grad)
        if bias is None:
            return grad_x, grad_w
        return grad_x, grad_w, grad_b

    return custom_op(out.reshape(*x_data.shape[:-1], out_features),
                     parents, backward)


# ---------------------------------------------------------------------------
# LoRA-adapted projection
# ---------------------------------------------------------------------------

def lora_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                lora_A: Tensor, lora_B: Tensor, scaling: float) -> Tensor:
    """``x W^T + b + scaling * (x A^T) B^T`` as a single tape node.

    ``weight`` is ``(out, in)``, ``lora_A`` ``(r, in)`` and ``lora_B``
    ``(out, r)``.  The adapter is folded into the weight, not added to the
    output: one ``(out, in)`` merge ``W + scaling * B A`` per call (``r`` MACs
    per weight entry), then one GEMM — no ``(N, out)`` scale or add pass.
    The ``(N, r)`` intermediate ``u = scaling * x A^T`` is kept for
    ``dB``.  The backward reuses the merged weight for ``dx`` and works from
    the r-wide intermediates (see the module docstring); it forms the base
    weight/bias gradients only when those parameters are trainable.
    """
    x_data = x.data
    out_features, in_features = weight.data.shape
    rank = lora_A.data.shape[0]
    scaling = float(scaling)
    rec = _plan._RECORDER
    if rec is not None and not x_data.flags.c_contiguous:
        # ``reshape`` below would copy, and the copy would go stale between
        # replays; this step's forward runs interpreted.
        rec.fail("lora_linear over a non-contiguous activation")
        rec = None
    x2d = x_data.reshape(-1, in_features)
    n_rows = x2d.shape[0]
    alloc = np.empty if rec is not None else _arena.empty
    w, a, bmat = weight.data, lora_A.data, lora_B.data
    b = None if bias is None else bias.data
    dtype = np.result_type(x2d, w)
    merged = alloc((out_features, in_features), dtype)   # W + scaling * B A
    down = alloc((n_rows, rank), dtype)                   # u = scaling * x A^T
    out = alloc((n_rows, out_features), dtype)

    def run(x2d=x2d, w=w, b=b, a=a, bmat=bmat, merged=merged, down=down, out=out):
        np.matmul(bmat, a, out=merged)
        merged *= scaling
        merged += w
        np.matmul(x2d, merged.T, out=out)
        if b is not None:
            out += b
        np.matmul(x2d, a.T, out=down)
        down *= scaling

    _plan.emit(rec, run, "lora_linear")

    parents = ((x, weight, lora_A, lora_B) if bias is None
               else (x, weight, bias, lora_A, lora_B))

    def backward(grad):
        grad2d = grad.reshape(-1, out_features)
        grad_x = grad_w = grad_b = grad_a = grad_bmat = None
        if x.requires_grad:
            # dx = g (W + scaling * B A) = g W + (scaling * g B) A.
            grad_x = np.matmul(grad2d, merged,
                               out=_arena.empty((n_rows, in_features), dtype)
                               ).reshape(x_data.shape)
        if lora_B.requires_grad:
            grad_bmat = np.matmul(grad2d.T, down,
                                  out=_arena.empty((out_features, rank), dtype))
        if lora_A.requires_grad:
            # d(x A^T) = scaling * g B, r wide.
            grad_down = np.matmul(grad2d, bmat,
                                  out=_arena.empty((n_rows, rank), dtype))
            grad_down *= scaling
            grad_a = np.matmul(grad_down.T, x2d,
                               out=_arena.empty((rank, in_features), dtype))
            _arena.release(grad_down)
        if weight.requires_grad:
            grad_w = np.matmul(grad2d.T, x2d,
                               out=_arena.empty((out_features, in_features), dtype))
        if bias is not None and bias.requires_grad:
            grad_b = grad2d.sum(axis=0, out=_arena.empty((out_features,), dtype))
        _arena.release(merged, down)
        if bias is None:
            return grad_x, grad_w, grad_a, grad_bmat
        return grad_x, grad_w, grad_b, grad_a, grad_bmat

    return custom_op(out.reshape(*x_data.shape[:-1], out_features),
                     parents, backward)


# ---------------------------------------------------------------------------
# cross entropy on logits
# ---------------------------------------------------------------------------

def cross_entropy_logits(logits: Tensor, targets: np.ndarray,
                         ignore_index: int = -100,
                         shift: bool = False) -> Tuple[Tensor, int]:
    """Token-level cross entropy as one fused node over the logits.

    With ``shift=True`` the op computes the next-token loss directly —
    position ``t`` of the logits is scored against target ``t + 1`` — so the
    caller passes the *unshifted* ``(batch, seq, vocab)`` logits and no
    ``logits[:, :-1]`` slice node ever enters the tape.  That saves the slice
    node's forward copy and closure; the backward of this op still allocates
    one full-size gradient buffer for the logits input.

    Returns ``(mean NLL over valid positions, number of valid positions)``.
    """
    targets = np.asarray(targets)
    data = logits.data
    if shift:
        if data.ndim < 2:
            raise ValueError("shift=True requires (batch, seq, vocab) logits")
        scored = data[..., :-1, :]
        targets = targets[..., 1:]
    else:
        scored = data
    vocab = scored.shape[-1]
    n_rows = int(np.prod(scored.shape[:-1], dtype=np.int64))
    rows = _row_indices(n_rows)
    rec = _plan._RECORDER
    if not shift:
        flat_logits = scored.reshape(-1, vocab)
        flat_targets = targets.reshape(-1)
        if rec is not None and not np.may_share_memory(flat_logits, data):
            # ``reshape`` copied, and the copy would go stale between replays.
            rec.fail("cross entropy over non-contiguous logits")
            rec = None
    alloc = np.empty if rec is not None else _arena.empty
    flat_view = targets_view = None
    if shift and scored.flags.c_contiguous and targets.flags.c_contiguous:
        # One sequence (or a batch whose slices happen to be contiguous):
        # the shifted slices are flat views, nothing to copy.
        flat_logits = scored.reshape(-1, vocab)
        flat_targets = targets.reshape(-1)
    elif shift:
        # The shifted slices are non-contiguous, so reshape would copy
        # anyway; the copies land in bound buffers ``run`` refreshes.
        flat_logits = alloc((n_rows, vocab), data.dtype)
        flat_view = flat_logits.reshape(scored.shape)
        flat_targets = alloc((n_rows,), targets.dtype)
        targets_view = flat_targets.reshape(targets.shape)
    # Every target-derived array (valid mask, safe targets, the per-row
    # reductions) lives in a buffer bound once and refreshed by ``run``, so
    # re-running the body heaps nothing; the per-batch *scalars* (valid
    # count, denominator) go through ``st`` — shared mutable state the
    # backward closure reads.  ``exps`` — the shifted exponentials, left
    # unnormalised — and their row sums are what the backward keeps.
    exps = alloc((n_rows, vocab), data.dtype)
    loss_buf = alloc((), np.float32)
    valid = alloc((n_rows,), bool)
    safe_targets = alloc((n_rows,), np.int64)
    gather_idx = alloc((n_rows,), np.int64)
    row_red = alloc((n_rows, 1), data.dtype)
    target_logits = alloc((n_rows,), data.dtype)
    picked = alloc((n_rows,), data.dtype)
    st = {}

    def run(scored=scored, targets=targets, exps=exps, loss_buf=loss_buf,
            flat_logits=flat_logits, flat_view=flat_view,
            flat_targets=flat_targets, targets_view=targets_view, st=st):
        if flat_view is not None:
            np.copyto(flat_view, scored)
            np.copyto(targets_view, targets)
        np.not_equal(flat_targets, ignore_index, out=valid)
        n_valid = int(valid.sum())
        np.multiply(flat_targets, valid, out=safe_targets)
        flat_logits.max(axis=-1, keepdims=True, out=row_red)
        np.subtract(flat_logits, row_red, out=exps)
        # Pull the target-token logits out *before* exponentiating in place;
        # the full log-prob matrix is never materialised.
        np.multiply(rows, vocab, out=gather_idx)
        np.add(gather_idx, safe_targets, out=gather_idx)
        np.take(exps.reshape(-1), gather_idx, out=target_logits)
        np.exp(exps, out=exps)
        exps.sum(axis=-1, keepdims=True, out=row_red)
        np.log(row_red[:, 0], out=picked)
        np.subtract(target_logits, picked, out=picked)
        denom = max(n_valid, 1)
        np.multiply(picked, valid, out=picked)
        loss_buf[...] = -picked.sum() / denom
        st["denom"] = denom
        st["n_valid"] = n_valid

    # Where flat_logits/flat_targets are views of the caller's arrays,
    # release() ignores them.
    _plan.emit(rec, run, "cross_entropy", flat_logits, flat_targets,
               target_logits, picked)

    def backward(grad):
        # (exps / row_sum - onehot) * valid * grad / denom: the softmax
        # normalisation, the valid mask and the scale are one per-row factor
        # applied in a single pass over the logits, written straight into
        # the gradient; the one-hot is then a row-sized gather / subtract /
        # scatter at the target positions.
        scale = float(np.asarray(grad).reshape(())) / st["denom"]
        factor = np.divide(valid, row_red[:, 0],
                           out=_arena.empty((n_rows,), exps.dtype))
        factor *= scale
        full = _arena.empty(data.shape, data.dtype)
        np.multiply(exps.reshape(scored.shape),
                    factor.reshape(scored.shape[:-1] + (1,)),
                    out=full[..., :-1, :] if shift else full)
        at = gather_idx
        if shift:
            full[..., -1:, :] = 0.0
            # Past the unscored last position of every earlier sequence.
            at = np.floor_divide(rows, max(scored.shape[-2], 1),
                                 out=_arena.empty((n_rows,), np.int64))
            at *= vocab
            at += gather_idx
        flat = full.reshape(-1)
        hit = np.take(flat, at, mode="clip", out=_arena.empty((n_rows,), full.dtype))
        np.multiply(valid, factor.dtype.type(scale), out=factor)
        hit -= factor
        flat[at] = hit
        _arena.release(exps, valid, safe_targets, gather_idx, row_red, factor,
                       hit, at)
        return (full,)

    return custom_op(loss_buf, (logits,), backward), st["n_valid"]


# ---------------------------------------------------------------------------
# fused dense attention core
# ---------------------------------------------------------------------------

def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 attn_mask: Optional[np.ndarray] = None,
                                 scale: Optional[float] = None,
                                 return_probs: bool = False
                                 ) -> Union[Tensor, Tuple[Tensor, np.ndarray]]:
    """Fused ``softmax(Q K^T * scale) V`` with a hand-written backward.

    ``q``/``k``/``v`` are ``(batch, heads, seq, head_dim)``; ``attn_mask`` is
    an optional boolean keep-mask broadcastable to the score shape.  The
    whole core is one tape node that keeps a single ``(batch, heads, seq,
    seq)`` probability buffer alive for the backward — the taped composition
    keeps four (scores, masked scores, exp, probs) plus per-op closures.

    With ``return_probs=True`` also returns a copy of the attention
    probabilities (predictor data collection reads them as ground truth).
    """
    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(q.shape[-1]))
    if attn_mask is not None:
        attn_mask = np.asarray(attn_mask, dtype=bool)

    score_shape = q.shape[:-1] + (k.shape[-2],)
    rec = _plan._RECORDER
    if rec is not None and return_probs:
        # The probability snapshot is a per-call copy (predictor collection);
        # it has no stable replay form.
        rec.fail("scaled_dot_product_attention with return_probs")
        rec = None
    alloc = np.empty if rec is not None else _arena.empty
    q_data, k_data, v_data = q.data, k.data, v.data
    kT = np.swapaxes(k_data, -1, -2)
    # Negated once into a bound buffer: a bare ``~attn_mask`` inside the body
    # would be a fresh O(seq^2)-scale bool allocation on every call.
    drop_mask = (None if attn_mask is None else
                 np.logical_not(attn_mask, out=alloc(attn_mask.shape, bool)))
    probs = alloc(score_shape, q_data.dtype)
    red = alloc(score_shape[:-1] + (1,), q_data.dtype)
    zero_rows = alloc(red.shape, bool)
    out = alloc(q.shape[:-1] + (v.shape[-1],), q_data.dtype)

    def run(q_data=q_data, kT=kT, v_data=v_data, probs=probs, red=red,
            zero_rows=zero_rows, out=out, attn_mask=attn_mask,
            drop_mask=drop_mask, scale=scale):
        np.matmul(q_data, kT, out=probs)
        probs *= scale
        if attn_mask is not None:
            np.copyto(probs, _NEG_FILL, where=drop_mask)
        probs.max(axis=-1, keepdims=True, out=red)
        probs -= red
        np.exp(probs, out=probs)
        if attn_mask is not None:
            np.multiply(probs, attn_mask, out=probs)
        probs.sum(axis=-1, keepdims=True, out=red)
        guard_zero_rows(red, scratch=zero_rows)
        probs /= red
        np.matmul(probs, v_data, out=out)

    _plan.emit(rec, run, "sdpa", drop_mask, red, zero_rows)

    def backward(grad_out):
        grad_v = np.matmul(np.swapaxes(probs, -1, -2), grad_out,
                           out=_arena.empty(v.shape, v.data.dtype))
        # dP, then softmax backward in the same buffer.
        dS = np.matmul(grad_out, np.swapaxes(v.data, -1, -2),
                       out=_arena.empty(score_shape, q.data.dtype))
        tmp = np.multiply(dS, probs, out=_arena.empty(score_shape, q.data.dtype))
        dot = tmp.sum(axis=-1, keepdims=True,
                      out=_arena.empty(score_shape[:-1] + (1,), q.data.dtype))
        _arena.release(tmp)
        dS -= dot
        _arena.release(dot)
        dS *= probs
        dS *= scale
        grad_q = np.matmul(dS, k.data, out=_arena.empty(q.shape, q.data.dtype))
        grad_k = np.matmul(np.swapaxes(dS, -1, -2), q.data,
                           out=_arena.empty(k.shape, k.data.dtype))
        _arena.release(dS, probs)
        return grad_q, grad_k, grad_v

    result = custom_op(out, (q, k, v), backward)
    if return_probs:
        return result, probs.copy()
    return result


# ---------------------------------------------------------------------------
# tiled attention: the one kernel behind dense streaming and block-sparse
# attention
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowTile:
    """One query-row tile ``[r0, r1)`` of dense attention.

    Its K/V *panel* is the key prefix ``[0, width)``.  ``drop`` — bool,
    broadcastable to ``(batch, heads, width - m0, r1 - r0)``, panel-column
    major like the score scratch — marks the entries of panel columns
    ``[m0, width)`` that receive no probability: a mask's dropped entries,
    the causal triangle of the diagonal tile.
    """

    r0: int
    r1: int
    width: int
    drop: Optional[np.ndarray] = None
    m0: int = 0


@dataclass(frozen=True)
class UnitClass:
    """One chunk of a capacity class of block-sparse attention.

    A *unit* is one ``(head, query block)``: the block's query rows, with
    every batch row stacked on the leading axis.  The chunk holds units
    ``[u0, u1)`` of :attr:`TileLayout.units`, each with ``capacity`` panel
    blocks: ``index`` lists, unit after unit, linear ``head * n_blocks +
    key_block`` slots of the staged K/V grid — the earlier key blocks the
    unit keeps (ascending), the inert all-zero slot ``heads * n_blocks`` as
    padding, then its own diagonal block.  ``drop`` — bool, ``(capacity -
    first, units)`` — marks the inert slots from panel block ``first`` on
    (None: the chunk has none); the kernel drops their whole blocks, and the
    causal triangle of every diagonal block through one shared mask.
    ``rounds`` (unit offsets) cut the chunk into runs holding each head at
    most once, in ascending query block from run to run: a run's slots are
    distinct, so its key gradients scatter-add with one gather and one store,
    and inside the class every key block meets its query blocks in ascending
    order.
    """

    u0: int
    u1: int
    capacity: int
    index: np.ndarray
    rounds: Tuple[int, ...]
    drop: Optional[np.ndarray]
    first: int


@dataclass(frozen=True)
class TileLayout:
    """The only structural input of :func:`tiled_attention`.

    Dense attention is a tuple of :class:`RowTile`.  Block-sparse attention
    is a tuple of :class:`UnitClass` chunks over the ``heads * n_blocks``
    units in the order ``units`` lists them (``head * n_blocks + query
    block``), gathering ``block``-row blocks from staged grids of
    ``n_blocks`` per head.
    """

    tiles: Tuple[Union[RowTile, UnitClass], ...]
    block: int = 0
    n_blocks: int = 0
    units: Optional[np.ndarray] = None


class _TileViews(NamedTuple):
    """One tile's (or class chunk's) views of the inputs and of a workspace."""

    q_rows: np.ndarray    # (batch, lead, n, dim) query rows
    qs: np.ndarray        # scale * q_rows, contiguous
    qs_t: np.ndarray      # qs transposed
    k_pan: np.ndarray     # (batch, lead, width, dim)
    v_pan: np.ndarray     # (batch, lead, width, vdim)
    gathers: tuple        # (staged slots, slot list, panel to gather into)
    s: np.ndarray         # (batch, lead, width, n) score scratch
    masks: tuple          # (score view, bool mask) pairs: entries to drop
    o: np.ndarray         # (batch, lead, n, vdim) output rows
    lse: np.ndarray       # (batch, lead, 1, n) their logsumexp
    ids: Optional[np.ndarray]  # a chunk's units (None: rows of the natural layout)


def chunk_panel_blocks(heads: int, n_blocks: int) -> int:
    """Panel blocks one capacity-class chunk holds at most: half the staged
    K/V grid's, so chunk scratch stays a fraction of the sequence-sized
    buffers while each stacked GEMM still spans hundreds of units."""
    return max(1, heads * n_blocks // 2)


def mask_tile_layout(attn_mask: Optional[np.ndarray], sq: int, sk: int,
                     row_tile: int, alloc=np.empty) -> TileLayout:
    """Tile layout of dense attention under a boolean keep-mask.

    Per row tile, column-wise any/all reductions of the mask give the panel
    (the prefix up to the last column any row keeps) and the span a drop mask
    is needed on (from the first column some row drops).  A causal mask
    therefore yields prefix panels masked on the diagonal tile only; an
    arbitrary mask degrades to fully masked panels and stays correct.
    """
    if attn_mask is None:
        return TileLayout(tuple(RowTile(r0, min(r0 + row_tile, sq), sk)
                                for r0 in range(0, sq, row_tile)))
    mask = np.broadcast_to(attn_mask, attn_mask.shape[:-2] + (sq, sk))
    lead = tuple(range(mask.ndim - 2))
    some = mask.any(axis=lead) if lead else mask
    every = mask.all(axis=lead) if lead else mask
    tiles = []
    for r0 in range(0, sq, row_tile):
        r1 = min(r0 + row_tile, sq)
        kept = np.flatnonzero(some[r0:r1].any(axis=0))
        width = int(kept[-1]) + 1 if kept.size else 1
        partial = np.flatnonzero(~every[r0:r1, :width].all(axis=0))
        if partial.size == 0:
            tiles.append(RowTile(r0, r1, width))
            continue
        m0 = int(partial[0])
        keep = np.swapaxes(mask[..., r0:r1, m0:width], -1, -2)
        tiles.append(RowTile(r0, r1, width, m0=m0, drop=np.logical_not(
            keep, out=alloc(keep.shape, bool))))
    return TileLayout(tuple(tiles))


def tiled_attention(q: Tensor, k: Tensor, v: Tensor, layout: TileLayout,
                    scale: Optional[float] = None,
                    tag: str = "tiled_attention") -> Tensor:
    """``softmax(Q K^T * scale) V`` walked one tile of query rows at a time.

    A dense tile (:class:`RowTile`) is a run of query rows over a key prefix,
    stacked over ``(batch, heads)``.  A block-sparse tile (:class:`UnitClass`)
    is a chunk of a capacity class, stacked over ``(batch, units)``: its query
    rows and K/V panels are gathered block by block from staged grids, and its
    output and ``dQ`` rows are scattered back.  Either way the forward forms
    the tile's scores with one batched GEMM, runs a plain softmax over the
    panel — every column a row attends to is present at once, so there is no
    running max to rescale — and one GEMM for the context.  Only ``out`` and
    the per-row logsumexp survive (plus, for classes, the sequence-sized
    staged Q and K/V grids); the backward recomputes each tile's
    probabilities from the logsumexp, forms ``dS`` on the panel only, writes
    ``dQ`` once per tile and accumulates ``dK``/``dV`` through the same
    column list.  Seven GEMMs per tile, whatever the number of active blocks.

    Scores are kept panel-column major, ``(batch, lead, width, rows)`` — a
    class chunk's stored unit-innermost, so its reductions sweep long
    contiguous rows: the softmax reductions run over the panel axis, which
    NumPy accumulates strictly in column order, so trailing padded columns add
    exact zeros and padding a panel never changes a bit of the result (until
    the padded width crosses the BLAS's own inner-dimension blocking, a few
    hundred columns, where the two panel-reducing GEMMs may round
    differently).  A key block collects its gradient in a fixed order — class
    by class, ascending query block inside a class — so replay is bitwise
    equal to interpreted execution.  The contract is bitwise per geometry,
    not per layout: ``dK``/``dV`` follow which units share a class, so
    grouping the same layout's units differently (another capacity ladder)
    changes their rounding, while widening every class in place does not.

    Rows that keep no column follow :func:`guard_zero_rows`: their output and
    all three gradients are exactly zero.
    """
    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(q.shape[-1]))
    qd, kd, vd = q.data, k.data, v.data
    batch, heads, sq, dim = qd.shape
    sk, vdim = kd.shape[2], vd.shape[3]
    dtype = qd.dtype
    tiles, bs, nb, units = layout.tiles, layout.block, layout.n_blocks, layout.units
    sparse = units is not None
    kvd = dim + vdim       # a staged K/V grid row: its key, then its value
    if sparse:
        # Units stack on the leading axis.  Chunk scratch is sized by the
        # sequence (a chunk's panel-block budget), not by this layout's
        # classes: a refresh that moves them reuses the arena buffers its
        # predecessor released.
        lead, rows = heads * nb, bs
        stack = max(chunk_panel_blocks(heads, nb), max(t.capacity for t in tiles))
        panel = stack * bs
    else:
        lead, rows = heads, max(t.r1 - t.r0 for t in tiles)
        stack, panel = heads, heads * max(t.width for t in tiles)
    area = panel * rows        # score entries per batch row

    def workspace(alloc):
        """(score, scaled-q) buffers sized for any tile, and for class chunks
        (K/V-panel, output-row, transposed scaled-q) ones."""
        work = (alloc((batch * area,), dtype), alloc((batch, stack, rows, dim), dtype))
        if sparse:
            work += (alloc((batch * panel * kvd,), dtype),
                     alloc((batch, stack, rows, vdim), dtype),
                     alloc((batch, stack, dim, rows), dtype))
        return work

    def scores_in(buf, tile):
        """``tile``'s ``(batch, lead, width, rows)`` score view of ``buf``."""
        if not sparse:
            n, w = tile.r1 - tile.r0, tile.width
            return buf[:batch * heads * w * n].reshape(batch, heads, w, n)
        n, w = tile.u1 - tile.u0, tile.capacity * bs
        return buf[:batch * w * n * bs].reshape(batch, w, n, bs).transpose(0, 2, 1, 3)

    def bind(tile, work) -> _TileViews:
        s = scores_in(work[0], tile)
        if not sparse:
            n, w = tile.r1 - tile.r0, tile.width
            qs = work[1][:, :, :n]
            masks = () if tile.drop is None else ((s[:, :, tile.m0:], tile.drop),)
            return _TileViews(qd[:, :, tile.r0:tile.r1], qs, np.swapaxes(qs, -1, -2),
                              kd[:, :, :w], vd[:, :, :w], (), s, masks,
                              out[:, :, tile.r0:tile.r1], lse[..., tile.r0:tile.r1],
                              None)
        _, qs_buf, kv_buf, o_buf, qs_t_buf = work
        n, c = tile.u1 - tile.u0, tile.capacity
        qs, ids = qs_buf[:, :n], units[tile.u0:tile.u1]
        kv_flat = kv_buf[:batch * c * bs * n * kvd].reshape(batch, n * c, bs * kvd)
        kv_pan = kv_flat.reshape(batch, n, c * bs, kvd)
        gathers = ((q_blocks, ids, qs), (kv_slots, tile.index, kv_flat))
        # Masks per block: the diagonal block's causal triangle, and whole
        # inert blocks through a (panel block, column, unit, row) view of the
        # stored scores.
        stored = s.transpose(0, 2, 1, 3)
        masks = ((stored[:, -bs:], causal),)
        if tile.drop is not None:
            masks += ((stored[:, tile.first * bs:].reshape(batch, -1, bs, n, bs),
                       tile.drop[:, None, :, None]),)
        return _TileViews(qs, qs, qs_t_buf[:, :n], kv_pan[..., :dim],
                          kv_pan[..., dim:], gathers, s, masks, o_buf[:, :n],
                          lse[:, tile.u0:tile.u1], ids)

    def tile_scores(tv: _TileViews) -> None:
        """Scaled scores of one tile into ``tv.s``, dropped entries filled."""
        for slots, index, into in tv.gathers:
            np.take(slots, index, axis=1, mode="clip", out=into)
        np.multiply(tv.q_rows, scale, out=tv.qs)
        if tv.ids is not None:
            # A class chunk's GEMMs are small: with the transposed operand
            # contiguous this BLAS runs them ~2.5x faster (same bits).
            np.copyto(np.swapaxes(tv.qs_t, -1, -2), tv.qs)
        np.matmul(tv.k_pan, tv.qs_t, out=tv.s)
        for view, mask in tv.masks:
            np.copyto(view, _NEG_FILL, where=mask)

    rec = _plan._RECORDER
    alloc = np.empty if rec is not None else _arena.empty
    kv_slots = q_grid = None
    copies = []
    if sparse:
        # Query rows and panels are read block by block out of (head, block)
        # grids, K/V's with one spare all-zero slot.  The grids are
        # zero-filled once, here, and refreshed from Q/K/V by every run: a
        # ragged last block stays zero-padded.
        zeros = np.zeros if rec is not None else _arena.zeros
        kv_slots = zeros((batch, lead + 1, bs * kvd), dtype)
        kv_grid = kv_slots[:, :lead].reshape(batch, heads, nb * bs, kvd)
        q_grid = zeros((batch, heads, nb * bs, dim), dtype)
        q_blocks = q_grid.reshape(batch, lead, bs, dim)
        copies = [(kv_grid[:, :, :sk, :dim], kd), (kv_grid[:, :, :sk, dim:], vd),
                  (q_grid[:, :, :sq], qd)]
        # Key offset > query offset: a diagonal block's causal triangle,
        # (column, unit, row)-broadcast and shared by every chunk.
        causal = np.arange(bs)[:, None, None] > np.arange(bs)
    work = workspace(alloc)
    m_buf = alloc((batch * stack * rows,), dtype)
    l_buf = alloc((batch * stack * rows,), dtype)
    zero_buf = alloc((batch * stack * rows,), bool)
    lse = alloc((batch, lead, 1, rows if sparse else sq), dtype)   # unit order
    # Classes write whole blocks: a ragged last block's padded rows land past
    # the end of the rows ``out`` views.
    padded = nb * bs if sparse else sq
    out_blocks = alloc((batch, heads, padded, vdim), dtype)
    out = out_blocks if padded == sq else out_blocks[:, :, :sq]
    steps = []
    for tile in tiles:
        tv = bind(tile, work)
        n = tv.s.shape[3]
        m, l, zero = (buf[:tv.s[..., 0, :].size].reshape(batch, -1, 1, n)
                      for buf in (m_buf, l_buf, zero_buf))
        steps.append((tv, np.swapaxes(tv.s, -1, -2), m, l, zero,
                      l.reshape(batch, -1, n, 1), tv.o, tv.lse, tv.ids))

    unit_rows = out_blocks.reshape(batch, lead, rows, vdim) if sparse else None

    def run():
        for fill, src in copies:
            np.copyto(fill, src)
        for tv, s_t, m, l, zero, l_col, o, lse_t, ids in steps:
            tile_scores(tv)
            s = tv.s
            s.max(axis=-2, keepdims=True, out=m)
            # A fully dropped row has max == _NEG_FILL; flooring the max makes
            # its exponentials exact zeros (not ones) without a re-mask pass.
            np.maximum(m, _MAX_FLOOR, out=m)
            s -= m
            np.exp(s, out=s)
            s.sum(axis=-2, keepdims=True, out=l)
            guard_zero_rows(l, scratch=zero)
            np.matmul(s_t, tv.v_pan, out=o)
            o /= l_col
            np.log(l, out=l)
            np.add(l, m, out=lse_t)
            if ids is not None:
                unit_rows[:, ids] = o

    # out is the result; lse and the staged grids survive for the backward.
    _plan.emit(rec, run, tag, *work, m_buf, l_buf, zero_buf)

    def backward(grad_out):
        # delta_i = sum_d dO_id * O_id (the softmax-backward row dot).
        tmp = np.multiply(grad_out, out, out=_arena.empty(out.shape, dtype))
        delta = tmp.sum(axis=-1, out=_arena.empty((batch, heads, sq), dtype))
        _arena.release(tmp)
        # A recorded forward's class-chunk workspace is plan-owned and idle
        # until the next replay, so the backward reuses it.
        work_b = work if sparse and rec is not None else workspace(_arena.empty)
        dp_buf = _arena.empty((batch * area,), dtype)
        pan_buf = _arena.empty((batch * panel * (kvd if sparse else max(dim, vdim)),), dtype)
        gq_blocks = _arena.empty((batch, heads, padded, dim), dtype)
        grad_q = gq_blocks if padded == sq else gq_blocks[:, :, :sq]
        grad_k = _arena.zeros(kd.shape, dtype)
        grad_v = _arena.zeros(vd.shape, dtype)
        gd_grid = gd_buf = g_t_buf = gq_buf = acc_buf = kv_grads = None
        if sparse:
            # dO and delta side by side per (head, block), zero on a ragged
            # block's padded rows, so those rows add exact zeros to dK/dV.
            gd_grid = _arena.zeros((batch, heads, nb * bs, vdim + 1), dtype)
            np.copyto(gd_grid[:, :, :sq, :vdim], grad_out)
            np.copyto(gd_grid[:, :, :sq, vdim], delta)
            gd_buf = _arena.empty((batch, stack, bs, vdim + 1), dtype)
            g_t_buf = _arena.empty((batch, stack, vdim, bs), dtype)
            gq_buf = _arena.empty((batch, stack, bs, dim), dtype)
            acc_buf = _arena.empty((batch * panel * kvd,), dtype)
            kv_grads = _arena.zeros(kv_slots.shape, dtype)
        for tile in tiles:
            tv = bind(tile, work_b)
            if sparse:
                gd, gq_rows, g_t = (buf[:, :tv.ids.size] for buf in (gd_buf, gq_buf, g_t_buf))
                np.take(gd_grid.reshape(batch, lead, bs, -1), tv.ids, axis=1,
                        mode="clip", out=gd)
                g_rows, delta_rows = gd[..., :vdim], gd[..., None, :, vdim]
                np.copyto(np.swapaxes(g_t, -1, -2), g_rows)
            else:
                rows_ = slice(tile.r0, tile.r1)
                g_rows, gq_rows = grad_out[:, :, rows_], grad_q[:, :, rows_]
                delta_rows, g_t = delta[:, :, None, rows_], np.swapaxes(g_rows, -1, -2)
            # Probabilities straight from the saved logsumexp: no max pass.
            tile_scores(tv)
            p = tv.s
            p -= tv.lse
            np.exp(p, out=p)
            pan_rows = p[..., 0].size
            if sparse:
                # Both panel gradients land in one (key, value) panel, which
                # is added to the grid in one pass.
                kv_pan = pan_buf[:pan_rows * kvd].reshape(*p.shape[:3], kvd)
                dk_pan, dv_pan = kv_pan[..., :dim], kv_pan[..., dim:]
            else:
                # dV, then dK, through one panel onto the key prefix.
                dv_pan = pan_buf[:pan_rows * vdim].reshape(*p.shape[:3], vdim)
            np.matmul(p, g_rows, out=dv_pan)
            if not sparse:
                np.add(grad_v[:, :, :tile.width], dv_pan, out=grad_v[:, :, :tile.width])
                dk_pan = pan_buf[:pan_rows * dim].reshape(*p.shape[:3], dim)
            # dS = P * (dP - delta), on the panel only.
            ds = scores_in(dp_buf, tile)
            np.matmul(tv.v_pan, g_t, out=ds)
            ds -= delta_rows
            ds *= p
            np.matmul(np.swapaxes(ds, -1, -2), tv.k_pan, out=gq_rows)
            gq_rows *= scale
            np.matmul(ds, tv.qs, out=dk_pan)
            if not sparse:
                np.add(grad_k[:, :, :tile.width], dk_pan, out=grad_k[:, :, :tile.width])
                continue
            gq_blocks.reshape(batch, lead, bs, dim)[:, tv.ids] = gq_rows
            # Add the panel gradients onto the grid slots they came from, run
            # by run (padded blocks are exact zeros landing on the spare slot).
            flat, c = kv_pan.reshape(batch, -1, bs * kvd), tile.capacity
            for a, b in zip(tile.rounds, tile.rounds[1:]):
                index = tile.index[a * c:b * c]
                acc = acc_buf[:flat[:, :index.size].size].reshape(batch, index.size, -1)
                np.take(kv_grads, index, axis=1, mode="clip", out=acc)
                acc += flat[:, a * c:b * c]
                kv_grads[:, index] = acc
        if sparse:
            grid = kv_grads[:, :lead].reshape(batch, heads, nb * bs, kvd)[:, :, :sk]
            grad_k += grid[..., :dim]
            grad_v += grid[..., dim:]
        # release() ignores whatever the plan or a geometry cache owns.
        _arena.release(delta, *work_b, dp_buf, pan_buf, acc_buf, kv_grads, lse,
                       kv_slots, q_grid, gd_grid, gd_buf, g_t_buf, gq_buf,
                       *(t.drop for t in tiles))
        return grad_q, grad_k, grad_v

    return custom_op(out, (q, k, v), backward)


def streaming_attention(q: Tensor, k: Tensor, v: Tensor,
                        attn_mask: Optional[np.ndarray] = None,
                        scale: Optional[float] = None,
                        tile: int = 128) -> Tensor:
    """Dense attention through :func:`tiled_attention` — O(tile * seq) scratch.

    Numerically equivalent to :func:`scaled_dot_product_attention` (same
    masking and fully-masked-row conventions) but the ``(seq, seq)`` score
    matrix is never materialised and nothing above the mask's last kept
    column is computed: with a causal mask each tile of ``tile`` query rows
    reads the key prefix up to its own diagonal, roughly halving the work.
    """
    tile = int(tile)
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    if attn_mask is not None:
        attn_mask = np.asarray(attn_mask, dtype=bool)
    alloc = np.empty if _plan._RECORDER is not None else _arena.empty
    layout = mask_tile_layout(attn_mask, q.shape[-2], k.shape[-2], tile, alloc)
    return tiled_attention(q, k, v, layout, scale=scale,
                           tag="streaming_attention")
