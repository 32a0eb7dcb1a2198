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
``lora_linear``, ``residual_add``, ``linear_cross_entropy``, ``mlp``, the
tiled attention core) write
that forward exactly once, as a ``run`` thunk over buffers bound up front —
plan-owned while a :class:`~repro.tensor.plan.ForwardRecorder` is installed,
the arena's otherwise — and hand it to :func:`repro.tensor.plan.emit`, which
runs it and either records it or returns the scratch.  Recorded and
interpreted execution are therefore the same function body; only buffer
provenance differs.

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

``layer_norm``       ``dx = inv_std * (gw - mean(gw) - n * mean(gw * n))``
                     with ``gw = g * weight`` and ``n`` the normalised input.
                     Every row statistic — the forward's mean and variance,
                     the backward's two means — is one GEMV against a cached
                     read-only ``(D, 1)`` column of ``1/D``: at 1024 x 128
                     float32 the GEMV takes ~0.01 ms where ``np.mean``'s
                     reduce-then-divide takes ~0.04, and ``inv_std`` is one
                     ``np.reciprocal``.
``linear_cross_entropy``  ``dlogits = (softmax(logits) - onehot) * valid / n``
                     for ``logits = h W^T``, one per-row factor over the
                     unnormalised exponentials and their row sums, formed in
                     the forward a chunk of rows at a time for an upstream
                     gradient of one: ``dh = dlogits W`` and
                     ``dW = dlogits^T h`` (summed over chunks); the backward
                     scales them by the upstream gradient.
``linear``           ``dx = g W``, ``dW = g^T x``, ``db = sum(g)``; when an
                     activation is fused, ``g`` is first multiplied by the
                     activation's local derivative.
``mlp``              ``y = act(x W1^T + b1) W2^T + b2`` a chunk of rows at a
                     time; ``dx_c = ((g_c W2) * act'_c) W1`` chunk by chunk,
                     ``dW2 = g^T h``, ``db2 = sum(g)`` and, with ``gh`` the
                     activation gradient, ``dW1 = gh^T x``, ``db1 = sum(gh)``
                     over whole arrays the backward keeps only when those
                     parameters train.
``lora_linear``      ``y = x W^T + b + s (x A^T) B^T = x M^T + b`` with the
                     merged ``M = W + s B A`` (``s`` the LoRA scaling, ``A``
                     ``(r, in)``, ``B`` ``(out, r)``).  Backward, with
                     ``u = s x A^T`` kept from the forward:
                     ``dx = g M = g W + (s g B) A``, ``dB = g^T u``,
                     ``dA = (s g B)^T x``, and ``dW = g^T x``, ``db = sum(g)``
                     only for a trainable base.  Only ``(N, r)`` arrays are
                     added beside the base GEMM's: no ``(N, out)`` scale or
                     add pass in either direction.
``attention``        ``dV = P^T g``, ``dS = P * (g V^T - delta)`` with
                     ``delta = rowsum(g * O)``, ``dQ = scale dS K`` and
                     ``dK = dS^T (scale Q)``, one slice's K/V panels at a
                     time, ``P`` recomputed from the saved logsumexp: one
                     softmax core under two bodies, dense row tiles and
                     block-sparse class chunks (``tiled_attention``).
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.tensor import arena as _arena
from repro.tensor import plan as _plan
from repro.tensor.tensor import Tensor, custom_op, is_grad_enabled

__all__ = [
    "fused_kernels_enabled",
    "reference_kernels",
    "layer_norm",
    "linear",
    "lora_linear",
    "residual_add",
    "linear_cross_entropy",
    "token_log_probs",
    "row_chunks",
    "mlp_rows",
    "mlp",
    "RowTile",
    "UnitClass",
    "TileLayout",
    "chunk_panel_blocks",
    "row_tile_stack",
    "mask_tile_layout",
    "tiled_attention",
    "scaled_dot_product_attention",
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
    alloc = _plan.plan_alloc(rec)
    w, b = weight.data, bias.data
    normalized = alloc(data.shape, data.dtype)
    mean = _plan.scratch_alloc(rec)(red_shape, data.dtype)
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

    # Affine-parameter gradients only when the parameters are trainable
    # (they are frozen during PEFT fine-tuning — dead reductions else), and
    # the input's only when it takes one (an embedding's first norm does
    # not).  Flags and the buffers a needed gradient reads: the closure
    # must not reach a buffer it will not read.
    need_dx, need_dw, need_db = x.requires_grad, weight.requires_grad, bias.requires_grad
    shape, dtype = data.shape, data.dtype
    normalized_kept = normalized if need_dx or need_dw else None
    inv_std_kept = inv_std if need_dx else None
    _arena.release(*(buf for buf, kept in ((normalized, normalized_kept),
                                           (inv_std, inv_std_kept)) if kept is None))

    def backward(grad):
        grad_x = grad_weight = grad_bias = None
        tmp = _arena.empty(shape, dtype) if need_dw or need_dx else None
        if need_dw:
            np.multiply(grad, normalized_kept, out=tmp)
            grad_weight = tmp.reshape(-1, dim).sum(
                axis=0, out=_arena.empty((dim,), dtype))
        if need_db:
            grad_bias = grad.reshape(-1, dim).sum(
                axis=0, out=_arena.empty((dim,), dtype))
        if need_dx:
            # ``tmp`` doubles as the grad_norm buffer once grad_weight is
            # reduced.
            grad_norm = np.multiply(grad, w, out=tmp)
            inner = np.matmul(grad_norm, col, out=_arena.empty(red_shape, dtype))
            grad_x = np.subtract(grad_norm, inner, out=_arena.empty(shape, dtype))
            np.multiply(grad_norm, normalized_kept, out=grad_norm)
            np.matmul(grad_norm, col, out=inner)
            np.multiply(normalized_kept, inner, out=grad_norm)
            grad_x -= grad_norm
            grad_x *= inv_std_kept
            _arena.release(inner)
        _arena.release(tmp, normalized_kept, inv_std_kept)
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


def _activation_forward(activation: Optional[str], pre: np.ndarray,
                        out: np.ndarray, relu_mask: Optional[np.ndarray],
                        gelu_tanh: Optional[np.ndarray]) -> None:
    """``out = act(pre)``, keeping what the backward reads: ReLU works in
    place (``out`` is ``pre``) and keeps its mask, GeLU its tanh term."""
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


def _activation_backward(grad: np.ndarray, out: np.ndarray,
                         relu_mask: Optional[np.ndarray],
                         gelu_pre: Optional[np.ndarray],
                         gelu_tanh: Optional[np.ndarray]) -> np.ndarray:
    """``out = grad * act'(pre)`` from what :func:`_activation_forward`
    kept (``out`` may be ``grad``)."""
    if relu_mask is not None:
        return np.multiply(grad, relu_mask, out=out)
    local = _gelu_local_grad(gelu_pre, gelu_tanh)
    np.multiply(grad, local, out=out)
    _arena.release(local)
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           activation: Optional[str] = None) -> Tensor:
    """Fused affine map ``act(x @ weight.T + bias)`` as a single tape node.

    ``weight`` has shape ``(out_features, in_features)`` (PyTorch layout).
    ``activation`` may be ``None``, ``"relu"`` or ``"gelu"``; fusing it here
    means an activation contributes no node (and one saved buffer) of its
    own.  The backward keeps the input only for a trainable ``weight``
    (``dW = g^T x``), so a frozen layer's input can be forward-only.
    """
    x_data = x.data
    in_features = weight.data.shape[1]
    out_features = weight.data.shape[0]
    if activation not in (None, "none", "relu", "gelu"):
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
    relu_mask = gelu_pre = gelu_tanh = None
    alloc = _plan.plan_alloc(rec)
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

    def run(x2d=x2d, w=w, b=b, pre=pre, out=out, relu_mask=relu_mask,
            gelu_tanh=gelu_tanh, activation=activation):
        np.matmul(x2d, w.T, out=pre)
        if b is not None:
            pre += b
        _activation_forward(activation, pre, out, relu_mask, gelu_tanh)

    _plan.emit(rec, run, f"linear:{activation or 'none'}")

    parents = (x, weight) if bias is None else (x, weight, bias)
    # Flags and shapes, not the input: the closure must not reach ``x``.
    x_shape, need_dx = x_data.shape, x.requires_grad
    x_kept = x2d if weight.requires_grad else None
    need_db = bias is not None and bias.requires_grad

    def backward(grad):
        # Gradients are produced only for parents that will consume them:
        # under PEFT the base projections, the tied LM head and the norms
        # are frozen, so their weight-gradient GEMMs/reductions are dead
        # work the autograd loop would discard anyway.
        grad2d = grad.reshape(-1, out_features)
        act_grad = None
        if activation in ("relu", "gelu"):
            grad2d = act_grad = _activation_backward(
                grad2d, _arena.empty(grad2d.shape, grad2d.dtype),
                relu_mask, gelu_pre, gelu_tanh)
            _arena.release(relu_mask, gelu_pre, gelu_tanh)
        grad_x = grad_w = None
        if need_dx:
            grad_x = np.matmul(
                grad2d, w,
                out=_arena.empty((grad2d.shape[0], in_features),
                                 np.result_type(grad2d, w))
            ).reshape(x_shape)
        if x_kept is not None:
            grad_w = np.matmul(grad2d.T, x_kept,
                               out=_arena.empty((out_features, in_features),
                                                np.result_type(grad2d, x_kept)))
        grad_b = (grad2d.sum(axis=0,
                             out=_arena.empty((out_features,), grad2d.dtype))
                  if need_db else None)
        if act_grad is not None:
            _arena.release(act_grad)
        if bias is None:
            return grad_x, grad_w
        return grad_x, grad_w, grad_b

    return custom_op(out.reshape(*x_shape[:-1], out_features),
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
    alloc = _plan.plan_alloc(rec)
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
    # Flags, shapes and only the buffers a needed gradient reads: the
    # closure must not reach ``x`` or a buffer it will not read.
    x_shape, need_dx = x_data.shape, x.requires_grad
    need_da, need_db = lora_A.requires_grad, lora_B.requires_grad
    need_dw = weight.requires_grad
    need_dbias = bias is not None and bias.requires_grad
    merged_kept = merged if need_dx else None
    down_kept = down if need_db else None
    x_kept = x2d if need_da or need_dw else None
    _arena.release(*(buf for buf, kept in ((merged, merged_kept), (down, down_kept))
                     if kept is None))

    def backward(grad):
        grad2d = grad.reshape(-1, out_features)
        grad_x = grad_w = grad_b = grad_a = grad_bmat = None
        if need_dx:
            # dx = g (W + scaling * B A) = g W + (scaling * g B) A.
            grad_x = np.matmul(grad2d, merged_kept,
                               out=_arena.empty((n_rows, in_features), dtype)
                               ).reshape(x_shape)
        if need_db:
            grad_bmat = np.matmul(grad2d.T, down_kept,
                                  out=_arena.empty((out_features, rank), dtype))
        if need_da:
            # d(x A^T) = scaling * g B, r wide.
            grad_down = np.matmul(grad2d, bmat,
                                  out=_arena.empty((n_rows, rank), dtype))
            grad_down *= scaling
            grad_a = np.matmul(grad_down.T, x_kept,
                               out=_arena.empty((rank, in_features), dtype))
            _arena.release(grad_down)
        if need_dw:
            grad_w = np.matmul(grad2d.T, x_kept,
                               out=_arena.empty((out_features, in_features), dtype))
        if need_dbias:
            grad_b = grad2d.sum(axis=0, out=_arena.empty((out_features,), dtype))
        _arena.release(merged_kept, down_kept)
        if bias is None:
            return grad_x, grad_w, grad_a, grad_bmat
        return grad_x, grad_w, grad_b, grad_a, grad_bmat

    return custom_op(out.reshape(*x_data.shape[:-1], out_features),
                     parents, backward)


# ---------------------------------------------------------------------------
# residual sums: written into the sub-layer output's own buffer
# ---------------------------------------------------------------------------

def residual_add(x: Tensor, y: Tensor) -> Tensor:
    """``x + y`` written into ``y``'s buffer.

    For a residual or embedding sum whose ``y`` is the output a kernel has
    just produced and nothing else reads: no backward closure reads a
    kernel's own output, so the sum needs no buffer of its own.  One
    ``add`` entry, same bits as ``x + y``; the backward passes ``grad`` to
    both.  ``y.data`` holds the sum afterwards.  A ``y`` that cannot take
    it — another shape or dtype than the sum, or memory shared with ``x``
    — gets the plain ``x + y``.
    """
    xd, yd = x.data, y.data
    if (np.broadcast_shapes(xd.shape, yd.shape) != yd.shape
            or np.result_type(xd, yd) != yd.dtype or np.may_share_memory(xd, yd)):
        return x + y

    def run():
        np.add(xd, yd, out=yd)

    _plan.emit(_plan._RECORDER, run, "add")

    def backward(grad):
        return grad, grad

    return custom_op(yd, (x, y), backward)


# ---------------------------------------------------------------------------
# cross entropy through the LM head: one row body, a chunk of rows at a time
# ---------------------------------------------------------------------------

# Scored rows per chunk of :func:`linear_cross_entropy`: the attention row
# tile.
LOSS_ROW_CHUNK = 128

# Score bytes one slice of a dense attention row tile may hold before the
# tile's (batch, heads) stack is cut into head groups (:func:`row_tile_stack`):
# one s1024 head's widest 128-row float32 tile, so a slice's scores, and the
# backward's probabilities and dS, stay within a core's L2.
ATTENTION_TILE_BYTES = 1 << 19


def row_chunks(n: int) -> Tuple[Tuple[int, int], ...]:
    """``[r0, r1)`` bounds walking ``n`` rows :data:`LOSS_ROW_CHUNK` at a
    time.  A one-row remainder joins the chunk before it: BLAS runs a
    one-row product as a GEMV, whose rounding differs from the GEMM every
    other row goes through."""
    bounds = list(range(0, n, LOSS_ROW_CHUNK)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return tuple(zip(bounds, bounds[1:]))


@functools.lru_cache(16)
def _row_indices(n: int) -> np.ndarray:
    """Cached read-only ``arange(n)`` — shared row-index vector for fancy
    indexing, so steady-state steps never re-allocate it."""
    idx = np.arange(n)
    idx.setflags(write=False)
    return idx


def _valid_targets(targets: np.ndarray, ignore_index: int, valid: np.ndarray,
                   safe: np.ndarray) -> int:
    """Mark the scored targets (``valid``), zero the ignored ones into
    ``safe`` and return how many are scored."""
    np.not_equal(targets, ignore_index, out=valid)
    np.multiply(targets, valid, out=safe)
    return int(valid.sum())


def _row_log_probs(logits: np.ndarray, safe_targets: np.ndarray,
                   row_red: np.ndarray, gather_idx: np.ndarray,
                   target_logits: np.ndarray, out: np.ndarray) -> None:
    """The one softmax/NLL row body: ``out[i] = log softmax(logits[i])[t_i]``.

    Row max, shift in place, pull each target's shifted logit out *before*
    exponentiating in place (the full log-prob matrix is never
    materialised), exp, row sums into ``row_red``, then target minus log row
    sum.  ``logits`` is left holding the unnormalised exponentials,
    ``row_red`` their row sums and ``gather_idx`` the targets' flat
    positions: what a gradient reads.
    """
    vocab = logits.shape[-1]
    logits.max(axis=-1, keepdims=True, out=row_red)
    logits -= row_red
    np.multiply(_row_indices(logits.shape[0]), vocab, out=gather_idx)
    np.add(gather_idx, safe_targets, out=gather_idx)
    np.take(logits.reshape(-1), gather_idx, out=target_logits)
    np.exp(logits, out=logits)
    logits.sum(axis=-1, keepdims=True, out=row_red)
    np.log(row_red[:, 0], out=out)
    np.subtract(target_logits, out, out=out)


def _scored_rows(hidden: np.ndarray, targets: np.ndarray,
                 shift: bool) -> Tuple[np.ndarray, np.ndarray]:
    """``(n_seq, seq, dim)`` hidden rows and ``(n_seq, n_scored)`` targets.

    With ``shift`` the scored rows of sequence ``b`` are ``[0, seq - 1)``,
    row ``t`` scored against target ``t + 1``; without it every row is
    scored, all of them one sequence.  Both are views where NumPy can make
    them so.
    """
    targets = np.asarray(targets)
    dim = hidden.shape[-1]
    if shift:
        if hidden.ndim < 2:
            raise ValueError("shift=True requires (batch, seq, dim) hidden states")
        seq = hidden.shape[-2]
        rows, scored = hidden.reshape(-1, seq, dim), targets.reshape(-1, seq)[:, 1:]
    else:
        rows, scored = hidden.reshape(1, -1, dim), targets.reshape(1, -1)
    if scored.shape[1] == 0:
        raise ValueError("cross entropy needs at least one scored position")
    return rows, scored


def _lm_head_chunks(rows: np.ndarray, weight: np.ndarray, safe: np.ndarray,
                    out: np.ndarray, logits: np.ndarray, row_red: np.ndarray,
                    gather_idx: np.ndarray, target_logits: np.ndarray,
                    chunk_grad=None) -> None:
    """The fused LM head's forward: every scored row's target log-probability
    into ``out`` (``safe``'s shape), up to :data:`LOSS_ROW_CHUNK` rows of
    one sequence at a time.

    Each chunk's logits ``h_c W^T`` land in the one ``logits`` scratch,
    which :func:`_row_log_probs` turns into unnormalised exponentials in
    place; ``chunk_grad(b, r0, r1, exps)`` then consumes them before the
    next chunk overwrites them.
    """
    n_seq, n_scored = safe.shape
    wt = weight.T
    chunks = row_chunks(n_scored)
    for b in range(n_seq):
        for r0, r1 in chunks:
            n = r1 - r0
            exps = logits[:n]
            np.matmul(rows[b, r0:r1], wt, out=exps)
            _row_log_probs(exps, safe[b, r0:r1], row_red[:n],
                           gather_idx[:n], target_logits[:n], out[b, r0:r1])
            if chunk_grad is not None:
                chunk_grad(b, r0, r1, exps)


def linear_cross_entropy(hidden: Tensor, weight: Tensor, targets: np.ndarray,
                         ignore_index: int = -100,
                         shift: bool = True) -> Tuple[Tensor, int]:
    """Cross entropy of the projection ``hidden @ weight.T``, one fused node.

    The LM head and the loss in one pass over the vocabulary, a chunk of
    :data:`LOSS_ROW_CHUNK` scored rows at a time (:func:`_lm_head_chunks`):
    the ``(rows, vocab)`` logits, their exponentials and their gradient
    exist one chunk at a time, in one scratch buffer.  When a gradient is
    needed the forward also forms it, for an upstream gradient of one:
    ``(exps * valid / row_sum / denom - onehot)`` is multiplied by ``W``
    into a ``hidden``-shaped buffer (and, for a trainable ``weight``, its
    transpose by the chunk's rows is summed into ``dW``) before the next
    chunk overwrites the scratch.  The backward only scales those buffers
    by the upstream gradient.  Under ``no_grad``, or with both inputs
    frozen, the gradient half is not bound at all.

    Every chunk goes through one row body (:func:`_row_log_probs`).  With
    ``shift`` row ``t`` of a sequence is scored against target ``t + 1``
    (its last row is unscored); targets equal to ``ignore_index`` do not
    count.  ``hidden`` is ``(batch, seq, dim)`` (or ``(N, dim)`` without
    shift) and ``weight`` ``(vocab, dim)``.

    Returns ``(mean NLL over valid positions, number of valid positions)``.
    """
    data, w = hidden.data, weight.data
    rows, scored = _scored_rows(data, targets, shift)
    rec = _plan._RECORDER
    if rec is not None and not (np.may_share_memory(rows, data)
                                and np.may_share_memory(scored, targets)):
        # ``reshape`` copied, and the copy would go stale between replays.
        rec.fail("linear cross entropy over a non-contiguous input")
        rec = None
    n_seq, n_scored = scored.shape
    vocab = w.shape[0]
    dtype = np.result_type(data, w)
    chunk = min(LOSS_ROW_CHUNK, n_scored)
    grad_x = is_grad_enabled() and hidden.requires_grad
    grad_w = is_grad_enabled() and weight.requires_grad
    alloc, scratch = _plan.plan_alloc(rec), _plan.scratch_alloc(rec)
    loss_buf = alloc((), np.float32)
    dx = alloc(data.shape, dtype) if grad_x else None
    dw = alloc(w.shape, dtype) if grad_w else None
    valid, safe, picked = (scratch((n_seq, n_scored), dt)
                           for dt in (bool, np.int64, dtype))
    chunk_bufs = (scratch((chunk, vocab), dtype), scratch((chunk, 1), dtype),
                  scratch((chunk,), np.int64), scratch((chunk,), dtype))
    _, row_red, gather_idx, _ = chunk_bufs
    work = [valid, safe, picked, *chunk_bufs]
    st = {}
    chunk_grad = None
    if grad_x or grad_w:
        factor, hit = scratch((chunk,), dtype), scratch((chunk,), dtype)
        work += [factor, hit]
        dx_rows = dx.reshape(rows.shape) if grad_x else None
        if grad_w:
            dw_part = scratch(w.shape, dtype)
            work.append(dw_part)

        def chunk_grad(b, r0, r1, exps):
            # d loss / d logits for an upstream gradient of one: one per-row
            # factor, then the one-hot as a row-sized gather / subtract /
            # scatter.
            n, scale = r1 - r0, st["scale"]
            f, at, v = factor[:n], gather_idx[:n], valid[b, r0:r1]
            np.divide(v, row_red[:n, 0], out=f)
            f *= scale
            np.multiply(exps, f[:, None], out=exps)
            flat = exps.reshape(-1)
            h = np.take(flat, at, mode="clip", out=hit[:n])
            np.multiply(v, f.dtype.type(scale), out=f)
            h -= f
            flat[at] = h
            if grad_x:
                np.matmul(exps, w, out=dx_rows[b, r0:r1])
            if grad_w:
                first = b == 0 and r0 == 0
                np.matmul(exps.T, rows[b, r0:r1], out=dw if first else dw_part)
                if not first:
                    np.add(dw, dw_part, out=dw)

    def run():
        n_valid = _valid_targets(scored, ignore_index, valid, safe)
        denom = max(n_valid, 1)
        st["scale"] = 1.0 / denom
        _lm_head_chunks(rows, w, safe, picked, *chunk_bufs, chunk_grad=chunk_grad)
        if grad_x and shift:
            dx_rows[:, n_scored:] = 0.0        # the unscored last positions
        np.multiply(picked, valid, out=picked)
        loss_buf[...] = -picked.reshape(-1).sum() / denom
        st["n_valid"] = n_valid

    _plan.emit(rec, run, "linear_cross_entropy", *work)

    def backward(grad):
        scale = float(np.asarray(grad).reshape(()))
        if scale == 1.0:
            return dx, dw
        scaled = tuple(None if buf is None else np.multiply(
            buf, scale, out=_arena.empty(buf.shape, buf.dtype)) for buf in (dx, dw))
        _arena.release(*(buf for buf in (dx, dw) if buf is not None))
        return scaled

    return custom_op(loss_buf, (hidden, weight), backward), st["n_valid"]


def token_log_probs(hidden: np.ndarray, weight: np.ndarray,
                    targets: np.ndarray, shift: bool = True) -> np.ndarray:
    """Per-position log-probability of each target under ``hidden @ weight.T``.

    The no-grad forward of :func:`linear_cross_entropy` — the same chunks
    and the same row body — for scoring rather than training: every target
    must be a token id.  Returns ``(n_seq, n_scored)``, ``(batch, seq - 1)``
    with ``shift``.
    """
    rows, scored = _scored_rows(hidden, targets, shift)
    if scored.min() < 0 or scored.max() >= weight.shape[0]:
        raise ValueError("token_log_probs needs token-id targets in "
                         f"[0, {weight.shape[0]})")
    dtype = np.result_type(hidden, weight)
    chunk = min(LOSS_ROW_CHUNK, scored.shape[1])
    out = np.empty(scored.shape, dtype)
    _lm_head_chunks(rows, weight, scored, out,
                    np.empty((chunk, weight.shape[0]), dtype),
                    np.empty((chunk, 1), dtype), np.empty((chunk,), np.int64),
                    np.empty((chunk,), dtype))
    return out


# ---------------------------------------------------------------------------
# the MLP block: both linear layers, a chunk of rows at a time
# ---------------------------------------------------------------------------

def mlp_rows(x2d: np.ndarray, w1: np.ndarray, b1: Optional[np.ndarray],
             w2t: np.ndarray, b2: Optional[np.ndarray], activation: str,
             rec, tag: str, *, grad: bool, keep_hidden: bool,
             keep_act_grad: bool):
    """The MLP body ``act(x w1^T + b1) w2t + b2``, :func:`row_chunks` rows
    at a time: both GEMMs of a chunk run back to back over one chunk of
    hidden activation in scratch, so the ``(rows, width)`` activation never
    exists whole unless the backward reads it.

    ``w1`` is ``(width, d_in)`` and ``w2t`` ``(width, d_out)`` — a dense
    MLP's full weights (``w2t`` the transposed view of fc2's), or the rows
    a neuron-sparse one gathered.  With ``grad`` the backward keeps the
    activation's local derivative state whole (the ReLU mask, or GeLU's
    pre-activation and tanh term); ``keep_hidden`` also keeps the hidden
    activation whole (for fc2's weight gradient) and ``keep_act_grad`` the
    activation gradient (for fc1's parameters).

    Returns ``(out, hidden, backward)``: the ``(rows, d_out)`` output, the
    whole hidden activation (None unless kept) and ``backward(grad2d,
    need_dx)``, which walks the same chunks, ``dx_c = (g_c w2t^T * act'_c)
    w1``, and returns ``(dx or None, activation gradient or None)``.  It
    reads neither ``x2d`` nor ``out``.
    """
    if activation not in ("relu", "gelu"):
        raise ValueError(f"unsupported MLP activation {activation!r}")
    n, width = x2d.shape[0], w1.shape[0]
    d_in, d_out = w1.shape[1], w2t.shape[1]
    dtype = np.result_type(x2d, w1)
    chunks = row_chunks(n)
    rows = max((r1 - r0 for r0, r1 in chunks), default=0)
    alloc, scratch = _plan.plan_alloc(rec), _plan.scratch_alloc(rec)
    out = alloc((n, d_out), dtype)
    work = []

    def buffer(dt, whole):
        """``(rows, width)`` for the backward, or one chunk of scratch."""
        if whole:
            return alloc((n, width), dt)
        work.append(scratch((rows, width), dt))
        return work[-1]

    def part(buf, r0, r1):
        """Rows ``[r0, r1)`` of a whole buffer, or that chunk's scratch (a
        scratch as tall as the rows serves the one chunk, ``(0, n)``)."""
        return buf[r0:r1] if buf.shape[0] == n else buf[:r1 - r0]

    hidden = buffer(dtype, keep_hidden)
    relu_mask = gelu_pre = gelu_tanh = None
    if activation == "relu":
        relu_mask, pre = buffer(bool, grad), hidden
    else:
        gelu_pre, gelu_tanh = buffer(dtype, grad), buffer(dtype, grad)
        pre = gelu_pre
    w1t = w1.T
    steps = [(x2d[r0:r1], part(pre, r0, r1), part(hidden, r0, r1),
              None if relu_mask is None else part(relu_mask, r0, r1),
              None if gelu_tanh is None else part(gelu_tanh, r0, r1), out[r0:r1])
             for r0, r1 in chunks]

    def run():
        for x_c, pre_c, h_c, mask_c, tanh_c, out_c in steps:
            np.matmul(x_c, w1t, out=pre_c)
            if b1 is not None:
                pre_c += b1
            _activation_forward(activation, pre_c, h_c, mask_c, tanh_c)
            np.matmul(h_c, w2t, out=out_c)
            if b2 is not None:
                out_c += b2

    _plan.emit(rec, run, tag, *work)
    if not grad:
        return out, None, None

    def backward(grad2d, need_dx):
        act_grad = _arena.empty((n, width), dtype) if keep_act_grad else None
        dx = _arena.empty((n, d_in), dtype) if need_dx else None
        if act_grad is not None or dx is not None:
            gh_buf = act_grad if act_grad is not None else _arena.empty(
                (rows, width), dtype)
            for r0, r1 in chunks:
                gh = part(gh_buf, r0, r1)
                np.matmul(grad2d[r0:r1], w2t.T, out=gh)
                _activation_backward(
                    gh, gh, None if relu_mask is None else relu_mask[r0:r1],
                    None if gelu_pre is None else gelu_pre[r0:r1],
                    None if gelu_tanh is None else gelu_tanh[r0:r1])
                if dx is not None:
                    np.matmul(gh, w1, out=dx[r0:r1])
            if gh_buf is not act_grad:
                _arena.release(gh_buf)
        _arena.release(relu_mask, gelu_pre, gelu_tanh)
        return dx, act_grad

    return out, (hidden if keep_hidden else None), backward


def mlp(x: Tensor, fc1_weight: Tensor, fc1_bias: Optional[Tensor],
        fc2_weight: Tensor, fc2_bias: Optional[Tensor],
        activation: str = "relu") -> Tensor:
    """The MLP block ``fc2(act(fc1(x)))`` as one tape node (:func:`mlp_rows`).

    Weights are PyTorch-layout: fc1 ``(hidden, dim)``, fc2 ``(dim,
    hidden)``.  What the backward keeps depends on what trains: with every
    parameter frozen, the activation's local-derivative state only (the
    ReLU mask, or GeLU's pre-activation and tanh term); a trainable fc1
    parameter adds the whole activation gradient, and fc2's weight the
    whole hidden activation, so each parameter gradient is one reduction
    over the whole array.  Only fc1's weight gradient reads ``x``.
    """
    x_data = x.data
    rec = _plan._RECORDER
    if rec is not None and not x_data.flags.c_contiguous:
        # ``reshape`` below would copy, and the copy would go stale between
        # replays; this step's forward runs interpreted.
        rec.fail("mlp over a non-contiguous activation")
        rec = None
    x2d = x_data.reshape(-1, fc1_weight.shape[1])
    params = (fc1_weight, fc1_bias, fc2_weight, fc2_bias)
    grad = is_grad_enabled() and any(
        t is not None and t.requires_grad for t in (x,) + params)
    w1_grad, b1_grad, w2_grad, b2_grad = (
        grad and t is not None and t.requires_grad for t in params)
    out2d, hidden, rows_backward = mlp_rows(
        x2d, fc1_weight.data, None if fc1_bias is None else fc1_bias.data,
        fc2_weight.data.T, None if fc2_bias is None else fc2_bias.data,
        activation, rec, f"mlp:{activation}", grad=grad, keep_hidden=w2_grad,
        keep_act_grad=w1_grad or b1_grad)
    # Flags and shapes, not the input: the closure reaches ``x`` only for
    # fc1's weight gradient.
    x_shape, need_dx = x_data.shape, x.requires_grad
    x_kept = x2d if w1_grad else None
    dtype, d_out = out2d.dtype, out2d.shape[1]
    shapes = [None if t is None else t.shape for t in params]
    present = [t is not None for t in (x,) + params]

    def backward(grad):
        grad2d = grad.reshape(-1, d_out)
        dx, act_grad = rows_backward(grad2d, need_dx)
        g_w1 = g_b1 = g_w2 = g_b2 = None
        if w1_grad:
            g_w1 = np.matmul(act_grad.T, x_kept, out=_arena.empty(shapes[0], dtype))
        if b1_grad:
            g_b1 = act_grad.sum(axis=0, out=_arena.empty(shapes[1], dtype))
        if w2_grad:
            g_w2 = np.matmul(grad2d.T, hidden, out=_arena.empty(shapes[2], dtype))
            _arena.release(hidden)
        if b2_grad:
            g_b2 = grad2d.sum(axis=0, out=_arena.empty(shapes[3], dtype))
        _arena.release(act_grad)
        grads = (None if dx is None else dx.reshape(x_shape), g_w1, g_b1, g_w2, g_b2)
        return tuple(g for g, keep in zip(grads, present) if keep)

    parents = tuple(t for t in (x,) + params if t is not None)
    return custom_op(out2d.reshape(*x_shape[:-1], d_out), parents, backward)


# ---------------------------------------------------------------------------
# tiled attention: the one kernel behind dense and block-sparse attention
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


def chunk_panel_blocks(heads: int, n_blocks: int) -> int:
    """Panel blocks one capacity-class chunk holds at most: half the staged
    K/V grid's, so chunk scratch stays a fraction of the sequence-sized
    buffers while each stacked GEMM still spans hundreds of units."""
    return max(1, heads * n_blocks // 2)


def row_tile_stack(batch: int, heads: int, rows: int, width: int,
                   itemsize: int) -> int:
    """``(batch row, head)`` pairs one slice of a dense row tile stacks.

    All ``batch * heads`` while their ``(width, rows)`` score tiles fit
    :data:`ATTENTION_TILE_BYTES`; past that, heads of one batch row, as many
    as fit and at least one.
    """
    per_head = rows * width * itemsize
    if batch * heads * per_head <= ATTENTION_TILE_BYTES:
        return batch * heads
    return min(heads, max(1, ATTENTION_TILE_BYTES // per_head))


def _row_slices(tile: RowTile, batch: int, heads: int, itemsize: int) -> list:
    """``tile``'s slices as ``(tile, (batch slice, head slice))`` pairs: the
    whole stack, or :func:`row_tile_stack`'s head groups, batch row by batch
    row."""
    group = row_tile_stack(batch, heads, tile.r1 - tile.r0, tile.width, itemsize)
    if group == batch * heads:
        return [(tile, (slice(None), slice(None)))]
    return [(tile, (slice(b, b + 1), slice(h, h + group)))
            for b in range(batch) for h in range(0, heads, group)]


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


def _softmax_views(views: tuple, row_bufs) -> tuple:
    """:func:`_softmax_forward`'s arguments for a slice whose bound views end
    with its scores, V panel, output and logsumexp rows."""
    s, v_pan, o, lse = views[-4:]
    stacks, n = s.shape[0], s.shape[3]
    m, l, zero = (buf[:s[..., 0, :].size].reshape(stacks, -1, 1, n) for buf in row_bufs)
    return s, np.swapaxes(s, -1, -2), m, l, zero, l.reshape(stacks, -1, n, 1), v_pan, o, lse


def _softmax_forward(s, s_t, m, l, zero, l_col, v_pan, o, lse) -> None:
    """The forward core: softmax of one slice's masked scores ``s`` over the
    panel axis, its context into ``o`` and its logsumexp into ``lse``."""
    s.max(axis=-2, keepdims=True, out=m)
    # A fully dropped row has max == _NEG_FILL; flooring the max makes its
    # exponentials exact zeros (not ones) without a re-mask pass.
    np.maximum(m, _MAX_FLOOR, out=m)
    s -= m
    np.exp(s, out=s)
    s.sum(axis=-2, keepdims=True, out=l)
    # A row that keeps no column sums to zero: dividing it by one leaves its
    # output and all three gradients exactly zero.  Other rows keep every bit.
    np.equal(l, 0.0, out=zero)
    np.copyto(l, 1.0, where=zero)
    np.matmul(s_t, v_pan, out=o)
    o /= l_col
    np.log(l, out=l)
    np.add(l, m, out=lse)


def _softmax_backward(p, lse, v_pan, k_pan, g_rows, g_t, delta_rows, dv_pan, ds,
                      gq_rows) -> None:
    """The backward core: one slice's probabilities (its scores recomputed
    into ``p``), dV, dS and dQ before its scale.  The body scales dQ and
    forms dK from dS and scaled Q."""
    # Probabilities straight from the saved logsumexp: no max pass.
    p -= lse
    np.exp(p, out=p)
    np.matmul(p, g_rows, out=dv_pan)
    # dS = P * (dP - delta), on the panel only.
    np.matmul(v_pan, g_t, out=ds)
    ds -= delta_rows
    ds *= p
    np.matmul(np.swapaxes(ds, -1, -2), k_pan, out=gq_rows)


def _head_view(buf: np.ndarray, heads: int) -> np.ndarray:
    """The ``(batch, heads, rows, width)`` view of a ``(batch, rows, heads *
    width)`` buffer, the projections' layout: merging an output's heads, or
    un-splitting a gradient's, is then a view, not a copy.  A head's
    ``(rows, width)`` slice keeps unit column stride, which NumPy hands to
    BLAS as it would a contiguous one."""
    batch, rows, merged = buf.shape
    return buf.reshape(batch, rows, heads, merged // heads).transpose(0, 2, 1, 3)


def _unit_view(buf: np.ndarray, heads: int, n_blocks: int) -> np.ndarray:
    """The ``(batch, heads, n_blocks, block, width)`` view of a ``(batch,
    n_blocks * block, heads * width)`` buffer: a block-sparse unit's rows
    sit at one (head, query block) index pair."""
    batch, rows, merged = buf.shape
    return buf.reshape(batch, n_blocks, rows // n_blocks, heads,
                       merged // heads).transpose(0, 3, 1, 2, 4)


def _softmax_delta(grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``delta_i = sum_d dO_id * O_id``, the softmax-backward row dot.  The
    product is laid out like ``out`` (and the gradient merging the heads
    hands back), so the multiply is one contiguous pass."""
    batch, heads, rows, width = out.shape
    buf = _arena.empty((batch, rows, heads * width), out.dtype)
    tmp = np.multiply(grad_out, out, out=_head_view(buf, heads))
    delta = tmp.sum(axis=-1, out=_arena.empty(out.shape[:-1], out.dtype))
    _arena.release(buf)
    return delta


def tiled_attention(q: Tensor, k: Tensor, v: Tensor, layout: TileLayout,
                    scale: Optional[float] = None,
                    tag: str = "tiled_attention") -> Tensor:
    """``softmax(Q K^T * scale) V`` walked one slice of query rows at a time.

    The layout picks the body once: dense :class:`RowTile` slices
    (:func:`_row_tile_attention`) or block-sparse :class:`UnitClass` chunks
    (:func:`_class_chunk_attention`).  Each forms a slice's scores with one
    batched GEMM, then one softmax core (no running max: every column a row
    attends to is present at once) and the context GEMM.  Only ``out`` and
    the row logsumexp survive (and a class's staged grids); the backward
    recomputes each slice's probabilities from it.  Seven GEMMs per slice.

    Scores are panel-column major, ``(batch, lead, width, rows)``, and NumPy
    reduces the panel axis strictly in column order, so padded columns add
    exact zeros (until the padded width crosses the BLAS's inner-dimension
    blocking, a few hundred columns, where the two panel-reducing GEMMs may
    round differently).  Rows that keep no column have an output and all
    three gradients of exactly zero.
    """
    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(q.shape[-1]))
    body = _row_tile_attention if layout.units is None else _class_chunk_attention
    return body(q, k, v, layout, scale, tag)


def _row_tile_attention(q: Tensor, k: Tensor, v: Tensor, layout: TileLayout,
                        scale: float, tag: str) -> Tensor:
    """Dense row tiles: query rows over a key prefix, stacked over ``(batch,
    heads)`` while the scores fit :data:`ATTENTION_TILE_BYTES`, else cut at
    bind time into :func:`row_tile_stack`'s head groups (no bit changes: a
    stacked GEMM is one GEMM per matrix).  dV and dK add onto the prefix.

    Output and gradients are :func:`_head_view` views, where a head group's
    rows are strided.  No elementwise pass writes such rows (NumPy would
    buffer it): the context forms in scratch and is copied out, the prefix
    sums land in the panel first, and dQ is scaled once, whole."""
    qd, kd, vd = q.data, k.data, v.data
    batch, heads, sq, dim = qd.shape
    vdim, dtype = vd.shape[3], qd.dtype
    pieces = [piece for t in layout.tiles
              for piece in _row_slices(t, batch, heads, dtype.itemsize)]
    spans = [qd[bh].shape[:2] + (t.width, t.r1 - t.r0) for t, bh in pieces]
    stack_b, stack_h, _, rows = map(max, zip(*spans))   # any slice fits these
    panel = max(b * h * w for b, h, w, _ in spans)
    area = max(b * h * w * n for b, h, w, n in spans)

    def workspace(alloc):
        """Score, scaled-q and context buffers sized for any slice."""
        return (alloc((area,), dtype), alloc((stack_b, stack_h, rows, dim), dtype),
                alloc((stack_b, stack_h, rows, vdim), dtype))

    def scores_in(buf, piece):
        """``piece``'s ``(batch, heads, width, rows)`` score view of ``buf``."""
        tile, bh = piece
        shape = qd[bh].shape[:2] + (tile.width, tile.r1 - tile.r0)
        return buf[:math.prod(shape)].reshape(shape)

    def bind(piece, work):
        tile, bh = piece
        rows_ = bh + (slice(tile.r0, tile.r1),)
        s = scores_in(work[0], piece)
        qs, o = (buf[:s.shape[0], :s.shape[1], :tile.r1 - tile.r0] for buf in work[1:])
        mask = None if tile.drop is None else (s[:, :, tile.m0:], np.broadcast_to(
            tile.drop, (batch, heads) + tile.drop.shape[-2:])[bh])
        return (qd[rows_], qs, np.swapaxes(qs, -1, -2), kd[bh][:, :, :tile.width], mask,
                s, vd[bh][:, :, :tile.width], o, lse[bh][..., tile.r0:tile.r1])

    def scores(q_rows, qs, qs_t, k_pan, mask, s, *_):
        """Scaled scores of one slice into ``s``, dropped entries filled."""
        np.multiply(q_rows, scale, out=qs)
        np.matmul(k_pan, qs_t, out=s)
        if mask is not None:
            np.copyto(mask[0], _NEG_FILL, where=mask[1])

    rec = _plan._RECORDER
    alloc = _plan.plan_alloc(rec)
    # Shared with every kernel recorded after this one (see plan.emit).
    scratch = _plan.scratch_alloc(rec)
    work = workspace(scratch)
    row_bufs = [scratch((stack_b * stack_h * rows,), t) for t in (dtype, dtype, bool)]
    lse = alloc((batch, heads, 1, sq), dtype)
    out = _head_view(alloc((batch, sq, heads * vdim), dtype), heads)
    steps = [(views, _softmax_views(views, row_bufs), out[bh][:, :, tile.r0:tile.r1])
             for views, (tile, bh) in zip((bind(piece, work) for piece in pieces), pieces)]

    def run():
        for views, core, o in steps:
            scores(*views)
            _softmax_forward(*core)
            np.copyto(o, views[-2])

    # out is the result; lse survives for the backward.
    _plan.emit(rec, run, tag, *work, *row_bufs)
    # A recorded forward's workspace is the plan's scratch, idle until the
    # next replay, so the backward reuses it and the views bound to it.
    bound = [views for views, _, _ in steps] if rec is not None else None

    def backward(grad_out):
        delta = _softmax_delta(grad_out, out)
        work_b = work if bound else workspace(_arena.empty)
        dp_buf = _arena.empty((area,), dtype)
        pan_buf = _arena.empty((panel * max(dim, vdim),), dtype)
        gq_buf = _arena.empty((batch, sq, heads * dim), dtype)
        grad_q = _head_view(gq_buf, heads)
        # A frozen k takes no gradient, and no slice runs its dK GEMM.
        sk = kd.shape[2]
        grad_k = (_head_view(_arena.zeros((batch, sk, heads * dim), dtype), heads)
                  if k.requires_grad else None)
        grad_v = _head_view(_arena.zeros((batch, sk, heads * vdim), dtype), heads)
        for (tile, bh), views in zip(pieces, bound or [bind(p, work_b) for p in pieces]):
            _, qs, _, k_pan, _, s, v_pan, _, lse_t = views
            rows_ = bh + (slice(tile.r0, tile.r1),)
            g_rows = grad_out[rows_]
            scores(*views)
            # dV, then dK, through one panel onto the key prefix.
            pan_rows = s[..., 0].size
            dv_pan = pan_buf[:pan_rows * vdim].reshape(*s.shape[:3], vdim)
            ds = scores_in(dp_buf, (tile, bh))
            _softmax_backward(s, lse_t, v_pan, k_pan, g_rows, np.swapaxes(g_rows, -1, -2),
                              delta[bh][:, :, None, tile.r0:tile.r1], dv_pan, ds,
                              grad_q[rows_])
            gv = grad_v[bh][:, :, :tile.width]
            np.add(gv, dv_pan, out=dv_pan)
            np.copyto(gv, dv_pan)
            if grad_k is not None:
                dk_pan = pan_buf[:pan_rows * dim].reshape(*s.shape[:3], dim)
                np.matmul(ds, qs, out=dk_pan)
                gk = grad_k[bh][:, :, :tile.width]
                np.add(gk, dk_pan, out=dk_pan)
                np.copyto(gk, dk_pan)
        gq_buf *= scale
        # release() ignores whatever the plan owns.
        _arena.release(delta, *work_b, dp_buf, pan_buf, lse,
                       *(t.drop for t in layout.tiles))
        return grad_q, grad_k, grad_v

    return custom_op(out, (q, k, v), backward)


def _class_chunk_attention(q: Tensor, k: Tensor, v: Tensor, layout: TileLayout,
                           scale: float, tag: str) -> Tensor:
    """Capacity-class chunks: units stacked over ``(batch, units)``, query
    rows and K|V panels gathered from staged grids, output and dQ rows
    scattered back, scores stored unit-innermost.  dK|dV scatter-add into a
    grid run by run, so a key block collects its gradient class by class,
    ascending query block inside a class: bitwise per geometry (another
    capacity ladder moves the last bits; widening a class in place does
    not)."""
    qd, kd, vd = q.data, k.data, v.data
    batch, heads, sq, dim = qd.shape
    sk, vdim, dtype = kd.shape[2], vd.shape[3], qd.dtype
    tiles, bs, nb, units = layout.tiles, layout.block, layout.n_blocks, layout.units
    lead, kvd = heads * nb, dim + vdim   # a K|V grid row: its key, then its value
    # Chunk scratch is sized by the sequence (a chunk's panel-block budget),
    # not by this layout's classes: a refresh that moves them reuses the
    # arena buffers its predecessor released.
    stack = max(chunk_panel_blocks(heads, nb), max(t.capacity for t in tiles))
    panel = batch * stack * bs            # K/V panel rows of any chunk

    def workspace(alloc):
        """Score, scaled-q, K|V-panel, output-row and transposed scaled-q
        buffers sized for any chunk."""
        return (alloc((panel * bs,), dtype), alloc((batch, stack, bs, dim), dtype),
                alloc((panel * kvd,), dtype), alloc((batch, stack, bs, vdim), dtype),
                alloc((batch, stack, dim, bs), dtype))

    def scores_in(buf, tile):
        """``tile``'s ``(batch, units, width, block)`` score view of ``buf``."""
        n, w = tile.u1 - tile.u0, tile.capacity * bs
        return buf[:batch * w * n * bs].reshape(batch, w, n, bs).transpose(0, 2, 1, 3)

    def bind(tile, work):
        _, qs_buf, kv_buf, o_buf, qs_t_buf = work
        n, c = tile.u1 - tile.u0, tile.capacity
        s, qs_t = scores_in(work[0], tile), qs_t_buf[:, :n]
        kv_flat = kv_buf[:batch * c * bs * n * kvd].reshape(batch, n * c, bs * kvd)
        kv_pan = kv_flat.reshape(batch, n, c * bs, kvd)
        # Masks per block: the diagonal block's causal triangle, and whole
        # inert blocks through a (panel block, column, unit, row) view of the
        # stored scores.
        stored = s.transpose(0, 2, 1, 3)
        masks = ((stored[:, -bs:], causal),)
        if tile.drop is not None:
            masks += ((stored[:, tile.first * bs:].reshape(batch, -1, bs, n, bs),
                       tile.drop[:, None, :, None]),)
        return (tile, units[tile.u0:tile.u1], qs_buf[:, :n], qs_t,
                np.swapaxes(qs_t, -1, -2), kv_flat, kv_pan[..., :dim], masks,
                s, kv_pan[..., dim:], o_buf[:, :n], lse[:, tile.u0:tile.u1])

    def scores(tile, ids, qs, qs_t, qs_t_rows, kv_flat, k_pan, masks, s, *_):
        """Gather one chunk's query rows and K|V panels, then its scaled
        scores into ``s``, dropped entries filled."""
        np.take(q_blocks, ids, axis=1, mode="clip", out=qs)
        np.take(kv_slots, tile.index, axis=1, mode="clip", out=kv_flat)
        np.multiply(qs, scale, out=qs)
        # A class chunk's GEMMs are small: with the transposed operand
        # contiguous this BLAS runs them ~2.5x faster (same bits).
        np.copyto(qs_t_rows, qs)
        np.matmul(k_pan, qs_t, out=s)
        for view, mask in masks:
            np.copyto(view, _NEG_FILL, where=mask)

    rec = _plan._RECORDER
    alloc = _plan.plan_alloc(rec)
    # Query rows and panels are read block by block out of (head, block)
    # grids, K/V's with one spare all-zero slot.  The grids are zero-filled
    # once, here, and refreshed from Q/K/V by every run: a ragged last block
    # stays zero-padded.
    zeros = _plan.plan_alloc(rec, zero=True)
    kv_slots = zeros((batch, lead + 1, bs * kvd), dtype)
    kv_grid = kv_slots[:, :lead].reshape(batch, heads, nb * bs, kvd)
    q_grid = zeros((batch, heads, nb * bs, dim), dtype)
    q_blocks = q_grid.reshape(batch, lead, bs, dim)
    copies = [(kv_grid[:, :, :sk, :dim], kd), (kv_grid[:, :, :sk, dim:], vd),
              (q_grid[:, :, :sq], qd)]
    # Key offset > query offset: a diagonal block's causal triangle,
    # (column, unit, row)-broadcast and shared by every chunk.
    causal = np.arange(bs)[:, None, None] > np.arange(bs)
    # Shared with every kernel recorded after this one (see plan.emit).
    scratch = _plan.scratch_alloc(rec)
    work = workspace(scratch)
    row_bufs = [scratch((panel,), t) for t in (dtype, dtype, bool)]
    lse = alloc((batch, lead, 1, bs), dtype)   # unit order
    # Chunks write whole blocks, in the projections' layout (_head_view): a
    # ragged last block's padded rows land past the rows ``out`` views.
    out_blocks = alloc((batch, nb * bs, heads * vdim), dtype)
    out = _head_view(out_blocks[:, :sq], heads)
    # Each chunk's rows go to (head, query block) index pairs of a
    # (batch, heads, n_blocks, block, vdim) view.
    places = [np.divmod(units[t.u0:t.u1], nb) for t in tiles]
    unit_rows = _unit_view(out_blocks, heads, nb)
    steps = [(views, _softmax_views(views, row_bufs), place)
             for views, place in zip((bind(tile, work) for tile in tiles), places)]

    def run():
        for fill, src in copies:
            np.copyto(fill, src)
        for views, core, (head, block) in steps:
            scores(*views)
            _softmax_forward(*core)
            unit_rows[:, head, block] = views[-2]

    # out is the result; lse and the staged grids survive for the backward.
    _plan.emit(rec, run, tag, *work, *row_bufs)
    # A recorded forward's workspace is the plan's scratch, idle until the
    # next replay, so the backward reuses it and the views bound to it.
    bound = [views for views, _, _ in steps] if rec is not None else None

    # A frozen k takes no gradient and no chunk runs its dK GEMM: the key
    # half of the shared (key, value) panel stays zero, so the scatter adds
    # exact zeros to the discarded half of the grid.  The flag, not ``k``:
    # the backward reads the staged grid, and must not reach k's buffer.
    k_grad = k.requires_grad

    def backward(grad_out):
        delta = _softmax_delta(grad_out, out)
        work_b = work if bound else workspace(_arena.empty)
        dp_buf = _arena.empty((panel * bs,), dtype)
        pan_buf = (_arena.empty((panel * kvd,), dtype) if k_grad
                   else _arena.zeros((panel * kvd,), dtype))
        gq_blocks = _arena.empty((batch, nb * bs, heads * dim), dtype)
        grad_q = _head_view(gq_blocks[:, :sq], heads)
        gq_units = _unit_view(gq_blocks, heads, nb)
        # dO and delta side by side per (head, block), zero on a ragged
        # block's padded rows, so those rows add exact zeros to dK/dV.
        gd_grid = _arena.zeros((batch, heads, nb * bs, vdim + 1), dtype)
        np.copyto(gd_grid[:, :, :sq, :vdim], grad_out)
        np.copyto(gd_grid[:, :, :sq, vdim], delta)
        gd_buf = _arena.empty((batch, stack, bs, vdim + 1), dtype)
        g_t_buf = _arena.empty((batch, stack, vdim, bs), dtype)
        gq_buf = _arena.empty((batch, stack, bs, dim), dtype)
        acc_buf = _arena.empty((panel * kvd,), dtype)
        kv_grads = _arena.zeros(kv_slots.shape, dtype)
        for views, (head, block) in zip(bound or [bind(t, work_b) for t in tiles],
                                        places):
            tile, ids, qs, _, _, _, k_pan, _, s, v_pan, _, lse_t = views
            gd, gq_rows, g_t = (buf[:, :ids.size] for buf in (gd_buf, gq_buf, g_t_buf))
            np.take(gd_grid.reshape(batch, lead, bs, -1), ids, axis=1,
                    mode="clip", out=gd)
            g_rows = gd[..., :vdim]
            np.copyto(np.swapaxes(g_t, -1, -2), g_rows)
            scores(*views)
            # Both panel gradients land in one (key, value) panel, which is
            # added to the grid in one pass.
            kv_pan = pan_buf[:s[..., 0].size * kvd].reshape(*s.shape[:3], kvd)
            ds = scores_in(dp_buf, tile)
            _softmax_backward(s, lse_t, v_pan, k_pan, g_rows, g_t, gd[..., None, :, vdim],
                              kv_pan[..., dim:], ds, gq_rows)
            gq_rows *= scale
            if k_grad:
                np.matmul(ds, qs, out=kv_pan[..., :dim])
            gq_units[:, head, block] = gq_rows
            # Add the panel gradients onto the grid slots they came from, run
            # by run (padded blocks are exact zeros landing on the spare slot).
            flat, c = kv_pan.reshape(batch, -1, bs * kvd), tile.capacity
            for a, b in zip(tile.rounds, tile.rounds[1:]):
                index = tile.index[a * c:b * c]
                acc = acc_buf[:flat[:, :index.size].size].reshape(batch, index.size, -1)
                np.take(kv_grads, index, axis=1, mode="clip", out=acc)
                acc += flat[:, a * c:b * c]
                kv_grads[:, index] = acc
        # The grid sums from zero, so it holds no -0.0: its halves, copied
        # out, are what adding them onto zeros would give.
        grid = kv_grads[:, :lead].reshape(batch, heads, nb * bs, kvd)[:, :, :sk]
        grad_k = None
        if k_grad:
            grad_k = _head_view(_arena.empty((batch, sk, heads * dim), dtype), heads)
            np.copyto(grad_k, grid[..., :dim])
        grad_v = _head_view(_arena.empty((batch, sk, heads * vdim), dtype), heads)
        np.copyto(grad_v, grid[..., dim:])
        # release() ignores whatever the plan or a geometry cache owns.
        _arena.release(delta, *work_b, dp_buf, pan_buf, acc_buf, kv_grads, lse,
                       kv_slots, q_grid, gd_grid, gd_buf, g_t_buf, gq_buf)
        return grad_q, grad_k, grad_v

    return custom_op(out, (q, k, v), backward)


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 attn_mask: Optional[np.ndarray] = None,
                                 scale: Optional[float] = None,
                                 tile: int = 128) -> Tensor:
    """Dense ``softmax(Q K^T * scale) V`` through :func:`tiled_attention`.

    ``q``/``k``/``v`` are ``(batch, heads, seq, head_dim)``; ``attn_mask`` is
    an optional boolean keep-mask broadcastable to the score shape, laid out
    by :func:`mask_tile_layout` into query-row tiles ``tile`` rows high.  The
    ``(seq, seq)`` score matrix is never materialised — scratch is
    O(tile * seq) — and nothing past a tile's last kept column is computed:
    under a causal mask each tile reads the key prefix up to its own
    diagonal, roughly halving the work.  ``tile >= seq`` is one tile, the
    materialising shape.
    """
    tile = int(tile)
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    if attn_mask is not None:
        attn_mask = np.asarray(attn_mask, dtype=bool)
    # The drop masks are bound once, at record time: zero-filled, never keyed.
    alloc = _plan.plan_alloc(_plan._RECORDER, zero=True)
    layout = mask_tile_layout(attn_mask, q.shape[-2], k.shape[-2], tile, alloc)
    return tiled_attention(q, k, v, layout, scale=scale, tag="sdpa")
