"""Primitive-composition reference implementations of the fused kernels.

Each function here computes exactly the same mathematical operation as its
counterpart in :mod:`repro.tensor.fused`, but builds it out of elementary
:class:`~repro.tensor.tensor.Tensor` operations — one tape node, one closure
and (usually) one full-size temporary per primitive.  They exist for three
reasons:

* **Correctness oracle** — the gradcheck tests differentiate both forms and
  require the fused hand-derived backwards to agree with these
  autograd-derived ones (and with central finite differences).
* **Baseline** — the parity harness (``tests/parity.py``) sets the fused
  kernels against this deep-tape execution, which is the cost
  model the paper's fused-operator argument targets.
* **Fallback** — a :func:`repro.tensor.fused.reference_kernels` block routes
  ``repro.tensor.functional`` (and therefore the whole nn/model stack)
  through these implementations, so any suspected fused-kernel bug can be
  bisected by wrapping one call.

``softmax``, ``log_softmax`` and ``masked_softmax`` have no fused
counterpart: the fused kernels compute their softmax inline.  They are the
building blocks of :func:`scaled_dot_product_attention` and
:func:`cross_entropy_logits`, the oracles those kernels are checked against.
``cross_entropy_logits`` has no fused counterpart either (the fused loss is
:func:`linear_cross_entropy`, which never forms the logits): it is what
``repro.tensor.functional.cross_entropy`` runs in both kernel modes.

Nothing in the training hot path should import this module directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor, where

__all__ = [
    "softmax",
    "log_softmax",
    "masked_softmax",
    "layer_norm",
    "linear",
    "lora_linear",
    "mlp",
    "cross_entropy_logits",
    "linear_cross_entropy",
    "scaled_dot_product_attention",
    "block_sparse_attention",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax via max / sub / exp / sum / div primitives (5 tape nodes)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax via the primitive chain ``x - max - log(sum(exp))``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_softmax(scores: Tensor, mask: Optional[np.ndarray], axis: int = -1,
                   neg_fill: float = -1e9) -> Tensor:
    """Masked softmax as a where/softmax/re-mask primitive composition.

    Matches the fused kernel's convention: masked positions get exactly zero
    probability (the trailing multiply), fully-masked rows produce zeros.
    """
    if mask is None:
        return softmax(scores, axis=axis)
    mask = np.asarray(mask, dtype=bool)
    filled = where(mask, scores, Tensor(np.float32(neg_fill)))
    shifted = filled - filled.max(axis=axis, keepdims=True)
    exp = shifted.exp() * Tensor(mask.astype(np.float32))
    denom = exp.sum(axis=axis, keepdims=True)
    # Keep the denominator in the graph (the softmax gradient flows through
    # it); the additive constant only rescues fully-masked all-zero rows.
    zero_fix = (denom.data == 0).astype(np.float32)
    return exp / (denom + Tensor(zero_fix))


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """LayerNorm via mean/var/sqrt primitives (~9 tape nodes)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / (var + eps).sqrt()
    return centered * inv_std * weight + bias


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           activation: Optional[str] = None) -> Tensor:
    """Affine map (+ optional activation) as transpose/matmul/add primitives."""
    out = x.matmul(weight.transpose(1, 0))
    if bias is not None:
        out = out + bias
    if activation is None or activation == "none":
        return out
    if activation == "relu":
        return out.relu()
    if activation == "gelu":
        return out.gelu()
    raise ValueError(f"unsupported activation {activation!r}")


def lora_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                lora_A: Tensor, lora_B: Tensor, scaling: float) -> Tensor:
    """LoRA projection as base linear + two rank-r linears, a scale over the
    full output and an add."""
    frozen = linear(x, weight, bias)
    low_rank = linear(linear(x, lora_A, None), lora_B, None)
    return frozen + low_rank * scaling


def mlp(x: Tensor, fc1_weight: Tensor, fc1_bias: Optional[Tensor],
        fc2_weight: Tensor, fc2_bias: Optional[Tensor],
        activation: str = "relu") -> Tensor:
    """The MLP block as two whole-array linears: the ``(rows, hidden)``
    activation is one graph Tensor."""
    return linear(linear(x, fc1_weight, fc1_bias, activation=activation),
                  fc2_weight, fc2_bias)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray,
                         ignore_index: int = -100,
                         shift: bool = False) -> Tuple[Tensor, int]:
    """Cross entropy via slice / log-softmax / gather / mask primitives."""
    targets = np.asarray(targets)
    if shift:
        slicer = (slice(None),) * (logits.ndim - 2) + (slice(None, -1), slice(None))
        logits = logits[slicer]
        targets = targets[..., 1:]
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    n_valid = int(valid.sum())
    safe_targets = np.where(valid, flat_targets, 0)

    log_probs = log_softmax(flat_logits, axis=-1)
    picked = log_probs[np.arange(flat_targets.shape[0]), safe_targets]
    masked = picked * Tensor(valid.astype(np.float32))
    loss = masked.sum() * (-1.0 / max(n_valid, 1))
    return loss, n_valid


def linear_cross_entropy(hidden: Tensor, weight: Tensor, targets: np.ndarray,
                         ignore_index: int = -100,
                         shift: bool = True) -> Tuple[Tensor, int]:
    """The fused LM-head loss as the taped ``linear`` + cross entropy chain:
    the whole ``(rows, vocab)`` logits, log-probabilities and their
    gradients exist at once."""
    return cross_entropy_logits(linear(hidden, weight), targets,
                                ignore_index=ignore_index, shift=shift)


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 attn_mask: Optional[np.ndarray] = None,
                                 scale: Optional[float] = None,
                                 tile: int = 128) -> Tensor:
    """Dense attention as the taped matmul / scale / softmax / matmul chain.

    Tiling is a memory-layout strategy, not a mathematical one — the exact
    result is plain attention, so ``tile`` is accepted only for signature
    parity.  This is the gradcheck oracle the fused kernel's per-tile
    softmax and recompute backward are checked against.
    """
    del tile
    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(q.shape[-1]))
    scores = q.matmul(k.swapaxes(-1, -2)) * scale
    probs = masked_softmax(scores, attn_mask, axis=-1)
    return probs.matmul(v)


def block_sparse_attention(q: Tensor, k: Tensor, v: Tensor, layout,
                           scale: Optional[float] = None) -> Tensor:
    """Primitive-composition twin of block-sparse attention.

    :func:`repro.sparsity.ops.block_sparse_attention` normalises the
    softmax over the union of active blocks in each query row, with causality
    enforced at the element level — which is exactly dense attention under
    the layout's expanded element mask.  This twin therefore materialises
    ``layout.to_dense_mask(seq_len)`` and runs the taped dense chain, letting
    autograd derive the backward.  ``layout`` is duck-typed (anything with
    ``to_dense_mask``) so this module keeps zero imports from the sparsity
    package.  Dense-sized compute is the point: this is the gradcheck oracle
    and deep-tape baseline, never the hot path.
    """
    seq_len = q.shape[2]
    mask = layout.to_dense_mask(seq_len)[None]       # (1, heads, seq, seq)
    return scaled_dot_product_attention(q, k, v, attn_mask=mask, scale=scale)
