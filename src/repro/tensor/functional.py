"""Composite differentiable functions built on top of :class:`Tensor`.

These mirror the subset of ``torch.nn.functional`` that transformer
fine-tuning needs: layer normalisation, fused linear(+activation), the LoRA
projection, the MLP block, the dense attention core (softmax fused inside),
the token-level cross entropy loss, over logits or through the LM head, and
the residual sum.

Since the fused-kernel pass, this module is a thin *dispatch layer*: every
hot-path function routes to its single-node hand-backward implementation in
:mod:`repro.tensor.fused` (the default) or to the primitive-composition tape
in :mod:`repro.tensor.reference` inside a
:func:`repro.tensor.fused.reference_kernels` block.  Callers —
``repro.nn``, the models, the PEFT wrappers — never need to know which form
is active, which is what lets the parity tests compare both on an
unmodified model.

The auxiliary loss ``binary_cross_entropy_with_logits`` (predictor
training) is already a single fused node and lives here directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import fused as _fused
from repro.tensor import reference as _reference
from repro.tensor.tensor import Tensor, custom_op


def _impl():
    return _fused if _fused.fused_kernels_enabled() else _reference


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension with affine parameters."""
    return _impl().layer_norm(x, weight, bias, eps=eps)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           activation: Optional[str] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with an optionally fused activation.

    ``weight`` has shape ``(out_features, in_features)`` following the
    PyTorch convention so that checkpoint-style configs translate directly.
    With ``activation`` set (``"relu"`` or ``"gelu"``), the nonlinearity
    is folded into the same tape node on the fused path.
    """
    return _impl().linear(x, weight, bias, activation=activation)


def lora_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                lora_A: Tensor, lora_B: Tensor, scaling: float) -> Tensor:
    """LoRA-adapted projection ``x W^T + b + scaling * (x A^T) B^T``.

    ``lora_A`` is ``(rank, in_features)`` and ``lora_B`` ``(out_features,
    rank)``; on the fused path the whole projection is one tape node.
    """
    return _impl().lora_linear(x, weight, bias, lora_A, lora_B, scaling)


def mlp(x: Tensor, fc1_weight: Tensor, fc1_bias: Optional[Tensor],
        fc2_weight: Tensor, fc2_bias: Optional[Tensor],
        activation: str = "relu") -> Tensor:
    """The MLP block ``fc2(act(fc1(x)))`` (``"relu"`` or ``"gelu"``).

    On the fused path it is one tape node walking the rows a chunk at a
    time: the ``(rows, hidden)`` activation exists whole only when a
    trainable fc2 weight needs it.
    """
    return _impl().mlp(x, fc1_weight, fc1_bias, fc2_weight, fc2_bias,
                       activation=activation)


def residual_add(x: Tensor, y: Tensor) -> Tensor:
    """A residual or embedding sum ``x + y`` that consumes ``y``.

    On the fused path the sum is written into ``y``'s buffer
    (:func:`repro.tensor.fused.residual_add`), so ``y`` — a sub-layer's
    fresh output — must not be read afterwards; the reference path keeps
    the plain ``+`` and leaves ``y`` as it was.
    """
    if _fused.fused_kernels_enabled():
        return _fused.residual_add(x, y)
    return x + y


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: int = -100, shift: bool = False) -> Tuple[Tensor, int]:
    """Token-level cross entropy for language modelling.

    Parameters
    ----------
    logits:
        Tensor of shape ``(batch, seq, vocab)`` (or ``(N, vocab)``).
    targets:
        Integer array of shape ``(batch, seq)`` (or ``(N,)``); positions equal
        to ``ignore_index`` do not contribute to the loss.
    shift:
        When True, compute the next-token loss directly: logit ``t`` scored
        against target ``t+1``.

    Returns
    -------
    (loss, n_valid):
        The mean negative log-likelihood over valid positions and the number
        of valid positions (useful for aggregating across batches).

    Both kernel modes run the taped composition
    :func:`repro.tensor.reference.cross_entropy_logits`: no model loss forms
    whole logits, so the fused path is :func:`linear_cross_entropy`.
    """
    return _reference.cross_entropy_logits(logits, targets,
                                           ignore_index=ignore_index, shift=shift)


def linear_cross_entropy(hidden: Tensor, weight: Tensor, targets: np.ndarray,
                         ignore_index: int = -100,
                         shift: bool = True) -> Tuple[Tensor, int]:
    """Cross entropy of the projection ``hidden @ weight.T`` — a language
    model's head and loss as one op.

    ``hidden`` is ``(batch, seq, dim)`` (or ``(N, dim)`` without ``shift``),
    ``weight`` ``(vocab, dim)``; ``targets``, ``ignore_index`` and ``shift``
    are :func:`cross_entropy`'s, and so is the ``(loss, n_valid)`` result.
    On the fused path the ``(rows, vocab)`` logits never exist whole: the
    kernel walks them a chunk of rows at a time.
    """
    return _impl().linear_cross_entropy(hidden, weight, targets,
                                        ignore_index=ignore_index, shift=shift)


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 attn_mask: Optional[np.ndarray] = None,
                                 scale: Optional[float] = None,
                                 tile: int = 128) -> Tensor:
    """Dense attention core ``softmax(QK^T * scale) V`` in query-row tiles
    ``tile`` rows high — O(tile * seq) scratch (fused by default)."""
    return _impl().scaled_dot_product_attention(q, k, v, attn_mask=attn_mask,
                                                scale=scale, tile=tile)


# Not an entry of its own: a probe under benchmarks/e2e/ (frozen by
# BENCHMARK.json) resolves this name and its self-test fails on a missing
# probe.  The alias goes when that probe does.
streaming_attention = scaled_dot_product_attention


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     pos_weight: float = 1.0) -> Tensor:
    """Element-wise BCE with logits; ``pos_weight`` up-weights positives.

    This is the loss used for predictor training: the paper prioritises
    recall over precision ("weights that should be active but are predicted
    inactive hurt the most"), which is realised by ``pos_weight > 1``.
    """
    targets = np.asarray(targets, dtype=np.float32)
    x = logits.data
    sig = 1.0 / (1.0 + np.exp(-x))
    eps = 1e-12
    per_elem = -(pos_weight * targets * np.log(sig + eps)
                 + (1.0 - targets) * np.log(1.0 - sig + eps))
    loss_value = per_elem.mean()
    count = x.size

    def backward(grad):
        grad = np.asarray(grad).reshape(())
        local = (pos_weight * targets * (sig - 1.0) + (1.0 - targets) * sig)
        return (grad * local / count,)

    return custom_op(np.asarray(loss_value, dtype=np.float32), (logits,), backward)
