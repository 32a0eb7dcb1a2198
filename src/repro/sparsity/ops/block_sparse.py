"""Block-sparse attention: the training op and its dense reference.

The attention computation under a per-head block mask decomposes into two
sparse matrix multiplications (paper Section VI-A): **SDD** (``sparse =
dense x dense``), where only the score blocks listed in the layout are
computed from Q and K, and **DSD** (``dense = sparse x dense``), where the
sparse probability blocks are multiplied with V to produce the dense context.

:func:`block_sparse_attention`, the autograd op used during fine-tuning,
runs both in one kernel: it hands the layout's capacity classes
(:mod:`repro.sparsity.ops.geometry`) to
:func:`repro.tensor.fused.tiled_attention` — the same kernel dense streaming
attention runs — whose backward touches exactly the panels the forward did,
realising the paper's observation that inactive positions drop out of the
gradient computation as well.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparsity.ops.geometry import compute_block_geometry
from repro.sparsity.ops.layout import MultiHeadLayout
from repro.tensor import Tensor
from repro.tensor import fused as _fused
from repro.tensor import reference as _reference

_NEG_INF = np.float32(-1e9)


def dense_attention_reference(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                              mask: Optional[np.ndarray] = None,
                              scale: Optional[float] = None) -> np.ndarray:
    """Plain dense softmax attention used as the comparison baseline."""
    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(q.shape[-1]))
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        scores = np.where(mask, scores, _NEG_INF)
    scores = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    if mask is not None:
        probs = probs * mask
    denom = probs.sum(axis=-1, keepdims=True)
    probs = probs / _fused.guard_zero_rows(denom)
    return np.matmul(probs, v)


# ---------------------------------------------------------------------------
# block-sparse attention (autograd op used during fine-tuning)
# ---------------------------------------------------------------------------

def block_sparse_attention(q: Tensor, k: Tensor, v: Tensor, layout: MultiHeadLayout,
                           scale: Optional[float] = None,
                           cache=None,
                           streaming: Optional[bool] = None,
                           geometry: Optional[_fused.TileLayout] = None) -> Tensor:
    """Block-sparse ``softmax(QK^T) V`` with a block-sparse backward.

    Parameters
    ----------
    q, k, v:
        Tensors of shape ``(batch, heads, seq, head_dim)``.
    layout:
        Active blocks per head: the engine builds it from the predicted
        block masks (predicted mode) or the exposer's masks (oracle mode).
    scale:
        Score scaling; defaults to ``1/sqrt(head_dim)``.
    cache, streaming:
        Kept for older callers: ``cache.lookup(layout, seq_len)`` supplies
        the geometry when ``geometry`` is not given; ``streaming`` is
        ignored (the one kernel never materialises more than a class chunk).
    geometry:
        The layout's capacity classes
        (:func:`~repro.sparsity.ops.geometry.compute_block_geometry`), held
        by whoever installed the layout; computed here when not given.

    The softmax normalises over the *union of active blocks in each query
    row*, with causal masking inside diagonal blocks.  Forward and backward
    both run :func:`repro.tensor.fused.tiled_attention` over the layout's
    capacity classes, so compute, gradient work and saved state are bounded
    by the panels the layout keeps (at most 1.5x, the ladder's rounding),
    never by the full ``seq²`` score matrix.  Any sequence length is accepted
    (the staged Q/K/V grids are zero-padded to the block multiple); rows
    that keep no block produce exactly zero output and
    gradients.  Inside :func:`repro.tensor.fused.reference_kernels` the call
    routes to the primitive-composition twin
    :func:`repro.tensor.reference.block_sparse_attention` instead, so the
    sparse path sits on the same reference tape as the dense kernels.
    """
    del streaming
    if q.shape[1] != layout.n_heads:
        raise ValueError(f"layout has {layout.n_heads} heads, tensors have {q.shape[1]}")
    if not _fused.fused_kernels_enabled():
        return _reference.block_sparse_attention(q, k, v, layout, scale=scale)
    seq_len = q.shape[2]
    if geometry is None:
        geometry = (cache.lookup(layout, seq_len) if cache is not None
                    else compute_block_geometry(layout, seq_len))
    return _fused.tiled_attention(q, k, v, geometry, scale=scale,
                                  tag="block_sparse_attention")
