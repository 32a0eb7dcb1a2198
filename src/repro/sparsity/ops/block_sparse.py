"""Block-sparse attention: the standalone SDD / DSD kernels and the training op.

The attention computation under a per-head block mask decomposes into two
sparse matrix multiplications (paper Section VI-A):

* **SDD** (``sparse = dense x dense``): only the score blocks listed in the
  layout are computed from Q and K;
* **DSD** (``dense = sparse x dense``): the sparse probability blocks are
  multiplied with V to produce the dense context.

:func:`block_sparse_sdd` / :func:`block_sparse_dsd` realise them literally, as
block-gathered batched matmuls over a ``(batch, nnz, block, .)`` stack; the
operator benchmarks use them.

:func:`block_sparse_attention` is the autograd op used during fine-tuning.
It hands the layout's capacity classes
(:mod:`repro.sparsity.ops.geometry_cache`) to
:func:`repro.tensor.fused.tiled_attention` — the same kernel dense streaming
attention runs — whose backward touches exactly the panels the forward did,
realising the paper's observation that inactive positions drop out of the
gradient computation as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sparsity.ops.geometry_cache import (
    LayoutGeometryCache,
    compute_block_geometry,
)
from repro.sparsity.ops.layout import MultiHeadLayout
from repro.tensor import Tensor
from repro.tensor import fused as _fused
from repro.tensor import reference as _reference

_NEG_INF = np.float32(-1e9)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _pad_to_blocks(x: np.ndarray, block_size: int, axis: int) -> np.ndarray:
    """Zero-pad ``x`` along ``axis`` so its length is a block multiple."""
    length = x.shape[axis]
    remainder = length % block_size
    if remainder == 0:
        return x
    pad = [(0, 0)] * x.ndim
    pad[axis] = (0, block_size - remainder)
    return np.pad(x, pad)


def _blockify(x: np.ndarray, block_size: int) -> np.ndarray:
    """(batch, heads, seq, dim) -> (batch, heads, n_blocks, block, dim)."""
    batch, heads, seq, dim = x.shape
    n_blocks = seq // block_size
    return x.reshape(batch, heads, n_blocks, block_size, dim)


# ---------------------------------------------------------------------------
# standalone SDD / DSD kernels (numpy level, used by the operator benchmarks)
# ---------------------------------------------------------------------------

@dataclass
class BlockSparseMatrix:
    """Blocks of a sparse (batch, heads, seq, seq) matrix plus their layout."""

    data: np.ndarray            # (batch, nnz, block, block)
    layout: MultiHeadLayout
    seq_len: int

    def to_dense(self) -> np.ndarray:
        """Materialise the dense (batch, heads, seq, seq) matrix (tests only)."""
        bs = self.layout.block_size
        batch = self.data.shape[0]
        full = self.layout.n_blocks * bs
        dense = np.zeros((batch, self.layout.n_heads, full, full), dtype=self.data.dtype)
        for idx, (h, r, c) in enumerate(zip(self.layout.heads, self.layout.rows,
                                            self.layout.cols)):
            dense[:, h, r * bs:(r + 1) * bs, c * bs:(c + 1) * bs] = self.data[:, idx]
        return dense[:, :, :self.seq_len, :self.seq_len]


def block_sparse_sdd(q: np.ndarray, k: np.ndarray, layout: MultiHeadLayout,
                     scale: float = 1.0) -> BlockSparseMatrix:
    """Compute only the active blocks of ``Q @ K^T`` (SDD kernel).

    ``q``/``k`` have shape ``(batch, heads, seq, dim)``; the result holds the
    ``(batch, nnz, block, block)`` stack of active score blocks.
    """
    bs = layout.block_size
    seq_len = q.shape[2]
    q_pad = _blockify(_pad_to_blocks(q, bs, axis=2), bs)
    k_pad = _blockify(_pad_to_blocks(k, bs, axis=2), bs)
    q_blk = q_pad[:, layout.heads, layout.rows]                 # (batch, nnz, bs, dim)
    k_blk = k_pad[:, layout.heads, layout.cols]
    scores = np.matmul(q_blk, np.swapaxes(k_blk, -1, -2)) * scale
    return BlockSparseMatrix(data=scores, layout=layout, seq_len=seq_len)


def block_sparse_dsd(blocks: BlockSparseMatrix, v: np.ndarray) -> np.ndarray:
    """Multiply sparse probability blocks with dense ``V`` (DSD kernel).

    Returns the dense context of shape ``(batch, heads, seq, dim)``.
    """
    layout = blocks.layout
    bs = layout.block_size
    batch, _, seq_len, dim = v.shape
    v_pad = _blockify(_pad_to_blocks(v, bs, axis=2), bs)
    v_blk = v_pad[:, layout.heads, layout.cols]                 # (batch, nnz, bs, dim)
    ctx_blk = np.matmul(blocks.data, v_blk)                     # (batch, nnz, bs, dim)

    starts = layout.row_segment_starts
    ctx_seg = np.add.reduceat(ctx_blk, starts, axis=1)          # (batch, nseg, bs, dim)
    out = np.zeros((batch, layout.n_heads, layout.n_blocks, bs, dim), dtype=v.dtype)
    out[:, layout.heads[starts], layout.rows[starts]] = ctx_seg
    return out.reshape(batch, layout.n_heads, layout.n_blocks * bs, dim)[:, :, :seq_len]


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
                           cache: Optional[LayoutGeometryCache] = None,
                           streaming: Optional[bool] = None) -> Tensor:
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
    cache:
        Optional :class:`~repro.sparsity.ops.geometry_cache.LayoutGeometryCache`.
        When given, the layout's capacity classes (slot lists, drop masks)
        are looked up instead of recomputed — repeated layouts across
        fine-tuning steps then pay zero index-construction cost.  Results
        are identical either way.
    streaming:
        Accepted and ignored: there is one attention kernel, and it never
        materialises more than one class chunk of scores.

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
    tiles = (cache.lookup(layout, seq_len) if cache is not None
             else compute_block_geometry(layout, seq_len))
    return _fused.tiled_attention(q, k, v, tiles, scale=scale,
                                  tag="block_sparse_attention")
