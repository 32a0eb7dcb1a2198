"""Block-sparse attention operators (SDD / DSD) and the fused training op.

The attention computation under a per-head block mask decomposes into two
sparse matrix multiplications (paper Section VI-A):

* **SDD** (``sparse = dense x dense``): only the score blocks listed in the
  layout are computed from Q and K;
* **DSD** (``dense = sparse x dense``): the sparse probability blocks are
  multiplied with V to produce the dense context.

Both are implemented as *block-gathered batched matmuls*: the active blocks
of Q/K/V are gathered with fancy indexing into a ``(batch, nnz, block, ·)``
stack and a single ``np.matmul`` call processes all of them, so the per-block
work is done by BLAS and the Python overhead is independent of the number of
blocks.  The row-wise softmax across blocks of the same query row uses
:func:`_segment_reduce` (per-segment ``ufunc.reduce`` slabs, a drop-in for
``reduceat``) over the (head, row)-sorted layout, which is why
:class:`~repro.sparsity.ops.layout.MultiHeadLayout` guarantees that ordering.

:1func:`block_sparse_attention` is the fused autograd op used during
fine-tuning: its custom backward touches exactly the same blocks as the
forward, realising the paper's observation that inactive positions drop out
of the gradient computation as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sparsity.ops.geometry_cache import (
    LayoutGeometryCache,
    block_element_mask,
    compute_block_geometry,
    segment_geometry,
)
from repro.sparsity.ops.layout import MultiHeadLayout
from repro.tensor import Tensor
from repro.tensor import arena as _arena
from repro.tensor import fused as _fused
from repro.tensor import plan as _plan
from repro.tensor import reference as _reference
from repro.tensor.tensor import custom_op

_NEG_INF = np.float32(-1e9)


def _segment_reduce(ufunc, arr: np.ndarray, starts: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """Per-segment ``ufunc.reduce`` along axis 1 (replaces ``reduceat``).

    ``ufunc.reduceat`` walks its fast path element by element; a short Python
    loop issuing one contiguous-slab ``ufunc.reduce`` per segment keeps the
    reduction inside NumPy's pairwise SIMD loop instead — measured ~6x
    (``add``) to ~13x (``maximum``) faster at the block-sparse softmax's
    segment shapes, with the per-segment Python overhead amortised over the
    whole ``(batch, ..., block)`` slab.  Edge semantics mirror ``reduceat``:
    a length-1 (or degenerate empty) segment passes ``arr[:, starts[i]]``
    through unchanged.
    """
    n = arr.shape[1]
    n_seg = starts.shape[0]
    for i in range(n_seg):
        s = starts[i]
        e = starts[i + 1] if i + 1 < n_seg else n
        if e - s <= 1:
            np.copyto(out[:, i], arr[:, s])
        else:
            ufunc.reduce(arr[:, s:e], axis=1, out=out[:, i])
    return out

# Backwards-compatible aliases: the geometry helpers moved to
# repro.sparsity.ops.geometry_cache so they can be memoized per layout.
_segment_geometry = segment_geometry
_block_element_mask = block_element_mask


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


def _stage(arrays, n_blocks: int, block_size: int, alloc):
    """Blockify ``(batch, heads, seq, dim)`` arrays for a kernel body.

    Returns ``(grids, copies)``.  A C-contiguous, block-aligned activation
    blockifies as a free, stable view.  Anything else — the head-transposed
    layout, a ragged tail — gets a staging buffer from ``alloc`` whose zero
    padding is written here, once, plus a ``(fill, source)`` entry in
    ``copies``: the view of the buffer the body refreshes from its source on
    every run.
    """
    grids, copies = [], []
    for x in arrays:
        batch, heads, seq, dim = x.shape
        if x.flags["C_CONTIGUOUS"] and seq == n_blocks * block_size:
            grids.append(x.reshape(batch, heads, n_blocks, block_size, dim))
            continue
        grid = alloc((batch, heads, n_blocks, block_size, dim), x.dtype)
        rows = grid.reshape(batch, heads, n_blocks * block_size, dim)
        rows[:, :, seq:] = 0.0
        grids.append(grid)
        copies.append((rows[:, :, :seq], x))
    return grids, copies


def _blockify_arena(x: np.ndarray, block_size: int) -> np.ndarray:
    """Pad + blockify, routing any copy through the buffer arena."""
    (grid,), copies = _stage((x,), -(-x.shape[2] // block_size), block_size,
                             _arena.empty)
    for fill, src in copies:
        np.copyto(fill, src)
    return grid


def _scatter_segments(seg: np.ndarray, seg_heads: np.ndarray,
                      seg_blocks: np.ndarray, uncovered: np.ndarray,
                      grid_shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Place per-(head, block) segment sums into a full ``(batch, heads,
    padded_len, dim)`` arena buffer; blocks no segment covers are zeroed."""
    batch, n_heads, n_blocks, bs, dim = grid_shape
    grid = _arena.empty(grid_shape, dtype)
    grid[:, seg_heads, seg_blocks] = seg
    if uncovered.size:
        grid.reshape(batch, n_heads * n_blocks, bs, dim)[:, uncovered] = 0.0
    return grid.reshape(batch, n_heads, n_blocks * bs, dim)


def _scatter_to_cols(contrib: np.ndarray, order: np.ndarray, geom,
                     grid_shape: Tuple[int, ...]) -> np.ndarray:
    """Accumulate per-block contributions onto their (head, col) blocks.

    ``order`` sorts the block stack by (head, col): ``geom.col_order`` for a
    layout-ordered stack, ``geom.stream.col_order`` for a stream-ordered one.
    """
    batch, _, _, bs, dim = grid_shape
    contrib_sorted = np.take(contrib, order, axis=1, mode="clip",
                             out=_arena.empty(contrib.shape, contrib.dtype))
    seg = _segment_reduce(np.add, contrib_sorted, geom.col_starts,
                          _arena.empty((batch, geom.col_seg_heads.shape[0],
                                        bs, dim), np.float32))
    _arena.release(contrib_sorted)
    out = _scatter_segments(seg, geom.col_seg_heads, geom.col_seg_cols,
                            geom.col_uncovered, grid_shape, np.float32)
    _arena.release(seg)
    return out


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
    _, seg_heads, seg_rows = _segment_geometry(layout)
    ctx_seg = np.add.reduceat(ctx_blk, starts, axis=1)          # (batch, nseg, bs, dim)
    out = np.zeros((batch, layout.n_heads, layout.n_blocks, bs, dim), dtype=v.dtype)
    out[:, seg_heads, seg_rows] = ctx_seg
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
# fused block-sparse attention (autograd op used during fine-tuning)
# ---------------------------------------------------------------------------

def block_sparse_attention(q: Tensor, k: Tensor, v: Tensor, layout: MultiHeadLayout,
                           scale: Optional[float] = None,
                           cache: Optional[LayoutGeometryCache] = None,
                           streaming: Optional[bool] = None) -> Tensor:
    """Fused block-sparse ``softmax(QK^T) V`` with a block-sparse backward.

    Parameters
    ----------
    q, k, v:
        Tensors of shape ``(batch, heads, seq, head_dim)``.
    layout:
        Active blocks per head, produced by the layout pool (predicted
        patterns) or from exposer masks (oracle mode).
    scale:
        Score scaling; defaults to ``1/sqrt(head_dim)``.
    cache:
        Optional :class:`~repro.sparsity.ops.geometry_cache.LayoutGeometryCache`.
        When given, the derived index geometry (softmax segments, element
        masks, the column-sorted backward permutation) is looked up instead
        of recomputed — repeated layouts across fine-tuning steps then pay
        zero index-construction cost.  Results are identical either way.
    streaming:
        Route through :func:`streaming_block_sparse_attention` (score
        scratch proportional to the number of query-row segments instead of
        the number of active blocks).  ``None`` follows the global
        :func:`repro.tensor.fused.streaming_attention_enabled` switch.

    The softmax normalises over the *union of active blocks in each query
    row*, with causal masking inside diagonal blocks.  The backward pass
    computes gradients for Q, K and V only through the active blocks, so both
    compute and gradient work scale with ``layout.nnz`` rather than with the
    full ``seq²`` score matrix.

    The whole SDD → masked-softmax → DSD chain is one tape node.  Forward and
    backward reuse their big ``(batch, nnz, block, block)`` buffers in place
    (masked fill / exp / normalise all mutate the score buffer; the softmax
    backward mutates the dP buffer), so beyond the block gathers each pass
    owns exactly one score-sized array — the same treatment
    :func:`repro.tensor.fused.scaled_dot_product_attention` gives the dense
    core.  With :func:`repro.tensor.fused.set_fused_kernels` disabled the
    call routes to the primitive-composition twin
    :func:`repro.tensor.reference.block_sparse_attention` instead, so the
    sparse path participates in the same fused/taped A-B switch as the dense
    kernels.
    """
    bs = layout.block_size
    batch, n_heads, seq_len, head_dim = q.shape
    if n_heads != layout.n_heads:
        raise ValueError(f"layout has {layout.n_heads} heads, tensors have {n_heads}")

    if not _fused.fused_kernels_enabled():
        return _reference.block_sparse_attention(q, k, v, layout, scale=scale)
    if streaming is None:
        streaming = _fused.streaming_attention_enabled()
    if streaming:
        return streaming_block_sparse_attention(q, k, v, layout, scale=scale,
                                                cache=cache)

    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(head_dim))
    dtype = q.data.dtype

    n_blocks = layout.n_blocks
    padded_len = n_blocks * bs
    starts = layout.row_segment_starts
    nnz = layout.nnz
    geom = (cache.lookup(layout, seq_len) if cache is not None
            else compute_block_geometry(layout, seq_len))
    seg_ids, seg_heads, seg_rows = geom.seg_ids, geom.seg_heads, geom.seg_rows
    n_row_segs = seg_heads.shape[0]
    grid_shape = (batch, n_heads, n_blocks, bs, head_dim)
    flat_shape = (batch, n_heads * n_blocks, bs, head_dim)

    rec = _plan._RECORDER
    if rec is not None and seq_len % bs != 0:
        # Ragged sequences stay interpreted: compiled replay is exercised
        # (and gated bitwise) on block-aligned shapes only.
        rec.fail("block-sparse attention over a padded sequence")
        rec = None
    alloc = np.empty if rec is not None else _arena.empty
    grids, copies = _stage((q.data, k.data, v.data), n_blocks, bs, alloc)
    q_flat, k_flat, v_flat = (grid.reshape(flat_shape) for grid in grids)
    # Block gathers as linearised ``np.take`` into bound buffers (values
    # identical to the fancy-indexed ``pad[:, heads, rows]`` form).
    q_blk = alloc((batch, nnz, bs, head_dim), dtype)
    k_blk = alloc((batch, nnz, bs, head_dim), dtype)
    v_blk = alloc((batch, nnz, bs, head_dim), dtype)
    k_blk_t = np.swapaxes(k_blk, -1, -2)
    # Scores buffer: scaled, masked, exponentiated and normalised in place —
    # it leaves ``run`` as the probability stack, with no ``np.where(...)`` /
    # exp / divide temporaries ever materialised.
    scores = alloc((batch, nnz, bs, bs), dtype)
    block_red = alloc((batch, nnz, bs), dtype)
    seg_red = alloc((batch, n_row_segs, bs), dtype)
    row_red = alloc((batch, nnz, bs), dtype)
    zero_rows = alloc((batch, nnz, bs), bool)
    ctx_blk = alloc((batch, nnz, bs, head_dim), dtype)
    ctx_seg = alloc((batch, n_row_segs, bs, head_dim), dtype)
    out5 = alloc(grid_shape, dtype)
    out5_flat = out5.reshape(flat_shape)
    neg_mask = geom.neg_element_mask[None]
    allowed = geom.element_mask_f32[None]                        # (1, nnz, bs, bs)
    row_gather, col_gather = geom.row_gather, geom.col_gather
    row_uncovered = geom.row_uncovered

    def run(scores=scores):
        for fill, src in copies:
            np.copyto(fill, src)
        np.take(q_flat, row_gather, axis=1, mode="clip", out=q_blk)
        np.take(k_flat, col_gather, axis=1, mode="clip", out=k_blk)
        np.take(v_flat, col_gather, axis=1, mode="clip", out=v_blk)
        np.matmul(q_blk, k_blk_t, out=scores)
        scores *= scale
        np.copyto(scores, _NEG_INF, where=neg_mask)
        # Row-wise softmax across blocks sharing a (head, query-row) segment.
        scores.max(axis=-1, out=block_red)
        _segment_reduce(np.maximum, block_red, starts, seg_red)
        np.take(seg_red, seg_ids, axis=1, mode="clip", out=row_red)
        scores -= row_red[..., None]
        np.exp(scores, out=scores)
        np.multiply(scores, allowed, out=scores)
        scores.sum(axis=-1, out=block_red)
        _segment_reduce(np.add, block_red, starts, seg_red)
        np.take(seg_red, seg_ids, axis=1, mode="clip", out=row_red)
        _fused.guard_zero_rows(row_red, scratch=zero_rows)
        scores /= row_red[..., None]
        np.matmul(scores, v_blk, out=ctx_blk)
        _segment_reduce(np.add, ctx_blk, starts, ctx_seg)
        out5[:, seg_heads, seg_rows] = ctx_seg
        if row_uncovered.size:
            out5_flat[:, row_uncovered] = 0.0

    _plan.emit(rec, run, "block_sparse_attention", *grids, block_red,
               seg_red, row_red, zero_rows, ctx_blk, ctx_seg)
    probs = scores                                               # (batch, nnz, bs, bs)
    out = out5.reshape(batch, n_heads, padded_len, head_dim)[:, :, :seq_len]

    def backward(grad_out: np.ndarray):
        grad_out_pad = _blockify_arena(grad_out, bs)
        dout_blk = np.take(grad_out_pad.reshape(flat_shape), row_gather,
                           axis=1, mode="clip",
                           out=_arena.empty((batch, nnz, bs, head_dim),
                                            grad_out.dtype))
        _arena.release(grad_out_pad)

        # dV: P^T @ dOut accumulated onto (head, col) blocks.
        dv_contrib = np.matmul(np.swapaxes(probs, -1, -2), dout_blk,
                               out=_arena.empty((batch, nnz, bs, head_dim), dtype))
        dv = _scatter_to_cols(dv_contrib, geom.col_order, geom, grid_shape)
        _arena.release(dv_contrib)

        # dP, then the softmax backward carried out in the same buffer
        # (dS = probs * (dP - inner_row) * scale, written into dP).
        dS = np.matmul(dout_blk, np.swapaxes(v_blk, -1, -2),
                       out=_arena.empty((batch, nnz, bs, bs), dtype))
        _arena.release(dout_blk)
        inner_blk = np.einsum("...ij,...ij->...i", dS, probs,
                              out=_arena.empty((batch, nnz, bs), dtype))
        inner_seg = _segment_reduce(np.add, inner_blk, starts,
                                    _arena.empty((batch, n_row_segs, bs), dtype))
        inner_row = np.take(inner_seg, seg_ids, axis=1, mode="clip",
                            out=_arena.empty((batch, nnz, bs), dtype))
        dS -= inner_row[..., None]
        _arena.release(inner_blk, inner_seg, inner_row)
        dS *= probs
        dS *= scale

        # dQ: contributions land on (head, row) blocks — contiguous segments.
        dq_contrib = np.matmul(dS, k_blk,
                               out=_arena.empty((batch, nnz, bs, head_dim), dtype))
        dq_seg = _segment_reduce(np.add, dq_contrib, starts,
                                 _arena.empty((batch, n_row_segs, bs, head_dim),
                                              np.float32))
        dq = _scatter_segments(dq_seg, seg_heads, seg_rows, row_uncovered,
                               grid_shape, np.float32)
        _arena.release(dq_contrib, dq_seg)

        # dK: dS^T @ Q accumulated onto (head, col) blocks.
        dk_contrib = np.matmul(np.swapaxes(dS, -1, -2), q_blk,
                               out=_arena.empty((batch, nnz, bs, head_dim), dtype))
        dk = _scatter_to_cols(dk_contrib, geom.col_order, geom, grid_shape)
        # The gathered blocks and the probability stack are dead once the
        # three gradients exist; recycling them here lets the next layer's
        # backward run in the very same (cache-hot) buffers.
        _arena.release(dk_contrib, dS, q_blk, k_blk, v_blk, probs)

        return (dq[:, :, :seq_len], dk[:, :, :seq_len], dv[:, :, :seq_len])

    return custom_op(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# streaming block-sparse attention (prefix-scheduled online softmax)
# ---------------------------------------------------------------------------

def _stream_bs_forward(q_seg, k_stream, v_stream, neg_mask, mask_f32, scale,
                       rounds, s_buf, red, corr, m_buf, lse, zero_rows, pv,
                       acc, out5, out5_flat, seg_heads, seg_rows,
                       row_uncovered):
    """Online-softmax sweep over the stream-ordered active blocks.

    Round ``j`` processes the j-th active block of every live segment; the
    descending-length stream order makes the live set a prefix, so all state
    updates are prefix-slice operations on the ``(batch, nseg, ...)``
    buffers.  After the sweep ``lse`` holds the per-row logsumexp for the
    recompute backward and ``acc`` the normalised per-segment context blocks.
    """
    m_buf.fill(-np.inf)
    lse.fill(0.0)
    acc.fill(0.0)
    for p, o0, o1 in rounds:
        s = s_buf[:, :p]
        np.matmul(q_seg[:, :p], np.swapaxes(k_stream[:, o0:o1], -1, -2),
                  out=s)
        s *= scale
        np.copyto(s, _NEG_INF, where=neg_mask[None, o0:o1])
        s.max(axis=-1, out=red[:, :p])
        np.maximum(m_buf[:, :p], red[:, :p], out=red[:, :p])
        np.subtract(m_buf[:, :p], red[:, :p], out=corr[:, :p])
        np.exp(corr[:, :p], out=corr[:, :p])
        np.copyto(m_buf[:, :p], red[:, :p])
        s -= m_buf[:, :p, :, None]
        np.exp(s, out=s)
        np.multiply(s, mask_f32[None, o0:o1], out=s)
        lse[:, :p] *= corr[:, :p]
        s.sum(axis=-1, out=red[:, :p])
        lse[:, :p] += red[:, :p]
        acc[:, :p] *= corr[:, :p, :, None]
        np.matmul(s, v_stream[:, o0:o1], out=pv[:, :p])
        acc[:, :p] += pv[:, :p]
    _fused.guard_zero_rows(lse, scratch=zero_rows)
    acc /= lse[..., None]
    np.log(lse, out=lse)
    lse += m_buf
    out5[:, seg_heads, seg_rows] = acc
    if row_uncovered.size:
        out5_flat[:, row_uncovered] = 0.0


def streaming_block_sparse_attention(q: Tensor, k: Tensor, v: Tensor,
                                     layout: MultiHeadLayout,
                                     scale: Optional[float] = None,
                                     cache: Optional[LayoutGeometryCache] = None
                                     ) -> Tensor:
    """Streaming twin of :func:`block_sparse_attention`.

    Identical math (union-of-active-blocks softmax, causal element masking,
    :func:`repro.tensor.fused.guard_zero_rows` for zero-active-block rows)
    but the score workspace is ``(batch, n_segments, block, block)`` instead
    of ``(batch, nnz, block, block)``: the kernel walks each query-row
    segment's active blocks one round at a time with online max/sum
    rescaling (the :class:`~repro.sparsity.ops.geometry_cache.StreamGeometry`
    prefix schedule), and the recompute backward re-streams the same rounds
    with the saved per-row logsumexp, writing each block's dK/dV
    contribution exactly once into a stream-ordered stack that the existing
    column-sorted segmented reduce then accumulates.  Results differ from
    the materializing kernel only by accumulation order.
    """
    bs = layout.block_size
    batch, n_heads, seq_len, head_dim = q.shape
    if n_heads != layout.n_heads:
        raise ValueError(f"layout has {layout.n_heads} heads, tensors have {n_heads}")
    if not _fused.fused_kernels_enabled():
        return _reference.block_sparse_attention(q, k, v, layout, scale=scale)

    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(head_dim))
    dtype = q.data.dtype
    geom = (cache.lookup(layout, seq_len) if cache is not None
            else compute_block_geometry(layout, seq_len))
    st = geom.stream
    nnz = layout.nnz
    n_blocks = layout.n_blocks
    nseg = st.order.shape[0]
    padded_len = n_blocks * bs
    rounds = tuple((int(c), int(st.offsets[i]), int(st.offsets[i + 1]))
                   for i, c in enumerate(st.counts))
    neg_mask, mask_f32 = st.neg_mask, st.mask_f32
    q_gather, kv_gather = st.q_gather, st.kv_gather
    seg_heads, seg_rows = st.seg_heads, st.seg_rows
    row_uncovered = geom.row_uncovered
    grid_shape = (batch, n_heads, n_blocks, bs, head_dim)
    flat_shape = (batch, n_heads * n_blocks, bs, head_dim)

    rec = _plan._RECORDER
    if rec is not None and seq_len % bs != 0:
        rec.fail("streaming block-sparse attention over a padded sequence")
        rec = None
    alloc = np.empty if rec is not None else _arena.empty
    grids, copies = _stage((q.data, k.data, v.data), n_blocks, bs, alloc)
    q_flat, k_flat, v_flat = (grid.reshape(flat_shape) for grid in grids)
    q_seg = alloc((batch, nseg, bs, head_dim), dtype)
    k_stream = alloc((batch, nnz, bs, head_dim), dtype)
    v_stream = alloc((batch, nnz, bs, head_dim), dtype)
    s_buf = alloc((batch, nseg, bs, bs), dtype)
    red = alloc((batch, nseg, bs), dtype)
    corr = alloc((batch, nseg, bs), dtype)
    m_buf = alloc((batch, nseg, bs), dtype)
    lse = alloc((batch, nseg, bs), dtype)
    zero_rows = alloc((batch, nseg, bs), bool)
    pv = alloc((batch, nseg, bs, head_dim), dtype)
    acc = alloc((batch, nseg, bs, head_dim), dtype)
    out5 = alloc(grid_shape, dtype)
    out5_flat = out5.reshape(flat_shape)

    def run():
        for fill, src in copies:
            np.copyto(fill, src)
        np.take(q_flat, q_gather, axis=1, mode="clip", out=q_seg)
        np.take(k_flat, kv_gather, axis=1, mode="clip", out=k_stream)
        np.take(v_flat, kv_gather, axis=1, mode="clip", out=v_stream)
        _stream_bs_forward(q_seg, k_stream, v_stream, neg_mask, mask_f32,
                           scale, rounds, s_buf, red, corr, m_buf, lse,
                           zero_rows, pv, acc, out5, out5_flat,
                           seg_heads, seg_rows, row_uncovered)

    # q_seg/k_stream/v_stream/acc/lse survive for the recompute backward.
    _plan.emit(rec, run, "streaming_block_sparse_attention", *grids, s_buf,
               red, corr, m_buf, zero_rows, pv)
    out = out5.reshape(batch, n_heads, padded_len, head_dim)[:, :, :seq_len]

    def backward(grad_out: np.ndarray):
        grad_out_pad = _blockify_arena(grad_out, bs)
        dout_seg = np.take(grad_out_pad.reshape(flat_shape), q_gather,
                           axis=1, mode="clip",
                           out=_arena.empty((batch, nseg, bs, head_dim),
                                            dtype))
        _arena.release(grad_out_pad)

        # delta = rowsum(dOut * Out) per segment row (acc holds the
        # normalised per-segment output blocks).
        tmp = np.multiply(dout_seg, acc,
                          out=_arena.empty((batch, nseg, bs, head_dim), dtype))
        delta = tmp.sum(axis=-1,
                        out=_arena.empty((batch, nseg, bs), dtype))
        _arena.release(tmp)

        sb = _arena.empty((batch, nseg, bs, bs), dtype)
        dpb = _arena.empty((batch, nseg, bs, bs), dtype)
        dv_stack = _arena.empty((batch, nnz, bs, head_dim), dtype)
        dk_stack = _arena.empty((batch, nnz, bs, head_dim), dtype)
        dq_scratch = _arena.empty((batch, nseg, bs, head_dim), dtype)
        dq_acc = _arena.zeros((batch, nseg, bs, head_dim), np.float32)
        for p, o0, o1 in rounds:
            s = sb[:, :p]
            # Probability tile from the saved logsumexp — same masked-fill /
            # exp / re-mask sequence as the forward, minus the running max.
            np.matmul(q_seg[:, :p], np.swapaxes(k_stream[:, o0:o1], -1, -2),
                      out=s)
            s *= scale
            np.copyto(s, _NEG_INF, where=neg_mask[None, o0:o1])
            s -= lse[:, :p, :, None]
            np.exp(s, out=s)
            np.multiply(s, mask_f32[None, o0:o1], out=s)
            np.matmul(np.swapaxes(s, -1, -2), dout_seg[:, :p],
                      out=dv_stack[:, o0:o1])
            dp = dpb[:, :p]
            np.matmul(dout_seg[:, :p],
                      np.swapaxes(v_stream[:, o0:o1], -1, -2), out=dp)
            dp -= delta[:, :p, :, None]
            dp *= s
            dp *= scale
            np.matmul(dp, k_stream[:, o0:o1], out=dq_scratch[:, :p])
            dq_acc[:, :p] += dq_scratch[:, :p]
            np.matmul(np.swapaxes(dp, -1, -2), q_seg[:, :p],
                      out=dk_stack[:, o0:o1])
        _arena.release(sb, dpb, dq_scratch, dout_seg, delta)

        dv = _scatter_to_cols(dv_stack, st.col_order, geom, grid_shape)
        _arena.release(dv_stack)
        dk = _scatter_to_cols(dk_stack, st.col_order, geom, grid_shape)
        _arena.release(dk_stack)

        dq = _scatter_segments(dq_acc, seg_heads, seg_rows, row_uncovered,
                               grid_shape, np.float32)
        # release() ignores the saved state when the plan owns it.
        _arena.release(dq_acc, q_seg, k_stream, v_stream, acc, lse)
        return (dq[:, :, :seq_len], dk[:, :, :seq_len], dv[:, :, :seq_len])

    return custom_op(out, (q, k, v), backward)
