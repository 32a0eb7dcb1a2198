"""Block layouts for multi-head block-sparse attention.

A :class:`MultiHeadLayout` lists the active score blocks of every head.  Every
layout — the engine's per-refresh predicted and oracle layouts, the baselines'
fixed masks, the tests' dense and atomic-pattern layouts — is built straight
from per-head boolean block masks by :func:`layout_from_block_masks`.

The layout is sorted by ``(head, query_row_block, key_block)``; the
training kernel's capacity classes are derived from it in
:mod:`repro.sparsity.ops.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sparsity.patterns import causal_block_mask


@dataclass
class MultiHeadLayout:
    """Flattened description of the active blocks of all attention heads.

    Attributes
    ----------
    n_heads, n_blocks, block_size:
        Geometry of the block grid.
    heads, rows, cols:
        1-D int arrays of equal length ``nnz`` listing the active blocks,
        sorted by ``(head, row, col)``.
    """

    n_heads: int
    n_blocks: int
    block_size: int
    heads: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    # Lazily-computed content signature (see signature()).
    _signature: Optional[Tuple] = None

    @property
    def nnz(self) -> int:
        """Number of active blocks across all heads."""
        return int(self.heads.shape[0])

    def signature(self) -> Tuple:
        """Hashable content signature identifying this layout's active blocks.

        Two layouts with the same geometry and active-block set produce the
        same signature even when they are distinct objects (e.g. built by
        ``layout_from_block_masks`` on different steps): the engine keeps a
        backend's capacity classes, and reads zero drift, across equal
        signatures.  Computed once and memoized; the index arrays are
        treated as immutable after construction.
        """
        if self._signature is None:
            object.__setattr__(self, "_signature", (
                self.n_heads, self.n_blocks, self.block_size,
                self.heads.tobytes(), self.rows.tobytes(), self.cols.tobytes(),
            ))
        return self._signature

    @property
    def total_causal_blocks(self) -> int:
        """Number of blocks a dense causal computation would touch."""
        return int(self.n_heads * (self.n_blocks * (self.n_blocks + 1)) // 2)

    def density(self) -> float:
        """Active fraction of the causal block grid (1.0 = dense)."""
        return self.nnz / max(self.total_causal_blocks, 1)

    def sparsity(self) -> float:
        """1 - density: fraction of causal blocks skipped."""
        return 1.0 - self.density()

    def head_sparsity(self) -> np.ndarray:
        """Per-head fraction of causal blocks skipped, ``(n_heads,)``."""
        active = np.bincount(self.heads, minlength=self.n_heads)
        return 1.0 - active / (self.n_blocks * (self.n_blocks + 1) // 2)

    def head_mask(self, head: int) -> np.ndarray:
        """Boolean block mask of a single head (for inspection / tests)."""
        mask = np.zeros((self.n_blocks, self.n_blocks), dtype=bool)
        sel = self.heads == head
        mask[self.rows[sel], self.cols[sel]] = True
        return mask

    def to_dense_mask(self, seq_len: int) -> np.ndarray:
        """Expand to an element-level boolean mask ``(heads, seq, seq)``."""
        bs = self.block_size
        mask = np.zeros((self.n_heads, self.n_blocks * bs, self.n_blocks * bs), dtype=bool)
        for h, r, c in zip(self.heads, self.rows, self.cols):
            mask[h, r * bs:(r + 1) * bs, c * bs:(c + 1) * bs] = True
        # Element-level causality inside diagonal blocks.
        causal = np.tril(np.ones((seq_len, seq_len), dtype=bool))
        return mask[:, :seq_len, :seq_len] & causal


def _sort_layout(heads: np.ndarray, rows: np.ndarray, cols: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = np.lexsort((cols, rows, heads))
    return heads[order], rows[order], cols[order]


def layout_from_block_masks(block_masks: np.ndarray, block_size: int) -> MultiHeadLayout:
    """Build a layout directly from per-head boolean block masks.

    ``block_masks`` has shape ``(heads, n_blocks, n_blocks)``; blocks above
    the causal diagonal are dropped and the diagonal is always kept.
    """
    block_masks = np.asarray(block_masks, dtype=bool)
    if block_masks.ndim != 3:
        raise ValueError("block_masks must have shape (heads, n_blocks, n_blocks)")
    n_heads, n_blocks, _ = block_masks.shape
    causal = causal_block_mask(n_blocks)
    block_masks = block_masks & causal
    # Guarantee the diagonal so no softmax row is empty.
    diag = np.eye(n_blocks, dtype=bool)
    block_masks = block_masks | diag[None, :, :]
    heads, rows, cols = np.nonzero(block_masks)
    heads, rows, cols = _sort_layout(heads.astype(np.int64), rows.astype(np.int64),
                                     cols.astype(np.int64))
    return MultiHeadLayout(
        n_heads=n_heads, n_blocks=n_blocks, block_size=block_size,
        heads=heads, rows=rows, cols=cols)
