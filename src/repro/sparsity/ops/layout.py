"""Block layouts for multi-head block-sparse attention.

A :class:`MultiHeadLayout` lists the active score blocks of every head.  The
engine builds one per refresh straight from the per-head block masks
(:func:`layout_from_block_masks`).  :class:`LayoutPool` implements the paper's
Figure 6 for named atomic patterns — offline per-pattern lookup tables, online
concatenation with per-head offsets — and serves the analysis, the baselines
and the tests.

The layout is sorted by ``(head, query_row_block)`` and carries the row-
segment boundaries the standalone DSD kernel reduces over (``np.*.reduceat``
works on contiguous segments); the training kernel's capacity classes are
derived from it in :mod:`repro.sparsity.ops.geometry_cache`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparsity.patterns import PatternPool, block_count, causal_block_mask


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
    row_segment_starts:
        Start offsets (into the ``nnz`` axis) of each contiguous
        ``(head, row)`` group — the unit over which the sparse softmax
        normalises.
    pattern_names:
        The per-head atomic pattern names this layout was combined from
        (empty for custom masks).
    """

    n_heads: int
    n_blocks: int
    block_size: int
    heads: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    row_segment_starts: np.ndarray
    pattern_names: Tuple[str, ...] = ()
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
        ``layout_from_block_masks`` on different steps), which is what lets
        :class:`~repro.sparsity.ops.geometry_cache.LayoutGeometryCache` share
        derived geometry across them.  Computed once and memoized; the index
        arrays are treated as immutable after construction.
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


def _row_segments(heads: np.ndarray, rows: np.ndarray, n_blocks: int) -> np.ndarray:
    """Start indices of each contiguous (head, row) group in a sorted layout."""
    if heads.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    keys = heads.astype(np.int64) * n_blocks + rows.astype(np.int64)
    change = np.empty(keys.shape[0], dtype=bool)
    change[0] = True
    change[1:] = keys[1:] != keys[:-1]
    return np.nonzero(change)[0].astype(np.int64)


def layout_from_block_masks(block_masks: np.ndarray, block_size: int,
                            pattern_names: Tuple[str, ...] = ()) -> MultiHeadLayout:
    """Build a layout directly from per-head boolean block masks.

    ``block_masks`` has shape ``(heads, n_blocks, n_blocks)``.  The engine's
    predicted and oracle paths, the baselines (Longformer / BigBird /
    shadowy) and the tests build their layouts here; layouts of named pool
    patterns come from :meth:`LayoutPool.combine`.
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
        heads=heads, rows=rows, cols=cols,
        row_segment_starts=_row_segments(heads, rows, n_blocks),
        pattern_names=pattern_names,
    )


class LayoutPool:
    """Offline-constructed pool of per-pattern layouts with online combination.

    ``combined_cache_size`` bounds the LRU of combined multi-head layouts:
    repeated predicted pattern combinations (the common fine-tuning case —
    the predictor draws from a small atomic pool) are pure cache hits, while
    a pathological stream of never-repeating combinations cannot grow memory
    without limit.
    """

    def __init__(self, pattern_pool: PatternPool, block_size: int,
                 combined_cache_size: int = 256):
        if combined_cache_size <= 0:
            raise ValueError("combined_cache_size must be positive")
        self.pattern_pool = pattern_pool
        self.block_size = block_size
        self.combined_cache_size = combined_cache_size
        # (pattern name, n_blocks) -> sorted (rows, cols) with row segments
        self._tables: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._combined_cache: "OrderedDict[Tuple[int, Tuple[str, ...]], MultiHeadLayout]" = OrderedDict()
        self.combine_hits = 0
        self.combine_misses = 0

    # -- offline ------------------------------------------------------------------
    def construct(self, seq_lens: Sequence[int]) -> None:
        """Pre-compute lookup tables for every pattern at the given sequence lengths."""
        for seq_len in seq_lens:
            n_blocks = block_count(seq_len, self.block_size)
            for name in self.pattern_pool.names():
                self._table(name, n_blocks)

    def _table(self, name: str, n_blocks: int) -> Tuple[np.ndarray, np.ndarray]:
        key = (name, n_blocks)
        if key not in self._tables:
            rows, cols = self.pattern_pool.layout(name, n_blocks)
            order = np.lexsort((cols, rows))
            self._tables[key] = (rows[order], cols[order])
        return self._tables[key]

    def table_count(self) -> int:
        """Number of cached per-pattern lookup tables (for tests/inspection)."""
        return len(self._tables)

    # -- online -------------------------------------------------------------------
    def combine(self, head_patterns: Sequence[str], seq_len: int) -> MultiHeadLayout:
        """Combine per-head pattern names into a multi-head layout.

        Only an offset shift and concatenation happen here; the per-pattern
        index arrays come from the offline tables.  Combined layouts are
        cached by the tuple of pattern names, so repeated batches with the
        same predicted patterns pay nothing.
        """
        names = tuple(head_patterns)
        n_blocks = block_count(seq_len, self.block_size)
        cache_key = (n_blocks, names)
        cached = self._combined_cache.get(cache_key)
        if cached is not None:
            self.combine_hits += 1
            self._combined_cache.move_to_end(cache_key)
            return cached
        self.combine_misses += 1

        heads_list: List[np.ndarray] = []
        rows_list: List[np.ndarray] = []
        cols_list: List[np.ndarray] = []
        for head, name in enumerate(names):
            rows, cols = self._table(name, n_blocks)
            heads_list.append(np.full(rows.shape[0], head, dtype=np.int64))
            rows_list.append(rows)
            cols_list.append(cols)
        heads = np.concatenate(heads_list)
        rows = np.concatenate(rows_list)
        cols = np.concatenate(cols_list)
        # Per-pattern tables are already (row, col) sorted and heads are
        # appended in order, so the concatenation is already (head, row, col)
        # sorted — no argsort needed on the hot path.
        layout = MultiHeadLayout(
            n_heads=len(names), n_blocks=n_blocks, block_size=self.block_size,
            heads=heads, rows=rows, cols=cols,
            row_segment_starts=_row_segments(heads, rows, n_blocks),
            pattern_names=names,
        )
        self._combined_cache[cache_key] = layout
        if len(self._combined_cache) > self.combined_cache_size:
            self._combined_cache.popitem(last=False)
        return layout

    def dense_layout(self, n_heads: int, seq_len: int) -> MultiHeadLayout:
        """Layout equivalent to dense causal attention (for reference runs)."""
        return self.combine(["dense"] * n_heads, seq_len)
