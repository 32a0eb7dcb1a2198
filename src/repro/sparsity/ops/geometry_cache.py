"""Cached block-sparse geometry: a layout's row tiles for the attention kernel.

:func:`repro.tensor.fused.tiled_attention` takes a
:class:`~repro.tensor.fused.TileLayout`; :func:`compute_block_geometry`
derives one from a :class:`~repro.sparsity.ops.layout.MultiHeadLayout`:

* query rows are cut into **row tiles** of a whole number of blocks, the
  height picked from the layout's own padded work (:func:`choose_row_tile`);
* per tile and head, the **column list** is the union of the key blocks the
  tile's block rows keep, as linear slots of the kernel's staged K/V grid,
  padded to the tile's *capacity* (the longest list over the heads) with the
  inert all-zero slot and carried with its live count;
* the **drop mask** marks, per head, the panel entries a query row does not
  attend to — blocks another row of the tile brought in, the causal triangle
  of diagonal blocks, every padded column.  A tile whose lists are all the
  same contiguous prefix keeps no list at all: the kernel slices.

Everything depends only on ``(layout contents, seq_len)``.  Predicted
patterns repeat heavily across fine-tuning steps (the predictor chooses from
a small pattern pool, and the layout pool already canonicalises
combinations), so :class:`LayoutGeometryCache` memoizes the result under an
LRU keyed by a content signature of the layout plus the sequence length,
making repeated steps pure dictionary hits.  A cached entry is bounded by
``heads * seq²/2`` mask bytes however many blocks are active.

The cache is *purely* a memoization: a lookup returns byte-identical arrays
to a fresh computation (asserted by the test suite), so enabling it can
never change numerical results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

import numpy as np

from repro.sparsity.ops.layout import MultiHeadLayout
from repro.tensor.fused import RowTile, TileLayout

__all__ = [
    "LayoutGeometryCache",
    "choose_row_tile",
    "compute_block_geometry",
]

# What one panel column costs beyond its share of the score tile, in query
# rows: it is gathered for K and V, scatter-added for dK and dV, and starts an
# inner loop in every column-wise reduction.  Fitted on the benchmark host
# (1 x 8 x 1024 x 16, forward + backward, ten layouts x four row tiles) as
# time ~ panel area + 15 * columns; the choice lands within 5 % of the best
# measured tile on every one of them.
_PANEL_COLUMN_COST = 15
_MAX_ROW_TILE = 128


def _tile_capacities(active: np.ndarray, tile_blocks: int) -> np.ndarray:
    """Blocks in each row tile's widest per-head column union."""
    heads, n_blocks, _ = active.shape
    n_tiles = -(-n_blocks // tile_blocks)
    padded = np.zeros((heads, n_tiles * tile_blocks, n_blocks), dtype=bool)
    padded[:, :n_blocks] = active
    union = padded.reshape(heads, n_tiles, tile_blocks, n_blocks).any(axis=2)
    return np.maximum(union.sum(axis=-1).max(axis=0), 1)


def choose_row_tile(active: np.ndarray, block_size: int, seq_len: int) -> int:
    """Row-tile height (a multiple of ``block_size``) with the least padded work.

    ``active`` is the ``(heads, n_blocks, n_blocks)`` block mask.  Taller
    tiles mean fewer, larger GEMMs but wider column unions; the padded work
    of a candidate is ``sum(capacity * (rows + _PANEL_COLUMN_COST))`` over
    its tiles.  Candidates double from one block up to ``_MAX_ROW_TILE`` rows.
    """
    n_blocks = active.shape[1]
    best, best_cost = 1, None
    tile_blocks = 1
    while tile_blocks == 1 or (tile_blocks * block_size <= _MAX_ROW_TILE
                               and tile_blocks < 2 * n_blocks):
        capacity = _tile_capacities(active, tile_blocks)
        starts = np.arange(capacity.shape[0]) * tile_blocks * block_size
        rows = np.minimum(starts + tile_blocks * block_size, seq_len) - starts
        cost = int((capacity * (rows + _PANEL_COLUMN_COST)).sum())
        if best_cost is None or cost <= best_cost:
            best, best_cost = tile_blocks, cost
        tile_blocks *= 2
    return best * block_size


def compute_block_geometry(layout: MultiHeadLayout, seq_len: int,
                           row_tile: Optional[int] = None) -> TileLayout:
    """Derive the kernel's tile layout from scratch (the uncached path).

    ``row_tile`` overrides :func:`choose_row_tile` (tests and the break-even
    probe sweep it); it must be a positive multiple of the block size.
    """
    bs, n_blocks, heads = layout.block_size, layout.n_blocks, layout.n_heads
    active = np.zeros((heads, n_blocks, n_blocks), dtype=bool)
    active[layout.heads, layout.rows, layout.cols] = True
    if row_tile is None:
        row_tile = choose_row_tile(active, bs, seq_len)
    if row_tile <= 0 or row_tile % bs:
        raise ValueError(f"row_tile must be a positive multiple of the block "
                         f"size {bs}, got {row_tile}")
    tile_blocks = row_tile // bs
    trash = heads * n_blocks
    head_base = np.arange(heads)[:, None] * n_blocks
    # keep^T of a diagonal block: key offset <= query offset.
    diagonal = np.triu(np.ones((bs, bs), dtype=bool))
    tiles = []
    for b0 in range(0, n_blocks, tile_blocks):
        b1 = min(b0 + tile_blocks, n_blocks)
        r0, r1 = b0 * bs, min(b1 * bs, seq_len)
        sub = active[:, b0:b1]                               # (heads, tb, nb)
        union = sub.any(axis=1)
        live = union.sum(axis=1)
        capacity = max(int(live.max()), 1)
        # Active columns first, ascending; what follows is padding.
        order = np.argsort(~union, axis=1, kind="stable")[:, :capacity]
        valid = np.arange(capacity)[None, :] < live[:, None]
        # Block-level keep, panel-column major: (heads, capacity, tile blocks).
        kept = np.swapaxes(np.take_along_axis(sub, order[:, None, :], axis=2)
                           & valid[:, None, :], 1, 2)
        keep = np.empty((heads, capacity, bs, b1 - b0, bs), dtype=bool)
        keep[...] = kept[:, :, None, :, None]
        on_diagonal = kept & (order[:, :, None] == np.arange(b0, b1))
        hh, cc, rr = np.nonzero(on_diagonal)
        keep[hh, cc, :, rr, :] = diagonal
        drop = ~keep.reshape(heads, capacity * bs, (b1 - b0) * bs)[:, :, :r1 - r0]
        prefix = bool((live == capacity).all()
                      and (order == np.arange(capacity)).all())
        width = min(capacity * bs, seq_len) if prefix else capacity * bs
        dropped = np.flatnonzero(drop[:, :width].any(axis=(0, 2)))
        m0 = int(dropped[0]) if dropped.size else width
        tiles.append(RowTile(
            r0, r1, width,
            index=None if prefix else np.where(valid, head_base + order,
                                               trash).ravel(),
            live=live,
            drop=np.ascontiguousarray(drop[:, m0:width]) if m0 < width else None,
            m0=m0 if m0 < width else 0))
    gathers = any(tile.index is not None for tile in tiles)
    return TileLayout(tuple(tiles), block=bs if gathers else 0,
                      n_blocks=n_blocks if gathers else 0)


class LayoutGeometryCache:
    """LRU memo of tile layouts keyed by (layout signature, seq_len).

    Keyed by the layout's *content* signature rather than object identity,
    so equal layouts materialised by different code paths (the layout pool,
    ``layout_from_block_masks`` in oracle/baseline modes) share entries.
    Bounded so pathological workloads (e.g. a different random layout every
    step) cannot grow memory without limit.
    """

    def __init__(self, maxsize: int = 64):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, TileLayout]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, layout: MultiHeadLayout, seq_len: int) -> TileLayout:
        """Return the tile layout, computing and caching on first use."""
        key = (layout.signature(), int(seq_len))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = compute_block_geometry(layout, seq_len)
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
