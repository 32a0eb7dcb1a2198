"""Cached block-sparse geometry: a layout's row tiles for the attention kernel.

:func:`repro.tensor.fused.tiled_attention` takes a
:class:`~repro.tensor.fused.TileLayout`; :func:`compute_block_geometry`
derives one from a :class:`~repro.sparsity.ops.layout.MultiHeadLayout`:

* query rows are cut into **row tiles** of a whole number of blocks, the
  height picked from the layout's own padded work (:func:`choose_row_tile`);
* per tile and head, the **column list** holds, as linear slots of the
  kernel's staged K/V grid, the earlier key blocks some row of the tile
  keeps (ascending), then inert all-zero slots up to the tile's *capacity*
  (the longest list over the heads), then the tile's own key blocks — so
  every head's diagonal blocks sit at the same panel offset;
* two masks mark what a query row does not attend to: the causal triangle
  over the own key blocks, one read-only array shared by every tile of its
  shape, and a **block-level drop** per head, panel block and query row —
  blocks another row of the tile brought in, padded blocks.  A tile whose
  lists are all the contiguous key prefix keeps no list: the kernel slices.

Everything depends only on ``(layout contents, seq_len)``.
:class:`LayoutGeometryCache` memoizes the result under a content signature of
the layout plus the sequence length, so the steps that reuse a layout between
refreshes, and every layer or probe that sees the same layout, are pure
dictionary hits.  Refreshed masks rarely repeat, so the engine discards a
layout's entry when a refresh replaces it: the cache holds about one entry
per live layout.  Masks are kept per block column, so an entry holds about
``heads * seq² / (2 * block)`` bytes however many blocks are active.

The cache is *purely* a memoization: a lookup returns byte-identical arrays
to a fresh computation (asserted by the test suite), so enabling it can
never change numerical results.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _causal_drop(width: int, rows: int) -> np.ndarray:
    """Read-only ``(width, rows)`` mask of key offset > query offset: the
    causal triangle over a tile's own key range, shared by every tile of
    that shape."""
    drop = np.arange(width)[:, None] > np.arange(rows)[None, :]
    drop.setflags(write=False)
    return drop


def _row_tile(active: np.ndarray, b0: int, b1: int, bs: int,
              seq_len: int) -> RowTile:
    """The row tile of query block rows ``[b0, b1)`` (see the module docstring)."""
    heads, n_blocks, _ = active.shape
    r0, r1 = b0 * bs, min(b1 * bs, seq_len)
    own = np.arange(b0, b1)
    sub = active[:, b0:b1, :b1]                              # (heads, tb, b1)
    # Earlier key blocks some row of the tile keeps, ascending; padding; then
    # the tile's own key blocks, where every head's diagonal sits.
    before = sub[:, :, :b0].any(axis=1)
    count = before.sum(axis=1)
    most = int(count.max())
    order = np.argsort(~before, axis=1, kind="stable")[:, :most]
    valid = np.arange(most)[None, :] < count[:, None]
    keys = np.concatenate([order, np.broadcast_to(own, (heads, own.size))],
                          axis=1)                            # (heads, capacity)
    # Block-level keep, panel-block major: (heads, capacity, tile blocks).
    # Own blocks right of a row's diagonal are the causal triangle's.
    kept = np.swapaxes(np.take_along_axis(sub, keys[:, None, :], axis=2), 1, 2)
    kept[:, :most] &= valid[:, :, None]
    kept |= keys[:, :, None] > own[None, None, :]
    dropped = np.flatnonzero(~kept.all(axis=(0, 2)))
    lo = int(dropped[0]) if dropped.size else 0
    block_drop = np.nonzero(~kept[:, lo:]) if dropped.size else None
    if (count == b0).all() and (block_drop is None or r1 == b1 * bs):
        # Every head's panel is the contiguous key prefix: slice it.
        return RowTile(r0, r1, r1, drop=_causal_drop(r1 - r0, r1 - r0), m0=r0,
                       block_drop=block_drop, block_m0=lo * bs)
    head_base = np.arange(heads)[:, None] * n_blocks
    slots = np.concatenate([np.where(valid, head_base + order, heads * n_blocks),
                            head_base + own[None, :]], axis=1)
    return RowTile(r0, r1, keys.shape[1] * bs, index=slots.ravel(),
                   live=count + own.size, drop=_causal_drop(own.size * bs, r1 - r0),
                   m0=most * bs, block_drop=block_drop, block_m0=lo * bs)


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
    tiles = []
    for b0 in range(0, n_blocks, tile_blocks):
        b1 = min(b0 + tile_blocks, n_blocks)
        tile = _row_tile(active, b0, b1, bs, seq_len)
        if (tile.block_drop is not None and b1 - b0 > 1
                and tile.r1 - tile.r0 < (b1 - b0) * bs):
            # A partial block row does not split the tile's rows into whole
            # blocks, as the block-level drop needs: it gets a tile of its own.
            tiles += [_row_tile(active, b0, b1 - 1, bs, seq_len),
                      _row_tile(active, b1 - 1, b1, bs, seq_len)]
        else:
            tiles.append(tile)
    gathers = any(tile.index is not None for tile in tiles)
    return TileLayout(tuple(tiles), block=bs, n_blocks=n_blocks if gathers else 0)


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

    def discard(self, layout: MultiHeadLayout, seq_len: int) -> None:
        """Drop ``layout``'s entry (no-op when absent)."""
        self._entries.pop((layout.signature(), int(seq_len)), None)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
