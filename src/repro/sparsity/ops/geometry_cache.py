"""Cached block-sparse geometry: a layout's capacity classes for the attention kernel.

:func:`repro.tensor.fused.tiled_attention` takes a
:class:`~repro.tensor.fused.TileLayout`; :func:`compute_block_geometry`
derives one from a :class:`~repro.sparsity.ops.layout.MultiHeadLayout`:

* a **unit** is one ``(head, query block)``; its **panel** lists, as linear
  slots of the kernel's staged K/V grid, the earlier key blocks it keeps
  (ascending), then inert all-zero slots, then its own diagonal block;
* units are grouped into **capacity classes** by live-block count, rounded
  up to the fixed ladder ``_CAPACITY_LADDER`` (1, 2, 3, 4, 6, 8, 12, ...), so
  a unit runs at most ~1.5x the blocks it keeps however ragged the layout
  is; every unit of a class has the same panel width, and one stacked GEMM
  chain covers them all;
* a class runs in chunks of at most half a staged grid's worth
  (:func:`~repro.tensor.fused.chunk_panel_blocks`) of panel blocks, so
  kernel scratch is sized by the sequence, never by the layout;
* inside a class the ``r``-th unit of every head precedes the ``r + 1``-th
  (ascending query block), and the chunk's ``rounds`` cut those runs: a run
  holds at most one unit per head, so its key-gradient scatter has distinct
  targets, and a key block collects its gradient class by class, in
  query-block order inside a class — a fixed order, so replay is bitwise
  equal to interpreted execution.

Everything depends only on ``(layout contents, seq_len)``.
:class:`LayoutGeometryCache` memoizes the result under a content signature of
the layout plus the sequence length, so the steps that reuse a layout between
refreshes, and every layer or probe that sees the same layout, are pure
dictionary hits.  Refreshed masks rarely repeat, so the engine discards a
layout's entry when a refresh replaces it: the cache holds about one entry
per live layout, a few index arrays the size of the executed panel blocks.

The cache is *purely* a memoization: a lookup returns byte-identical arrays
to a fresh computation (asserted by the test suite), so enabling it can
never change numerical results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Optional

import numpy as np

from repro.sparsity.ops.layout import MultiHeadLayout
from repro.tensor.fused import TileLayout, UnitClass, chunk_panel_blocks

__all__ = [
    "LayoutGeometryCache",
    "compute_block_geometry",
]

# Panel capacities, in blocks: powers of two and 1.5x powers of two, so
# rounding a live-block count up pads it by less than half.
_CAPACITY_LADDER = np.array(sorted({1 << k for k in range(31)}
                                   | {3 << k for k in range(30)}))


def compute_block_geometry(layout: MultiHeadLayout, seq_len: int) -> TileLayout:
    """Derive the kernel's capacity classes from scratch (the uncached path).

    Blocks above the diagonal are ignored (attention is causal); a unit whose
    diagonal block the layout leaves out keeps an inert slot in its place, so
    a query row that keeps nothing reads exactly zero.  The classes depend on
    the block layout alone — the kernel zero-pads a ragged last block — so
    the result does not change with ``seq_len`` (:class:`LayoutGeometryCache`
    still keys entries by it).
    """
    bs, nb, heads = layout.block_size, layout.n_blocks, layout.n_heads
    lead = heads * nb
    causal = layout.cols <= layout.rows
    keep = np.zeros((heads, nb, nb), dtype=bool)
    keep[layout.heads[causal], layout.rows[causal], layout.cols[causal]] = True
    diagonal = np.where(keep[:, np.arange(nb), np.arange(nb)].ravel(),
                        np.arange(lead), lead)
    earlier = np.tril(keep, -1).reshape(lead, nb)
    count = earlier.sum(axis=1)
    capacity = np.minimum(
        _CAPACITY_LADDER[np.searchsorted(_CAPACITY_LADDER, count + 1)], nb)
    # Unit order: class by class (ascending capacity); inside a class the
    # r-th unit of every head (ascending query block) before the (r+1)-th,
    # so a run of equal rank keeps each head once — one round of the dK/dV
    # scatter — and a key block meets the class's query blocks in ascending
    # order.
    same = capacity.reshape(heads, nb, 1) == np.unique(capacity)
    rank = ((np.cumsum(same, axis=1) - 1) * same).sum(axis=2).ravel()
    units = np.lexsort((np.arange(lead) // nb, rank, capacity))
    tiles = []
    starts = np.flatnonzero(np.diff(capacity[units], prepend=-1))
    for u0, u1 in zip(starts, np.append(starts[1:], lead)):
        members, cap = units[u0:u1], int(capacity[units[u0]])
        # Each unit's earlier kept blocks, ascending, then inert padding.
        order = np.argsort(~earlier[members], axis=1, kind="stable")[:, :cap - 1]
        index = np.where(np.arange(cap - 1) < count[members, None],
                         members[:, None] // nb * nb + order, lead)
        tiles += _class_chunks(int(u0), np.c_[index, diagonal[members]],
                               rank[members], lead, chunk_panel_blocks(heads, nb))
    return TileLayout(tuple(tiles), block=bs, n_blocks=nb, units=units)


def _class_chunks(u0: int, index: np.ndarray, rank: np.ndarray, lead: int,
                  budget: int) -> List[UnitClass]:
    """Cut one capacity class into kernel chunks.

    ``index`` holds the class's panels, one row per unit from unit-order
    offset ``u0``, padded with the inert slot ``lead``; a run of equal
    ``rank`` is one scatter round.  A chunk holds at most ``budget`` panel
    blocks, or one unit.
    """
    n, cap = index.shape
    step = max(1, budget // cap)
    chunks = []
    for a in range(0, n, step):
        chunk = index[a:a + step]
        cut = np.flatnonzero(np.diff(rank[a:a + step])) + 1
        # One bool per (panel block, unit) from the first panel block an
        # inert slot fills on; none when every slot is real.
        inert = chunk == lead
        first = int(np.argmax(inert.any(axis=0)))
        drop = np.ascontiguousarray(inert[:, first:].T) if inert.any() else None
        chunks.append(UnitClass(u0 + a, u0 + a + len(chunk), cap, chunk.ravel(),
                                (0, *cut.tolist(), len(chunk)), drop, first))
    return chunks


class LayoutGeometryCache:
    """LRU memo of tile layouts keyed by (layout signature, seq_len).

    Keyed by the layout's *content* signature rather than object identity,
    so equal layouts materialised by different code paths (the engine's
    refreshes, ``layout_from_block_masks`` in the baselines and tests,
    ``LayoutPool.combine``) share entries.
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

    def peek(self, layout: MultiHeadLayout, seq_len: int) -> Optional[TileLayout]:
        """The cached tile layout, or None — counts neither a hit nor a miss."""
        return self._entries.get((layout.signature(), int(seq_len)))

    def discard(self, layout: MultiHeadLayout, seq_len: int) -> None:
        """Drop ``layout``'s entry (no-op when absent)."""
        self._entries.pop((layout.signature(), int(seq_len)), None)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
