"""Atomic sparse attention patterns and the offline pattern pool.

Section VI-A of the paper observes that practical sparse-attention masks are
combinations of a small set of *atomic* patterns (sliding window, global
tokens, strides, block diagonal, ...) and pre-computes their block layouts
offline ("Offline Pool Construction", :class:`~repro.sparsity.ops.layout.LayoutPool`).
This repository keeps the pool as a library piece — the Figure 9 analysis,
the baselines and the tests match heads onto it — but the engine executes
each head's own block mask: at the benchmark's block size the pool's widest
window is far narrower than the context a typical head keeps, so matching
would fall back to ``dense`` and forfeit the sparsity the mask has.

A pattern here is a boolean matrix over the *block grid*: entry ``(i, j)``
says whether the block of attention scores covering query block ``i`` and key
block ``j`` is computed.  All patterns are causal (upper-triangular blocks are
never active) because the models are decoder-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def block_count(seq_len: int, block_size: int) -> int:
    """Number of blocks needed to cover ``seq_len`` (ceil division)."""
    if seq_len <= 0 or block_size <= 0:
        raise ValueError("seq_len and block_size must be positive")
    return -(-seq_len // block_size)


@functools.lru_cache(maxsize=128)
def _cached_causal_block_mask(n_blocks: int) -> np.ndarray:
    mask = np.tril(np.ones((n_blocks, n_blocks), dtype=bool))
    # Shared across every caller at this grid size; freeze it so an
    # accidental in-place edit cannot poison later lookups (callers that
    # combine it always allocate via ``&`` / ``*`` / ``astype``).
    mask.setflags(write=False)
    return mask


def causal_block_mask(n_blocks: int) -> np.ndarray:
    """Full causal block mask (every block on or below the diagonal).

    Cached per grid size and returned read-only: the exposer, the predictors
    and the layout builders all consult it on every mask derivation, and the
    block grids in play at any time form a tiny set.
    """
    return _cached_causal_block_mask(int(n_blocks))


@dataclass(frozen=True)
class AtomicPattern:
    """A named atomic sparse pattern over a causal block grid."""

    name: str
    builder: Callable[[int], np.ndarray]

    def mask(self, n_blocks: int) -> np.ndarray:
        """Boolean block mask of shape ``(n_blocks, n_blocks)`` (causal)."""
        mask = self.builder(n_blocks) & causal_block_mask(n_blocks)
        # The diagonal must always be present: a token always attends to its
        # own block, and removing it would starve the softmax rows.
        np.fill_diagonal(mask, True)
        return mask

    def density(self, n_blocks: int) -> float:
        """Fraction of *causal* blocks that this pattern activates."""
        mask = self.mask(n_blocks)
        causal = causal_block_mask(n_blocks)
        return float(mask.sum() / causal.sum())


# -- atomic pattern builders -------------------------------------------------

def _local(window: int) -> Callable[[int], np.ndarray]:
    def build(n: int) -> np.ndarray:
        idx = np.arange(n)
        return (idx[:, None] - idx[None, :] < window) & (idx[:, None] - idx[None, :] >= 0)
    return build


def _global(width: int) -> Callable[[int], np.ndarray]:
    def build(n: int) -> np.ndarray:
        mask = np.zeros((n, n), dtype=bool)
        w = min(width, n)
        mask[:, :w] = True   # every query attends to the first blocks (sinks)
        mask[:w, :] = True   # the first queries attend broadly
        return mask
    return build


def _strided(stride: int) -> Callable[[int], np.ndarray]:
    def build(n: int) -> np.ndarray:
        idx = np.arange(n)
        return (idx[:, None] - idx[None, :]) % stride == 0
    return build


def _diagonal() -> Callable[[int], np.ndarray]:
    def build(n: int) -> np.ndarray:
        return np.eye(n, dtype=bool)
    return build


def _dense() -> Callable[[int], np.ndarray]:
    def build(n: int) -> np.ndarray:
        return np.ones((n, n), dtype=bool)
    return build


def _combine(*builders: Callable[[int], np.ndarray]) -> Callable[[int], np.ndarray]:
    def build(n: int) -> np.ndarray:
        mask = np.zeros((n, n), dtype=bool)
        for b in builders:
            mask |= b(n)
        return mask
    return build


def build_default_pool(extra: Optional[Sequence[AtomicPattern]] = None) -> "PatternPool":
    """The default atomic pattern pool (the engine's exposer matches onto it).

    Ordered roughly by density so that pattern matching can pick the cheapest
    pattern that reaches the required coverage.
    """
    patterns = [
        AtomicPattern("diag", _diagonal()),
        AtomicPattern("local2", _local(2)),
        AtomicPattern("local2+global1", _combine(_local(2), _global(1))),
        AtomicPattern("local4", _local(4)),
        AtomicPattern("local4+global1", _combine(_local(4), _global(1))),
        AtomicPattern("strided2+local2", _combine(_strided(2), _local(2))),
        AtomicPattern("local4+global2", _combine(_local(4), _global(2))),
        AtomicPattern("local8+global2", _combine(_local(8), _global(2))),
        AtomicPattern("dense", _dense()),
    ]
    if extra:
        patterns.extend(extra)
    return PatternPool(patterns)


class PatternPool:
    """Pool of atomic patterns with offline-precomputed block layouts.

    ``layout(name, n_blocks)`` returns the ``(rows, cols)`` index arrays of
    the active blocks — the "lookup tables" of Figure 6.  Layouts are cached
    per (pattern, n_blocks) pair, so the expensive index construction happens
    once (offline) and runtime work reduces to a dictionary lookup plus an
    offset shift.
    """

    def __init__(self, patterns: Sequence[AtomicPattern]):
        if not patterns:
            raise ValueError("pattern pool cannot be empty")
        self.patterns: Dict[str, AtomicPattern] = {p.name: p for p in patterns}
        self._ordered: List[AtomicPattern] = sorted(patterns,
                                                    key=lambda p: p.density(16))
        self._layout_cache: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._mask_cache: Dict[Tuple[str, int], np.ndarray] = {}
        # n_blocks -> (P, n_blocks²) float64 matrix of the ordered pattern
        # masks, used by the vectorised match_many (one GEMM per call).
        self._mask_matrix_cache: Dict[int, np.ndarray] = {}

    # -- offline construction ---------------------------------------------------
    def precompute(self, n_blocks: int) -> None:
        """Populate the layout cache for every pattern at ``n_blocks``."""
        for name in self.patterns:
            self.layout(name, n_blocks)

    def names(self) -> List[str]:
        return [p.name for p in self._ordered]

    def mask(self, name: str, n_blocks: int) -> np.ndarray:
        key = (name, n_blocks)
        if key not in self._mask_cache:
            self._mask_cache[key] = self.patterns[name].mask(n_blocks)
        return self._mask_cache[key]

    def layout(self, name: str, n_blocks: int) -> Tuple[np.ndarray, np.ndarray]:
        """Active block coordinates ``(rows, cols)`` for a pattern."""
        key = (name, n_blocks)
        if key not in self._layout_cache:
            mask = self.mask(name, n_blocks)
            rows, cols = np.nonzero(mask)
            self._layout_cache[key] = (rows.astype(np.int64), cols.astype(np.int64))
        return self._layout_cache[key]

    def cost(self, name: str, n_blocks: int) -> int:
        """Number of active blocks (proportional to compute cost)."""
        rows, _ = self.layout(name, n_blocks)
        return int(rows.shape[0])

    # -- pattern matching -----------------------------------------------------------
    def match(self, block_scores: np.ndarray, coverage: float = 0.95) -> str:
        """Pick the cheapest atomic pattern covering ``coverage`` of the mass.

        ``block_scores`` is a non-negative ``(n_blocks, n_blocks)`` matrix of
        per-block attention mass (already causal).  The match criterion is
        recall-oriented: the selected pattern must retain at least ``coverage``
        of the total mass; among the patterns that do, the one with the fewest
        active blocks wins.  ``dense`` always qualifies, so the method is
        total.
        """
        block_scores = np.asarray(block_scores, dtype=np.float64)
        if block_scores.ndim != 2 or block_scores.shape[0] != block_scores.shape[1]:
            raise ValueError("block_scores must be a square matrix")
        n_blocks = block_scores.shape[0]
        total = block_scores.sum()
        if total <= 0:
            return self._ordered[0].name
        best_name = "dense"
        for pattern in self._ordered:
            mask = self.mask(pattern.name, n_blocks)
            covered = block_scores[mask].sum() / total
            if covered >= coverage:
                best_name = pattern.name
                break
        return best_name

    def _mask_matrix(self, n_blocks: int) -> np.ndarray:
        """Stacked ``(P, n_blocks²)`` float64 masks in :attr:`_ordered` order."""
        cached = self._mask_matrix_cache.get(n_blocks)
        if cached is None:
            cached = np.stack([
                self.mask(p.name, n_blocks).reshape(-1).astype(np.float64)
                for p in self._ordered])
            self._mask_matrix_cache[n_blocks] = cached
        return cached

    def match_many(self, block_scores: np.ndarray, coverage: float = 0.95) -> List[str]:
        """Vector version of :meth:`match` over the leading (head) dimension.

        All heads are matched against all patterns with a single
        ``(heads, n_blocks²) @ (n_blocks², P)`` product instead of the scalar
        per-head, per-pattern masked sums — the matcher runs once per layer
        per refresh inside the fine-tuning hot loop, and the Python
        double-loop used to dominate its cost.  Selection semantics are those
        of :meth:`match`: the first pattern in density order retaining
        ``coverage`` of the head's mass wins.
        """
        block_scores = np.asarray(block_scores, dtype=np.float64)
        if block_scores.ndim != 3 or block_scores.shape[-1] != block_scores.shape[-2]:
            raise ValueError("block_scores must have shape (heads, n, n)")
        n_heads, n_blocks, _ = block_scores.shape
        flat = block_scores.reshape(n_heads, -1)
        covered = flat @ self._mask_matrix(n_blocks).T          # (heads, P)
        totals = flat.sum(axis=1)
        qualifies = covered >= coverage * totals[:, None]
        first = np.argmax(qualifies, axis=1)
        names: List[str] = []
        for head in range(n_heads):
            if totals[head] <= 0:
                names.append(self._ordered[0].name)
            elif qualifies[head, first[head]]:
                names.append(self._ordered[first[head]].name)
            else:
                names.append("dense")
        return names
