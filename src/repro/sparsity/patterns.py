"""Causal block grids and the atomic sparse attention masks.

Section VI-A of the paper observes that practical sparse-attention masks are
combinations of a small set of *atomic* patterns (sliding window, global
tokens, strides, block diagonal, ...).  The engine does not snap heads onto
them: it executes each head's own block mask, because at the benchmark's
block size the widest atomic window is far narrower than the context a
typical head keeps.  The atomic masks stay as plain builders
(:data:`ATOMIC_PATTERNS`, :func:`pattern_mask`) for the fixed-mask baselines
(Longformer / BigBird), the long-context benchmark layout and the tests.

A mask here is a boolean matrix over the *block grid*: entry ``(i, j)`` says
whether the block of attention scores covering query block ``i`` and key
block ``j`` is computed.  All masks are causal (upper-triangular blocks are
never active) because the models are decoder-only.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Union

import numpy as np

Builder = Callable[[int], np.ndarray]


def block_count(seq_len: int, block_size: int) -> int:
    """Number of blocks needed to cover ``seq_len`` (ceil division)."""
    if seq_len <= 0 or block_size <= 0:
        raise ValueError("seq_len and block_size must be positive")
    return -(-seq_len // block_size)


@functools.lru_cache(128)
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


# -- atomic pattern builders -------------------------------------------------
# Each maps a grid size ``n`` to an ``(n, n)`` boolean mask; causality and the
# diagonal are imposed by :func:`pattern_mask`.

def local(window: int) -> Builder:
    """Each query block sees itself and the ``window - 1`` blocks before it."""
    def build(n: int) -> np.ndarray:
        idx = np.arange(n)
        return (idx[:, None] - idx[None, :] < window) & (idx[:, None] - idx[None, :] >= 0)
    return build


def global_tokens(width: int) -> Builder:
    """The first ``width`` key blocks (sinks) and query blocks see everything."""
    def build(n: int) -> np.ndarray:
        mask = np.zeros((n, n), dtype=bool)
        w = min(width, n)
        mask[:, :w] = True   # every query attends to the first blocks (sinks)
        mask[:w, :] = True   # the first queries attend broadly
        return mask
    return build


def strided(stride: int) -> Builder:
    """Every ``stride``-th block back from the diagonal."""
    def build(n: int) -> np.ndarray:
        idx = np.arange(n)
        return (idx[:, None] - idx[None, :]) % stride == 0
    return build


def union(*builders: Builder) -> Builder:
    """The blocks any of ``builders`` keeps."""
    def build(n: int) -> np.ndarray:
        mask = np.zeros((n, n), dtype=bool)
        for b in builders:
            mask |= b(n)
        return mask
    return build


ATOMIC_PATTERNS: Dict[str, Builder] = {
    "diag": lambda n: np.eye(n, dtype=bool),
    "local2": local(2),
    "local2+global1": union(local(2), global_tokens(1)),
    "local4": local(4),
    "local4+global1": union(local(4), global_tokens(1)),
    "strided2+local2": union(strided(2), local(2)),
    "local4+global2": union(local(4), global_tokens(2)),
    "local8+global2": union(local(8), global_tokens(2)),
    "dense": lambda n: np.ones((n, n), dtype=bool),
}


def pattern_mask(pattern: Union[str, Builder], n_blocks: int) -> np.ndarray:
    """Boolean ``(n_blocks, n_blocks)`` mask of an atomic pattern.

    ``pattern`` is a name in :data:`ATOMIC_PATTERNS` or a builder.  The mask
    is cut to the causal triangle and always keeps the diagonal: a token
    always attends to its own block, and removing it would starve the
    softmax rows.
    """
    builder = ATOMIC_PATTERNS[pattern] if isinstance(pattern, str) else pattern
    mask = builder(n_blocks) & causal_block_mask(n_blocks)
    np.fill_diagonal(mask, True)
    return mask
