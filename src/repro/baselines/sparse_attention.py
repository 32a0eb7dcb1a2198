"""Classic sparse-attention baselines: Longformer, BigBird, uniform "shadowy".

All three produce *uniform* block masks — the same mask for every head —
which is precisely the design decision the Shadowy-sparsity Exposer improves
on with head-specific masks (Figure 9's comparison).  The masks are expressed
on the same block grid as LongExposure's layouts, so they can be executed by
the same dynamic-aware operators and compared like-for-like.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.sparsity.exposer import AttentionExposer
from repro.sparsity.ops.block_sparse import block_sparse_attention
from repro.sparsity.ops.geometry import compute_block_geometry
from repro.sparsity.ops.layout import MultiHeadLayout, layout_from_block_masks
from repro.sparsity.patterns import block_count, global_tokens, local, pattern_mask, union


def longformer_block_masks(seq_len: int, num_heads: int, block_size: int,
                           window_blocks: int = 4, global_blocks: int = 1) -> np.ndarray:
    """Sliding-window + leading-global-token mask, identical for every head."""
    mask = pattern_mask(union(local(window_blocks), global_tokens(global_blocks)),
                        block_count(seq_len, block_size))
    return np.repeat(mask[None], num_heads, axis=0)


def bigbird_block_masks(seq_len: int, num_heads: int, block_size: int,
                        window_blocks: int = 3, global_blocks: int = 1,
                        random_blocks: int = 2, seed: int = 0) -> np.ndarray:
    """Window + global + random blocks (the BigBird recipe), uniform across heads."""
    n_blocks = block_count(seq_len, block_size)
    rng = np.random.default_rng(seed)
    mask = longformer_block_masks(seq_len, 1, block_size, window_blocks, global_blocks)[0]
    for row in range(n_blocks):
        picks = rng.choice(row + 1, size=min(random_blocks, row + 1), replace=False)
        mask[row, picks] = True
    return np.repeat(mask[None], num_heads, axis=0)


def shadowy_uniform_masks(attention_probs: np.ndarray, exposer: AttentionExposer,
                          num_heads: Optional[int] = None) -> np.ndarray:
    """The "shadowy" ablation: one mask covering the significant scores of all heads."""
    uniform = exposer.uniform_block_mask(attention_probs)
    heads = num_heads or attention_probs.shape[1]
    return np.repeat(uniform[None], heads, axis=0)


class FixedMaskAttentionBackend:
    """Attention backend executing a fixed (input-independent) block mask.

    This is how pre-defined sparse-attention methods behave: the mask is
    chosen once per sequence length, not per input, and is shared by all
    heads.  Reuses LongExposure's block-sparse kernel so the comparison in
    Figure 9 isolates the *mask quality*, not the kernel implementation.
    The kernel's capacity classes are computed once, here, with the layout.
    """

    def __init__(self, block_masks: np.ndarray, block_size: int):
        self.block_masks = np.asarray(block_masks, dtype=bool)
        self.block_size = block_size
        self.layout: MultiHeadLayout = layout_from_block_masks(self.block_masks, block_size)
        self.geometry = compute_block_geometry(self.layout,
                                               self.layout.n_blocks * block_size)

    def __call__(self, module: MultiHeadAttention, q, k, v, attn_mask, x=None):
        return block_sparse_attention(q, k, v, self.layout, geometry=self.geometry)


def install_fixed_mask_backend(model, block_masks: np.ndarray, block_size: int) -> List:
    """Install a fixed-mask backend on every layer; returns the saved backends."""
    saved = []
    for block in model.blocks:
        attention = block.attention
        inner = getattr(attention, "inner", None)
        if inner is not None:
            attention = inner
        saved.append((attention, attention.backend))
        attention.backend = FixedMaskAttentionBackend(block_masks, block_size)
    return saved


def restore_backends(saved: List) -> None:
    """Undo :func:`install_fixed_mask_backend`."""
    for attention, backend in saved:
        attention.backend = backend
