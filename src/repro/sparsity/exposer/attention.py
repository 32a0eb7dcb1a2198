"""Head-specific attention mask derivation (Shadowy-sparsity Exposer).

During fine-tuning the attention scores form an ``(s, s)`` matrix per head;
a uniform mask that must retain the important scores of *every* head (the
"shadowy" approach) ends up nearly dense.  The exposer instead derives one
mask per head: block-reduce that head's attention mass and keep the fewest
blocks that carry ``coverage`` of it (:meth:`AttentionExposer.raw_block_masks`).
Those masks are what oracle mode executes, what the predictors are trained
and calibrated on, and what the Figure 9 analysis measures: head-specific
sparsity is read per head off them, shadowy sparsity off their union.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparsity.patterns import block_count, causal_block_mask


@dataclass
class AttentionSparsityReport:
    """Sparsity statistics of one attention layer for one batch.

    ``*_sparsity`` values are fractions of the *causal* score blocks that can
    be skipped (higher is sparser / cheaper).
    """

    per_head_sparsity: np.ndarray        # (heads,)
    head_specific_sparsity: float        # LongExposure: mean over heads
    shadowy_sparsity: float              # uniform mask covering all heads
    per_token_sparsity: float            # mean sparsity of individual tokens
    head_masks: np.ndarray               # (heads, n_blocks, n_blocks) bool

    def summary(self) -> str:
        return (f"head-specific={self.head_specific_sparsity:.3f} "
                f"shadowy={self.shadowy_sparsity:.3f} "
                f"per-token={self.per_token_sparsity:.3f}")


class AttentionExposer:
    """Derives per-head block masks from exact attention probabilities."""

    def __init__(self, block_size: int, coverage: float = 0.95,
                 score_threshold: float = 0.02):
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        self.block_size = block_size
        self.coverage = coverage
        self.score_threshold = score_threshold

    # -- block reduction ---------------------------------------------------------
    def block_reduce(self, probs: np.ndarray) -> np.ndarray:
        """Reduce attention probabilities to per-block mass.

        ``probs`` has shape ``(batch, heads, seq, seq)``; the result has shape
        ``(heads, n_blocks, n_blocks)`` — summed over the batch and over the
        elements of each block, then zeroed above the causal diagonal.

        The reduction runs in two per-axis stages (``np.add.reduceat`` over
        the contiguous key axis, then over the query axis) instead of one
        strided 6-D reshape-sum: the first stage is a contiguous inner
        reduction that shrinks the array by ``block_size`` before any strided
        work happens, and ragged sequence lengths need no zero-padding copy
        because ``reduceat`` segments simply end early.  This is the hot part
        of every oracle-mode attention call.
        """
        probs = np.asarray(probs)
        if probs.ndim == 3:
            probs = probs[None]
        batch, heads, seq, _ = probs.shape
        bs = self.block_size
        n_blocks = block_count(seq, bs)
        starts = np.arange(0, seq, bs)
        key_reduced = np.add.reduceat(probs, starts, axis=3)     # (b, h, seq, nb)
        reduced = np.add.reduceat(key_reduced, starts, axis=2)   # (b, h, nb, nb)
        reduced = reduced.sum(axis=0)
        reduced *= causal_block_mask(n_blocks)[None]
        return reduced

    # -- mask derivation -----------------------------------------------------------
    def raw_block_masks(self, probs: np.ndarray) -> np.ndarray:
        """Coverage-based masks, block by block.

        Keeps, per head, the smallest set of highest-mass blocks whose
        cumulative mass reaches ``coverage``, plus the diagonal.  Oracle mode
        executes these; the predictors' labels and budgets come from them.
        """
        return self.raw_masks_from_block_mass(self.block_reduce(probs))

    def raw_masks_from_block_mass(self, block_mass: np.ndarray) -> np.ndarray:
        """:meth:`raw_block_masks` of an already-reduced per-block mass (the
        predictor training labels, which ``prepare`` reduces at collection)."""
        heads, n_blocks, _ = block_mass.shape
        causal = causal_block_mask(n_blocks)
        masks = np.zeros_like(block_mass, dtype=bool)
        for h in range(heads):
            mass = block_mass[h]
            total = mass.sum()
            if total <= 0:
                masks[h] = causal
                continue
            flat = mass.reshape(-1)
            order = np.argsort(flat)[::-1]
            cumulative = np.cumsum(flat[order])
            needed = int(np.searchsorted(cumulative, self.coverage * total)) + 1
            keep = order[:needed]
            mask = np.zeros(n_blocks * n_blocks, dtype=bool)
            mask[keep] = True
            masks[h] = mask.reshape(n_blocks, n_blocks) & causal
            np.fill_diagonal(masks[h], True)
        return masks

    def uniform_block_mask(self, probs: np.ndarray) -> np.ndarray:
        """The "shadowy" baseline: one mask that covers all heads at once."""
        per_head = self.raw_block_masks(probs)
        return np.any(per_head, axis=0)

    # -- statistics -------------------------------------------------------------------
    def analyze(self, probs: np.ndarray) -> AttentionSparsityReport:
        """Full sparsity report for one layer (drives Figure 9's left panel)."""
        probs = np.asarray(probs)
        if probs.ndim == 3:
            probs = probs[None]
        masks = self.raw_block_masks(probs)
        causal_total = causal_block_mask(masks.shape[-1]).sum()
        per_head_sparsity = 1.0 - masks.sum(axis=(1, 2)) / causal_total
        shadowy = 1.0 - np.any(masks, axis=0).sum() / causal_total

        # Per-token sparsity: fraction of keys each individual query can skip
        # (threshold on its own normalised attention row).
        norm = probs / np.maximum(probs.max(axis=-1, keepdims=True), 1e-12)
        token_keep = (norm > self.score_threshold)
        causal_elems = np.tril(np.ones(probs.shape[-2:], dtype=bool))
        per_token = 1.0 - token_keep[..., causal_elems].sum() / (
            probs.shape[0] * probs.shape[1] * causal_elems.sum())

        return AttentionSparsityReport(
            per_head_sparsity=per_head_sparsity,
            head_specific_sparsity=float(per_head_sparsity.mean()),
            shadowy_sparsity=float(shadowy),
            per_token_sparsity=float(per_token),
            head_masks=masks,
        )
