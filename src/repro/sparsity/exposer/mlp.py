"""MLP neuron-block importance filtering (Shadowy-sparsity Exposer).

Per token, ReLU zeroes most hidden neurons; over a whole sequence the union
of activated neurons is much denser and scattered ("shadowy").  The exposer
scores each neuron *block* by how much activation mass it carries over the
sequence and filters out blocks below a threshold expressed as a fraction of
the peak block importance (the paper sweeps 1 %–5 %).  The surviving blocks
form a structured, hardware-friendly sparse pattern that the neuron-sparse
operators consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class MLPSparsityReport:
    """Sparsity statistics of one MLP layer for one batch."""

    per_token_sparsity: float        # mean fraction of neurons inactive per token
    shadowy_sparsity: float          # fraction of neurons inactive across the union
    filtered_sparsity: float         # block sparsity after importance filtering
    active_blocks: np.ndarray        # indices of the surviving neuron blocks
    n_blocks: int
    threshold: float

    def summary(self) -> str:
        return (f"per-token={self.per_token_sparsity:.3f} "
                f"shadowy={self.shadowy_sparsity:.3f} "
                f"filtered={self.filtered_sparsity:.3f} "
                f"({len(self.active_blocks)}/{self.n_blocks} blocks)")


class MLPExposer:
    """Filters neuron blocks by activation importance."""

    def __init__(self, block_size: int, threshold: float = 0.02,
                 min_active_blocks: int = 1):
        if not 0.0 <= threshold < 1.0:
            raise ValueError("threshold must be in [0, 1)")
        self.block_size = block_size
        self.threshold = threshold
        self.min_active_blocks = max(1, int(min_active_blocks))

    @staticmethod
    def neuron_mass(activations: np.ndarray) -> np.ndarray:
        """Per-neuron |activation| mass summed over batch and sequence:
        ``(hidden,)``, the rows added in order (axis 0 of the flattened
        ``(batch * seq, hidden)`` activations)."""
        activations = np.asarray(activations)
        return np.abs(activations).reshape(-1, activations.shape[-1]).sum(axis=0)

    def block_importance(self, activations: np.ndarray) -> np.ndarray:
        """Per-block importance: mean |activation| mass over batch and sequence.

        ``activations`` has shape ``(batch, seq, hidden)`` (post-ReLU).
        """
        return self._importance(self.neuron_mass(activations))

    def _importance(self, mass: np.ndarray) -> np.ndarray:
        """Per-block importance of a :meth:`neuron_mass`."""
        hidden = mass.shape[0]
        bs = self.block_size
        n_blocks = -(-hidden // bs)
        padded = n_blocks * bs
        if padded != hidden:
            mass = np.pad(mass, (0, padded - hidden))
        return mass.reshape(n_blocks, bs).sum(axis=1)

    def active_blocks(self, activations: np.ndarray,
                      threshold: Optional[float] = None) -> np.ndarray:
        """Indices of neuron blocks whose importance exceeds the filter threshold."""
        return self.active_blocks_from_mass(self.neuron_mass(activations), threshold)

    def active_blocks_from_mass(self, mass: np.ndarray,
                                threshold: Optional[float] = None) -> np.ndarray:
        """:meth:`active_blocks` of the activations whose :meth:`neuron_mass`
        is ``mass``."""
        threshold = self.threshold if threshold is None else threshold
        importance = self._importance(mass)
        peak = importance.max()
        if peak <= 0:
            return np.arange(min(self.min_active_blocks, importance.shape[0]))
        keep = np.nonzero(importance >= threshold * peak)[0]
        if keep.size < self.min_active_blocks:
            keep = np.argsort(importance)[::-1][:self.min_active_blocks]
            keep = np.sort(keep)
        return keep.astype(np.int64)

    def analyze(self, activations: np.ndarray,
                threshold: Optional[float] = None) -> MLPSparsityReport:
        """Full sparsity report for one layer (drives Figure 9's left panel)."""
        activations = np.asarray(activations)
        if activations.ndim == 2:
            activations = activations[None]
        threshold = self.threshold if threshold is None else threshold
        hidden = activations.shape[-1]
        flat = activations.reshape(-1, hidden)
        per_token = float((flat <= 0).mean())
        union_active = (flat > 0).any(axis=0)
        shadowy = float(1.0 - union_active.mean())
        active = self.active_blocks(activations, threshold)
        n_blocks = self.block_importance(activations).shape[0]
        filtered = float(1.0 - active.size / n_blocks)
        return MLPSparsityReport(
            per_token_sparsity=per_token,
            shadowy_sparsity=shadowy,
            filtered_sparsity=filtered,
            active_blocks=active,
            n_blocks=n_blocks,
            threshold=threshold,
        )
