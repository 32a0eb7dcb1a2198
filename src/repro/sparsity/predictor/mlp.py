"""MLP neuron-block predictor (paper Section V, Figure 5b).

A single trainable matrix ``W_A_hat ∈ R^{d×n_blk}`` maps each token to a
score per neuron block; thresholding and a reduction over the batch and
sequence dimensions produce the active-block set for the whole input.  The
same prediction is applied to both linear layers of the MLP because their
activation patterns are coupled (a dead hidden neuron kills a column of fc1
and a row of fc2 simultaneously).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor import arena as _arena


class MLPPredictor(Module):
    """Low-rank neuron-block activity predictor for one MLP layer."""

    def __init__(self, dim: int, hidden_dim: int, block_size: int,
                 threshold: float = 0.5, min_active_blocks: int = 1, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.block_size = block_size
        self.n_blocks = -(-hidden_dim // block_size)
        self.threshold = threshold
        self.min_active_blocks = max(1, int(min_active_blocks))
        scale = 1.0 / np.sqrt(dim)
        self.w_a = Parameter(rng.normal(0.0, scale, size=(dim, self.n_blocks)).astype(np.float32),
                             name="predictor.mlp.w_a")
        self.bias = Parameter(np.zeros(self.n_blocks, dtype=np.float32),
                              name="predictor.mlp.bias")
        # Optional fitted threshold; None keeps the fixed bar.
        self.calibration = None

    def set_calibration(self, calibration) -> None:
        """Attach an :class:`MLPCalibration` (or None to detach).

        Calibration replaces the fixed score threshold of
        :meth:`predict_active_blocks` with the threshold fitted to the
        oracle's active-block count at the calibration length.
        """
        self.calibration = calibration

    # -- training path (autograd) -----------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Per-token block logits ``(batch, seq, n_blocks)`` (pre-sigmoid)."""
        return x.matmul(self.w_a) + self.bias

    # -- inference path (pure NumPy) ----------------------------------------------------
    def block_scores(self, x: np.ndarray) -> np.ndarray:
        """Sequence-level block scores.

        Stage one scores every token independently (sigmoid of the per-token
        logits); stage two consolidates them into one score per block by
        averaging over the batch and sequence dimensions — the fraction of
        tokens for which the block is important.  Blocks that only a handful
        of tokens care about therefore score low, mirroring the exposer's
        sequence-level importance filter.
        """
        x = np.asarray(x)
        if x.ndim == 2:
            x = x[None]
        x2d = x.reshape(-1, self.dim)
        logits = np.matmul(x2d, self.w_a.data,
                           out=_arena.empty((x2d.shape[0], self.w_a.data.shape[1]),
                                            x2d.dtype))
        # The sigmoid chain mutates the logits buffer in place: this runs per
        # layer per refresh inside the fine-tuning hot loop, and the GEMM
        # output is the only (arena-recycled) allocation.
        logits += self.bias.data
        np.negative(logits, out=logits)
        np.exp(logits, out=logits)
        logits += 1.0
        np.reciprocal(logits, out=logits)
        scores = logits.mean(axis=0)
        _arena.release(logits)
        return scores

    def predict_active_blocks(self, x: np.ndarray) -> np.ndarray:
        """Indices of neuron blocks predicted active for the whole input.

        With a fitted :class:`MLPCalibration` attached, the decision bar is
        the calibrated threshold (strict comparison — the
        threshold sits *between* the oracle's last kept score and the first
        dropped one); otherwise the fixed configured threshold applies.
        """
        x = np.asarray(x)
        scores = self.block_scores(x)
        if self.calibration is not None:
            active = np.nonzero(scores > self.calibration.threshold)[0]
        else:
            active = np.nonzero(scores >= self.threshold)[0]
        if active.size < self.min_active_blocks:
            active = np.argsort(scores)[::-1][:self.min_active_blocks]
            active = np.sort(active)
        return active.astype(np.int64)

    def overhead_flops(self, seq_len: int, batch: int = 1) -> int:
        """Analytic predictor cost (Cost_A + Cost_AND of Section V-C)."""
        cost_a = batch * seq_len * self.dim * self.n_blocks
        cost_and = batch * seq_len
        return int(cost_a + cost_and)

    def extra_repr(self) -> str:
        return f"dim={self.dim}, blocks={self.n_blocks}, block_size={self.block_size}"
