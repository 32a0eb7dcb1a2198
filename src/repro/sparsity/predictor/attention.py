"""Attention sparse-pattern predictor (paper Section V, Figure 5a).

For every layer, the predictor owns per-head trainable low-rank matrices
``W_Q_hat, W_K_hat ∈ R^{d×r}`` (``r << d``).  Given the layer input ``X`` it

1. down-samples the sequence dimension by taking one representative token per
   attention block (the paper down-samples ``s -> sqrt(s)``; choosing the
   block stride makes the approximate score matrix land directly on the block
   grid the operators use),
2. computes approximate scores ``S_hat = (X W_Q_hat)(X W_K_hat)^T`` per head,
3. reduces them over the batch into one binary block mask per head — the
   calibrated per-head budget of top-scoring blocks, or uncalibrated a fixed
   threshold — which goes to the attention kernel as it is: no pattern
   vocabulary sits between the probe and the operator.

Two code paths exist: :meth:`forward` builds an autograd graph (used by the
offline trainer), while :meth:`predict_patterns` is the allocation-light pure
NumPy path used inside the fine-tuning hot loop, where the predictor runs
under ``no_grad`` and its cost is part of the measured overhead (Figure 10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.sparsity.patterns import block_count, causal_block_mask
from repro.sparsity.predictor.calibration import budget_block_masks
from repro.tensor import Tensor
from repro.tensor import arena as _arena


class AttentionPredictor(Module):
    """Per-head low-rank approximate-score predictor for one attention layer."""

    def __init__(self, dim: int, num_heads: int, rank: int, block_size: int,
                 threshold: float = 0.02, seed: int = 0):
        super().__init__()
        if rank > dim:
            raise ValueError("predictor rank must not exceed the model dimension")
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.num_heads = num_heads
        self.rank = rank
        self.block_size = block_size
        self.threshold = threshold
        scale = 1.0 / np.sqrt(dim)
        self.w_q = Parameter(rng.normal(0.0, scale, size=(num_heads, dim, rank)).astype(np.float32),
                             name="predictor.attn.w_q")
        self.w_k = Parameter(rng.normal(0.0, scale, size=(num_heads, dim, rank)).astype(np.float32),
                             name="predictor.attn.w_k")
        # Inference-path memos: representative-token indices per seq_len and
        # the per-head Q/K projections stacked into one (dim, 2·heads·rank)
        # matrix so the probe is a single GEMM.  Invalidated whenever the
        # training path runs (the only place the weights change).
        self._downsample_cache: dict = {}
        self._packed_qk: Optional[np.ndarray] = None
        # Optional fitted decision state (per-head block budget); None keeps
        # the uncalibrated fixed-threshold behaviour exactly.
        self.calibration = None

    def set_calibration(self, calibration) -> None:
        """Attach an :class:`AttentionCalibration` (or None to detach).

        Calibration replaces the fixed logit threshold of
        :meth:`predict_patterns` with per-head block budgets, fitted at the
        calibration length and kept as fractions of the causal blocks at
        every runtime length.
        """
        if calibration is not None and calibration.block_size != self.block_size:
            raise ValueError("calibration block_size does not match the predictor")
        self.calibration = calibration

    # -- shared helpers ------------------------------------------------------------
    def downsample_indices(self, seq_len: int) -> np.ndarray:
        """One representative position per attention block (centre token).

        Memoized per sequence length (the hot loop sees one or two lengths);
        the cached array is read-only.
        """
        cached = self._downsample_cache.get(seq_len)
        if cached is None:
            n_blocks = block_count(seq_len, self.block_size)
            centers = np.arange(n_blocks) * self.block_size + self.block_size // 2
            cached = np.minimum(centers, seq_len - 1)
            cached.setflags(write=False)
            self._downsample_cache[seq_len] = cached
        return cached

    def invalidate_cache(self) -> None:
        """Drop the packed-weight memo (call after mutating w_q/w_k in place)."""
        self._packed_qk = None

    # -- training path (autograd) ----------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Approximate block scores ``(batch, heads, n_blocks, n_blocks)``.

        ``x`` is the layer input of shape ``(batch, seq, dim)``; the output is
        the raw (pre-sigmoid) score of each causal block being important.
        """
        batch, seq, dim = x.shape
        idx = self.downsample_indices(seq)
        x_ds = x[:, idx, :]                                     # (batch, nb, dim)
        x_b = x_ds.reshape(batch, 1, len(idx), dim)             # broadcast over heads
        q_hat = x_b.matmul(self.w_q)                            # (batch, heads, nb, r)
        k_hat = x_b.matmul(self.w_k)
        scores = q_hat.matmul(k_hat.swapaxes(-1, -2))           # (batch, heads, nb, nb)
        # Training mutates the weights afterwards, so any packed inference
        # memo built from the old values must be dropped.
        self._packed_qk = None
        return scores * (1.0 / np.sqrt(self.rank))

    # -- inference path (pure NumPy, no graph) -----------------------------------------
    def _packed_weights(self) -> np.ndarray:
        """Per-head W_Q_hat / W_K_hat stacked into one ``(dim, 2·H·r)`` matrix."""
        if self._packed_qk is None:
            h, d, r = self.num_heads, self.dim, self.rank
            packed = np.empty((d, 2 * h * r), dtype=np.float32)
            packed[:, :h * r] = self.w_q.data.transpose(1, 0, 2).reshape(d, h * r)
            packed[:, h * r:] = self.w_k.data.transpose(1, 0, 2).reshape(d, h * r)
            self._packed_qk = packed
        return self._packed_qk

    def approximate_scores(self, x: np.ndarray) -> np.ndarray:
        """NumPy version of :meth:`forward` used in the fine-tuning hot loop.

        One stacked ``(batch·nb, dim) @ (dim, 2·heads·rank)`` GEMM produces
        every head's Q̂ and K̂ at once (the seed ran two per-head einsum
        pairs per call), followed by the small batched Q̂K̂ᵀ product.
        """
        x = np.asarray(x)
        if x.ndim == 2:
            x = x[None]
        batch, seq, dim = x.shape
        idx = self.downsample_indices(seq)
        x_ds = x[:, idx, :]                                     # (batch, nb, dim)
        nb = x_ds.shape[1]
        h, r = self.num_heads, self.rank
        packed = self._packed_weights()
        proj = np.matmul(x_ds.reshape(batch * nb, dim), packed,
                         out=_arena.empty((batch * nb, packed.shape[1]),
                                          x_ds.dtype))
        proj = proj.reshape(batch, nb, 2, h, r)
        q_hat = proj[:, :, 0].swapaxes(1, 2)                    # (batch, heads, nb, r)
        k_hat = proj[:, :, 1].swapaxes(1, 2)
        scores = np.matmul(q_hat, np.swapaxes(k_hat, -1, -2),
                           out=_arena.empty((batch, h, nb, nb), x_ds.dtype))
        _arena.release(proj.base if proj.base is not None else proj)
        scores *= np.float32(1.0 / np.sqrt(self.rank))
        return scores

    def predict_patterns(self, x: np.ndarray) -> np.ndarray:
        """Per-head boolean block masks ``(heads, n_blocks, n_blocks)`` for ``x``.

        A head's "pattern" is its mask; the kernel runs it as it is.  With a
        fitted :class:`AttentionCalibration` attached, each head keeps its
        calibrated budget of top-scoring causal blocks of the
        batch-*mean* score (:func:`budget_block_masks`, the construction the
        calibration measured): a rank cut, so the kept count stays put
        however fine-tuning shifts the score scale, and a mean, so it does
        not grow with the runtime batch size.  Uncalibrated, the scores are
        thresholded at a fixed bar directly in logit space (``σ(s) > p`` iff
        ``s > log(p / (1-p))``, so no sigmoid is materialised) and a block is
        kept if *any* sample needs it (the recall-oriented reduction of
        Figure 5).  Both restrict to the causal triangle and force the
        diagonal.
        """
        x = np.asarray(x)
        scores = self.approximate_scores(x)                     # (batch, heads, nb, nb)
        if self.calibration is not None:
            masks = budget_block_masks(scores.mean(axis=0), self.calibration.budget)
            _arena.release(scores)
            return masks
        prob_threshold = 0.5 + self.threshold
        if prob_threshold >= 1.0:
            keep = np.zeros(scores.shape[1:], dtype=bool)
        else:
            logit_threshold = np.log(prob_threshold / (1.0 - prob_threshold))
            keep = (scores > logit_threshold).any(axis=0)       # reduce over batch
        _arena.release(scores)
        n_blocks = keep.shape[-1]
        keep &= causal_block_mask(n_blocks)[None]
        keep |= np.eye(n_blocks, dtype=bool)[None]
        return keep

    def overhead_flops(self, seq_len: int, batch: int = 1) -> int:
        """Analytic predictor cost (Cost_Q + Cost_K + Cost_QK of Section V-C)."""
        nb = block_count(seq_len, self.block_size)
        cost_q = batch * self.num_heads * nb * self.dim * self.rank
        cost_k = cost_q
        cost_qk = batch * self.num_heads * nb * nb * self.rank
        return int(cost_q + cost_k + cost_qk)

    def extra_repr(self) -> str:
        return f"heads={self.num_heads}, rank={self.rank}, block={self.block_size}"
