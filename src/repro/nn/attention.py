"""Multi-head self-attention with pluggable execution backends.

The module owns the Q/K/V/output projections; the *backend* decides how the
attention scores and the context are computed.  The default
:class:`DenseAttentionBackend` is the standard O(s²) softmax attention.
LongExposure's engine replaces it with a block-sparse backend
(:class:`repro.sparsity.engine.SparseAttentionBackend`) that only computes
the score blocks selected by the per-head predicted masks — identical model
code, different kernels, exactly as the paper's system patches attention.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.tensor import Tensor, functional as F


@functools.lru_cache(128)
def _cached_causal_mask(seq_len: int) -> np.ndarray:
    mask = np.tril(np.ones((seq_len, seq_len), dtype=bool))
    # The cached array is shared across every forward pass; freeze it so an
    # accidental in-place edit cannot poison later steps (callers that need
    # to modify it, e.g. prefix tuning, copy first).
    mask.setflags(write=False)
    return mask


def causal_mask(seq_len: int) -> np.ndarray:
    """Lower-triangular boolean mask of shape ``(seq_len, seq_len)``.

    Cached per sequence length: every attention forward at the same length
    reuses one read-only array instead of allocating a fresh ``(seq, seq)``
    buffer per layer per step.
    """
    return _cached_causal_mask(int(seq_len))


class DenseAttentionBackend:
    """Standard dense scaled-dot-product attention (the baseline kernel).

    Runs the fused single-node attention core
    (:func:`repro.tensor.fused.scaled_dot_product_attention`) when the module's
    ``row_tile`` is ``None`` and the row-tiled kernel
    (:func:`repro.tensor.functional.streaming_attention`) ``row_tile`` rows
    high otherwise; inside :func:`repro.tensor.fused.reference_kernels` both
    route to the taped matmul / scale / masked-softmax / matmul composition.
    """

    def __call__(self, module: "MultiHeadAttention", q: Tensor, k: Tensor, v: Tensor,
                 attn_mask: Optional[np.ndarray], x: Optional[Tensor] = None) -> Tensor:
        # q, k, v: (batch, heads, seq, head_dim); x is the pre-projection layer
        # input, unused by the dense kernel but consumed by sparse backends.
        scale = 1.0 / np.sqrt(module.head_dim)
        if module.row_tile is not None:
            return F.streaming_attention(q, k, v, attn_mask, scale=scale,
                                         tile=module.row_tile)
        return F.scaled_dot_product_attention(q, k, v, attn_mask, scale=scale)


class MultiHeadAttention(Module):
    """Multi-head self-attention block of a decoder layer.

    Parameters
    ----------
    dim:
        Model (embedding) dimension.
    num_heads:
        Number of attention heads; ``dim`` must be divisible by it.
    dropout:
        Attention-output dropout probability.
    """

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None, layer_index: int = 0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} is not divisible by num_heads={num_heads}")
        rng = rng if rng is not None else np.random.default_rng(layer_index + 1)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.layer_index = layer_index

        self.q_proj = Linear(dim, dim, rng=rng, name=f"layer{layer_index}.attn.q_proj")
        self.k_proj = Linear(dim, dim, rng=rng, name=f"layer{layer_index}.attn.k_proj")
        self.v_proj = Linear(dim, dim, rng=rng, name=f"layer{layer_index}.attn.v_proj")
        self.out_proj = Linear(dim, dim, rng=rng, name=f"layer{layer_index}.attn.out_proj")
        self.dropout = Dropout(dropout, seed=layer_index)

        # Swappable kernel; LongExposure installs a sparse backend here.
        self.backend = DenseAttentionBackend()
        # Dense attention's row tile: None materialises the (seq, seq)
        # scores, an int runs the row-tiled kernel that many rows high.
        # FineTuner sets it from AttentionConfig; it lives here rather than
        # on the backend so it survives engine.install / uninstall.
        self.row_tile: Optional[int] = None

    # -- helpers ---------------------------------------------------------------
    def split_heads(self, x: Tensor) -> Tensor:
        """(batch, seq, dim) -> (batch, heads, seq, head_dim)."""
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def merge_heads(self, x: Tensor) -> Tensor:
        """(batch, heads, seq, head_dim) -> (batch, seq, dim)."""
        batch, heads, seq, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)

    # -- forward -----------------------------------------------------------------
    def forward(self, x: Tensor, attn_mask: Optional[np.ndarray] = None) -> Tensor:
        """Self-attention over ``x`` of shape ``(batch, seq, dim)``.

        ``attn_mask`` is an optional boolean mask broadcastable to
        ``(batch, heads, seq, seq)``; ``None`` means causal masking is applied
        by default (decoder-only models).
        """
        seq_len = x.shape[1]
        if attn_mask is None:
            attn_mask = causal_mask(seq_len)

        q = self.split_heads(self.q_proj(x))
        k = self.split_heads(self.k_proj(x))
        v = self.split_heads(self.v_proj(x))

        context = self.backend(self, q, k, v, attn_mask, x)
        out = self.out_proj(self.merge_heads(context))
        return self.dropout(out)

    def extra_repr(self) -> str:
        return f"dim={self.dim}, heads={self.num_heads}"
