"""Pre-LayerNorm decoder block composing attention and MLP sub-layers.

Both OPT and GPT-2 are decoder-only transformers with pre-LayerNorm residual
blocks; the only structural difference relevant to LongExposure is the MLP
activation (ReLU vs. GeLU), which is configured per model family.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import LayerNorm
from repro.nn.mlp import MLPBlock
from repro.nn.module import Module
from repro.tensor import Tensor, functional as F


class TransformerBlock(Module):
    """One decoder layer: ``x + Attn(LN(x))`` followed by ``x + MLP(LN(x))``."""

    def __init__(self, dim: int, num_heads: int, hidden_dim: int,
                 activation: str = "relu", layer_index: int = 0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(layer_index)
        self.layer_index = layer_index
        self.attn_norm = LayerNorm(dim, name=f"layer{layer_index}.attn_norm")
        self.attention = MultiHeadAttention(dim, num_heads, rng=rng,
                                            layer_index=layer_index)
        self.mlp_norm = LayerNorm(dim, name=f"layer{layer_index}.mlp_norm")
        self.mlp = MLPBlock(dim, hidden_dim, activation=activation, rng=rng,
                            layer_index=layer_index)

    def forward(self, x: Tensor, attn_mask: Optional[np.ndarray] = None) -> Tensor:
        # Each sum consumes its sub-layer's fresh output (F.residual_add).
        x = F.residual_add(x, self.attention(self.attn_norm(x), attn_mask=attn_mask))
        return F.residual_add(x, self.mlp(self.mlp_norm(x)))

    def extra_repr(self) -> str:
        return f"layer={self.layer_index}"
