"""Neural-network module library built on the :mod:`repro.tensor` engine.

Provides the building blocks of decoder-only transformers (the OPT and GPT-2
families used in the paper's evaluation): parameters and modules with
recursive parameter discovery, linear/embedding/layer-norm layers, multi-head
attention with pluggable sparse execution backends, the two-layer MLP block,
and the pre-LayerNorm decoder block that composes them.

The attention and MLP modules each run through a ``backend`` attribute
that LongExposure's engine swaps out to route computation through the
dynamic-aware sparse operators without touching model code — mirroring how
the original system patches HuggingFace modules.
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import Linear, Embedding, LayerNorm
from repro.nn.attention import MultiHeadAttention, DenseAttentionBackend
from repro.nn.mlp import MLPBlock, DenseMLPBackend
from repro.nn.block import TransformerBlock

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Embedding",
    "LayerNorm",
    "MultiHeadAttention",
    "DenseAttentionBackend",
    "MLPBlock",
    "DenseMLPBackend",
    "TransformerBlock",
]
