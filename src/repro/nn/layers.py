"""Elementary layers: Linear, Embedding and LayerNorm.

Initialisation follows the conventions of the OPT / GPT-2 releases (normal
with small std for projections, ones/zeros for LayerNorm).  ``Linear`` stores
its weight in the ``(out_features, in_features)`` layout used by PyTorch
checkpoints so that model configs and parameter counts line up with the
paper's Table II.

``Linear`` and ``LayerNorm`` execute through ``repro.tensor.functional``,
which dispatches to the fused single-node kernels in
:mod:`repro.tensor.fused` by default — each forward contributes exactly one
tape node with a hand-derived backward, rather than a chain of primitive
ops.  The MLP block runs its two ``Linear`` layers and their nonlinearity
as one node, ``F.mlp``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import embedding_lookup


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 init_std: float = 0.02, rng: Optional[np.random.Generator] = None,
                 name: str = ""):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            rng.normal(0.0, init_std, size=(out_features, in_features)).astype(np.float32),
            name=f"{name}.weight" if name else "weight",
        )
        self.bias: Optional[Parameter]
        if bias:
            self.bias = Parameter(np.zeros(out_features, dtype=np.float32),
                                  name=f"{name}.bias" if name else "bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}, bias={self.bias is not None}"


class Embedding(Module):
    """Token (or position) embedding table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, init_std: float = 0.02,
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, init_std, size=(num_embeddings, embedding_dim)).astype(np.float32),
            name=f"{name}.weight" if name else "weight",
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.max(initial=0) >= self.num_embeddings or indices.min(initial=0) < 0:
            raise IndexError("embedding index out of range")
        return embedding_lookup(self.weight, indices)

    def extra_repr(self) -> str:
        return f"num={self.num_embeddings}, dim={self.embedding_dim}"


class LayerNorm(Module):
    """Layer normalisation over the last dimension with learnable affine."""

    def __init__(self, dim: int, eps: float = 1e-5, name: str = ""):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=np.float32),
                                name=f"{name}.weight" if name else "weight")
        self.bias = Parameter(np.zeros(dim, dtype=np.float32),
                              name=f"{name}.bias" if name else "bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def extra_repr(self) -> str:
        return f"dim={self.dim}, eps={self.eps}"
