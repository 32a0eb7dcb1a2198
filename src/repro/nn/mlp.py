"""Transformer MLP (feed-forward) block with pluggable execution backends.

The block is the usual ``fc1 -> activation -> fc2`` expansion.  The default
:class:`DenseMLPBackend` runs both linear layers densely; LongExposure's
engine swaps in a neuron-sparse backend that only loads and multiplies the
columns of ``fc1`` / rows of ``fc2`` whose neuron blocks the predictor marks
active (Section VI-B of the paper).  On the fused path both run one body,
:func:`repro.tensor.fused.mlp_rows`, a chunk of rows at a time: the
``(rows, hidden)`` activation exists whole only where a trainable
parameter's gradient reads it.

Backends may expose ``last_activations`` with the post-activation values of
the most recent forward pass; the predictor data-collection pass and the
sparsity-statistics analysis read it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.tensor import Tensor, fused, functional as F


class DenseMLPBackend:
    """Baseline dense execution of the MLP block.

    On the fused path the whole block is one tape node (``F.mlp``), which
    walks the rows a chunk at a time: the ``(rows, hidden)`` activation is
    never a graph Tensor, and its backward keeps only what the trainable
    set needs (see :func:`repro.tensor.fused.mlp`):

    * every MLP parameter frozen (LoRA on the attention projections): the
      ReLU mask, or GeLU's pre-activation and tanh term;
    * a trainable fc1 weight or bias (BitFit): also the whole activation
      gradient, and fc1's input for its weight;
    * a trainable fc2 weight: also the whole hidden activation.

    The fusion only applies when both layers are plain
    :class:`~repro.nn.layers.Linear` modules — PEFT wrappers such as LoRA
    replace them with composite modules that must run their own forward —
    and is skipped while capturing activations, because the predictor
    data-collection pass needs the post-activation Tensor.
    """

    def __init__(self, capture_activations: bool = False):
        self.capture_activations = capture_activations
        self.last_activations: Optional[np.ndarray] = None

    def __call__(self, module: "MLPBlock", x: Tensor) -> Tensor:
        fc1, fc2 = module.fc1, module.fc2
        if (fused.fused_kernels_enabled() and not self.capture_activations
                and type(fc1) is Linear and type(fc2) is Linear):
            return F.mlp(x, fc1.weight, fc1.bias, fc2.weight, fc2.bias,
                         activation=module.activation_name)
        hidden = getattr(fc1(x), module.activation_name)()   # Tensor.relu / .gelu
        if self.capture_activations:
            self.last_activations = hidden.data.copy()
        return fc2(hidden)


class MLPBlock(Module):
    """Position-wise feed-forward block ``fc2(act(fc1(x)))``.

    Parameters
    ----------
    dim:
        Model dimension.
    hidden_dim:
        Expansion dimension (4x ``dim`` for OPT/GPT-2).
    activation:
        ``"relu"`` (OPT — sparsity-friendly) or ``"gelu"`` (GPT-2).
    """

    def __init__(self, dim: int, hidden_dim: int, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None, layer_index: int = 0):
        super().__init__()
        if activation not in ("relu", "gelu"):
            raise ValueError(f"MLP activation must be 'relu' or 'gelu', got {activation!r}")
        rng = rng if rng is not None else np.random.default_rng(100 + layer_index)
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.activation_name = activation
        self.layer_index = layer_index

        self.fc1 = Linear(dim, hidden_dim, rng=rng, name=f"layer{layer_index}.mlp.fc1")
        self.fc2 = Linear(hidden_dim, dim, rng=rng, name=f"layer{layer_index}.mlp.fc2")

        # Swappable kernel; LongExposure installs a neuron-sparse backend here.
        self.backend = DenseMLPBackend()

    def forward(self, x: Tensor) -> Tensor:
        return self.backend(self, x)

    def extra_repr(self) -> str:
        return f"dim={self.dim}, hidden={self.hidden_dim}, act={self.activation_name}"
