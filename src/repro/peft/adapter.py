"""Bottleneck adapters (Houlsby et al., 2019).

A small two-layer network with a residual connection is inserted after the
attention and MLP sub-layers of every decoder block.  The backbone stays
frozen; only the adapter weights train.  As the paper's Table I shows, the
optimizer step becomes almost free but forward/backward still traverse the
whole backbone — the cost LongExposure then removes via sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn import Linear, Module
from repro.peft.base import PEFTResult, make_result
from repro.tensor import Tensor, functional as F


@dataclass
class AdapterConfig:
    """Hyper-parameters of bottleneck-adapter injection."""

    bottleneck_dim: int = 16
    activation: str = "relu"       # "relu" or "gelu", as the MLP kernel runs
    seed: int = 0

    def __post_init__(self):
        if self.bottleneck_dim <= 0:
            raise ValueError("bottleneck_dim must be positive")
        if self.activation not in ("relu", "gelu"):
            raise ValueError(f"adapter activation must be 'relu' or 'gelu', "
                             f"got {self.activation!r}")


class BottleneckAdapter(Module):
    """Residual bottleneck adapter: ``x + up(act(down(x)))``.

    ``down -> act -> up`` is an MLP block, so it runs on the MLP kernel
    (:func:`repro.tensor.functional.mlp`), one tape node and one compiled
    plan entry, and the sum consumes its output
    (:func:`repro.tensor.functional.residual_add`).
    """

    def __init__(self, dim: int, bottleneck_dim: int, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.down = Linear(dim, bottleneck_dim, rng=rng, name=f"{name}.down")
        self.up = Linear(bottleneck_dim, dim, rng=rng, name=f"{name}.up")
        # Near-identity initialisation: zero the up-projection so the adapted
        # model starts equivalent to the frozen backbone.
        self.up.weight.data[:] = 0.0
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        down, up = self.down, self.up
        return F.residual_add(x, F.mlp(x, down.weight, down.bias, up.weight,
                                       up.bias, self.activation))


class _AdaptedSubLayer(Module):
    """Wrap a sub-layer (attention or MLP) with a trailing adapter."""

    def __init__(self, inner: Module, adapter: BottleneckAdapter):
        super().__init__()
        self.inner = inner
        self.adapter = adapter

    def forward(self, *args, **kwargs) -> Tensor:
        return self.adapter(self.inner(*args, **kwargs))

    def __getattr__(self, item):
        # Delegate attribute access (e.g. ``backend``, ``fc1``) to the wrapped
        # sub-layer so the sparsity engine can keep patching it.
        inner = self.__dict__.get("inner")
        if inner is not None and hasattr(inner, item):
            return getattr(inner, item)
        raise AttributeError(item)


def apply_adapter(model: CausalLMModel, config: Optional[AdapterConfig] = None) -> PEFTResult:
    """Freeze the backbone and insert bottleneck adapters after each sub-layer."""
    config = config or AdapterConfig()
    rng = np.random.default_rng(config.seed)
    model.freeze()

    injected = 0
    dim = model.config.dim
    for index, block in enumerate(model.blocks):
        if isinstance(block.attention, _AdaptedSubLayer) or isinstance(block.mlp, _AdaptedSubLayer):
            raise RuntimeError("adapters already applied to this model")
        attn_adapter = BottleneckAdapter(dim, config.bottleneck_dim, config.activation,
                                         rng=rng, name=f"layer{index}.attn_adapter")
        mlp_adapter = BottleneckAdapter(dim, config.bottleneck_dim, config.activation,
                                        rng=rng, name=f"layer{index}.mlp_adapter")
        injected += sum(p.numel() for p in attn_adapter.parameters())
        injected += sum(p.numel() for p in mlp_adapter.parameters())
        block.attention = _AdaptedSubLayer(block.attention, attn_adapter)
        block.mlp = _AdaptedSubLayer(block.mlp, mlp_adapter)

    return make_result(model, "adapter", injected,
                       {"bottleneck_dim": config.bottleneck_dim,
                        "activation": config.activation})
