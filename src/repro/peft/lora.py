"""Low-Rank Adaptation (LoRA) of linear projections.

LoRA freezes the pre-trained weight ``W`` and adds a trainable low-rank
update ``B @ A`` so the layer computes ``x W^T + (x A^T) B^T * (alpha/r)``.
Following the paper's Figure 2 analysis, both the frozen path and the
low-rank path participate in forward and backward, which is why LoRA alone
does not shrink forward/backward wall-clock — the motivation for
LongExposure.  What the frozen path can shed is bookkeeping: an adapted
projection is one :func:`repro.tensor.functional.lora_linear` call — one
tape node and one compiled-plan entry on the fused path, where the base
GEMM, two rank-r GEMMs, a scale and an add used to be five of each.

``apply_lora`` wraps the chosen projections of every decoder block with
:class:`LoRALinear`; the original ``Linear`` modules (and their parameters)
are preserved inside the wrapper so sparsity backends and the memory model
keep seeing the backbone weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn import Linear, Module
from repro.peft.base import PEFTResult, make_result
from repro.tensor import Tensor, functional as F


@dataclass
class LoRAConfig:
    """Hyper-parameters of LoRA injection."""

    rank: int = 8
    alpha: float = 16.0
    # Which projections receive adapters; q/v is the LoRA-paper default, the
    # SC paper injects into "each transformer block" so fc1/fc2 are optional.
    target_modules: Tuple[str, ...] = ("q_proj", "v_proj")
    seed: int = 0

    def __post_init__(self):
        if self.rank <= 0:
            raise ValueError("LoRA rank must be positive")
        if self.alpha <= 0:
            raise ValueError("LoRA alpha must be positive")


class LoRALinear(Module):
    """A frozen ``Linear`` plus a trainable low-rank residual branch."""

    def __init__(self, base: Linear, rank: int, alpha: float,
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.base = base
        self.rank = rank
        self.alpha = alpha
        self.scaling = alpha / rank
        in_features = base.in_features
        out_features = base.out_features
        # A ~ N(0, sigma), B = 0 so the adapted model starts identical to the
        # base model (standard LoRA initialisation).
        from repro.nn.module import Parameter
        self.lora_A = Parameter(
            rng.normal(0.0, 0.02, size=(rank, in_features)).astype(np.float32),
            name=f"{name}.lora_A")
        self.lora_B = Parameter(np.zeros((out_features, rank), dtype=np.float32),
                                name=f"{name}.lora_B")

    def forward(self, x: Tensor) -> Tensor:
        return F.lora_linear(x, self.base.weight, self.base.bias,
                             self.lora_A, self.lora_B, self.scaling)

    def merged_weight(self) -> np.ndarray:
        """Return ``W + scaling * B @ A`` (useful for tests and export)."""
        return self.base.weight.data + self.scaling * (self.lora_B.data @ self.lora_A.data)

    def extra_repr(self) -> str:
        return f"rank={self.rank}, alpha={self.alpha}"


def _iter_block_linears(block) -> List[Tuple[Module, str, Linear]]:
    """Enumerate (owner, attribute, Linear) triples inside a decoder block."""
    entries = []
    attn = block.attention
    for attr in ("q_proj", "k_proj", "v_proj", "out_proj"):
        entries.append((attn, attr, getattr(attn, attr)))
    mlp = block.mlp
    for attr in ("fc1", "fc2"):
        entries.append((mlp, attr, getattr(mlp, attr)))
    return entries


def apply_lora(model: CausalLMModel, config: Optional[LoRAConfig] = None) -> PEFTResult:
    """Freeze the backbone and inject LoRA adapters into ``model`` in-place."""
    config = config or LoRAConfig()
    rng = np.random.default_rng(config.seed)
    model.freeze()

    injected = 0
    wrapped = 0
    for index, block in enumerate(model.blocks):
        for owner, attr, linear in _iter_block_linears(block):
            if attr not in config.target_modules:
                continue
            if isinstance(linear, LoRALinear):
                raise RuntimeError("LoRA already applied to this model")
            adapter = LoRALinear(linear, config.rank, config.alpha, rng=rng,
                                 name=f"layer{index}.{attr}")
            setattr(owner, attr, adapter)
            injected += adapter.lora_A.numel() + adapter.lora_B.numel()
            wrapped += 1

    if wrapped == 0:
        raise ValueError(f"no target modules matched {config.target_modules}")
    return make_result(model, "lora", injected,
                       {"rank": config.rank, "alpha": config.alpha,
                        "target_modules": list(config.target_modules),
                        "wrapped_layers": wrapped})
