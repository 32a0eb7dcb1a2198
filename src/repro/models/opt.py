"""OPT model family (Zhang et al., 2022): ReLU-activated decoder-only LM.

ReLU MLPs are what gives OPT its exploitable activation sparsity; this class
exists mostly to validate the configuration and to give the PEFT / sparsity
layers a family-specific type to dispatch on.
"""

from __future__ import annotations

from repro.models.base import CausalLMModel
from repro.models.config import ModelConfig


class OPTModel(CausalLMModel):
    """Decoder-only LM with ReLU MLP blocks (the OPT family)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        if config.family != "opt":
            raise ValueError(f"OPTModel requires an 'opt' family config, got {config.family!r}")
        if config.activation != "relu":
            raise ValueError("OPT models use ReLU activations")
        super().__init__(config, seed=seed)
