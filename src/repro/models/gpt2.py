"""GPT-2 model family (Radford et al., 2019): GeLU-activated decoder-only LM.

Because GeLU does not produce exact zeros, the paper applies only the
attention-side LongExposure optimisations to GPT-2 (Figure 13); the engine
checks ``config.activation`` to make the same decision here.
"""

from __future__ import annotations

from repro.models.base import CausalLMModel
from repro.models.config import ModelConfig


class GPT2Model(CausalLMModel):
    """Decoder-only LM with GeLU MLP blocks (the GPT-2 family)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        if config.family != "gpt2":
            raise ValueError(f"GPT2Model requires a 'gpt2' family config, got {config.family!r}")
        if config.activation != "gelu":
            raise ValueError("GPT-2 models use GeLU activations")
        super().__init__(config, seed=seed)
