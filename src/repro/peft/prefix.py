"""Prefix / prompt tuning (Li & Liang, 2021; "P-Tuning" in the paper).

A block of trainable virtual-token embeddings is prepended to the input
embedding sequence.  The backbone is frozen; only the prefix parameters (and
a small reparameterisation MLP, if enabled) train.  The attention mask is
extended so every real token may attend to all prefix positions.

Implementation note: prefix tuning changes the *sequence length* seen by the
attention and MLP blocks (``s + prefix_len``), which the sparsity engine must
account for when building block layouts; :class:`PrefixEncoder` therefore
exposes ``prefix_length`` for that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn import Linear, Module
from repro.nn.module import Parameter
from repro.peft.base import PEFTResult, make_result
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import concatenate


@dataclass
class PrefixTuningConfig:
    """Hyper-parameters of prefix tuning."""

    prefix_length: int = 8
    reparameterize: bool = True
    bottleneck_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.prefix_length <= 0:
            raise ValueError("prefix_length must be positive")


class PrefixEncoder(Module):
    """Produces the trainable prefix embeddings for a batch."""

    def __init__(self, dim: int, config: PrefixTuningConfig):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.prefix_length = config.prefix_length
        self.reparameterize = config.reparameterize
        self.embedding = Parameter(
            rng.normal(0.0, 0.02, size=(config.prefix_length, dim)).astype(np.float32),
            name="prefix.embedding")
        if config.reparameterize:
            self.down = Linear(dim, config.bottleneck_dim, rng=rng, name="prefix.down")
            self.up = Linear(config.bottleneck_dim, dim, rng=rng, name="prefix.up")
            self.up.weight.data[:] = 0.0

    def forward(self, batch_size: int) -> Tensor:
        prefix = self.embedding.reshape(1, self.prefix_length, -1)
        if self.reparameterize:
            prefix = prefix + self.up(self.down(prefix).tanh())
        # Broadcast over the batch by stacking views (cheap for small prefixes).
        tiled = concatenate([prefix] * batch_size, axis=0)
        return tiled


class PrefixedModel(Module):
    """Wrapper that prepends the prefix to the embedded input sequence."""

    def __init__(self, model: CausalLMModel, encoder: PrefixEncoder):
        super().__init__()
        self.model = model
        self.prefix_encoder = encoder
        self.config = model.config

    @property
    def prefix_length(self) -> int:
        return self.prefix_encoder.prefix_length

    def forward(self, input_ids: np.ndarray,
                attn_mask: Optional[np.ndarray] = None) -> Tensor:
        input_ids = np.asarray(input_ids)
        if input_ids.ndim == 1:
            input_ids = input_ids[None, :]
        batch, seq = input_ids.shape
        plen = self.prefix_length
        total = seq + plen
        hidden = self.model.embed(input_ids)
        prefix = self.prefix_encoder(batch)
        hidden = concatenate([prefix, hidden], axis=1)

        if attn_mask is None:
            from repro.nn.attention import causal_mask
            attn_mask = causal_mask(total)
            # Prefix positions are visible to every token.
            attn_mask = attn_mask.copy()
            attn_mask[:, :plen] = True
        for block in self.model.blocks:
            hidden = block(hidden, attn_mask=attn_mask)
        hidden = self.model.final_norm(hidden)
        return hidden[:, plen:, :]

    def logits(self, hidden: Tensor) -> Tensor:
        return self.model.logits(hidden)

    def loss(self, input_ids: np.ndarray, labels: Optional[np.ndarray] = None,
             attn_mask: Optional[np.ndarray] = None) -> Tuple[Tensor, int]:
        input_ids = np.asarray(input_ids)
        if input_ids.ndim == 1:
            input_ids = input_ids[None, :]
        labels = input_ids if labels is None else np.asarray(labels)
        if labels.ndim == 1:
            labels = labels[None, :]
        hidden = self.forward(input_ids, attn_mask=attn_mask)
        return F.linear_cross_entropy(hidden, self.model.token_embedding.weight,
                                      labels, shift=True)

    # Delegate attribute access so the trainer / sparsity engine can treat a
    # prefixed model like the underlying CausalLMModel (blocks, config, ...).
    def __getattr__(self, item):
        model = self.__dict__.get("model")
        if model is not None and hasattr(model, item):
            return getattr(model, item)
        raise AttributeError(item)


def apply_prefix_tuning(model: CausalLMModel,
                        config: Optional[PrefixTuningConfig] = None
                        ) -> Tuple[PrefixedModel, PEFTResult]:
    """Freeze the backbone and wrap it with a trainable prefix encoder.

    Unlike the other PEFT methods this returns a *wrapper* model (the forward
    signature changes because virtual tokens are prepended), plus the usual
    :class:`PEFTResult`.
    """
    config = config or PrefixTuningConfig()
    model.freeze()
    encoder = PrefixEncoder(model.config.dim, config)
    wrapped = PrefixedModel(model, encoder)
    injected = sum(p.numel() for p in encoder.parameters())
    result = make_result(wrapped, "prefix", injected,
                         {"prefix_length": config.prefix_length,
                          "reparameterize": config.reparameterize})
    return wrapped, result
