"""Analytic memory model (reproduces Figure 8).

The paper measures GPU memory footprints; this environment has no GPU, so
the footprint is modelled analytically from the quantities that actually
drive the paper's curves:

* parameters (FP16 under mixed precision) and gradients + Adam moments for
  the *trainable* subset only (this is PEFT's memory saving);
* activations stored for the backward pass, including the attention
  score/probability buffers whose complexity LongExposure changes from
  ``O(s²)`` per head to ``O(s · nnz_blocks)``;
* optionally, only the *active* MLP neuron blocks resident on the device,
  the "LongExposure (optimal)" configuration where inactive backbone weights
  stay on the host.

The model is exact for the quantities it covers (bytes follow directly from
shapes); what it does not model is allocator fragmentation and framework
overhead, which shift absolute numbers but not the relative curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.models.config import ModelConfig
from repro.tensor.fused import row_tile_stack


@dataclass
class MemoryBreakdown:
    """Bytes attributed to each memory consumer for one configuration."""

    parameters: float
    gradients: float
    optimizer_state: float
    activations: float
    attention_buffers: float

    @property
    def total(self) -> float:
        return (self.parameters + self.gradients + self.optimizer_state
                + self.activations + self.attention_buffers)

    def total_gb(self) -> float:
        return self.total / 1024 ** 3

    def as_dict(self) -> dict:
        return {
            "parameters_gb": self.parameters / 1024 ** 3,
            "gradients_gb": self.gradients / 1024 ** 3,
            "optimizer_state_gb": self.optimizer_state / 1024 ** 3,
            "activations_gb": self.activations / 1024 ** 3,
            "attention_buffers_gb": self.attention_buffers / 1024 ** 3,
            "total_gb": self.total_gb(),
        }


@dataclass
class MemoryModel:
    """Analytic footprint of fine-tuning one model configuration.

    Parameters
    ----------
    config:
        Model architecture (paper-scale configs give paper-scale numbers).
    param_bytes / activation_bytes:
        Bytes per element: 2 (FP16) for parameters and 4 (FP32) for
        activations under the paper's mixed-precision setup.
    """

    config: ModelConfig
    param_bytes: int = 2
    activation_bytes: int = 4
    optimizer_bytes_per_param: int = 8          # two FP32 Adam moments
    # ``streaming=False`` is the analytic model of the paper's PEFT baseline
    # for Figure 8, which stores the (s, s) probabilities for the backward;
    # no kernel here runs it anymore.  ``streaming=True`` models the tiled
    # attention this package runs (repro.tensor.fused.tiled_attention): a
    # layer saves only its output and the per-row logsumexp; the forward
    # works in one score scratch and the backward recomputes each tile's
    # probabilities into it, next to one more for dS.  Dense attention's
    # scratch is one slice of a (batch, heads, row_tile, s) tile,
    # ``streaming_tile`` rows high: the whole stack, or a head group once the
    # stack passes ATTENTION_TILE_BYTES; block-sparse attention's a
    # capacity-class chunk of at most half the staged grid's score blocks.
    streaming: bool = False
    streaming_tile: int = 128

    # -- building blocks ------------------------------------------------------------
    def parameter_bytes(self) -> float:
        return float(self.config.num_parameters() * self.param_bytes)

    def activation_bytes_per_layer(self, batch: int, seq_len: int,
                                   mlp_density: float = 1.0) -> float:
        cfg = self.config
        hidden_tokens = batch * seq_len
        # Residual stream + attention projections (q, k, v, out) + MLP hidden.
        residual = 2 * hidden_tokens * cfg.dim
        projections = 4 * hidden_tokens * cfg.dim
        mlp_hidden = hidden_tokens * cfg.hidden_dim * mlp_density
        return float((residual + projections + mlp_hidden) * self.activation_bytes)

    def attention_buffer_bytes(self, batch: int, seq_len: int,
                               block_density: float = 1.0,
                               block_size: int = 64) -> float:
        """Score/probability buffers kept for the backward pass.

        Dense attention stores ``batch * heads * s²`` probabilities per layer;
        block-sparse attention stores only the active blocks, i.e. a
        ``block_density`` fraction of the causal half.  With
        :attr:`streaming` enabled the backward recomputes probabilities one
        slice at a time, so only two scratch slices (probabilities, dS) plus
        the per-row logsumexp are ever held: for dense attention two slices
        of the widest ``(row_tile, s)`` tile, as many ``(batch, head)`` pairs
        as :func:`~repro.tensor.fused.row_tile_stack` stacks (all of them
        while they fit ``ATTENTION_TILE_BYTES``, else one head group); for
        block-sparse attention (``block_density < 1``) two class chunks of
        ``heads * s / 2`` query rows by ``block_size`` keys.  The cheaper of
        the stored and the streamed bound applies.
        """
        cfg = self.config
        dense_causal = batch * cfg.num_heads * (seq_len * seq_len) / 2.0
        stored = dense_causal * block_density
        if self.streaming:
            # probability + dS scratch, then the logsumexp row
            lse = batch * cfg.num_heads * seq_len
            if block_density < 1.0:
                scratch = lse * block_size
            else:
                tile = min(self.streaming_tile, seq_len)
                pairs = row_tile_stack(batch, cfg.num_heads, tile, seq_len,
                                       self.activation_bytes)
                scratch = 2.0 * pairs * tile * seq_len
            stored = min(stored, scratch + lse)
        return float(stored * self.activation_bytes)

    # -- configurations of Figure 8 ----------------------------------------------------
    def peft_baseline(self, batch: int, seq_len: int, trainable_params: int) -> MemoryBreakdown:
        """Dense PEFT fine-tuning (the 'PEFT' curve)."""
        layers = self.config.num_layers
        return MemoryBreakdown(
            parameters=self.parameter_bytes(),
            gradients=trainable_params * 4.0,
            optimizer_state=trainable_params * float(self.optimizer_bytes_per_param),
            activations=layers * self.activation_bytes_per_layer(batch, seq_len),
            attention_buffers=layers * self.attention_buffer_bytes(batch, seq_len, 1.0),
        )

    def long_exposure(self, batch: int, seq_len: int, trainable_params: int,
                      attention_density: float, mlp_density: float,
                      offload_inactive: bool = False) -> MemoryBreakdown:
        """LongExposure footprint; ``offload_inactive`` gives the 'optimal' curve."""
        layers = self.config.num_layers
        params = self.parameter_bytes()
        if offload_inactive:
            cfg = self.config
            mlp_params = layers * 2 * cfg.dim * cfg.hidden_dim
            resident = params - mlp_params * self.param_bytes * (1.0 - mlp_density)
            params = resident
        return MemoryBreakdown(
            parameters=params,
            gradients=trainable_params * 4.0,
            optimizer_state=trainable_params * float(self.optimizer_bytes_per_param),
            activations=layers * self.activation_bytes_per_layer(batch, seq_len, mlp_density),
            attention_buffers=layers * self.attention_buffer_bytes(batch, seq_len,
                                                                   attention_density),
        )

    def full_finetuning(self, batch: int, seq_len: int) -> MemoryBreakdown:
        """Full fine-tuning reference (all parameters trainable)."""
        return self.peft_baseline(batch, seq_len, self.config.num_parameters())
