"""Per-layer sparsity profiling of a model on real batches (Figure 9 data)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.models.base import CausalLMModel
from repro.sparsity.exposer import AttentionExposer, MLPExposer
from repro.sparsity.patterns import causal_block_mask
from repro.sparsity.predictor.collect import collect_layer_data


@dataclass
class LayerSparsityProfile:
    """Sparsity statistics of one layer under the different methods."""

    layer: int
    attention_head_specific: float
    attention_shadowy: float
    attention_longformer: float
    attention_bigbird: float
    mlp_shadowy: float
    mlp_filtered: dict            # threshold -> filtered block sparsity
    head_masks: np.ndarray        # (heads, n_blocks, n_blocks) raw coverage masks


def model_sparsity_profile(model: CausalLMModel, batches: Sequence[np.ndarray],
                           block_size: int = 32, coverage: float = 0.90,
                           thresholds: Sequence[float] = (0.01, 0.02, 0.03, 0.05)
                           ) -> List[LayerSparsityProfile]:
    """Compute the per-layer sparsity profile driving Figure 9's left panels.

    Head-specific and shadowy attention sparsity both come from the exposer's
    raw coverage masks (:meth:`AttentionExposer.raw_block_masks`, what oracle
    mode executes): the mean over heads of each head's own mask, and the
    union of all heads' masks.
    """
    from repro.baselines.sparse_attention import bigbird_block_masks, longformer_block_masks

    attention_exposer = AttentionExposer(block_size, coverage=coverage)
    collected = collect_layer_data(model, batches)

    seq_len = np.asarray(batches[0]).shape[-1]
    num_heads = model.config.num_heads
    n_blocks = -(-seq_len // block_size)
    causal_total = causal_block_mask(n_blocks).sum()
    longformer = longformer_block_masks(seq_len, num_heads, block_size)
    bigbird = bigbird_block_masks(seq_len, num_heads, block_size)
    longformer_sparsity = 1.0 - longformer[0].sum() / causal_total
    bigbird_sparsity = 1.0 - bigbird[0].sum() / causal_total

    profiles: List[LayerSparsityProfile] = []
    for layer_index, data in enumerate(collected):
        merged = data.merged()
        report = attention_exposer.analyze(merged["attention_probs"])
        mlp_filtered = {}
        mlp_shadowy = 0.0
        for threshold in thresholds:
            mlp_report = MLPExposer(block_size, threshold=threshold).analyze(
                merged["mlp_activations"])
            mlp_filtered[threshold] = mlp_report.filtered_sparsity
            mlp_shadowy = mlp_report.shadowy_sparsity
        profiles.append(LayerSparsityProfile(
            layer=layer_index,
            attention_head_specific=report.head_specific_sparsity,
            attention_shadowy=report.shadowy_sparsity,
            attention_longformer=float(longformer_sparsity),
            attention_bigbird=float(bigbird_sparsity),
            mlp_shadowy=mlp_shadowy,
            mlp_filtered=mlp_filtered,
            head_masks=report.head_masks,
        ))
    return profiles
