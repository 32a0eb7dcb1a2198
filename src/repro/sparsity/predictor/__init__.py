"""Sequence-oriented Predictors (paper Section V).

Small low-rank networks that predict, at runtime and before the expensive
computation, which attention score blocks and which MLP neuron blocks matter
for the current batch:

* :class:`AttentionPredictor` — per-head low-rank matrices ``W_Q_hat`` /
  ``W_K_hat`` produce approximate attention scores on a sequence that has
  been down-sampled to one representative token per block (the two-stage
  "process each token individually, then consolidate" design keeps the
  predictor size independent of the sequence length);
* :class:`MLPPredictor` — a single low-rank matrix ``W_A_hat`` scores the
  neuron blocks; a threshold plus a reduction over batch and sequence yields
  the active-block set.

Predictors are trained *offline* on data collected from the frozen model
(:mod:`repro.sparsity.predictor.collect`) with Gaussian noise augmentation
and a recall-weighted BCE loss (:mod:`repro.sparsity.predictor.training`) so
they stay accurate while the PEFT parameters evolve during fine-tuning.
"""

from repro.sparsity.predictor.attention import AttentionPredictor
from repro.sparsity.predictor.mlp import MLPPredictor
from repro.sparsity.predictor.collect import (
    CollectedLayerData,
    collect_block_mass,
    collect_layer_data,
)
from repro.sparsity.predictor.calibration import (
    AttentionCalibration,
    CalibrationEntry,
    MLPCalibration,
    calibrate_attention_predictor,
    calibrate_mlp_predictor,
)
from repro.sparsity.predictor.training import (
    PredictorTrainingConfig,
    PredictorMetrics,
    train_attention_predictor,
    train_mlp_predictor,
)

__all__ = [
    "AttentionPredictor",
    "AttentionCalibration",
    "CalibrationEntry",
    "MLPCalibration",
    "MLPPredictor",
    "CollectedLayerData",
    "calibrate_attention_predictor",
    "calibrate_mlp_predictor",
    "collect_block_mass",
    "collect_layer_data",
    "PredictorTrainingConfig",
    "PredictorMetrics",
    "train_attention_predictor",
    "train_mlp_predictor",
]
