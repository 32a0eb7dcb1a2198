"""Offline predictor training (paper Section V-B).

Both optimisations the paper prescribes are implemented here:

* **noise augmentation** — Gaussian noise is added to the recorded inputs so
  the predictors do not overfit the exact pre-trained activations and stay
  robust while the PEFT parameters evolve during fine-tuning;
* **recall-weighted loss** — the BCE positive class (block *is* needed) is
  up-weighted, because predicting an active block as inactive damages the
  model output, whereas the opposite error only costs a little extra compute.

Training uses the same Adam optimizer as the main stack; the predictors are
tiny (rank ``r << d``), so a few dozen epochs converge in well under a second
even on the CPU substrate.

:func:`train_predictors` steps its probes in lockstep on one noise stream:
one draw per (epoch, minibatch) from ``default_rng(config.seed)`` — the
permutation, then the noise — on which every probe steps before the next
draw.  The draws never depend on the probe, so a fit is bitwise the same
however many probes share the loop; ``prepare`` hands it every layer's
probes at once and generates the noise once instead of once per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.optim import Adam
from repro.sparsity.exposer import AttentionExposer, MLPExposer
from repro.sparsity.patterns import causal_block_mask
from repro.sparsity.predictor.attention import AttentionPredictor
from repro.sparsity.predictor.mlp import MLPPredictor
from repro.tensor import Tensor, functional as F


# Adam's learning rate, samples per minibatch, the std of the Gaussian noise
# added to each minibatch's inputs, and the BCE weight of the positive class.
LR = 1e-2
BATCH_SIZE = 16
NOISE_STD = 0.02
POS_WEIGHT = 4.0


@dataclass
class PredictorTrainingConfig:
    """Length and seed of offline predictor training (the rest of the
    schedule is this module's constants)."""

    epochs: int = 30
    seed: int = 0


@dataclass
class PredictorMetrics:
    """Quality of a trained predictor on its training data (labels are cheap).

    ``predicted_density`` / ``label_density`` expose the over-coverage the
    recall-weighted loss bakes in (predicted > label means the raw decision
    boundary keeps too many blocks) — the miscalibration the calibration
    pass corrects; a large ratio is the signal to check
    ``engine.calibration_gap()`` before trusting raw predictions.
    """

    recall: float
    precision: float
    loss: float
    epochs: int
    predicted_density: float = 0.0
    label_density: float = 0.0

    def summary(self) -> str:
        return (f"recall={self.recall:.4f} precision={self.precision:.4f} "
                f"loss={self.loss:.4f} density={self.predicted_density:.3f}"
                f"/{self.label_density:.3f}")


def _recall_precision(pred: np.ndarray, target: np.ndarray) -> Tuple[float, float]:
    pred = np.asarray(pred, dtype=bool)
    target = np.asarray(target, dtype=bool)
    true_pos = float((pred & target).sum())
    recall = true_pos / max(float(target.sum()), 1.0)
    precision = true_pos / max(float(pred.sum()), 1.0)
    return recall, precision


# ---------------------------------------------------------------------------
# the lockstep loop
# ---------------------------------------------------------------------------

@dataclass
class Probe:
    """A predictor, its inputs, per-sample BCE targets and
    ``evaluate(last_loss, epochs)``, which scores it on the clean inputs."""

    predictor: object
    inputs: np.ndarray
    targets: np.ndarray
    evaluate: Callable[[float, int], PredictorMetrics]


def train_predictors(probes: Sequence[Probe],
                     config: Optional[PredictorTrainingConfig] = None
                     ) -> List[PredictorMetrics]:
    """Train ``probes`` in lockstep on one shared noise stream (see the
    module docstring); returns their metrics in order.  All probes must
    share one input shape ``(n_samples, seq, dim)``."""
    config = config or PredictorTrainingConfig()
    if not probes:
        return []
    shapes = {probe.inputs.shape for probe in probes}
    if len(shapes) > 1:
        raise ValueError(f"lockstep probes must share one input shape, got {sorted(shapes)}")
    n_samples, *sample_shape = shapes.pop()
    rng = np.random.default_rng(config.seed)
    optimizers = [Adam(probe.predictor.trainable_parameters(), lr=LR)
                  for probe in probes]
    losses = [0.0] * len(probes)
    for _ in range(config.epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            noise = rng.normal(0.0, NOISE_STD,
                               size=(len(idx), *sample_shape)).astype(np.float32)
            for index, (probe, optimizer) in enumerate(zip(probes, optimizers)):
                x = probe.inputs[idx]
                x += noise
                logits = probe.predictor(Tensor(x))
                loss = F.binary_cross_entropy_with_logits(logits, probe.targets[idx],
                                                          pos_weight=POS_WEIGHT)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                losses[index] = float(loss.data)
    return [probe.evaluate(loss, config.epochs) for probe, loss in zip(probes, losses)]


# ---------------------------------------------------------------------------
# attention predictor
# ---------------------------------------------------------------------------

def attention_probe(predictor: AttentionPredictor, inputs: np.ndarray,
                    block_mass: np.ndarray, exposer: AttentionExposer) -> Probe:
    """One layer's attention predictor with its recorded inputs ``(n_samples,
    seq, dim)`` and each sample's exact attention probabilities reduced by
    ``exposer.block_reduce``: ``(n_samples, heads, n_blocks, n_blocks)``."""
    labels = np.stack([exposer.raw_masks_from_block_mass(mass)
                       for mass in block_mass]).astype(np.float32)
    causal = causal_block_mask(labels.shape[-1])

    def evaluate(loss: float, epochs: int) -> PredictorMetrics:
        # Block-level recall/precision on the clean training inputs.
        scores = predictor.approximate_scores(inputs)
        pred = ((1.0 / (1.0 + np.exp(-scores))) > 0.5) & causal[None, None]
        target = (labels > 0.5) & causal[None, None]
        recall, precision = _recall_precision(pred, target)
        causal_blocks = max(float(causal.sum()), 1.0)
        per_sample_head = pred.shape[0] * pred.shape[1]
        return PredictorMetrics(recall=recall, precision=precision,
                                loss=loss, epochs=epochs,
                                predicted_density=float(pred.sum())
                                / (per_sample_head * causal_blocks),
                                label_density=float(target.sum())
                                / (per_sample_head * causal_blocks))

    return Probe(predictor, inputs, labels * causal.astype(np.float32), evaluate)


def train_attention_predictor(predictor: AttentionPredictor,
                              inputs: np.ndarray, block_mass: np.ndarray,
                              exposer: AttentionExposer,
                              config: Optional[PredictorTrainingConfig] = None
                              ) -> PredictorMetrics:
    """Train one layer's attention predictor on collected data (the
    arguments are :func:`attention_probe`'s)."""
    return train_predictors([attention_probe(predictor, inputs, block_mass, exposer)],
                            config)[0]


# ---------------------------------------------------------------------------
# MLP predictor
# ---------------------------------------------------------------------------

def mlp_token_block_mass(activations: np.ndarray, block_size: int) -> np.ndarray:
    """Per-token |activation| mass of each neuron block: ``(batch, seq,
    n_blocks)`` float32 of ``(batch, seq, hidden)`` post-ReLU activations,
    the last block zero-padded."""
    activations = np.asarray(activations)
    batch, seq, hidden = activations.shape
    n_blocks = -(-hidden // block_size)
    padded = n_blocks * block_size
    mass = np.abs(activations).astype(np.float32)
    if padded != hidden:
        mass = np.pad(mass, ((0, 0), (0, 0), (0, padded - hidden)))
    return mass.reshape(batch, seq, n_blocks, block_size).sum(axis=-1)


def mlp_block_mass_labels(block_mass: np.ndarray, threshold: float = 0.02) -> np.ndarray:
    """:func:`mlp_token_block_labels` of the activations whose
    :func:`mlp_token_block_mass` is ``block_mass``."""
    peak = np.maximum(block_mass.max(axis=-1, keepdims=True), 1e-12)
    return (block_mass >= threshold * peak).astype(np.float32)


def mlp_token_block_labels(activations: np.ndarray, block_size: int,
                           threshold: float = 0.02) -> np.ndarray:
    """Per-token binary labels: is this neuron block *important* for the token?

    Importance is the block's share of the token's activation mass relative to
    the token's peak block, thresholded the same way the exposer filters the
    sequence-level pattern — so the predictor learns the filtered pattern the
    operators will actually execute, not the raw (shadowy) activity.
    """
    return mlp_block_mass_labels(mlp_token_block_mass(activations, block_size), threshold)


def mlp_probe(predictor: MLPPredictor, inputs: np.ndarray, block_mass: np.ndarray,
              neuron_mass: np.ndarray, exposer: MLPExposer) -> Probe:
    """One layer's MLP neuron-block predictor and its training set: the
    recorded MLP inputs ``(n_samples, seq, dim)`` and two reductions of each
    sample's post-ReLU activations — their :func:`mlp_token_block_mass` at
    the predictor's block size, ``(n_samples, seq, n_blocks)``, and their
    :meth:`MLPExposer.neuron_mass`, ``(n_samples, hidden)``."""
    token_labels = mlp_block_mass_labels(block_mass, threshold=exposer.threshold)
    truths = [exposer.active_blocks_from_mass(mass) for mass in neuron_mass]

    def evaluate(loss: float, epochs: int) -> PredictorMetrics:
        # Sequence-level evaluation against the exposer's ground-truth block
        # sets (this is the recall the paper reports: 96.35 % on average).
        recalls, precisions = [], []
        for i, active in enumerate(truths):
            truth = np.zeros(predictor.n_blocks, dtype=bool)
            truth[active] = True
            pred = np.zeros(predictor.n_blocks, dtype=bool)
            pred[predictor.predict_active_blocks(inputs[i:i + 1])] = True
            r, p = _recall_precision(pred, truth)
            recalls.append(r)
            precisions.append(p)
        return PredictorMetrics(recall=float(np.mean(recalls)),
                                precision=float(np.mean(precisions)),
                                loss=loss, epochs=epochs)

    return Probe(predictor, inputs, token_labels, evaluate)


def train_mlp_predictor(predictor: MLPPredictor,
                        inputs: np.ndarray, activations: np.ndarray,
                        exposer: MLPExposer,
                        config: Optional[PredictorTrainingConfig] = None
                        ) -> PredictorMetrics:
    """Train one layer's MLP neuron-block predictor on collected data: the
    recorded MLP inputs and post-ReLU ``activations`` of every sample."""
    block_mass = mlp_token_block_mass(activations, predictor.block_size)
    neuron_mass = np.stack([exposer.neuron_mass(activations[i:i + 1])
                            for i in range(activations.shape[0])])
    return train_predictors([mlp_probe(predictor, inputs, block_mass, neuron_mass,
                                       exposer)], config)[0]
