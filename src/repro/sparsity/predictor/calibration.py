"""Predictor calibration against oracle masks (per-head block budgets).

The trained probes are recall-oriented (the BCE positive class is up-weighted
4x), so their raw sigmoid confidences are systematically inflated: thresholded
at the fixed logit bar they produce block masks visibly *denser* than the
exposer's oracle masks.  That is not a probe-capacity problem — the probes
*rank* blocks well (recall > 0.9) — it is a decision problem, and a decision
can be fitted cheaply after training.

Calibration therefore fits, per layer and at the calibration batches' one
sequence length, **a per-head block budget**: for every head, the fraction of
causal blocks the exposer's raw coverage mask keeps over the whole
calibration set
(:meth:`~repro.sparsity.exposer.AttentionExposer.raw_masks_from_block_mass`
of the summed block mass — the label family the probes are trained on).  At
run time each head keeps its top ``ceil(budget * causal blocks)`` causal
blocks of the batch-mean approximate scores, plus the diagonal
(:func:`budget_block_masks`), at whatever length the batch has.  A rank cut
pins the executed density: as the adapters train and the scores shift, an
absolute logit threshold fitted at calibration time admits ever more blocks,
a budget does not.

The MLP predictor gets the one-dimensional analogue: a score threshold
matching the oracle's active-block count.

Calibration state is deliberately *external* to the predictor weights: an
uncalibrated predictor keeps its fixed logit threshold (the parity tests
lock this), and :meth:`AttentionPredictor.set_calibration` switches the
inference path to the calibrated budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparsity.patterns import block_count, causal_block_mask


def _separating_threshold(sorted_desc: np.ndarray, keep: int) -> float:
    """Threshold ``t`` such that ``score > t`` keeps the top ``keep`` entries.

    ``sorted_desc`` is a descending-sorted 1-D score array.  The threshold is
    the midpoint between the ``keep``-th and ``keep+1``-th values.  When the
    two are tied, the midpoint equals both and a strict comparison would drop
    *every* tied score (keeping fewer than ``keep``), so the threshold is
    nudged just below the tied value instead — the kept set grows slightly,
    which errs on the recall side.
    """
    n = sorted_desc.shape[0]
    if keep <= 0:
        return float(sorted_desc[0]) + 1.0
    if keep >= n:
        return float(sorted_desc[-1]) - 1.0
    hi, lo = float(sorted_desc[keep - 1]), float(sorted_desc[keep])
    if hi > lo:
        return 0.5 * (hi + lo)
    return float(np.nextafter(lo, -np.inf))


@dataclass
class CalibrationEntry:
    """Target-vs-achieved densities of one layer at the calibration length."""

    seq_len: int
    oracle_density: float       # mean over heads of the oracle masks
    predicted_density: float    # mean over heads of the calibrated masks

    @property
    def gap(self) -> float:
        """Absolute density gap (the quantity the bench tracks)."""
        return abs(self.predicted_density - self.oracle_density)


@dataclass
class AttentionCalibration:
    """Fitted decision state of one layer's attention predictor.

    ``budget`` is a ``(heads,)`` float64 array: the fraction of causal blocks
    each head keeps.
    """

    block_size: int
    budget: np.ndarray
    entry: CalibrationEntry


@dataclass
class MLPCalibration:
    """Fitted score threshold of one layer's MLP predictor."""

    threshold: float
    entry: CalibrationEntry


def budget_block_masks(mean_scores: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Binary per-head masks from batch-meaned scores and per-head budgets.

    This is *the* calibrated mask construction: per head, keep the
    ``ceil(budget * causal blocks)`` highest-scoring causal blocks (ties go
    to the lower flat index), then force the diagonal.  Both the calibration
    fit (here) and the runtime path
    (:meth:`AttentionPredictor.predict_patterns`) call this one function.
    Only the order of the scores matters, so a positive rescaling or a shift
    of every score leaves the masks unchanged.
    """
    heads, n_blocks, _ = mean_scores.shape
    causal = causal_block_mask(n_blocks)
    causal_total = int(causal.sum())
    # The epsilon keeps a budget of exactly k / total from rounding up to k + 1.
    keep = np.minimum(np.ceil(np.asarray(budget) * causal_total - 1e-9),
                      causal_total).astype(np.int64)
    flat = np.where(causal, mean_scores, -np.inf).reshape(heads, -1)
    # The keep-th largest score per head, then every score above it and as
    # many ties as the budget has room for, lowest index first: a value sort
    # is several times cheaper than a stable argsort of the same rows.
    kth = np.take_along_axis(np.sort(flat, axis=1),
                             (flat.shape[1] - np.maximum(keep, 1))[:, None], axis=1)
    masks = flat > kth
    tied = flat == kth
    masks |= tied & (np.cumsum(tied, axis=1)
                     <= (keep - masks.sum(axis=1))[:, None])
    masks &= (keep > 0)[:, None]
    masks = masks.reshape(heads, n_blocks, n_blocks)
    masks |= np.eye(n_blocks, dtype=bool)[None]
    return masks


def calibrate_attention_predictor(predictor, exposer, inputs: np.ndarray,
                                  block_mass: np.ndarray) -> AttentionCalibration:
    """Fit per-head block budgets for one attention predictor.

    Parameters
    ----------
    predictor:
        A trained :class:`AttentionPredictor` (calibration reads
        ``approximate_scores`` only; the weights are not touched).
    exposer:
        The :class:`AttentionExposer` that defines the oracle masks.
    inputs / block_mass:
        The recorded layer inputs ``(n, seq, dim)`` and each sample's exact
        attention probabilities reduced by ``exposer.block_reduce``:
        ``(n, heads, n_blocks, n_blocks)``.

    The budget is the density of the exposer's raw coverage mask over the
    whole calibration set's summed block mass — the same batch-level
    reduction the oracle backend applies at runtime.  The entry records it
    against the density the calibrated masks reach on the same inputs (they
    differ by the diagonal blocks a head's top scores miss).
    """
    seq_len = inputs.shape[1]
    causal = causal_block_mask(block_count(seq_len, predictor.block_size))
    oracle = exposer.raw_masks_from_block_mass(block_mass.sum(axis=0))
    budget = oracle[:, causal].sum(axis=1) / int(causal.sum())
    masks = budget_block_masks(predictor.approximate_scores(inputs).mean(axis=0), budget)
    return AttentionCalibration(
        block_size=predictor.block_size, budget=budget,
        entry=CalibrationEntry(seq_len=seq_len,
                               oracle_density=float(budget.mean()),
                               predicted_density=float(masks[:, causal].mean())))


def calibrate_mlp_predictor(predictor, exposer, inputs: np.ndarray,
                            neuron_mass: np.ndarray) -> MLPCalibration:
    """Fit the score threshold of one MLP predictor.

    The oracle target is the exposer's batch-level active block set, read
    from ``neuron_mass``: the :meth:`~repro.sparsity.exposer.MLPExposer.neuron_mass`
    ``(hidden,)`` of the whole calibration set's post-ReLU activations.  The
    threshold is placed so the predictor keeps the same number of blocks
    (midpoint between the ``k``-th and ``k+1``-th scores).
    """
    keep = int(exposer.active_blocks_from_mass(neuron_mass).size)
    scores = predictor.block_scores(inputs)
    threshold = _separating_threshold(np.sort(scores)[::-1], keep)
    n_blocks = predictor.n_blocks
    return MLPCalibration(
        threshold=threshold,
        entry=CalibrationEntry(seq_len=inputs.shape[1],
                               oracle_density=keep / n_blocks,
                               predicted_density=int((scores > threshold).sum()) / n_blocks))
