"""Predictor calibration against oracle masks (threshold + snap fitting).

The trained probes are recall-oriented (the BCE positive class is up-weighted
4x), so their raw sigmoid confidences are systematically inflated: thresholded
at the fixed logit bar they produce block masks visibly *denser* than the
exposer's oracle masks (block sparsity ~0.47 predicted vs ~0.59 oracle at
seq 512 in the PR-3 measurement), and a probe trained at one sequence length
collapses to near-dense masks at another because the score distribution
shifts with the block-grid size.  Neither is a probe-capacity problem — the
probes *rank* blocks well (recall > 0.9) — it is a decision-boundary problem,
and decision boundaries can be fitted cheaply after training.

Calibration therefore fits, on a small calibration set with known oracle
masks, three things per layer:

* **per-head logit thresholds** — for every head, the threshold is placed at
  the score quantile matching the oracle mask's block density at that head
  (density/quantile matching: if the oracle keeps ``k`` of the causal blocks,
  the threshold sits between the ``k``-th and ``k+1``-th largest predicted
  scores), so the thresholded mask has the oracle's density by construction;
* **a pattern-snap bar** — after thresholding, each head's binary mask is
  snapped onto the cheapest :class:`~repro.sparsity.patterns.PatternPool`
  pattern retaining at least ``snap_coverage`` of the mask's active blocks
  (the same recall-first selection rule the exposer uses on attention mass);
  the bar itself is calibrated by scanning a candidate grid and keeping the
  value whose snapped layouts minimise the mean density gap to the oracle's
  snapped layouts;
* **a sequence-length grid** — thresholds are fitted independently at every
  grid length (e.g. 128/256/512) and looked up per runtime length, with
  log-linear interpolation between grid points and clamping outside the
  grid, so a probe calibrated on the grid stays usable at nearby lengths
  instead of collapsing to near-dense masks.

The MLP predictor gets the same treatment in one dimension: a per-length
score threshold matching the oracle's active-block count.

Calibration state is deliberately *external* to the predictor weights: an
uncalibrated predictor behaves exactly as before (the parity tests lock
this), and :meth:`AttentionPredictor.set_calibration` switches the inference
path to the calibrated thresholds and mask snapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparsity.patterns import PatternPool, block_count, causal_block_mask

# Candidate snap-coverage bars scanned when calibrating the pattern snap.
SNAP_BAR_GRID: Tuple[float, ...] = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80,
                                    0.85, 0.90, 0.95, 0.98)


def _interp_weight(seq_len: int, low: int, high: int) -> float:
    """Log-linear interpolation weight of ``high`` for ``low < seq_len < high``."""
    return float((np.log2(seq_len) - np.log2(low)) / (np.log2(high) - np.log2(low)))


def _bracket(lengths: Sequence[int], seq_len: int) -> Tuple[int, Optional[int], float]:
    """Grid lengths bracketing ``seq_len`` plus the interpolation weight.

    Returns ``(low, high, w)`` where ``high`` is ``None`` (and ``w`` is 0)
    when ``seq_len`` falls on or outside the grid and a single entry applies.
    """
    lengths = sorted(lengths)
    if seq_len <= lengths[0]:
        return lengths[0], None, 0.0
    if seq_len >= lengths[-1]:
        return lengths[-1], None, 0.0
    for low, high in zip(lengths, lengths[1:]):
        if seq_len == low:
            return low, None, 0.0
        if low < seq_len < high:
            return low, high, _interp_weight(seq_len, low, high)
    return lengths[-1], None, 0.0


def _separating_threshold(sorted_desc: np.ndarray, keep: int) -> float:
    """Threshold ``t`` such that ``score > t`` keeps the top ``keep`` entries.

    ``sorted_desc`` is a descending-sorted 1-D score array.  The threshold is
    the midpoint between the ``keep``-th and ``keep+1``-th values.  When the
    two are tied, the midpoint equals both and a strict comparison would drop
    *every* tied score (keeping fewer than ``keep``), so the threshold is
    nudged just below the tied value instead — the kept set grows slightly,
    which errs on the recall side, the right direction for sparse attention.
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
    """Target-vs-achieved densities of one layer at one grid length."""

    seq_len: int
    oracle_density: float       # mean over heads, snapped oracle layouts
    predicted_density: float    # mean over heads, snapped calibrated layouts
    raw_predicted_density: float  # thresholded mask density before snapping

    @property
    def gap(self) -> float:
        """Absolute snapped-density gap (the quantity the bench tracks)."""
        return abs(self.predicted_density - self.oracle_density)


@dataclass
class AttentionCalibration:
    """Fitted decision state of one layer's attention predictor.

    ``thresholds`` maps each grid sequence length to a ``(heads,)`` float64
    array of logit thresholds.  ``snap_coverage`` is the calibrated snap bar
    applied by :meth:`PatternPool.snap_masks`.
    """

    block_size: int
    thresholds: Dict[int, np.ndarray]
    snap_coverage: float
    entries: List[CalibrationEntry] = field(default_factory=list)

    def grid_lengths(self) -> List[int]:
        return sorted(self.thresholds)

    def thresholds_for(self, seq_len: int) -> np.ndarray:
        """Per-head thresholds at ``seq_len``.

        Exact grid hits return the fitted array; lengths between grid points
        interpolate log-linearly (the score scale drifts smoothly with the
        grid size); lengths outside the grid clamp to the nearest end.
        """
        exact = self.thresholds.get(seq_len)
        if exact is not None:
            return exact
        low, high, w = _bracket(self.grid_lengths(), seq_len)
        if high is None:
            return self.thresholds[low]
        return (1.0 - w) * self.thresholds[low] + w * self.thresholds[high]

    def mean_gap(self) -> float:
        """Mean |predicted − oracle| snapped density over the grid."""
        if not self.entries:
            return 0.0
        return float(np.mean([e.gap for e in self.entries]))


@dataclass
class MLPCalibration:
    """Fitted per-length score thresholds of one layer's MLP predictor."""

    thresholds: Dict[int, float]
    entries: List[CalibrationEntry] = field(default_factory=list)

    def grid_lengths(self) -> List[int]:
        return sorted(self.thresholds)

    def threshold_for(self, seq_len: int) -> float:
        exact = self.thresholds.get(seq_len)
        if exact is not None:
            return exact
        low, high, w = _bracket(self.grid_lengths(), seq_len)
        if high is None:
            return self.thresholds[low]
        return (1.0 - w) * self.thresholds[low] + w * self.thresholds[high]

    def mean_gap(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.gap for e in self.entries]))


def _pattern_densities(pool: PatternPool, n_blocks: int) -> Dict[str, float]:
    causal_total = int(causal_block_mask(n_blocks).sum())
    return {name: pool.cost(name, n_blocks) / causal_total for name in pool.names()}


def calibrate_attention_predictor(
        predictor, exposer, inputs_by_length: Dict[int, np.ndarray],
        block_mass_by_length: Dict[int, np.ndarray],
        snap_bars: Sequence[float] = SNAP_BAR_GRID) -> AttentionCalibration:
    """Fit per-head thresholds and the snap bar for one attention predictor.

    Parameters
    ----------
    predictor:
        A trained :class:`AttentionPredictor` (calibration reads
        ``approximate_scores`` only; the weights are not touched).
    exposer:
        The :class:`AttentionExposer` that defines the oracle masks.
    inputs_by_length / block_mass_by_length:
        For every grid length, the recorded layer inputs ``(n, seq, dim)``
        truncated to that length and each sample's exact attention
        probabilities, truncated likewise and reduced by
        ``exposer.block_reduce``: ``(n, heads, n_blocks, n_blocks)``.

    The oracle target at each length is the exposer's *snapped* per-head
    selection over the whole calibration set — the same batch-level
    reduction the oracle backend applies at runtime — so threshold fitting
    matches the density the oracle path actually executes, not a per-sample
    ideal the runtime never sees.
    """
    pool = predictor.pattern_pool
    thresholds: Dict[int, np.ndarray] = {}
    per_length: Dict[int, Dict[str, np.ndarray]] = {}

    for seq_len, inputs in sorted(inputs_by_length.items()):
        n_blocks = block_count(seq_len, predictor.block_size)
        causal = causal_block_mask(n_blocks)
        causal_total = int(causal.sum())

        # Oracle side: batch-level block mass -> snapped per-head patterns.
        oracle_masks, oracle_names = exposer.masks_from_block_mass(
            block_mass_by_length[seq_len].sum(axis=0))
        oracle_density = oracle_masks[:, causal].sum(axis=1) / causal_total

        # Predicted side: the calibrated runtime path thresholds the *mean*
        # score over the batch (the oracle's own batch reduction sums the
        # attention mass, so a mean-based decision matches its semantics and,
        # unlike an any/max union, does not grow denser with batch size —
        # calibration would otherwise underestimate the runtime density
        # whenever the fine-tuning batch is larger than the calibration set).
        scores = predictor.approximate_scores(inputs)        # (n, heads, nb, nb)
        mean_scores = scores.mean(axis=0)                   # (heads, nb, nb)
        heads = mean_scores.shape[0]
        tau = np.empty(heads, dtype=np.float64)
        for h in range(heads):
            vals = np.sort(mean_scores[h][causal])[::-1]
            keep = int(round(float(oracle_density[h]) * causal_total))
            tau[h] = _separating_threshold(vals, keep)
        thresholds[seq_len] = tau
        per_length[seq_len] = {
            "mean_scores": mean_scores,
            "oracle_density": np.asarray(oracle_density, dtype=np.float64),
            "oracle_names": np.asarray(oracle_names, dtype=object),
        }

    # Snap-bar calibration: scan the candidate bars and keep the one whose
    # snapped layouts minimise the mean |predicted − oracle| density over
    # the whole grid.  The scan reuses the thresholded masks, so it is a
    # handful of (heads, nb²) @ (nb², P) products per candidate.
    best_bar, best_gap = snap_bars[0], float("inf")
    snapped_cache: Dict[float, Dict[int, List[str]]] = {}
    for bar in snap_bars:
        gaps: List[float] = []
        snapped_cache[bar] = {}
        for seq_len, data in per_length.items():
            n_blocks = block_count(seq_len, predictor.block_size)
            densities = _pattern_densities(pool, n_blocks)
            masks = threshold_block_masks(data["mean_scores"], thresholds[seq_len])
            names = pool.snap_masks(masks, coverage=bar)
            snapped_cache[bar][seq_len] = names
            predicted = np.array([densities[name] for name in names])
            gaps.append(float(np.abs(predicted - data["oracle_density"]).mean()))
        gap = float(np.mean(gaps))
        if gap < best_gap - 1e-12:
            best_bar, best_gap = bar, gap

    entries: List[CalibrationEntry] = []
    for seq_len, data in sorted(per_length.items()):
        n_blocks = block_count(seq_len, predictor.block_size)
        densities = _pattern_densities(pool, n_blocks)
        causal_total = int(causal_block_mask(n_blocks).sum())
        masks = threshold_block_masks(data["mean_scores"], thresholds[seq_len])
        names = snapped_cache[best_bar][seq_len]
        entries.append(CalibrationEntry(
            seq_len=seq_len,
            oracle_density=float(data["oracle_density"].mean()),
            predicted_density=float(np.mean([densities[n] for n in names])),
            raw_predicted_density=float(
                masks[:, causal_block_mask(n_blocks)].sum() / (masks.shape[0] * causal_total)),
        ))
    return AttentionCalibration(block_size=predictor.block_size,
                                thresholds=thresholds,
                                snap_coverage=best_bar, entries=entries)


def threshold_block_masks(mean_scores: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Binary per-head masks from batch-meaned scores and per-head thresholds.

    This is *the* calibrated mask construction: threshold the mean-over-batch
    score per head, restrict to the causal triangle, force the diagonal.
    Both the calibration fit (here) and the runtime path
    (:meth:`AttentionPredictor.block_masks`) call this one function — the
    fitted thresholds are only valid while the two constructions are
    identical, so the logic must not be duplicated.
    """
    keep = mean_scores > tau[:, None, None]
    n_blocks = keep.shape[-1]
    keep &= causal_block_mask(n_blocks)[None]
    keep |= np.eye(n_blocks, dtype=bool)[None]
    return keep


def calibrate_mlp_predictor(predictor, exposer,
                            inputs_by_length: Dict[int, np.ndarray],
                            activations_by_length: Dict[int, np.ndarray]
                            ) -> MLPCalibration:
    """Fit per-length score thresholds for one MLP predictor.

    The oracle target at each length is the exposer's batch-level active
    block set; the threshold is placed so the predictor keeps the same
    number of blocks (midpoint between the ``k``-th and ``k+1``-th scores).
    """
    thresholds: Dict[int, float] = {}
    entries: List[CalibrationEntry] = []
    n_blocks = predictor.n_blocks
    for seq_len, inputs in sorted(inputs_by_length.items()):
        oracle_active = exposer.active_blocks(activations_by_length[seq_len])
        scores = predictor.block_scores(inputs)
        vals = np.sort(scores)[::-1]
        keep = int(oracle_active.size)
        tau = _separating_threshold(vals, keep)
        thresholds[seq_len] = tau
        predicted = int((scores > tau).sum())
        entries.append(CalibrationEntry(
            seq_len=seq_len,
            oracle_density=keep / n_blocks,
            predicted_density=predicted / n_blocks,
            raw_predicted_density=predicted / n_blocks,
        ))
    return MLPCalibration(thresholds=thresholds, entries=entries)
