"""Configuration of the LongExposure system."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LongExposureConfig:
    """Knobs of the end-to-end LongExposure engine.

    Attributes
    ----------
    block_size:
        Side length of the attention score blocks and the MLP neuron blocks
        (``blk_size`` in the paper's Section V).  Sequence lengths and the MLP
        hidden dimension are processed in units of this block.
    attention_coverage:
        Fraction of total attention probability mass a head's block mask must
        retain when the exposer derives the ground-truth mask (recall-oriented,
        paper Section V-B).  It sets the executed attention density directly:
        oracle mode runs these masks, and calibrated predictors keep each
        head's calibration-set share of them as their block budget.
    predictor_epochs:
        Epochs of offline predictor training; the rest of the schedule is
        :mod:`repro.sparsity.predictor.training`'s constants.
    oracle_mode:
        If True, the engine uses the exposer's exact (ground-truth) masks at
        runtime instead of predictor outputs.  Used for ablations and tests;
        the paper's "shadowy" baselines correspond to uniform oracle masks.
    predict_interval:
        Refresh the predicted (or oracle) sparsity patterns every this many
        fine-tuning steps; between refreshes the sparse backends reuse the
        last layout / active-block set.  ``1`` (the default) re-derives the
        masks on every step, exactly as before the scheduler existed; values
        > 1 amortise the mask-derivation cost over adjacent steps, whose
        masks barely change between consecutive fine-tuning steps.  The step
        counter is advanced by :meth:`LongExposure.advance_step` (the trainer
        calls it once per step); the engine records per-layer mask drift and
        reuse rates so the accuracy cost of a given interval is observable.
    seed:
        RNG seed for predictor initialisation and training shuffles.
    """

    block_size: int = 32
    attention_coverage: float = 0.90
    predictor_epochs: int = 30
    oracle_mode: bool = False
    predict_interval: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if not 0.0 < self.attention_coverage <= 1.0:
            raise ValueError("attention_coverage must be in (0, 1]")
        if self.predict_interval < 1:
            raise ValueError("predict_interval must be >= 1")
