"""Tests of the predictor-calibration subsystem (per-head block budgets).

Covers the calibration guarantees:

* budget calibration closes the predicted-vs-oracle block-density gap against
  the exposer's raw coverage masks — including at seq 512, the regime where
  the uncalibrated probes were measured ~0.10 too dense;
* a budget is a rank cut: each head keeps exactly its budget of top-scoring
  causal blocks plus the diagonal, whatever scale or offset the scores have;
* a budget is a fraction of the causal blocks: calibrated at the batches'
  one length, every head keeps ``ceil(budget * causal blocks)`` plus the
  diagonal at any other length too, so probes do not collapse to near-dense
  masks away from their training length;
* calibrated masks never violate the layout invariants — they stay inside
  the causal triangle with a guaranteed diagonal, for any scores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.models import build_model, get_config
from repro.sparsity import LongExposure, LongExposureConfig
from repro.sparsity.engine import PROBE_RANK
from repro.sparsity.exposer import AttentionExposer, MLPExposer
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.patterns import causal_block_mask
from repro.sparsity.predictor import (
    AttentionCalibration,
    AttentionPredictor,
    CalibrationEntry,
    MLPCalibration,
    MLPPredictor,
    PredictorTrainingConfig,
    calibrate_attention_predictor,
    calibrate_mlp_predictor,
    collect_block_mass,
    collect_layer_data,
    train_attention_predictor,
    train_mlp_predictor,
)
from repro.sparsity.predictor.calibration import (
    _separating_threshold,
    budget_block_masks,
)
from repro.sparsity.predictor.training import BATCH_SIZE, mlp_token_block_mass

from parity import sample_block_mass

# See TestStreamingPrepare.test_predictor_weight_digest_is_stable.
SGEMM_CANARY = "d89522c442ee65f4a0495f1dbe19480cc4748a5e12387948112c6b2316113eb8"
OPT_TINY_PREDICTOR_WEIGHTS = (
    "4c937d33635271f421df06786d785b75e8304c1a90d79373aff3fd2a0b1ec4ec")
OPT_TINY_MLP_PREDICTOR_WEIGHTS = (
    "56a16a1802f35f13c8d07805cfa46d8708c5af02a89441bfb30c570bac0e8c44")


def _unfitted(seq_len: int) -> CalibrationEntry:
    """The densities of a hand-built calibration (nothing was measured)."""
    return CalibrationEntry(seq_len=seq_len, oracle_density=0.0, predicted_density=0.0)


class TestPrimitives:
    def test_separating_threshold_keeps_exactly_k(self):
        rng = np.random.default_rng(0)
        vals = np.sort(rng.normal(size=50))[::-1]
        for keep in (1, 10, 49):
            tau = _separating_threshold(vals, keep)
            assert int((vals > tau).sum()) == keep

    def test_separating_threshold_edges(self):
        vals = np.array([3.0, 2.0, 1.0])
        assert (vals > _separating_threshold(vals, 0)).sum() == 0
        assert (vals > _separating_threshold(vals, 3)).sum() == 3
        assert (vals > _separating_threshold(vals, 99)).sum() == 3

    def test_separating_threshold_ties_keep_more_not_fewer(self):
        """Tied boundary scores must be kept (recall side), not all dropped."""
        vals = np.array([5.0, 3.0, 3.0, 3.0, 1.0])
        tau = _separating_threshold(vals, 3)
        assert int((vals > tau).sum()) == 4   # all tied 3.0s survive
        tau = _separating_threshold(np.zeros(6), 2)
        assert int((np.zeros(6) > tau).sum()) == 6

    def test_mlp_threshold_round_trip(self):
        """The calibrated bar is the one threshold at every runtime length:
        a block is active iff its score is strictly above it."""
        predictor = MLPPredictor(32, 256, 16, seed=1)
        predictor.set_calibration(MLPCalibration(threshold=0.5, entry=_unfitted(64)))
        rng = np.random.default_rng(2)
        for seq in (32, 64, 256):
            x = rng.normal(size=(2, seq, 32)).astype(np.float32)
            active = np.nonzero(predictor.block_scores(x) > 0.5)[0]
            assert 0 < active.size < predictor.n_blocks
            np.testing.assert_array_equal(predictor.predict_active_blocks(x), active)

    def test_set_calibration_validates_block_size(self):
        predictor = AttentionPredictor(32, 2, 4, 16)
        wrong = AttentionCalibration(block_size=32, budget=np.zeros(2),
                                     entry=_unfitted(64))
        with pytest.raises(ValueError):
            predictor.set_calibration(wrong)
        predictor.set_calibration(None)
        assert predictor.calibration is None


def test_predicted_masks_keep_the_calibrated_budget(monkeypatch):
    """Per head the calibrated masks are the top ``ceil(budget * causal)``
    causal blocks of the batch-mean scores plus the diagonal — a rank cut,
    so rescaling the scores by a positive factor and shifting them changes
    nothing (the absolute logit thresholds this replaced moved with both)."""
    predictor = AttentionPredictor(32, 4, 4, 16, seed=3)
    budget = np.array([0.1, 0.25, 0.4, 0.7])
    predictor.set_calibration(AttentionCalibration(block_size=16, budget=budget,
                                                   entry=_unfitted(256)))
    x = np.random.default_rng(4).normal(size=(2, 256, 32)).astype(np.float32)
    masks = predictor.predict_patterns(x)
    n_blocks = 16
    causal = causal_block_mask(n_blocks)
    total = int(causal.sum())
    mean = predictor.approximate_scores(x).mean(axis=0)
    for head in range(4):
        keep = int(np.ceil(budget[head] * total - 1e-9))
        scores = np.where(causal, mean[head], -np.inf).ravel()
        top = np.zeros(n_blocks * n_blocks, dtype=bool)
        top[np.argsort(-scores, kind="stable")[:keep]] = True
        top = top.reshape(n_blocks, n_blocks)
        assert top.sum() == keep
        np.testing.assert_array_equal(masks[head], top | np.eye(n_blocks, dtype=bool))

    plain = predictor.approximate_scores
    monkeypatch.setattr(predictor, "approximate_scores",
                        lambda inputs: plain(inputs) * np.float32(4.0) + np.float32(3.0))
    np.testing.assert_array_equal(predictor.predict_patterns(x), masks)


class TestBudgetMasks:
    def test_masks_preserve_causality_and_diagonal(self):
        """Calibrated masks never violate the layout invariants, for any
        scores and any budget."""
        rng = np.random.default_rng(0)
        for n_blocks in (4, 8, 16):
            scores = rng.normal(size=(5, n_blocks, n_blocks))
            masks = budget_block_masks(scores, rng.random(5))
            causal = causal_block_mask(n_blocks)
            assert not np.any(masks & ~causal[None])
            assert np.all(masks[:, np.arange(n_blocks), np.arange(n_blocks)])

    def test_raw_mask_is_recovered_at_its_own_density(self):
        """Scores that rank a raw coverage mask's blocks first, at that mask's
        density as the budget, give the raw mask back exactly."""
        exposer = AttentionExposer(block_size=16, coverage=0.9)
        rng = np.random.default_rng(1)
        mass = rng.random((3, 8, 8)) ** 4 * causal_block_mask(8)
        raw = exposer.raw_masks_from_block_mass(mass)
        causal = causal_block_mask(8)
        budget = raw[:, causal].sum(axis=1) / causal.sum()
        np.testing.assert_array_equal(
            budget_block_masks(raw.astype(np.float32), budget), raw)

    def test_budget_bounds(self):
        scores = np.random.default_rng(2).normal(size=(2, 6, 6))
        masks = budget_block_masks(scores, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(masks[0], np.eye(6, dtype=bool))
        np.testing.assert_array_equal(masks[1], causal_block_mask(6))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            budget_block_masks(np.zeros((8, 8)), np.zeros(1))


@pytest.fixture(scope="module")
def trained_setup(tiny_model):
    """A trained layer-0 attention predictor plus its 128-token recordings."""
    rng = np.random.default_rng(3)
    batches = [rng.integers(0, tiny_model.config.vocab_size, size=(2, 128))]
    exposer = AttentionExposer(block_size=16, coverage=0.9)
    merged = collect_layer_data(tiny_model, batches)[0].merged()
    inputs, probs = merged["attention_inputs"], merged["attention_probs"]
    mass = sample_block_mass(exposer, probs)
    predictor = AttentionPredictor(tiny_model.config.dim, tiny_model.config.num_heads,
                                   rank=4, block_size=16, seed=0)
    train_attention_predictor(predictor, inputs, mass, exposer,
                              PredictorTrainingConfig(epochs=8))
    return predictor, exposer, inputs, probs, mass


def _density(masks: np.ndarray) -> float:
    """Mean fraction of causal blocks the ``(heads, nb, nb)`` masks keep."""
    return float(masks[:, causal_block_mask(masks.shape[-1])].mean())


class TestBudgetCalibration:
    def test_calibrated_density_matches_oracle_on_calibration_data(self, trained_setup):
        predictor, exposer, inputs, probs, mass = trained_setup
        calibration = calibrate_attention_predictor(predictor, exposer, inputs, mass)
        # The budget is the raw oracle density, head by head.
        oracle = exposer.raw_masks_from_block_mass(mass.sum(axis=0))
        causal = causal_block_mask(oracle.shape[-1])
        np.testing.assert_array_equal(calibration.budget,
                                      oracle[:, causal].sum(axis=1) / causal.sum())
        # The calibrated masks keep the budget plus any diagonal block their
        # top scores miss (at most n_blocks of the n_blocks(n_blocks+1)/2
        # causal blocks, felt only on coarse grids).
        entry = calibration.entry
        assert entry.seq_len == 128
        n_blocks = entry.seq_len // 16
        assert entry.predicted_density >= entry.oracle_density - 1e-12
        assert entry.predicted_density <= entry.oracle_density + 2.0 / (n_blocks + 1)
        assert 0.0 <= entry.gap <= 0.2

    def test_calibration_tightens_the_density_gap(self, trained_setup):
        """Calibrated predictions must track the raw oracle density better
        than the fixed-threshold path at the calibration length."""
        predictor, exposer, inputs, probs, mass = trained_setup
        calibration = calibrate_attention_predictor(predictor, exposer, inputs, mass)
        oracle = _density(exposer.raw_block_masks(probs))
        gaps = {}
        for calibrated in (False, True):
            predictor.set_calibration(calibration if calibrated else None)
            gaps[calibrated] = abs(_density(predictor.predict_patterns(inputs)) - oracle)
        predictor.set_calibration(None)
        assert gaps[True] <= gaps[False] + 1e-9

    def test_budget_carries_to_other_lengths_without_dense_collapse(self, trained_setup):
        """Calibrated at 128 tokens, a head run at 64 or 256 keeps
        ``ceil(budget * causal blocks)`` of that length's causal blocks plus
        the diagonal — the uncalibrated failure mode was near-dense masks
        away from the training length."""
        predictor, exposer, inputs, probs, mass = trained_setup
        calibration = calibrate_attention_predictor(predictor, exposer, inputs, mass)
        predictor.set_calibration(calibration)
        try:
            rng = np.random.default_rng(11)
            for seq in (64, 256):
                x = rng.normal(size=(2, seq, predictor.dim)).astype(np.float32)
                masks = predictor.predict_patterns(x)
                n_blocks = seq // 16
                assert masks.shape == (predictor.num_heads, n_blocks, n_blocks)
                causal = causal_block_mask(n_blocks)
                mean = predictor.approximate_scores(x).mean(axis=0)
                for head, budget in enumerate(calibration.budget):
                    keep = int(np.ceil(budget * causal.sum() - 1e-9))
                    scores = np.where(causal, mean[head], -np.inf).ravel()
                    top = np.zeros(n_blocks * n_blocks, dtype=bool)
                    top[np.argsort(-scores, kind="stable")[:keep]] = True
                    np.testing.assert_array_equal(
                        masks[head], top.reshape(n_blocks, n_blocks)
                        | np.eye(n_blocks, dtype=bool))
                assert _density(masks) < 0.95    # never collapses to (near-)dense
        finally:
            predictor.set_calibration(None)


class TestMLPCalibrationFit:
    def test_calibrated_active_count_matches_oracle(self, tiny_model):
        rng = np.random.default_rng(5)
        batches = [rng.integers(0, tiny_model.config.vocab_size, size=(2, 64))]
        collected = collect_layer_data(tiny_model, batches)
        merged = collected[0].merged()
        exposer = MLPExposer(block_size=16, threshold=0.03)
        predictor = MLPPredictor(tiny_model.config.dim, tiny_model.config.hidden_dim,
                                 block_size=16, seed=0)
        train_mlp_predictor(predictor, merged["mlp_inputs"],
                            merged["mlp_activations"], exposer,
                            PredictorTrainingConfig(epochs=6))
        calibration = calibrate_mlp_predictor(
            predictor, exposer, merged["mlp_inputs"],
            exposer.neuron_mass(merged["mlp_activations"]))
        predictor.set_calibration(calibration)
        try:
            oracle = exposer.active_blocks(merged["mlp_activations"])
            predicted = predictor.predict_active_blocks(merged["mlp_inputs"])
            assert predicted.size == oracle.size
        finally:
            predictor.set_calibration(None)


class TestSeq512Gap:
    def test_predicted_sparsity_tracks_oracle_at_seq_512(self):
        """The acceptance-criteria regime at test scale: calibrated probes on
        fresh batches at seq 512 stay within tolerance of the exposer's raw
        block sparsity, and strictly closer than the uncalibrated probes."""
        model = build_model("opt-tiny", seed=0)
        rng = np.random.default_rng(0)
        calib = rng.integers(0, model.config.vocab_size, size=(2, 512))
        config = LongExposureConfig(block_size=32, predictor_epochs=8, seed=0)
        engine = LongExposure(config)
        engine.prepare(model, [calib])

        ids = rng.integers(0, model.config.vocab_size, size=(2, 512))
        layers = collect_layer_data(model, [ids])
        oracle_sp, cal_sp, uncal_sp = [], [], []
        for layer_index, predictor in enumerate(engine.attention_predictors):
            merged = layers[layer_index].merged()
            oracle_sp.append(layout_from_block_masks(
                engine.attention_exposer.raw_block_masks(merged["attention_probs"]),
                32).sparsity())
            cal_sp.append(layout_from_block_masks(
                predictor.predict_patterns(merged["attention_inputs"]), 32).sparsity())
            saved = predictor.calibration
            predictor.calibration = None
            try:
                uncal = predictor.predict_patterns(merged["attention_inputs"])
            finally:
                predictor.calibration = saved
            uncal_sp.append(layout_from_block_masks(uncal, 32).sparsity())
        cal_gap = abs(np.mean(oracle_sp) - np.mean(cal_sp))
        uncal_gap = abs(np.mean(oracle_sp) - np.mean(uncal_sp))
        assert cal_gap <= 0.10          # test-scale tolerance (bench bar: 0.05)
        assert cal_gap <= uncal_gap + 1e-9


class TestCollectAndMetricsSupport:
    def test_collect_keeps_each_batch_at_its_own_length(self, tiny_model):
        """Collection neither clips nor skips: every batch is recorded at
        the length it has, and its block mass covers its own blocks."""
        rng = np.random.default_rng(2)
        batches = [rng.integers(0, tiny_model.config.vocab_size, size=(2, seq))
                   for seq in (64, 20)]
        data = collect_layer_data(tiny_model, batches)[0]
        assert [a.shape[:2] for a in data.attention_inputs] == [(2, 64), (2, 20)]
        assert [p.shape[-2:] for p in data.attention_probs] == [(64, 64), (20, 20)]
        assert [a.shape[1] for a in data.mlp_activations] == [64, 20]
        exposer = AttentionExposer(block_size=16, coverage=0.9)
        masses = collect_block_mass(tiny_model, batches, exposer)[0].attention_block_mass
        assert [m.shape[-2:] for m in masses] == [(4, 4), (2, 2)]
        for mass, probs in zip(masses, data.attention_probs):
            assert np.array_equal(mass, sample_block_mass(exposer, probs))

    def test_merged_block_mass_concatenates_once(self, tiny_model, tiny_batches):
        """Block mass is a per-batch list like every other recording:
        ``merged`` concatenates it along the batch axis in place, and a
        second call returns the same arrays."""
        exposer = AttentionExposer(block_size=16, coverage=0.9)
        data = collect_block_mass(tiny_model, tiny_batches, exposer)[0]
        per_batch = list(data.attention_block_mass)
        assert len(per_batch) == len(tiny_batches)
        first = data.merged()
        assert first["attention_block_mass"].shape == (
            4, tiny_model.config.num_heads, 4, 4)
        assert np.array_equal(first["attention_block_mass"],
                              np.concatenate(per_batch, axis=0))
        assert len(data.attention_block_mass) == 1
        second = data.merged()
        assert all(second[name] is first[name] for name in first)

    def test_metrics_report_density_miscalibration(self, trained_setup):
        predictor, exposer, inputs, _, mass = trained_setup
        metrics = train_attention_predictor(
            predictor, inputs, mass, exposer,
            PredictorTrainingConfig(epochs=0))
        assert 0.0 <= metrics.label_density <= 1.0
        assert 0.0 <= metrics.predicted_density <= 1.0
        assert "density" in metrics.summary()


class TestEngineIntegration:
    def test_prepare_attaches_calibrations(self, prepared_engine):
        model, engine = prepared_engine
        assert len(engine.attention_calibrations) == len(model.blocks)
        assert len(engine.mlp_calibrations) == len(model.blocks)
        for predictor, calibration in zip(engine.attention_predictors,
                                          engine.attention_calibrations):
            assert predictor.calibration is calibration
            assert calibration.entry.seq_len == 64   # the batches' length
        gaps = engine.calibration_gap()
        assert set(gaps) == {"attention", "mlp"}
        assert all(0.0 <= g <= 1.0 for g in gaps.values())
        assert "calibration" in engine.summary()

    def test_every_mlp_predictor_carries_its_calibration(self, prepared_engine):
        """prepare() always calibrates: no MLP predictor runs uncalibrated."""
        model, engine = prepared_engine
        assert len(engine.mlp_predictors) == len(model.blocks)
        for predictor, calibration in zip(engine.mlp_predictors,
                                          engine.mlp_calibrations):
            assert predictor.calibration is calibration
            assert calibration.entry.seq_len == 64

    def test_calibration_gap_is_the_mean_layer_gap(self, prepared_engine):
        """``calibration_gap`` averages each layer's one entry, per kind."""
        _, engine = prepared_engine
        gaps = engine.calibration_gap()
        for kind, calibrations in (("attention", engine.attention_calibrations),
                                   ("mlp", engine.mlp_calibrations)):
            layer_gaps = [abs(c.entry.predicted_density - c.entry.oracle_density)
                          for c in calibrations]
            assert gaps[kind] == pytest.approx(np.mean(layer_gaps), abs=1e-15)

    def test_summary_prints_the_calibration_length(self, prepared_engine):
        _, engine = prepared_engine
        summary = engine.summary()
        assert "  calibration length: 64" in summary.splitlines()
        assert "grid" not in summary

    def test_trainer_surfaces_calibration_gauges(self, tiny_batches):
        from repro.peft import apply_lora
        from repro.runtime.trainer import FineTuner, TrainingConfig

        model = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16,
                                                 predictor_epochs=1))
        engine.prepare(model, tiny_batches[:1])
        apply_lora(model)
        engine.install(model)
        try:
            tuner = FineTuner(model, TrainingConfig(learning_rate=1e-3),
                              engine=engine)
            tuner.step(np.asarray(tiny_batches[0]))
        finally:
            engine.uninstall(model)
        gauges = tuner.profiler.gauges()
        assert "attention_sparsity" in gauges
        assert "mlp_sparsity" in gauges
        assert "attention_calibration_gap" in gauges
        assert "mlp_calibration_gap" in gauges
        assert 0.0 <= gauges["attention_sparsity"] <= 1.0
        summary = tuner.profiler.summary_dict()
        assert "attention_calibration_gap" in summary["gauges"]


# ---------------------------------------------------------------------------
# streaming prepare: block mass reduced at production
# ---------------------------------------------------------------------------

def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _fitted_digest(predictor, calibration, metrics) -> str:
    """Everything ``prepare`` fits for one probe, bit for bit: its weights,
    its budget (attention) or threshold (MLP), its metrics."""
    fitted = (calibration.budget if isinstance(calibration, AttentionCalibration)
              else calibration.threshold)
    return _sha(*(p.data for p in predictor.trainable_parameters()),
                np.asarray(fitted),
                np.asarray(dataclasses.astuple(metrics), dtype=np.float64))


def _prepare_inputs(seed: int, shape=(2, 128)):
    model = build_model("opt-tiny", seed=0)
    rng = np.random.default_rng(seed)
    return model, [rng.integers(0, model.config.vocab_size, size=shape)
                   for _ in range(2)]


def _assert_prepare_twin(seed: int, seq: int) -> None:
    """``prepare`` on two ``(2, seq)`` batches fits, bit for bit, what
    one-probe fits and calibrations on ``collect_layer_data``'s full
    probabilities reduced per sample fit — same batches, same order."""
    model, batches = _prepare_inputs(seed, shape=(2, seq))
    config = LongExposureConfig(block_size=16, predictor_epochs=3, seed=seed)
    training = PredictorTrainingConfig(epochs=config.predictor_epochs, seed=seed)
    engine = LongExposure(config)
    engine.prepare(model, batches)

    exposer = engine.attention_exposer
    for layer, data in enumerate(collect_layer_data(model, batches)):
        merged = data.merged()
        mass = sample_block_mass(exposer, merged["attention_probs"])
        assert mass.shape[-1] == -(-seq // 16)
        predictor = AttentionPredictor(
            model.config.dim, model.config.num_heads, PROBE_RANK, 16,
            seed=seed + layer)
        metrics = train_attention_predictor(
            predictor, merged["attention_inputs"], mass, exposer, training)
        calibration = calibrate_attention_predictor(
            predictor, exposer, merged["attention_inputs"], mass)
        assert calibration.entry.seq_len == seq
        assert calibration.entry == engine.attention_calibrations[layer].entry
        assert _fitted_digest(predictor, calibration, metrics) == _fitted_digest(
            engine.attention_predictors[layer],
            engine.attention_calibrations[layer],
            engine.predictor_metrics["attention"][layer]), f"layer {layer}"

        mlp = MLPPredictor(model.config.dim, model.config.hidden_dim, 16,
                           seed=seed + 1000 + layer)
        metrics = train_mlp_predictor(mlp, merged["mlp_inputs"],
                                      merged["mlp_activations"],
                                      engine.mlp_exposer, training)
        calibration = calibrate_mlp_predictor(
            mlp, engine.mlp_exposer, merged["mlp_inputs"],
            engine.mlp_exposer.neuron_mass(merged["mlp_activations"]))
        assert calibration.entry == engine.mlp_calibrations[layer].entry
        assert _fitted_digest(mlp, calibration, metrics) == _fitted_digest(
            engine.mlp_predictors[layer], engine.mlp_calibrations[layer],
            engine.predictor_metrics["mlp"][layer]), f"mlp layer {layer}"


class TestStreamingPrepare:
    @pytest.mark.parity
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_twin_of_full_probability_collection(self, seed):
        """``prepare`` keeps per-sample block mass only and trains every
        layer's probes in one lockstep loop; what it fits must equal, bit
        for bit, one-probe fits and calibrations on ``collect_layer_data``'s
        full probabilities reduced per sample — same batches, same order —
        for the attention and the MLP predictors alike."""
        _assert_prepare_twin(seed, 128)

    @pytest.mark.parity
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_twin_at_a_ragged_length(self, seed):
        """The same twin on 100-token batches: the last of the 7 blocks is
        4 tokens long, and the budget is fitted over its partial tiles."""
        _assert_prepare_twin(seed, 100)

    @pytest.mark.parity
    def test_mlp_fits_are_the_whole_activations_twin(self):
        """``prepare`` keeps three reductions of each layer's MLP activations
        in their place.  Its MLP fits — weights, thresholds, metrics — equal,
        bit for bit, one-probe fits and calibrations on
        ``collect_layer_data``'s whole activations, on two ``(2, 64)``
        batches through a 144-neuron MLP in 32-neuron blocks, the last one
        short; and no array ``collect_block_mass`` returns is
        activation-sized."""
        block = 32
        model = build_model(dataclasses.replace(get_config("opt-tiny"), dim=36), seed=0)
        rng = np.random.default_rng(0)
        batches = [rng.integers(0, model.config.vocab_size, size=(2, 64))
                   for _ in range(2)]
        hidden = model.config.hidden_dim
        assert hidden % block
        engine = LongExposure(LongExposureConfig(block_size=block,
                                                 predictor_epochs=3, seed=0))
        engine.prepare(model, batches)
        training = PredictorTrainingConfig(epochs=3, seed=0)
        exposer = engine.mlp_exposer
        reduced = collect_block_mass(model, batches, engine.attention_exposer)
        for layer, data in enumerate(collect_layer_data(model, batches)):
            merged = data.merged()
            inputs, activations = merged["mlp_inputs"], merged["mlp_activations"]
            assert activations.shape == (4, 64, hidden)
            mine = reduced[layer].merged()
            assert _sha(mine["mlp_token_block_mass"]) == _sha(
                mlp_token_block_mass(activations, block))
            assert _sha(mine["mlp_neuron_mass"]) == _sha(
                *(exposer.neuron_mass(sample) for sample in activations))
            assert _sha(mine["mlp_total_mass"]) == _sha(exposer.neuron_mass(activations))
            mlp = MLPPredictor(model.config.dim, hidden, block, seed=1000 + layer)
            metrics = train_mlp_predictor(mlp, inputs, activations, exposer, training)
            calibration = calibrate_mlp_predictor(
                mlp, exposer, inputs, exposer.neuron_mass(activations))
            assert calibration.entry == engine.mlp_calibrations[layer].entry
            assert _fitted_digest(mlp, calibration, metrics) == _fitted_digest(
                engine.mlp_predictors[layer], engine.mlp_calibrations[layer],
                engine.predictor_metrics["mlp"][layer]), f"mlp layer {layer}"
        for data in reduced:
            kept = [data.mlp_total_mass]
            for recording in dataclasses.fields(data):
                if isinstance(getattr(data, recording.name), list):
                    kept += getattr(data, recording.name)
            assert data.mlp_total_mass.shape == (hidden,) and not data.mlp_activations
            assert not [a.shape for a in kept if a.shape[-2:] == (64, hidden)]

    def test_collection_dtype_does_not_follow_numpy_promotion(self, tiny_model,
                                                              tiny_batches):
        """Block mass is ``block_reduce`` of the exposer sweep's row-tile
        probabilities, bit for bit, and stays float32 on every NumPy major:
        the sweep scales by a Python float in place, which neither NEP 50
        nor value-based casting promotes."""
        from repro.sparsity.exposer.attention import attention_probability_tiles
        from repro.tensor import Tensor, no_grad

        exposer = AttentionExposer(block_size=16, coverage=0.9)
        data = collect_block_mass(tiny_model, tiny_batches[:1], exposer)[0]
        mass = data.merged()["attention_block_mass"]
        assert mass.dtype == np.float32 and mass.shape == (2, 4, 4, 4)

        attention = tiny_model.blocks[0].attention
        with no_grad():
            x_norm = Tensor(data.attention_inputs[0])
            q, k = (attention.split_heads(proj(x_norm)).data for proj in (
                attention.q_proj, attention.k_proj))
        probs = np.zeros(q.shape[:3] + (q.shape[2],), np.float32)
        for r0, tile in attention_probability_tiles(
                q, k, float(1.0 / np.sqrt(attention.head_dim)), 16):
            assert tile.dtype == np.float32
            probs[:, :, r0:r0 + tile.shape[2], :tile.shape[3]] = tile
        assert _sha(mass) == _sha(sample_block_mass(exposer, probs))

    def test_predictor_weight_digest_is_stable(self):
        """Stored digest of the weights ``prepare`` trains on ``opt-tiny`` —
        the same bits whichever NumPy major version runs it.  Only meaningful
        where sgemm rounds as on the host that stored it, which a small
        product's digest stands in for."""
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 64, 48)).astype(np.float32)
        if _sha(a @ b.T) != SGEMM_CANARY:
            pytest.skip("this BLAS rounds sgemm differently from the host "
                        "the digest was stored on")
        model, batches = _prepare_inputs(seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16,
                                                 predictor_epochs=3, seed=0))
        engine.prepare(model, batches)
        weights = {kind: [p.data for predictor in predictors
                          for p in predictor.trainable_parameters()]
                   for kind, predictors in (("attention", engine.attention_predictors),
                                            ("mlp", engine.mlp_predictors))}
        assert all(w.dtype == np.float32 for ws in weights.values() for w in ws)
        assert {kind: _sha(*ws) for kind, ws in weights.items()} == {
            "attention": OPT_TINY_PREDICTOR_WEIGHTS,
            "mlp": OPT_TINY_MLP_PREDICTOR_WEIGHTS}

    def test_prepare_draws_the_noise_once_for_every_probe(self, monkeypatch):
        """Every probe trains on one shared noise stream: ``prepare`` makes
        one input-shaped ``normal`` draw per (epoch, minibatch), however many
        layers and probes it trains — not one per probe."""
        model, batches = _prepare_inputs(seed=0)
        sample_shape = (batches[0].shape[1], model.config.dim)
        draws = []
        make_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, *args, **kwargs):
                self._rng = make_rng(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def normal(self, *args, size=None, **kwargs):
                if size is not None and tuple(size)[1:] == sample_shape:
                    draws.append(size)
                return self._rng.normal(*args, size=size, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        config = LongExposureConfig(block_size=16, predictor_epochs=2, seed=0)
        engine = LongExposure(config)
        engine.prepare(model, batches)
        assert len(engine.attention_predictors) == len(engine.mlp_predictors) == 2
        n_samples = sum(len(batch) for batch in batches)
        assert len(draws) == config.predictor_epochs * -(-n_samples // BATCH_SIZE)

    @pytest.mark.perf_smoke
    def test_prepare_peak_memory_is_a_few_heads_probabilities(self):
        """``prepare`` holds no more of the probabilities than the exposer
        sweep's one row tile at a time: its peak is a few ``(seq, seq)``
        float64 heads, most of it the recorded inputs and activations the
        probes train on.  One sample's ``(heads, seq, seq)`` scratch beside
        an all-head forward (what collection once held) is over twice that
        bound."""
        seq = 512
        model, batches = _prepare_inputs(seed=0, shape=(1, seq))
        engine = LongExposure(LongExposureConfig(block_size=16,
                                                 predictor_epochs=2, seed=0))
        tracemalloc.start()
        try:
            engine.prepare(model, batches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_head = seq * seq * 8
        assert peak <= 5 * one_head, f"peak {peak / one_head:.2f} heads"

    def test_recorded_inputs_are_the_model_forwards(self):
        """Collection projects q/k/v itself and runs the dense attention
        kernel beside the probability sweep; every layer's recorded sub-layer
        inputs must still be an ordinary ``no_grad`` forward's, bit for bit."""
        from repro.tensor import no_grad

        model, batches = _prepare_inputs(seed=0)
        seen = {}
        with pytest.MonkeyPatch.context() as patch:
            for index, block in enumerate(model.blocks):
                for name in ("attn_norm", "mlp_norm"):
                    norm = getattr(block, name)

                    def record(x, norm=norm, key=(index, name)):
                        out = type(norm).forward(norm, x)
                        seen.setdefault(key, []).append(out.data.copy())
                        return out
                    patch.setattr(norm, "forward", record)
            with no_grad():
                for batch in batches:
                    model.forward(batch)
        collected = collect_block_mass(model, batches, AttentionExposer(16, 0.9))
        for index, data in enumerate(collected):
            for name, recorded in (("attn_norm", data.attention_inputs),
                                   ("mlp_norm", data.mlp_inputs)):
                assert _sha(*recorded) == _sha(*seen[(index, name)]), (index, name)

    def test_collection_projects_q_k_v_once_per_layer(self):
        model, batches = _prepare_inputs(seed=0)
        calls = {}
        with pytest.MonkeyPatch.context() as patch:
            for index, block in enumerate(model.blocks):
                for name in ("q_proj", "k_proj", "v_proj"):
                    proj = getattr(block.attention, name)

                    def count(x, proj=proj, key=(index, name)):
                        calls[key] = calls.get(key, 0) + 1
                        return type(proj).forward(proj, x)
                    patch.setattr(proj, "forward", count)
            collect_block_mass(model, batches, AttentionExposer(16, 0.9))
        assert calls == {(index, name): len(batches)
                         for index in range(len(model.blocks))
                         for name in ("q_proj", "k_proj", "v_proj")}

    def test_mixed_calibration_lengths_fail_before_the_pass(self, monkeypatch):
        import repro.sparsity.engine as engine_module

        def no_pass(*args, **kwargs):
            raise AssertionError("the collection pass ran")

        monkeypatch.setattr(engine_module, "collect_block_mass", no_pass)
        model = build_model("opt-tiny", seed=0)
        rng = np.random.default_rng(0)
        batches = [rng.integers(0, model.config.vocab_size, size=(1, length))
                   for length in (128, 64)]
        engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=1))
        with pytest.raises(ValueError, match=r"lengths \[64, 128\]"):
            engine.prepare(model, batches)

    def test_no_calibration_batch_fails_before_the_pass(self, monkeypatch):
        import repro.sparsity.engine as engine_module

        def no_pass(*args, **kwargs):
            raise AssertionError("the collection pass ran")

        monkeypatch.setattr(engine_module, "collect_block_mass", no_pass)
        engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=1))
        with pytest.raises(ValueError, match="at least one calibration batch"):
            engine.prepare(build_model("opt-tiny", seed=0), [])
