"""Tests of the predictor-calibration subsystem (per-head block budgets).

Covers the calibration guarantees:

* budget calibration closes the predicted-vs-oracle block-density gap against
  the exposer's raw coverage masks — including at seq 512, the regime where
  the uncalibrated probes were measured ~0.10 too dense;
* a budget is a rank cut: each head keeps exactly its budget of top-scoring
  causal blocks plus the diagonal, whatever scale or offset the scores have;
* the multi-length grid round-trips (exact lookups at grid lengths,
  log-linear interpolation between them, clamping outside), so probes do not
  collapse to near-dense masks away from their training length;
* calibrated masks never violate the layout invariants — they stay inside
  the causal triangle with a guaranteed diagonal, for any scores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.models import build_model
from repro.sparsity import LongExposure, LongExposureConfig
from repro.sparsity.exposer import AttentionExposer, MLPExposer
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.patterns import causal_block_mask
from repro.sparsity.predictor import (
    AttentionCalibration,
    AttentionPredictor,
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
    _bracket,
    _separating_threshold,
    budget_block_masks,
)

from parity import sample_block_mass

# See TestStreamingPrepare.test_predictor_weight_digest_is_stable.
SGEMM_CANARY = "d89522c442ee65f4a0495f1dbe19480cc4748a5e12387948112c6b2316113eb8"
OPT_TINY_PREDICTOR_WEIGHTS = (
    "bb6dbf997206488ffc7d53e8eb98a3701737002c6c0cc990ed906c7a1b939503")


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

    def test_bracket_exact_and_clamped(self):
        assert _bracket([32, 64, 128], 64) == (64, None, 0.0)
        assert _bracket([32, 64, 128], 16) == (32, None, 0.0)
        assert _bracket([32, 64, 128], 512) == (128, None, 0.0)
        low, high, w = _bracket([32, 128], 64)
        assert (low, high) == (32, 128)
        assert w == pytest.approx(0.5)   # log-linear: 64 is halfway in log2

    def test_budget_for_interpolates_between_grid_points(self):
        cal = AttentionCalibration(
            block_size=16,
            budgets={32: np.array([0.1, 0.2]), 128: np.array([0.3, 0.6])})
        np.testing.assert_array_equal(cal.budget_for(32), [0.1, 0.2])
        np.testing.assert_array_equal(cal.budget_for(128), [0.3, 0.6])
        np.testing.assert_allclose(cal.budget_for(64), [0.2, 0.4])
        np.testing.assert_array_equal(cal.budget_for(8), [0.1, 0.2])
        np.testing.assert_array_equal(cal.budget_for(4096), [0.3, 0.6])

    def test_mlp_threshold_for_round_trip(self):
        cal = MLPCalibration(thresholds={32: 0.2, 128: 0.6})
        assert cal.threshold_for(32) == 0.2
        assert cal.threshold_for(128) == 0.6
        assert cal.threshold_for(64) == pytest.approx(0.4)
        assert cal.grid_lengths() == [32, 128]

    def test_set_calibration_validates_block_size(self):
        predictor = AttentionPredictor(32, 2, 4, 16)
        wrong = AttentionCalibration(block_size=32, budgets={64: np.zeros(2)})
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
    predictor.set_calibration(AttentionCalibration(block_size=16,
                                                   budgets={256: budget}))
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
    """A trained layer-0 attention predictor plus per-length collected data."""
    rng = np.random.default_rng(3)
    batches = [rng.integers(0, tiny_model.config.vocab_size, size=(2, 128))]
    exposer = AttentionExposer(block_size=16, coverage=0.9)
    lengths = (32, 64, 128)
    per_length = {
        length: collect_layer_data(tiny_model, [b[..., :length] for b in batches])
        for length in lengths
    }
    merged = per_length[128][0].merged()
    predictor = AttentionPredictor(tiny_model.config.dim, tiny_model.config.num_heads,
                                   rank=4, block_size=16, seed=0)
    train_attention_predictor(predictor, merged["attention_inputs"],
                              sample_block_mass(exposer, merged["attention_probs"]),
                              exposer, PredictorTrainingConfig(epochs=8))
    inputs = {l: per_length[l][0].merged()["attention_inputs"] for l in lengths}
    probs = {l: per_length[l][0].merged()["attention_probs"] for l in lengths}
    mass = {l: sample_block_mass(exposer, probs[l]) for l in lengths}
    return predictor, exposer, inputs, probs, mass


def _density(masks: np.ndarray) -> float:
    """Mean fraction of causal blocks the ``(heads, nb, nb)`` masks keep."""
    return float(masks[:, causal_block_mask(masks.shape[-1])].mean())


class TestBudgetCalibration:
    def test_calibrated_density_matches_oracle_on_calibration_data(self, trained_setup):
        predictor, exposer, inputs, probs, mass = trained_setup
        calibration = calibrate_attention_predictor(predictor, exposer,
                                                    inputs, mass)
        assert sorted(calibration.budgets) == [32, 64, 128]
        for length in (32, 64, 128):
            # The budget is the raw oracle density, head by head.
            oracle = exposer.raw_masks_from_block_mass(mass[length].sum(axis=0))
            causal = causal_block_mask(oracle.shape[-1])
            np.testing.assert_array_equal(
                calibration.budgets[length],
                oracle[:, causal].sum(axis=1) / causal.sum())
        # The calibrated masks keep the budget plus any diagonal block their
        # top scores miss (at most n_blocks of the n_blocks(n_blocks+1)/2
        # causal blocks, felt only on coarse grids).
        for entry in calibration.entries:
            n_blocks = entry.seq_len // 16
            assert entry.predicted_density >= entry.oracle_density - 1e-12
            assert entry.predicted_density <= (
                entry.oracle_density + 2.0 / (n_blocks + 1))
        assert 0.0 <= calibration.mean_gap() <= 0.2

    def test_calibration_tightens_the_density_gap(self, trained_setup):
        """Calibrated predictions must track the raw oracle density better
        than the fixed-threshold path, averaged over the grid lengths."""
        predictor, exposer, inputs, probs, mass = trained_setup
        calibration = calibrate_attention_predictor(predictor, exposer,
                                                    inputs, mass)
        gaps = {}
        for calibrated in (False, True):
            predictor.set_calibration(calibration if calibrated else None)
            total = 0.0
            for length, x in inputs.items():
                oracle = exposer.raw_block_masks(probs[length])
                total += abs(_density(predictor.predict_patterns(x))
                             - _density(oracle))
            gaps[calibrated] = total / len(inputs)
        predictor.set_calibration(None)
        assert gaps[True] <= gaps[False] + 1e-9

    def test_multi_length_round_trip_no_dense_collapse(self, trained_setup):
        """A probe calibrated on the grid must stay sparse at every grid
        length *and* at interpolated lengths in between — the uncalibrated
        failure mode was near-dense masks away from the training length."""
        predictor, exposer, inputs, probs, mass = trained_setup
        calibration = calibrate_attention_predictor(predictor, exposer,
                                                    inputs, mass)
        predictor.set_calibration(calibration)
        try:
            rng = np.random.default_rng(11)
            for seq in (32, 48, 64, 96, 128):     # 48/96 are off-grid
                x = rng.normal(size=(2, seq, predictor.dim)).astype(np.float32)
                masks = predictor.predict_patterns(x)
                n_blocks = -(-seq // 16)
                assert masks.shape == (predictor.num_heads, n_blocks, n_blocks)
                assert masks.dtype == bool
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
            predictor, exposer,
            {64: merged["mlp_inputs"]}, {64: merged["mlp_activations"]})
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
        config = LongExposureConfig(block_size=32, predictor_epochs=8, seed=0,
                                    calibration_lengths=(128, 512))
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
    def test_collect_truncate_to_clips_and_skips(self, tiny_model):
        rng = np.random.default_rng(2)
        long_batch = rng.integers(0, tiny_model.config.vocab_size, size=(2, 64))
        short_batch = rng.integers(0, tiny_model.config.vocab_size, size=(2, 16))
        collected = collect_layer_data(tiny_model, [long_batch, short_batch],
                                       truncate_to=32)
        merged = collected[0].merged()
        # Only the long batch survives, clipped to 32 tokens.
        assert merged["attention_inputs"].shape[:2] == (2, 32)
        assert merged["attention_probs"].shape[-2:] == (32, 32)

    def test_metrics_report_density_miscalibration(self, trained_setup):
        predictor, exposer, inputs, _, mass = trained_setup
        metrics = train_attention_predictor(
            predictor, inputs[128], mass[128], exposer,
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
            assert calibration.grid_lengths() == [64]   # native batch length
        gaps = engine.calibration_gap()
        assert set(gaps) == {"attention", "mlp"}
        assert all(0.0 <= g <= 1.0 for g in gaps.values())
        assert "calibration" in engine.summary()

    def test_calibration_can_be_disabled(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        config = LongExposureConfig(block_size=16, predictor_epochs=1,
                                    calibrate_predictors=False)
        engine = LongExposure(config)
        engine.prepare(model, tiny_batches[:1])
        assert engine.attention_calibrations == []
        assert all(p.calibration is None for p in engine.attention_predictors)
        assert engine.calibration_gap() == {}

    def test_explicit_grid_lengths_collected(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        config = LongExposureConfig(block_size=16, predictor_epochs=1,
                                    calibration_lengths=(32, 64))
        engine = LongExposure(config)
        engine.prepare(model, tiny_batches[:1])
        assert engine.attention_calibrations[0].grid_lengths() == [32, 64]

    def test_config_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            LongExposureConfig(calibration_lengths=(0,))

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
    """Everything ``prepare`` fits for one attention layer, bit for bit."""
    return _sha(*(p.data for p in predictor.trainable_parameters()),
                *(calibration.budgets[length]
                  for length in calibration.grid_lengths()),
                np.asarray(dataclasses.astuple(metrics), dtype=np.float64))


def _prepare_inputs(seed: int, shape=(2, 128)):
    model = build_model("opt-tiny", seed=0)
    rng = np.random.default_rng(seed)
    return model, [rng.integers(0, model.config.vocab_size, size=shape)
                   for _ in range(2)]


class TestStreamingPrepare:
    @pytest.mark.parity
    @pytest.mark.parametrize("grid", [(), (48, 100, 128)],
                             ids=["default_grid", "ragged_grid"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_twin_of_full_probability_collection(self, seed, grid):
        """``prepare`` keeps per-sample block mass only; what it fits must
        equal, bit for bit, the fit on ``collect_layer_data``'s full
        probabilities reduced per sample — same batches, same order."""
        model, batches = _prepare_inputs(seed)
        config = LongExposureConfig(block_size=16, predictor_epochs=3,
                                    seed=seed, calibration_lengths=grid)
        training = PredictorTrainingConfig(epochs=3, seed=seed)
        engine = LongExposure(config)
        engine.prepare(model, batches, training_config=training)

        exposer = engine.attention_exposer
        lengths = sorted(set(grid) | {128})
        for layer, data in enumerate(collect_layer_data(model, batches)):
            probs = data.merged()["attention_probs"]
            predictor = AttentionPredictor(
                model.config.dim, model.config.num_heads, config.predictor_rank,
                16, threshold=config.attention_threshold, seed=seed + layer)
            metrics = train_attention_predictor(
                predictor, data.merged()["attention_inputs"],
                sample_block_mass(exposer, probs), exposer, training)
            calibration = calibrate_attention_predictor(
                predictor, exposer,
                {l: data.merged(truncate_to=l)["attention_inputs"] for l in lengths},
                {l: sample_block_mass(exposer, probs, l) for l in lengths})
            assert calibration.grid_lengths() == lengths
            assert _fitted_digest(predictor, calibration, metrics) == _fitted_digest(
                engine.attention_predictors[layer],
                engine.attention_calibrations[layer],
                engine.predictor_metrics["attention"][layer]), f"layer {layer}"

    def test_collection_dtype_does_not_follow_numpy_promotion(self, tiny_model,
                                                              tiny_batches):
        """float32 scores times a float64 scale: NumPy 2 promotes, NumPy 1.x's
        value-based casting does not.  The chain pins float64 — checked
        against one with every dtype spelled out, and against the float32
        chain it must not silently become."""
        from repro.nn.attention import causal_mask
        from repro.tensor import Tensor, no_grad

        exposer = AttentionExposer(block_size=16, coverage=0.9)
        data = collect_block_mass(tiny_model, tiny_batches[:1], exposer, [64])[0]
        mass = data.merged()["attention_block_mass"]
        assert mass.dtype == np.float64 and mass.shape == (2, 4, 4, 4)

        attention = tiny_model.blocks[0].attention
        with no_grad():
            x_norm = Tensor(data.attention_inputs[0])
            q = attention.split_heads(attention.q_proj(x_norm)).data
            k = attention.split_heads(attention.k_proj(x_norm)).data
        mask = causal_mask(64)

        def explicit(dtype):
            scores = (np.matmul(q, np.swapaxes(k, -1, -2)).astype(dtype)
                      * dtype(1.0 / np.sqrt(q.shape[-1])))
            scores = np.where(mask, scores, dtype(-1e9))
            scores = scores - scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores) * mask.astype(dtype)
            return probs / probs.sum(axis=-1, keepdims=True)

        assert np.array_equal(mass, sample_block_mass(exposer, explicit(np.float64)))
        assert not np.array_equal(
            mass, sample_block_mass(exposer, explicit(np.float32)))

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
        weights = [p.data for predictor in engine.attention_predictors
                   for p in predictor.trainable_parameters()]
        assert all(w.dtype == np.float32 for w in weights)
        assert _sha(*weights) == OPT_TINY_PREDICTOR_WEIGHTS

    @pytest.mark.perf_smoke
    def test_prepare_peak_memory_is_one_layers_probabilities(self):
        """``prepare`` used to hold every layer's float64 probabilities for
        every batch and then concatenate them twice (>= 2 * layers * batches
        tensors); reducing at production it holds one sample's."""
        model, batches = _prepare_inputs(seed=0, shape=(1, 256))
        engine = LongExposure(LongExposureConfig(block_size=16,
                                                 predictor_epochs=2, seed=0))
        tracemalloc.start()
        try:
            engine.prepare(model, batches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_layer = model.config.num_heads * 256 * 256 * 8
        assert peak <= 3 * one_layer, f"peak {peak / one_layer:.2f} tensors"
