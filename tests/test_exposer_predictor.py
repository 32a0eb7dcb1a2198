"""Tests of the Shadowy-sparsity Exposer and the Sequence-oriented Predictors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparsity.exposer import AttentionExposer, MLPExposer
from repro.sparsity.patterns import causal_block_mask, pattern_mask
from repro.sparsity.predictor import (
    AttentionPredictor,
    MLPPredictor,
    PredictorTrainingConfig,
    collect_layer_data,
    train_attention_predictor,
    train_mlp_predictor,
)
from repro.sparsity.predictor.training import mlp_token_block_labels
from repro.tensor import Tensor

from parity import sample_block_mass


def local_attention_probs(batch=1, heads=2, seq=64, window=8, seed=0):
    """Synthetic attention probabilities concentrated in a local causal window."""
    rng = np.random.default_rng(seed)
    idx = np.arange(seq)
    causal = idx[:, None] >= idx[None, :]
    local = (idx[:, None] - idx[None, :]) < window
    base = np.where(causal & local, 1.0, 1e-4) * causal
    probs = base / base.sum(axis=-1, keepdims=True)
    probs = np.repeat(np.repeat(probs[None, None], heads, 1), batch, 0)
    return probs + rng.uniform(0, 1e-6, size=probs.shape)


class TestAttentionExposer:
    def setup_method(self):
        self.exposer = AttentionExposer(block_size=16, coverage=0.9)

    def test_block_reduce_shape_and_causality(self):
        probs = local_attention_probs(seq=64)
        reduced = self.exposer.block_reduce(probs)
        assert reduced.shape == (2, 4, 4)
        assert not np.any(np.triu(reduced[0], k=1))

    def test_local_attention_matches_local_pattern(self):
        # An 8-token window never reaches back past the previous 16-token
        # block, so each head's coverage mask stays inside the local2 band.
        probs = local_attention_probs(seq=128, window=8)
        masks = self.exposer.raw_block_masks(probs)
        assert masks.shape == (2, 8, 8)
        assert not np.any(masks & ~pattern_mask("local2", 8))

    def test_head_specific_sparser_than_uniform(self):
        """Two heads with different local windows: the uniform ("shadowy") mask
        must be denser than the per-head masks — the paper's core observation."""
        a = local_attention_probs(heads=1, seq=128, window=4, seed=1)
        b = local_attention_probs(heads=1, seq=128, window=40, seed=2)
        probs = np.concatenate([a, b], axis=1)
        report = self.exposer.analyze(probs)
        assert report.head_specific_sparsity >= report.shadowy_sparsity - 1e-9
        assert 0 <= report.per_token_sparsity <= 1

    def test_raw_masks_reach_coverage(self):
        probs = local_attention_probs(seq=64, window=16)
        raw = self.exposer.raw_block_masks(probs)
        mass = self.exposer.block_reduce(probs)
        for h in range(raw.shape[0]):
            assert mass[h][raw[h]].sum() / mass[h].sum() >= 0.9 - 1e-9

    def test_invalid_coverage_rejected(self):
        with pytest.raises(ValueError):
            AttentionExposer(16, coverage=0.0)


def _random_block_mass(seed, heads=6, n_blocks=8):
    """Strictly positive causal block mass with no ties."""
    rng = np.random.default_rng(seed)
    return (rng.random((heads, n_blocks, n_blocks)) + 1e-3) * causal_block_mask(n_blocks)


class TestRawMaskRule:
    """``raw_masks_from_block_mass`` builds every oracle layout and every
    predictor label and budget: per head, the fewest highest-mass blocks
    reaching ``coverage`` of the mass, plus the diagonal."""

    SEEDS = [0, 1, 2, 3]
    COVERAGES = [0.5, 0.9, 0.95]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("coverage", COVERAGES)
    def test_kept_mass_reaches_coverage(self, seed, coverage):
        mass = _random_block_mass(seed)
        masks = AttentionExposer(16, coverage=coverage).raw_masks_from_block_mass(mass)
        for head_mass, mask in zip(mass, masks):
            assert head_mass[mask].sum() >= coverage * head_mass.sum()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("coverage", COVERAGES)
    def test_mask_is_minimal(self, seed, coverage):
        """The kept blocks are a top-mass prefix: every block at least as
        heavy as the lightest kept off-diagonal block is kept, and those
        blocks without that lightest one fall below ``coverage``."""
        mass = _random_block_mass(seed)
        masks = AttentionExposer(16, coverage=coverage).raw_masks_from_block_mass(mass)
        off_diagonal = ~np.eye(mass.shape[-1], dtype=bool)
        for head_mass, mask in zip(mass, masks):
            lightest = head_mass[mask & off_diagonal].min()
            heavier = head_mass >= lightest
            assert np.all(mask[heavier])
            assert head_mass[heavier].sum() - lightest < coverage * head_mass.sum()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("coverage", COVERAGES)
    def test_diagonal_always_kept(self, seed, coverage):
        mass = _random_block_mass(seed)
        mass[:, np.arange(8), np.arange(8)] = 0.0       # no mass on the diagonal
        masks = AttentionExposer(16, coverage=coverage).raw_masks_from_block_mass(mass)
        assert np.all(masks[:, np.arange(8), np.arange(8)])
        assert not np.any(masks & ~causal_block_mask(8))

    def test_zero_mass_head_keeps_the_full_causal_mask(self):
        mass = np.zeros((2, 8, 8))
        mass[1, 2, 1] = 1.0
        masks = AttentionExposer(16, coverage=0.9).raw_masks_from_block_mass(mass)
        np.testing.assert_array_equal(masks[0], causal_block_mask(8))
        np.testing.assert_array_equal(masks[1], np.eye(8, dtype=bool) | (mass[1] > 0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), batch=st.integers(1, 2), heads=st.integers(1, 4),
       seq=st.integers(8, 72), coverage=st.sampled_from([0.5, 0.9, 0.95]))
def test_figure9_reads_one_mask_family(seed, batch, heads, seq, coverage):
    """Head-specific sparsity is read off the same raw masks whose union gives
    shadowy sparsity, so it can never fall below it."""
    rng = np.random.default_rng(seed)
    causal = np.tril(np.ones((seq, seq), dtype=bool))
    scores = rng.random((batch, heads, seq, seq)) ** 4 * causal
    probs = scores / scores.sum(axis=-1, keepdims=True)
    exposer = AttentionExposer(16, coverage=coverage)
    report = exposer.analyze(probs)
    raw = exposer.raw_block_masks(probs)
    causal_total = causal_block_mask(raw.shape[-1]).sum()
    np.testing.assert_array_equal(report.head_masks, raw)
    np.testing.assert_array_equal(report.per_head_sparsity,
                                  1.0 - raw.sum(axis=(1, 2)) / causal_total)
    assert report.head_specific_sparsity >= report.shadowy_sparsity - 1e-12


class TestMLPExposer:
    def _activations(self, batch=2, seq=32, hidden=64, hot_blocks=(0,), seed=0):
        """Activations where the listed blocks (of 16) carry most of the mass."""
        rng = np.random.default_rng(seed)
        acts = rng.random((batch, seq, hidden)) * 0.01
        for block in hot_blocks:
            acts[:, :, block * 16:(block + 1) * 16] += rng.random((batch, seq, 16)) * 5
        return np.maximum(acts, 0)

    def test_active_blocks_identify_hot_blocks(self):
        exposer = MLPExposer(block_size=16, threshold=0.05)
        acts = self._activations(hot_blocks=(0, 2))
        np.testing.assert_array_equal(exposer.active_blocks(acts), [0, 2])

    def test_sparsity_increases_with_threshold(self):
        acts = self._activations(hot_blocks=(0,))
        sparsities = [MLPExposer(16, threshold=t).analyze(acts).filtered_sparsity
                      for t in (0.0, 0.01, 0.05, 0.2)]
        assert sparsities == sorted(sparsities)

    def test_zero_activations_keep_minimum_blocks(self):
        exposer = MLPExposer(block_size=16, threshold=0.05, min_active_blocks=2)
        active = exposer.active_blocks(np.zeros((1, 4, 64)))
        assert active.size == 2

    def test_block_labels_binary(self):
        exposer = MLPExposer(block_size=16, threshold=0.05)
        labels = exposer.block_labels(self._activations(hot_blocks=(1,)))
        assert set(np.unique(labels)) <= {0.0, 1.0}
        assert labels[1] == 1.0

    def test_report_fields_consistent(self):
        exposer = MLPExposer(block_size=16, threshold=0.05)
        report = exposer.analyze(self._activations())
        assert 0 <= report.per_token_sparsity <= 1
        assert 0 <= report.filtered_sparsity <= 1
        assert report.n_blocks == 4
        assert "blocks" in report.summary()

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            MLPExposer(16, threshold=1.0)


class TestPredictors:
    def test_attention_predictor_shapes(self):
        predictor = AttentionPredictor(dim=32, num_heads=2, rank=4, block_size=16)
        x = np.random.default_rng(0).normal(size=(2, 64, 32)).astype(np.float32)
        scores = predictor.approximate_scores(x)
        assert scores.shape == (2, 2, 4, 4)
        out = predictor(Tensor(x))
        assert out.shape == (2, 2, 4, 4)
        masks = predictor.predict_patterns(x)
        assert masks.shape == (2, 4, 4) and masks.dtype == bool
        assert all(np.all(np.diag(masks[h])) for h in range(2))
        assert not np.any(masks & ~causal_block_mask(4)[None])

    def test_attention_predictor_rank_validation(self):
        with pytest.raises(ValueError):
            AttentionPredictor(dim=8, num_heads=1, rank=16, block_size=16)

    def test_predictor_overhead_is_linear_in_sequence(self):
        predictor = AttentionPredictor(dim=64, num_heads=4, rank=8, block_size=32)
        # O(s) scaling: doubling the sequence roughly doubles the overhead.
        ratio = predictor.overhead_flops(1024) / predictor.overhead_flops(512)
        assert 1.5 < ratio < 3.0
        mlp = MLPPredictor(dim=64, hidden_dim=256, block_size=32)
        assert mlp.overhead_flops(1024) == 2 * mlp.overhead_flops(512)

    def test_mlp_predictor_shapes_and_minimum(self):
        predictor = MLPPredictor(dim=16, hidden_dim=64, block_size=16, min_active_blocks=2)
        x = np.random.default_rng(0).normal(size=(1, 8, 16)).astype(np.float32)
        logits = predictor(Tensor(x))
        assert logits.shape == (1, 8, 4)
        active = predictor.predict_active_blocks(x)
        assert active.size >= 2

    def test_mlp_token_block_labels_threshold(self):
        acts = np.zeros((1, 2, 8), dtype=np.float32)
        acts[0, :, :4] = 10.0       # block 0 dominant
        acts[0, :, 4:] = 0.01       # block 1 negligible
        labels = mlp_token_block_labels(acts, block_size=4, threshold=0.05)
        np.testing.assert_array_equal(labels[0, 0], [1.0, 0.0])

    def test_training_improves_attention_predictor_recall(self, tiny_model, tiny_batches):
        collected = collect_layer_data(tiny_model, tiny_batches[:1])
        merged = collected[0].merged()
        exposer = AttentionExposer(block_size=16, coverage=0.9)
        predictor = AttentionPredictor(tiny_model.config.dim, tiny_model.config.num_heads,
                                       rank=4, block_size=16, seed=0)
        block_mass = sample_block_mass(exposer, merged["attention_probs"])
        config = PredictorTrainingConfig(epochs=0)
        untrained = train_attention_predictor(predictor, merged["attention_inputs"],
                                              block_mass, exposer, config)
        config = PredictorTrainingConfig(epochs=8)
        trained = train_attention_predictor(predictor, merged["attention_inputs"],
                                            block_mass, exposer, config)
        assert trained.recall >= untrained.recall
        assert trained.recall > 0.6

    def test_training_mlp_predictor_reaches_high_recall(self, tiny_model, tiny_batches):
        collected = collect_layer_data(tiny_model, tiny_batches[:1])
        merged = collected[0].merged()
        exposer = MLPExposer(block_size=16, threshold=0.03)
        predictor = MLPPredictor(tiny_model.config.dim, tiny_model.config.hidden_dim,
                                 block_size=16, seed=0)
        metrics = train_mlp_predictor(predictor, merged["mlp_inputs"],
                                      merged["mlp_activations"], exposer,
                                      PredictorTrainingConfig(epochs=10))
        assert metrics.recall > 0.8
        assert "recall" in metrics.summary()

    def test_collect_layer_data_shapes(self, tiny_model, tiny_batches):
        collected = collect_layer_data(tiny_model, tiny_batches, max_batches=1)
        assert len(collected) == len(tiny_model.blocks)
        merged = collected[0].merged()
        batch, seq = np.asarray(tiny_batches[0]).shape
        assert merged["attention_inputs"].shape == (batch, seq, tiny_model.config.dim)
        assert merged["attention_probs"].shape[2:] == (seq, seq)
        assert merged["mlp_activations"].shape[-1] == tiny_model.config.hidden_dim
