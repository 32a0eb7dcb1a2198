"""Parity of the optimised probe-inference path against plain references.

The probe-optimisation pass rewrote :meth:`AttentionPredictor.predict_patterns`
(stacked single-GEMM Q̂/K̂, logit-space thresholds), the pattern matcher
(vectorised ``match_many``) and :meth:`AttentionExposer.block_reduce`
(two-stage per-axis ``np.add.reduceat`` reduction).  These tests lock that
each computes the same thing as its plain form:

* uncalibrated predicted masks identical to a materialised sigmoid
  thresholded at the same bar on randomised inputs;
* ``match_many`` identical to the per-head scalar ``match`` loop;
* ``block_reduce`` *exactly* equal to the 6-D reshape-sum on inputs where
  float32 summation is associative (probabilities quantised to a dyadic
  grid — every partial sum is exactly representable, so any summation order
  must produce the same bits), and allclose on arbitrary random inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from parity import reference_block_reduce, reference_probe_scores
from repro.sparsity.exposer import AttentionExposer
from repro.sparsity.patterns import build_default_pool, causal_block_mask
from repro.sparsity.predictor import AttentionPredictor, MLPPredictor


def _predictor(dim=32, heads=4, rank=4, block_size=16, seed=0, **kw):
    return AttentionPredictor(dim, heads, rank, block_size, seed=seed, **kw)


def _sigmoid_masks(predictor, x):
    """The uncalibrated masks the long way: a materialised float64 sigmoid
    thresholded at ``0.5 + threshold``, any sample keeping a block."""
    scores = predictor.approximate_scores(x)
    probs = 1.0 / (1.0 + np.exp(-scores.astype(np.float64)))
    keep = (probs > 0.5 + predictor.threshold).any(axis=0)
    n_blocks = keep.shape[-1]
    keep &= causal_block_mask(n_blocks)[None]
    keep |= np.eye(n_blocks, dtype=bool)[None]
    return keep


class TestPredictPatternsParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch,seq", [(1, 64), (2, 64), (3, 48)])
    def test_matches_sigmoid_reference(self, seed, batch, seq):
        predictor = _predictor(seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(batch, seq, 32)).astype(np.float32)
        np.testing.assert_array_equal(predictor.predict_patterns(x),
                                      _sigmoid_masks(predictor, x))

    def test_2d_input_promoted_to_batch(self):
        predictor = _predictor()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 32)).astype(np.float32)
        np.testing.assert_array_equal(predictor.predict_patterns(x),
                                      predictor.predict_patterns(x[None]))

    def test_block_masks_logit_threshold_matches_sigmoid(self):
        predictor = _predictor(threshold=0.07)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 64, 32)).astype(np.float32)
        np.testing.assert_array_equal(predictor.predict_patterns(x),
                                      _sigmoid_masks(predictor, x))

    def test_degenerate_threshold_keeps_only_diagonal(self):
        predictor = _predictor(threshold=0.5)   # sigmoid can never exceed 1.0
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 64, 32)).astype(np.float32)
        masks = predictor.predict_patterns(x)
        for head_mask in masks:
            np.testing.assert_array_equal(head_mask,
                                          np.eye(masks.shape[-1], dtype=bool))

    def test_downsample_indices_memoized_and_readonly(self):
        predictor = _predictor()
        idx = predictor.downsample_indices(64)
        assert predictor.downsample_indices(64) is idx
        assert not idx.flags.writeable
        np.testing.assert_array_equal(
            idx, np.minimum(np.arange(4) * 16 + 8, 63))

    def test_packed_weights_invalidated_by_training_path(self):
        from repro.tensor import Tensor

        predictor = _predictor()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 64, 32)).astype(np.float32)
        before = reference_probe_scores(predictor, x)
        np.testing.assert_allclose(predictor.approximate_scores(x), before,
                                   rtol=1e-5, atol=1e-5)
        # The training path (forward) precedes every weight update; it must
        # drop the packed memo so inference sees the new weights.
        predictor.forward(Tensor(x))
        predictor.w_q.data[:] = rng.normal(
            0.0, 1.0, size=predictor.w_q.data.shape).astype(np.float32)
        after = reference_probe_scores(predictor, x)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(predictor.approximate_scores(x), after,
                                   rtol=1e-5, atol=1e-5)

    def test_explicit_invalidate_cache(self):
        predictor = _predictor()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 64, 32)).astype(np.float32)
        predictor.predict_patterns(x)
        predictor.w_k.data[:] = rng.normal(
            0.0, 1.0, size=predictor.w_k.data.shape).astype(np.float32)
        predictor.invalidate_cache()
        np.testing.assert_allclose(predictor.approximate_scores(x),
                                   reference_probe_scores(predictor, x),
                                   rtol=1e-5, atol=1e-5)


class TestMatchManyParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("coverage", [0.5, 0.9, 0.95])
    def test_matches_scalar_loop(self, seed, coverage):
        pool = build_default_pool()
        rng = np.random.default_rng(seed)
        n_blocks = 8
        mass = rng.random((6, n_blocks, n_blocks)) * causal_block_mask(n_blocks)
        assert pool.match_many(mass, coverage=coverage) == [
            pool.match(mass[h], coverage) for h in range(mass.shape[0])]

    def test_zero_mass_head_falls_back_to_cheapest(self):
        pool = build_default_pool()
        mass = np.zeros((2, 8, 8))
        mass[1, 2, 1] = 1.0
        names = pool.match_many(mass, coverage=0.9)
        assert names[0] == pool.match(mass[0], 0.9)   # zero-mass fallback
        assert names == [pool.match(mass[h], 0.9) for h in range(2)]

    def test_rejects_wrong_rank(self):
        pool = build_default_pool()
        with pytest.raises(ValueError):
            pool.match_many(np.zeros((8, 8)))


class TestBlockReduceExactness:
    def _quantised_probs(self, rng, shape):
        """Attention-probability-like values on a 2^-12 dyadic grid.

        Sums of up to 2^12 such values stay exactly representable in
        float32, so *every* summation order produces identical bits — the
        two-stage reduction must therefore match the 6-D reshape-sum
        bit-for-bit, not just approximately.
        """
        probs = rng.random(shape).astype(np.float32)
        return np.round(probs * 4096.0) / np.float32(4096.0)

    @pytest.mark.parametrize("batch,heads,seq,bs", [
        (1, 2, 64, 16), (2, 3, 64, 32), (2, 2, 48, 16),   # 48: ragged grid
        (1, 1, 16, 16),
    ])
    def test_exactly_equals_6d_reshape_sum(self, batch, heads, seq, bs):
        exposer = AttentionExposer(build_default_pool(), bs)
        rng = np.random.default_rng(batch * 100 + seq)
        probs = self._quantised_probs(rng, (batch, heads, seq, seq))
        new = exposer.block_reduce(probs)
        old = reference_block_reduce(exposer, probs)
        assert new.dtype == old.dtype
        np.testing.assert_array_equal(new, old)

    def test_close_on_arbitrary_floats(self):
        exposer = AttentionExposer(build_default_pool(), 16)
        rng = np.random.default_rng(0)
        probs = rng.random((2, 2, 64, 64)).astype(np.float32)
        np.testing.assert_allclose(exposer.block_reduce(probs),
                                   reference_block_reduce(exposer, probs),
                                   rtol=1e-5, atol=1e-5)

    def test_3d_input_promoted(self):
        exposer = AttentionExposer(build_default_pool(), 16)
        rng = np.random.default_rng(1)
        probs = self._quantised_probs(rng, (2, 32, 32))
        np.testing.assert_array_equal(exposer.block_reduce(probs),
                                      exposer.block_reduce(probs[None]))

    def test_causal_blocks_zeroed(self):
        exposer = AttentionExposer(build_default_pool(), 16)
        probs = np.ones((1, 1, 32, 32), dtype=np.float32)
        reduced = exposer.block_reduce(probs)
        assert reduced[0, 0, 1] == 0.0      # above-diagonal block
        assert reduced[0, 1, 0] == 16 * 16  # below-diagonal block


class TestMLPProbeParity:
    def test_block_scores_bitwise_matches_reference(self):
        predictor = MLPPredictor(32, 128, 16, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 64, 32)).astype(np.float32)
        logits = x.reshape(-1, 32) @ predictor.w_a.data + predictor.bias.data
        reference = (1.0 / (1.0 + np.exp(-logits))).mean(axis=0)
        np.testing.assert_array_equal(predictor.block_scores(x), reference)

    def test_predict_active_blocks_unchanged(self):
        predictor = MLPPredictor(32, 128, 16, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 64, 32)).astype(np.float32)
        scores = predictor.block_scores(x)
        active = np.nonzero(scores >= predictor.threshold)[0]
        if active.size < predictor.min_active_blocks:
            active = np.sort(np.argsort(scores)[::-1][:predictor.min_active_blocks])
        np.testing.assert_array_equal(predictor.predict_active_blocks(x), active)
