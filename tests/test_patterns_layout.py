"""Tests of the atomic sparse patterns, the pattern pool and the block layouts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparsity.patterns import (
    AtomicPattern,
    PatternPool,
    block_count,
    build_default_pool,
    causal_block_mask,
)
from repro.sparsity.ops.layout import LayoutPool, MultiHeadLayout, layout_from_block_masks


class TestPatterns:
    def setup_method(self):
        self.pool = build_default_pool()

    def test_block_count(self):
        assert block_count(64, 32) == 2
        assert block_count(65, 32) == 3
        with pytest.raises(ValueError):
            block_count(0, 32)

    @pytest.mark.parametrize("name", build_default_pool().names())
    def test_every_pattern_is_causal_with_diagonal(self, name):
        mask = self.pool.mask(name, 8)
        assert not np.any(np.triu(mask, k=1)), "pattern must stay causal"
        assert np.all(np.diag(mask)), "diagonal blocks must always be computed"

    def test_dense_pattern_covers_all_causal_blocks(self):
        mask = self.pool.mask("dense", 6)
        np.testing.assert_array_equal(mask, causal_block_mask(6))

    def test_density_ordering(self):
        assert self.pool.patterns["diag"].density(16) < self.pool.patterns["local4"].density(16)
        assert self.pool.patterns["local4"].density(16) < self.pool.patterns["dense"].density(16)

    def test_match_prefers_cheapest_covering_pattern(self):
        n = 8
        # Mass concentrated on the diagonal blocks only.
        scores = np.eye(n)
        assert self.pool.match(scores, coverage=0.95) == "diag"
        # Uniform mass over a large causal triangle requires the dense pattern
        # (every non-dense atomic pattern misses too many blocks at n=24).
        uniform = causal_block_mask(24).astype(float)
        assert self.pool.match(uniform, coverage=0.99) == "dense"

    def test_match_rejects_non_square(self):
        with pytest.raises(ValueError):
            self.pool.match(np.ones((2, 3)))

    def test_match_zero_mass_returns_cheapest(self):
        assert self.pool.match(np.zeros((4, 4))) == self.pool.names()[0]

    def test_layout_cache_reused(self):
        first = self.pool.layout("local4", 8)
        second = self.pool.layout("local4", 8)
        assert first[0] is second[0]

    def test_cost_counts_active_blocks(self):
        assert self.pool.cost("diag", 8) == 8
        assert self.pool.cost("dense", 8) == causal_block_mask(8).sum()


class TestLayouts:
    def test_layout_from_block_masks_sorted_and_causal(self):
        rng = np.random.default_rng(0)
        masks = rng.random((3, 6, 6)) > 0.5
        layout = layout_from_block_masks(masks, block_size=16)
        keys = layout.heads * 100 + layout.rows * 10 + layout.cols
        assert np.all(np.diff(keys) > 0), "blocks must be (head,row,col) sorted"
        assert np.all(layout.cols <= layout.rows), "layout must stay causal"
        # Every (head, row) has at least the diagonal block.
        for h in range(3):
            mask = layout.head_mask(h)
            assert np.all(np.diag(mask))

    def test_density_and_sparsity_are_complementary(self):
        masks = np.repeat(np.eye(4, dtype=bool)[None], 2, axis=0)
        layout = layout_from_block_masks(masks, block_size=8)
        assert layout.density() + layout.sparsity() == pytest.approx(1.0)
        assert layout.nnz == 8

    def test_to_dense_mask_respects_causality(self):
        masks = np.ones((1, 2, 2), dtype=bool)
        layout = layout_from_block_masks(masks, block_size=4)
        dense = layout.to_dense_mask(8)
        assert dense.shape == (1, 8, 8)
        assert not dense[0, 0, 5]
        assert dense[0, 5, 0]

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            layout_from_block_masks(np.ones((4, 4), dtype=bool), 8)


class TestLayoutPool:
    def setup_method(self):
        self.pool = LayoutPool(build_default_pool(), block_size=16)

    def test_offline_construction_populates_tables(self):
        self.pool.construct([64, 128])
        assert self.pool.table_count() == 2 * len(self.pool.pattern_pool.names())

    def test_combine_applies_per_head_patterns(self):
        layout = self.pool.combine(["diag", "dense"], seq_len=64)
        assert layout.n_heads == 2
        diag_blocks = (layout.heads == 0).sum()
        dense_blocks = (layout.heads == 1).sum()
        assert diag_blocks == 4
        assert dense_blocks == causal_block_mask(4).sum()

    def test_combined_layout_is_cached(self):
        a = self.pool.combine(["local2", "local2"], 64)
        b = self.pool.combine(["local2", "local2"], 64)
        assert a is b

    def test_dense_layout_has_zero_sparsity(self):
        layout = self.pool.dense_layout(3, 64)
        assert layout.sparsity() == pytest.approx(0.0)

    def test_combined_layout_row_sorted(self):
        layout = self.pool.combine(["local4+global1", "strided2+local2"], 96)
        keys = (layout.heads * layout.n_blocks + layout.rows) * layout.n_blocks + layout.cols
        assert np.all(np.diff(keys) > 0)


@settings(max_examples=20, deadline=None)
@given(n_blocks=st.integers(2, 12), coverage=st.floats(0.5, 0.99),
       seed=st.integers(0, 1000))
def test_match_always_reaches_requested_coverage(n_blocks, coverage, seed):
    """Property: the matched pattern always retains >= coverage of the block mass."""
    pool = build_default_pool()
    rng = np.random.default_rng(seed)
    scores = rng.random((n_blocks, n_blocks)) * causal_block_mask(n_blocks)
    name = pool.match(scores, coverage=coverage)
    mask = pool.mask(name, n_blocks)
    retained = scores[mask].sum() / scores.sum()
    assert retained >= coverage - 1e-9


@settings(max_examples=20, deadline=None)
@given(n_heads=st.integers(1, 4), n_blocks=st.integers(2, 8), seed=st.integers(0, 1000))
def test_layout_roundtrip_preserves_masks(n_heads, n_blocks, seed):
    """Property: building a layout from masks and reading head_mask back matches
    the causal+diagonal closure of the input masks."""
    rng = np.random.default_rng(seed)
    masks = rng.random((n_heads, n_blocks, n_blocks)) > 0.6
    layout = layout_from_block_masks(masks, block_size=4)
    expected = (masks & causal_block_mask(n_blocks)) | np.eye(n_blocks, dtype=bool)[None]
    for h in range(n_heads):
        np.testing.assert_array_equal(layout.head_mask(h), expected[h])
