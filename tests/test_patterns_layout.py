"""Tests of the atomic sparse patterns and the block layouts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparsity.patterns import (
    ATOMIC_PATTERNS,
    block_count,
    causal_block_mask,
    pattern_mask,
)
from repro.sparsity.ops.layout import layout_from_block_masks


class TestPatterns:
    def test_block_count(self):
        assert block_count(64, 32) == 2
        assert block_count(65, 32) == 3
        with pytest.raises(ValueError):
            block_count(0, 32)

    @pytest.mark.parametrize("name", sorted(ATOMIC_PATTERNS))
    def test_every_pattern_is_causal_with_diagonal(self, name):
        mask = pattern_mask(name, 8)
        assert not np.any(np.triu(mask, k=1)), "pattern must stay causal"
        assert np.all(np.diag(mask)), "diagonal blocks must always be computed"

    def test_dense_pattern_covers_all_causal_blocks(self):
        mask = pattern_mask("dense", 6)
        np.testing.assert_array_equal(mask, causal_block_mask(6))


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

    def test_all_ones_masks_give_the_dense_causal_layout(self):
        layout = layout_from_block_masks(np.ones((3, 4, 4), dtype=bool), block_size=16)
        assert layout.nnz == layout.total_causal_blocks
        assert layout.sparsity() == pytest.approx(0.0)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            layout_from_block_masks(np.ones((4, 4), dtype=bool), 8)


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
