"""Figure 12: dynamic-aware operator performance vs dense across sparsity ratios.

Paper: both the block-wise sparse attention operators and the neuron-wise
sparse MLP operators get faster as the sparsity ratio rises, reaching 3-5x
over dense, with execution time nearly linear in the retained density.

Reproduced shape: execution time of both operator families decreases
monotonically (within noise) as sparsity increases, and the speedup at high
sparsity is severalfold.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.sparsity.ops import block_sparse_attention, neuron_sparse_linear_pair
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.ops.neuron_sparse import expand_block_indices
from repro.sparsity.patterns import causal_block_mask
from repro.tensor import Tensor

from conftest import dense_attention

SEQ = 256
BLOCK = 32
HEADS = 8
HEAD_DIM = 16
DIM = 128
HIDDEN = 512
SPARSITIES = [0.0, 0.25, 0.5, 0.75, 0.9]


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def random_block_layout(sparsity: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    n_blocks = SEQ // BLOCK
    causal = causal_block_mask(n_blocks)
    masks = np.zeros((HEADS, n_blocks, n_blocks), dtype=bool)
    for h in range(HEADS):
        offdiag = np.argwhere(causal & ~np.eye(n_blocks, dtype=bool))
        rng.shuffle(offdiag)
        keep = offdiag[int(len(offdiag) * sparsity):]
        masks[h][keep[:, 0], keep[:, 1]] = True
    return layout_from_block_masks(masks, BLOCK)


def test_fig12_attention_operator(benchmark):
    rng = np.random.default_rng(0)
    q, k, v = [rng.normal(size=(2, HEADS, SEQ, HEAD_DIM)).astype(np.float32) for _ in range(3)]
    causal = np.tril(np.ones((SEQ, SEQ), dtype=bool))
    results = {}

    def run():
        results["dense"] = _time(lambda: dense_attention(q, k, v, causal))
        for sparsity in SPARSITIES:
            layout = random_block_layout(sparsity)
            results[sparsity] = _time(
                lambda: block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout))
        return results["dense"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["dense", results["dense"] * 1e3, "1.00x"]]
    for sparsity in SPARSITIES:
        rows.append([f"sparse {sparsity:.0%}", results[sparsity] * 1e3,
                     f"{results['dense'] / results[sparsity]:.2f}x"])
    print("\n" + format_table(["operator", "time ms", "speedup vs dense"], rows,
                              title="Figure 12a reproduction: block-sparse attention (SDD+softmax+DSD)"))
    # Time decreases with sparsity, and high sparsity yields a healthy speedup.
    assert results[0.9] < results[0.0]
    assert results["dense"] / results[0.9] > 2.0


def test_fig12_mlp_operator(benchmark):
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, SEQ, DIM)).astype(np.float32))
    fc1_w = Tensor(rng.normal(size=(HIDDEN, DIM)).astype(np.float32))
    fc1_b = Tensor(np.zeros(HIDDEN, dtype=np.float32))
    fc2_w = Tensor(rng.normal(size=(DIM, HIDDEN)).astype(np.float32))
    fc2_b = Tensor(np.zeros(DIM, dtype=np.float32))
    n_blocks = HIDDEN // BLOCK
    results = {}

    def dense_mlp():
        hidden = np.maximum(x.data @ fc1_w.data.T + fc1_b.data, 0)
        return hidden @ fc2_w.data.T + fc2_b.data

    def run():
        results["dense"] = _time(dense_mlp)
        for sparsity in SPARSITIES:
            keep = max(1, int(round(n_blocks * (1 - sparsity))))
            active = expand_block_indices(np.arange(keep), BLOCK, HIDDEN)
            results[sparsity] = _time(
                lambda: neuron_sparse_linear_pair(x, fc1_w, fc1_b, fc2_w, fc2_b, active))
        return results["dense"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["dense", results["dense"] * 1e3, "1.00x"]]
    for sparsity in SPARSITIES:
        rows.append([f"sparse {sparsity:.0%}", results[sparsity] * 1e3,
                     f"{results['dense'] / results[sparsity]:.2f}x"])
    print("\n" + format_table(["operator", "time ms", "speedup vs dense"], rows,
                              title="Figure 12b reproduction: neuron-sparse MLP"))
    assert results[0.9] < results[0.0]
    assert results["dense"] / results[0.9] > 1.5
