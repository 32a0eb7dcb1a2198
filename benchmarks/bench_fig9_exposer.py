"""Figure 9: sparsity ratios and per-layer speedups of the exposer.

Paper (left panels): head-specific masks expose more attention sparsity than
the uniform "shadowy" mask; Longformer/BigBird find more sparsity but pay for
it in accuracy because their masks ignore the input.  MLP sparsity rises with
the importance-filter threshold (1 % - 5 %).

Paper (right panels): block-sparse attention is ~1.78x faster than dense and
~1.33x faster than the shadowy-mask execution; the neuron-sparse MLP is
~4.2x faster than dense while *unstructured* shadowy MLP execution is slower
than dense.

Reproduced shape: same orderings per layer (head-specific >= shadowy sparsity,
threshold-monotone MLP sparsity) and same kernel-speed ordering (block-sparse
attention faster than dense; structured neuron-sparse MLP faster than the
unstructured baseline).  Both attention columns, and the masks the right
panel times, are the exposer's raw coverage masks — the masks oracle mode
executes: head-specific per head, shadowy as their union.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table, model_sparsity_profile
from repro.baselines import UnstructuredSparseMLPBackend
from repro.models import build_model
from repro.nn.mlp import DenseMLPBackend
from repro.sparsity.exposer import MLPExposer
from repro.sparsity.ops import block_sparse_attention, dense_attention_reference
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.ops.neuron_sparse import expand_block_indices, neuron_sparse_linear_pair
from repro.tensor import Tensor

from conftest import BENCH_MODEL_SMALL, BLOCK_SIZE, e2e_batches

SEQ = 256


def test_fig9_sparsity_ratios(benchmark):
    model = build_model(BENCH_MODEL_SMALL, seed=0)
    batches = e2e_batches(model, SEQ, num_batches=1)
    profiles = []

    def profile():
        profiles.extend(model_sparsity_profile(model, batches, block_size=BLOCK_SIZE))
        return len(profiles)

    benchmark.pedantic(profile, rounds=1, iterations=1)

    rows = []
    for p in profiles:
        rows.append([p.layer, f"{p.attention_head_specific:.2f}", f"{p.attention_shadowy:.2f}",
                     f"{p.attention_longformer:.2f}", f"{p.attention_bigbird:.2f}",
                     f"{p.mlp_shadowy:.2f}"]
                    + [f"{p.mlp_filtered[t]:.2f}" for t in (0.01, 0.02, 0.03, 0.05)])
    print("\n" + format_table(
        ["layer", "attn head-spec", "attn shadowy", "longformer", "bigbird",
         "mlp shadowy", "mlp@1%", "mlp@2%", "mlp@3%", "mlp@5%"],
        rows, title="Figure 9 reproduction (left): sparsity ratio per layer"))

    for p in profiles:
        # Head-specific masks expose at least as much sparsity as the uniform mask.
        assert p.attention_head_specific >= p.attention_shadowy - 1e-9
        # MLP sparsity is monotone in the filter threshold.
        values = [p.mlp_filtered[t] for t in (0.01, 0.02, 0.03, 0.05)]
        assert values == sorted(values)


def _time_fn(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fig9_layer_kernel_speedups(benchmark):
    """Right panels: per-layer attention and MLP kernel execution time."""
    model = build_model(BENCH_MODEL_SMALL, seed=0)
    batches = e2e_batches(model, SEQ, num_batches=1)
    profiles = model_sparsity_profile(model, batches, block_size=BLOCK_SIZE)
    rng = np.random.default_rng(0)
    cfg = model.config
    B, H, S, D = 2, cfg.num_heads, SEQ, cfg.head_dim
    q, k, v = [rng.normal(size=(B, H, S, D)).astype(np.float32) for _ in range(3)]
    causal = np.tril(np.ones((S, S), dtype=bool))
    results = {}

    def run():
        # Attention: dense vs shadowy (uniform mask) vs LongExposure (per-head).
        head_masks = profiles[0].head_masks
        uniform = np.repeat(np.any(head_masks, axis=0)[None], H, axis=0)
        layout_head = layout_from_block_masks(head_masks, BLOCK_SIZE)
        layout_uniform = layout_from_block_masks(uniform, BLOCK_SIZE)
        results["attn_dense"] = _time_fn(lambda: dense_attention_reference(q, k, v, mask=causal))
        results["attn_shadowy"] = _time_fn(
            lambda: block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout_uniform))
        results["attn_longexposure"] = _time_fn(
            lambda: block_sparse_attention(Tensor(q), Tensor(k), Tensor(v), layout_head))

        # MLP: dense vs unstructured shadowy vs structured neuron-sparse.
        mlp = model.blocks[0].mlp
        x = Tensor(rng.normal(size=(B, S, cfg.dim)).astype(np.float32))
        exposer = MLPExposer(BLOCK_SIZE, threshold=0.03)
        mlp.backend.capture_activations = True
        dense_backend = DenseMLPBackend(capture_activations=True)
        dense_backend(mlp, x)
        active_blocks = exposer.active_blocks(dense_backend.last_activations)
        active = expand_block_indices(active_blocks, BLOCK_SIZE, cfg.hidden_dim)
        unstructured = UnstructuredSparseMLPBackend()
        results["mlp_dense"] = _time_fn(lambda: DenseMLPBackend()(mlp, x))
        results["mlp_shadowy"] = _time_fn(lambda: unstructured(mlp, x))
        results["mlp_longexposure"] = _time_fn(
            lambda: neuron_sparse_linear_pair(x, mlp.fc1.weight, mlp.fc1.bias,
                                              mlp.fc2.weight, mlp.fc2.bias, active))
        return results["attn_longexposure"]

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        ["attention", results["attn_dense"] * 1e3, results["attn_shadowy"] * 1e3,
         results["attn_longexposure"] * 1e3,
         f"{results['attn_dense'] / results['attn_longexposure']:.2f}x"],
        ["mlp", results["mlp_dense"] * 1e3, results["mlp_shadowy"] * 1e3,
         results["mlp_longexposure"] * 1e3,
         f"{results['mlp_dense'] / results['mlp_longexposure']:.2f}x"],
    ]
    print("\n" + format_table(
        ["component", "dense ms", "shadowy ms", "LongExposure ms", "LE speedup vs dense"],
        rows, title="Figure 9 reproduction (right): per-layer kernel time"))

    # Shape assertions from the paper: LongExposure beats dense on both
    # components, and the unstructured shadowy MLP is no faster than dense.
    assert results["attn_longexposure"] < results["attn_dense"]
    assert results["mlp_longexposure"] < results["mlp_dense"]
    assert results["mlp_shadowy"] > results["mlp_longexposure"]
