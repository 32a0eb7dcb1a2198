"""Figure 11: predictor necessity — loss curves, score visualisation, recall.

Paper: (a) fine-tuning with *random* sparse patterns of the same density
diverges (higher loss) from dense fine-tuning, while predicted patterns track
it; (b) predicted attention scores visually match the ground truth; MLP
predictors reach an average recall of 96.35 %.

Reproduced shape: loss gap of random-mask training vs dense is larger than
the gap of predicted-mask training vs dense; predictor recall is high; the
predicted block-score matrix correlates strongly with the exact block mass.
"""

import numpy as np
import pytest

from repro import (
    FineTuner,
    LongExposure,
    LongExposureConfig,
    TrainingConfig,
    build_model,
    get_peft_method,
)
from repro.analysis import format_table
from repro.sparsity.exposer import AttentionExposer
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.patterns import causal_block_mask
from repro.sparsity.predictor.collect import collect_layer_data

from conftest import e2e_batches

SEQ = 64
STEPS = 8
BLOCK = 16


class _RandomMaskBackend:
    """Attention backend using a random causal block mask of fixed density."""

    def __init__(self, num_heads, n_blocks, density, seed):
        rng = np.random.default_rng(seed)
        causal = causal_block_mask(n_blocks)
        masks = (rng.random((num_heads, n_blocks, n_blocks)) < density) & causal
        self.layout = layout_from_block_masks(masks, BLOCK)

    def __call__(self, module, q, k, v, attn_mask, x=None):
        from repro.sparsity.ops import block_sparse_attention
        return block_sparse_attention(q, k, v, self.layout)


def run_training(mode: str):
    """mode: dense / predicted / random."""
    model = build_model("opt-tiny", seed=0)
    batches = e2e_batches(model, SEQ, num_batches=2)
    engine = None
    if mode == "predicted":
        engine = LongExposure(LongExposureConfig(block_size=BLOCK, predictor_epochs=4, seed=0))
        engine.prepare(model, batches[:1])
    model, _ = get_peft_method("lora")(model)
    if mode == "predicted":
        engine.install(model)
    elif mode == "random":
        n_blocks = SEQ // BLOCK
        for i, block in enumerate(model.blocks):
            block.attention.backend = _RandomMaskBackend(model.config.num_heads, n_blocks,
                                                         density=0.4, seed=i)
    tuner = FineTuner(model, TrainingConfig(learning_rate=5e-3), engine=engine)
    data = [batches[i % len(batches)] for i in range(STEPS)]
    report = tuner.train(data)
    if engine:
        engine.uninstall(model)
    return np.asarray(report.losses), engine


def test_fig11_loss_curves_and_recall(benchmark):
    curves = {}
    engines = {}

    def run():
        for mode in ["dense", "predicted", "random"]:
            curves[mode], engines[mode] = run_training(mode)
        return float(curves["predicted"][-1])

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [[step] + [f"{curves[m][step]:.4f}" for m in ("dense", "predicted", "random")]
            for step in range(STEPS)]
    print("\n" + format_table(["step", "dense", "predicted masks", "random masks"],
                              rows, title="Figure 11a reproduction: fine-tuning loss curves"))

    predicted_gap = float(np.abs(curves["predicted"] - curves["dense"]).mean())
    random_gap = float(np.abs(curves["random"] - curves["dense"]).mean())
    print(f"mean |loss - dense|: predicted={predicted_gap:.4f} random={random_gap:.4f}")
    assert predicted_gap < random_gap, "predicted masks must track dense training better"

    engine = engines["predicted"]
    recalls = engine.mean_predictor_recall()
    print(f"predictor mean recall: attention={recalls.get('attention', 0):.4f} "
          f"mlp={recalls.get('mlp', 0):.4f}  (paper reports 96.35% for MLP)")
    assert recalls.get("mlp", 0) > 0.85


def test_fig11_prediction_visualisation(benchmark):
    """Figure 11b analogue: correlation between predicted and exact block scores."""
    model = build_model("opt-tiny", seed=0)
    batches = e2e_batches(model, SEQ, num_batches=1)
    engine = LongExposure(LongExposureConfig(block_size=BLOCK, predictor_epochs=6, seed=0))
    correlation_holder = {}

    def run():
        engine.prepare(model, batches)
        collected = collect_layer_data(model, batches)
        exposer = AttentionExposer(BLOCK)
        merged = collected[0].merged()
        exact = exposer.block_reduce(merged["attention_probs"])       # (heads, nb, nb)
        predictor = engine.attention_predictors[0]
        approx = predictor.approximate_scores(merged["attention_inputs"]).mean(axis=0)
        causal = causal_block_mask(exact.shape[-1])
        flat_exact = exact[:, causal].reshape(-1)
        flat_approx = approx[:, causal].reshape(-1)
        correlation = float(np.corrcoef(flat_exact, flat_approx)[0, 1])
        correlation_holder["value"] = correlation
        return correlation

    benchmark.pedantic(run, rounds=1, iterations=1)
    correlation = correlation_holder["value"]
    print(f"\n[Figure 11b] predicted vs exact block-score correlation: {correlation:.3f}")
    assert correlation > 0.3, "predictions must correlate with the true score structure"
