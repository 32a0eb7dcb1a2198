"""Shadowy-sparsity analysis of a model (the paper's Figure 4 / Figure 9 view).

Profiles per-layer attention and MLP sparsity under the different mask
strategies (per-token, uniform "shadowy", head-specific, Longformer/BigBird,
threshold-filtered MLP blocks) on real batches, and prints the block sparsity
of each head's own coverage mask.

Usage::

    python examples/sparsity_analysis.py
"""

from repro import build_model
from repro.analysis import ascii_bar_chart, format_table, model_sparsity_profile
from repro.data import E2EDatasetGenerator
from repro.sparsity.patterns import causal_block_mask


def main() -> None:
    model = build_model("opt-small", seed=0)
    generator = E2EDatasetGenerator(seed=0)
    batches = generator.token_batches(1, batch_size=2, seq_len=256,
                                      vocab_size=model.config.vocab_size)
    profiles = model_sparsity_profile(model, batches, block_size=32)

    rows = []
    for profile in profiles:
        rows.append([profile.layer,
                     f"{profile.attention_head_specific:.2f}",
                     f"{profile.attention_shadowy:.2f}",
                     f"{profile.attention_longformer:.2f}",
                     f"{profile.attention_bigbird:.2f}",
                     f"{profile.mlp_shadowy:.2f}",
                     f"{profile.mlp_filtered[0.03]:.2f}"])
    print(format_table(
        ["layer", "attn head-specific", "attn shadowy", "longformer", "bigbird",
         "mlp shadowy", "mlp filtered @3%"],
        rows, title="Per-layer sparsity ratios (higher = more computation skipped)"))

    print("\nPer-head block sparsity of the exposer's coverage masks (layer 0):")
    masks = profiles[0].head_masks
    causal_total = causal_block_mask(masks.shape[-1]).sum()
    for head, mask in enumerate(masks):
        print(f"  head {head}: {1.0 - mask.sum() / causal_total:.2f}")

    print("\nMLP filtered sparsity vs importance threshold (layer 1):")
    thresholds = sorted(profiles[1].mlp_filtered)
    print(ascii_bar_chart([f"threshold {t:.0%}" for t in thresholds],
                          [profiles[1].mlp_filtered[t] for t in thresholds],
                          title=""))


if __name__ == "__main__":
    main()
