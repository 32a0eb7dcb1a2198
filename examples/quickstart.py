"""Quickstart: accelerate LoRA fine-tuning of an OPT model with LongExposure.

Runs in well under a minute on a laptop CPU.  The flow is the one described
in the paper's Figure 3: collect calibration data from the frozen backbone,
train the sequence-oriented predictors offline, apply a PEFT method, install
the sparse backends and fine-tune — then compare against the dense baseline.

Usage::

    python examples/quickstart.py
"""

import numpy as np

from repro import (
    FineTuner,
    LongExposure,
    LongExposureConfig,
    TrainingConfig,
    build_model,
    get_peft_method,
)
from repro.data import E2EDatasetGenerator


def main() -> None:
    model_name = "opt-tiny"
    seq_len, batch_size, steps = 128, 2, 6

    print(f"== LongExposure quickstart: {model_name}, seq={seq_len} ==")
    generator = E2EDatasetGenerator(seed=0)

    # --- dense PEFT baseline -------------------------------------------------
    dense_model = build_model(model_name, seed=0)
    batches = generator.token_batches(4, batch_size, seq_len,
                                      vocab_size=dense_model.config.vocab_size)
    dense_model, result = get_peft_method("lora")(dense_model)
    print(f"LoRA: {result.summary()}")
    dense_tuner = FineTuner(dense_model, TrainingConfig(learning_rate=1e-3))
    dense_report = dense_tuner.train([batches[i % len(batches)] for i in range(steps)])
    print(f"dense PEFT   : {dense_report.breakdown_table()}")

    # --- PEFT + LongExposure --------------------------------------------------
    sparse_model = build_model(model_name, seed=0)
    engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=5))
    engine.prepare(sparse_model, batches[:1])          # offline: collect + train predictors
    sparse_model, _ = get_peft_method("lora")(sparse_model)
    engine.install(sparse_model)                        # swap in the sparse kernels
    sparse_tuner = FineTuner(sparse_model, TrainingConfig(learning_rate=1e-3), engine=engine)
    sparse_report = sparse_tuner.train([batches[i % len(batches)] for i in range(steps)])
    gauges, summary = engine.gauges(), engine.summary()    # read the live layouts
    engine.uninstall(sparse_model)
    print(f"+LongExposure: {sparse_report.breakdown_table()}")

    speedup = dense_report.mean_step_ms() / sparse_report.mean_step_ms()
    print(f"\nfinal loss  dense={dense_report.final_loss:.4f} "
          f"sparse={sparse_report.final_loss:.4f}")
    print(f"step speedup {speedup:.2f}x "
          f"(attention block sparsity {gauges['attention_sparsity']:.2f}, "
          f"MLP block sparsity {gauges['mlp_sparsity']:.2f})")
    print(summary)


if __name__ == "__main__":
    main()
