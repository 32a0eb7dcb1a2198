"""Integration tests: the full pipeline the examples and benchmarks rely on."""

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
from repro.analysis import format_table, model_sparsity_profile, speedup_series
from repro.analysis.reporting import ascii_bar_chart
from repro.data import E2EDatasetGenerator, build_task_suite, evaluate_model_on_task


@pytest.fixture(scope="module")
def e2e_batches():
    model_vocab = build_model("opt-tiny").config.vocab_size
    return E2EDatasetGenerator(seed=0).token_batches(3, batch_size=2, seq_len=64,
                                                     vocab_size=model_vocab)


class TestEndToEndFineTuning:
    def test_lora_plus_longexposure_training_reduces_loss(self, e2e_batches):
        model = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=3))
        engine.prepare(model, e2e_batches[:1])
        model, _ = get_peft_method("lora")(model)
        engine.install(model)
        try:
            tuner = FineTuner(model, TrainingConfig(learning_rate=5e-3), engine=engine)
            data = [e2e_batches[i % len(e2e_batches)] for i in range(10)]
            report = tuner.train(data)
        finally:
            engine.uninstall(model)
        assert report.losses[-1] < report.losses[0]
        assert report.mean_timings().prediction > 0

    def test_sparse_training_tracks_dense_training(self, e2e_batches):
        """Fine-tuning with LongExposure must follow the dense loss curve closely
        (the Figure 11a comparison, where only *random* masks diverge)."""
        def run(use_engine):
            model = build_model("opt-tiny", seed=0)
            engine = None
            if use_engine:
                engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
                engine.prepare(model, e2e_batches[:1])
            model, _ = get_peft_method("bitfit")(model)
            if engine:
                engine.install(model)
            tuner = FineTuner(model, TrainingConfig(learning_rate=5e-3))
            data = [e2e_batches[i % len(e2e_batches)] for i in range(6)]
            report = tuner.train(data)
            return report.losses

        dense_losses = run(False)
        sparse_losses = run(True)
        diffs = np.abs(np.array(dense_losses) - np.array(sparse_losses))
        assert diffs.max() < 0.1

    def test_downstream_accuracy_preserved_under_sparsity(self):
        """Table IV protocol at miniature scale: accuracy with LongExposure stays
        within a small margin of accuracy without it."""
        suite = build_task_suite(examples_per_task=6, seed=0)
        model = build_model("opt-tiny", seed=0)
        dense_acc = evaluate_model_on_task(model, suite.tasks["piqa"], suite.tokenizer,
                                           vocab_size=model.config.vocab_size)
        engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
        calibration = [np.random.default_rng(0).integers(0, 512, size=(2, 64))]
        engine.prepare(model, calibration)
        engine.install(model)
        try:
            sparse_acc = evaluate_model_on_task(model, suite.tasks["piqa"], suite.tokenizer,
                                                vocab_size=model.config.vocab_size)
        finally:
            engine.uninstall(model)
        assert abs(dense_acc["accuracy"] - sparse_acc["accuracy"]) <= 0.35


class TestAnalysisHelpers:
    def test_sparsity_profile_covers_all_layers(self, e2e_batches):
        model = build_model("opt-tiny", seed=0)
        profiles = model_sparsity_profile(model, e2e_batches[:1], block_size=16)
        assert len(profiles) == len(model.blocks)
        for profile in profiles:
            assert 0 <= profile.attention_head_specific <= 1
            assert set(profile.mlp_filtered) == {0.01, 0.02, 0.03, 0.05}
            # Importance filtering never reduces sparsity below the raw level.
            assert profile.mlp_filtered[0.05] >= profile.mlp_filtered[0.01] - 1e-9

    def test_reporting_helpers(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in table and "2.50" in table
        chart = ascii_bar_chart(["one", "two"], [1.0, 2.0], title="C")
        assert chart.count("#") > 3
        speedups = speedup_series({"x": 2.0}, {"x": 1.0})
        assert speedups["x"] == pytest.approx(2.0)
