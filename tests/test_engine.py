"""Tests of the end-to-end LongExposure engine."""

import numpy as np
import pytest

from repro.models import build_model
from repro.peft import apply_lora, LoRAConfig, get_peft_method
from repro.sparsity import LongExposure, LongExposureConfig
from repro.sparsity.engine import SparseAttentionBackend, SparseMLPBackend
from repro.nn.attention import DenseAttentionBackend
from repro.nn.mlp import DenseMLPBackend


class TestConfigValidation:
    def test_block_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            LongExposureConfig(block_size=48)

    def test_threshold_ranges(self):
        with pytest.raises(ValueError):
            LongExposureConfig(mlp_threshold=1.5)
        with pytest.raises(ValueError):
            LongExposureConfig(attention_coverage=0.0)
        with pytest.raises(ValueError):
            LongExposureConfig(predictor_rank=0)


class TestEngineLifecycle:
    def test_install_requires_prepare(self, tiny_model):
        engine = LongExposure(LongExposureConfig(block_size=16))
        with pytest.raises(RuntimeError):
            engine.install(tiny_model)

    def test_install_and_uninstall_swap_backends(self, prepared_engine):
        model, engine = prepared_engine
        engine.install(model)
        try:
            for block in model.blocks:
                assert isinstance(block.attention.backend, SparseAttentionBackend)
                assert isinstance(block.mlp.backend, SparseMLPBackend)
        finally:
            engine.uninstall(model)
        for block in model.blocks:
            assert isinstance(block.attention.backend, DenseAttentionBackend)
            assert isinstance(block.mlp.backend, DenseMLPBackend)

    def test_sparse_and_dense_losses_are_close(self, prepared_engine, tiny_batches):
        model, engine = prepared_engine
        ids = tiny_batches[0]
        dense_loss, _ = model.loss(ids)
        engine.install(model)
        try:
            sparse_loss, _ = model.loss(ids)
        finally:
            engine.uninstall(model)
        # Sparsity only drops negligible work, so the losses agree closely
        # (Table IV's "minimal loss in accuracy" at the loss level).
        assert abs(float(dense_loss.data) - float(sparse_loss.data)) < 0.05

    def test_stats_accumulate_and_reset(self, prepared_engine, tiny_batches):
        model, engine = prepared_engine
        engine.stats.reset()
        engine.install(model)
        try:
            model.loss(tiny_batches[0])
        finally:
            engine.uninstall(model)
        assert engine.stats.attention_calls == len(model.blocks)
        assert engine.stats.mlp_calls == len(model.blocks)
        assert engine.stats.prediction_seconds > 0
        assert 0 <= engine.stats.mean_attention_sparsity() <= 1
        engine.stats.reset()
        assert engine.stats.attention_calls == 0

    def test_predictor_recall_reported(self, prepared_engine):
        _, engine = prepared_engine
        recalls = engine.mean_predictor_recall()
        assert set(recalls) == {"attention", "mlp"}
        assert all(0 <= value <= 1 for value in recalls.values())
        assert "LongExposure" in engine.summary()


class TestOracleAndFamilies:
    def test_oracle_mode_skips_predictor_training(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
        engine.prepare(model, tiny_batches)
        assert engine.attention_predictors == []
        engine.install(model)
        try:
            loss, _ = model.loss(tiny_batches[0])
            loss.backward()
        finally:
            engine.uninstall(model)
        assert np.isfinite(float(loss.data))

    def test_gelu_model_only_gets_attention_optimisation(self, tiny_batches):
        model = build_model("gpt2-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
        engine.prepare(model, tiny_batches)
        engine.install(model)
        try:
            for block in model.blocks:
                assert isinstance(block.attention.backend, SparseAttentionBackend)
                assert isinstance(block.mlp.backend, DenseMLPBackend)
        finally:
            engine.uninstall(model)

    def test_depth_mismatch_detected(self, tiny_batches):
        shallow = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=1))
        engine.prepare(shallow, tiny_batches[:1])
        deeper = build_model("opt-small", seed=0)
        with pytest.raises(RuntimeError):
            engine.install(deeper)

    def test_lora_in_mlp_falls_back_to_dense_kernel(self, tiny_batches):
        """LoRA targeting fc1/fc2 invalidates the frozen-weight sparse MLP path;
        the engine must still produce correct results by falling back."""
        model = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
        engine.prepare(model, tiny_batches)
        apply_lora(model, LoRAConfig(rank=2, target_modules=("fc1", "fc2")))
        engine.install(model)
        try:
            loss, _ = model.loss(tiny_batches[0])
            loss.backward()
        finally:
            engine.uninstall(model)
        assert np.isfinite(float(loss.data))

    def test_sparse_backward_only_touches_trainable_lora_params(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
        engine.prepare(model, tiny_batches)
        apply_lora(model)
        engine.install(model)
        try:
            loss, _ = model.loss(tiny_batches[0])
            loss.backward()
        finally:
            engine.uninstall(model)
        for name, param in model.named_parameters():
            if "lora" in name:
                assert param.grad is not None
            else:
                assert param.grad is None


@pytest.fixture(scope="module")
def refreshed():
    """A predicted-mode tuner on ``opt-tiny`` after three refreshes, each on a
    fresh batch (``predict_interval=1``)."""
    from repro.runtime.trainer import FineTuner, TrainingConfig

    model = build_model("opt-tiny", seed=0)
    rng = np.random.default_rng(11)
    engine = LongExposure(LongExposureConfig(block_size=16, seed=0))
    engine.prepare(model, [rng.integers(0, 512, size=(2, 256))])
    apply_lora(model)
    engine.install(model)
    tuner = FineTuner(model, TrainingConfig(learning_rate=1e-3), engine=engine)
    for _ in range(3):
        tuner.step(rng.integers(0, 512, size=(2, 256)))
    yield model, engine, tuner
    engine.uninstall(model)


class TestExecutedSparsity:
    def test_live_layouts_run_the_calibrated_budget(self, refreshed):
        """The kernel runs each head's own mask at the density its
        calibrated budget sets."""
        model, engine, _ = refreshed
        live = engine.live_attention_sparsity()
        assert sorted(live) == list(range(len(model.blocks)))
        for backend in engine._sparse_backends:
            if isinstance(backend, SparseAttentionBackend):
                budget = engine.attention_predictors[
                    backend.layer_index].calibration.budget_for(256)
                np.testing.assert_allclose(live[backend.layer_index], 1.0 - budget,
                                           atol=0.05)

    def test_sparsity_gauges_read_the_live_layouts(self, refreshed):
        model, engine, tuner = refreshed
        layouts = [b.last_layout for b in engine._sparse_backends
                   if isinstance(b, SparseAttentionBackend)]
        gauges = tuner.profiler.gauges()
        assert gauges["attention_live_sparsity"] == pytest.approx(
            np.mean([layout.sparsity() for layout in layouts]))
        assert gauges["attention_min_head_sparsity"] == pytest.approx(
            min(layout.head_sparsity().min() for layout in layouts))
        assert "live attention sparsity per layer" in engine.summary()

    def test_panel_efficiency_reads_the_cached_geometry(self, refreshed):
        """Useful over attempted attention work: kept blocks over the panel
        blocks the capacity classes execute, from the geometry the kernel
        ran, without counting a cache lookup."""
        from repro.sparsity.ops import compute_block_geometry

        model, engine, tuner = refreshed
        cache = engine.geometry_cache
        lookups = cache.hits + cache.misses
        efficiency = engine.live_panel_efficiency()
        assert cache.hits + cache.misses == lookups
        assert sorted(efficiency) == list(range(len(model.blocks)))
        for backend in engine._sparse_backends:
            if isinstance(backend, SparseAttentionBackend):
                layout = backend.last_layout
                executed = sum(tile.index.size for tile in
                               compute_block_geometry(layout, 256).tiles)
                assert efficiency[backend.layer_index] == pytest.approx(
                    layout.nnz / executed)
                # The ladder pads a unit's panel by less than half.
                assert 2 / 3 <= efficiency[backend.layer_index] <= 1.0
        assert tuner.profiler.gauges()["attention_panel_efficiency"] == \
            pytest.approx(np.mean(list(efficiency.values())))
        assert "attention panel efficiency per layer" in engine.summary()

    def test_geometry_cache_holds_only_live_layouts(self, refreshed):
        model, engine, _ = refreshed
        assert engine.geometry_cache.misses >= 2 * len(model.blocks)
        assert len(engine.geometry_cache) <= len(model.blocks)

    def test_oracle_layout_is_the_raw_coverage_mask(self, tiny_batches,
                                                    monkeypatch):
        from repro.sparsity.ops.layout import layout_from_block_masks
        from repro.tensor import Tensor

        model = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
        engine.prepare(model, tiny_batches[:1])
        raw = []
        exposer_masks = engine.attention_exposer.raw_block_masks
        monkeypatch.setattr(engine.attention_exposer, "raw_block_masks",
                            lambda probs: raw.append(exposer_masks(probs)) or raw[-1])
        attention = model.blocks[0].attention
        rng = np.random.default_rng(5)
        q, k = (Tensor(rng.normal(size=(2, attention.num_heads, 64,
                                          attention.head_dim)).astype(np.float32))
                for _ in range(2))
        layout = engine.oracle_attention_layout(attention, q, k, 64)
        assert layout.signature() == layout_from_block_masks(raw[0], 16).signature()
