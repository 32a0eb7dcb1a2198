"""Tests of the end-to-end LongExposure engine."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.models import build_model
from repro.peft import apply_lora, LoRAConfig, get_peft_method
from repro.sparsity import LongExposure, LongExposureConfig
from repro.sparsity.engine import (MLP_FILTER, PROBE_RANK, SparseAttentionBackend,
                                   SparseMLPBackend)
from repro.sparsity.ops import compute_block_geometry
from repro.sparsity.predictor import PredictorTrainingConfig
from repro.nn.attention import DenseAttentionBackend
from repro.nn.mlp import DenseMLPBackend


class TestConfigValidation:
    def test_block_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            LongExposureConfig(block_size=48)

    def test_threshold_ranges(self):
        with pytest.raises(ValueError):
            LongExposureConfig(attention_coverage=0.0)

    def test_config_holds_only_the_fields_a_caller_sets(self):
        names = [f.name for f in dataclasses.fields(LongExposureConfig)]
        assert names == ["block_size", "attention_coverage", "predictor_epochs",
                         "oracle_mode", "predict_interval", "seed"]
        for deleted in ("calibrate_predictors", "calibration_lengths"):
            with pytest.raises(TypeError):
                LongExposureConfig(**{deleted: ()})


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
        assert engine.stats.layout_reuse_counts() == {
            "attention_reuses": 0, "attention_refreshes": len(model.blocks),
            "mlp_reuses": 0, "mlp_refreshes": len(model.blocks)}
        assert engine.stats.prediction_seconds > 0
        engine.stats.reset()
        assert engine.stats.layout_reuse_counts()["attention_refreshes"] == 0
        assert engine.stats.prediction_seconds == 0.0

    def test_predictors_are_built_from_the_engine_constants(self, prepared_engine):
        model, engine = prepared_engine
        assert engine.mlp_exposer.threshold == MLP_FILTER
        assert len(engine.attention_predictors) == len(model.blocks)
        for predictor in engine.attention_predictors:
            assert predictor.rank == PROBE_RANK
            assert predictor.threshold == 0.02
        assert len(engine.mlp_predictors) == len(model.blocks)
        for predictor in engine.mlp_predictors:
            assert predictor.min_active_blocks == 1

    def test_prepare_takes_only_the_model_and_its_batches(self, tiny_batches):
        """The training schedule comes from the config alone."""
        engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=1))
        with pytest.raises(TypeError):
            engine.prepare(build_model("opt-tiny", seed=0), tiny_batches[:1],
                           training_config=PredictorTrainingConfig(epochs=1))
        assert engine.attention_predictors == []

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

    def test_missing_mlp_predictors_detected(self, tiny_batches):
        """A GeLU model trains no MLP probes, so an engine prepared on one
        must refuse a ReLU model of the same depth, dim and heads at install
        rather than fail on its first forward."""
        gelu = build_model("gpt2-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=1))
        engine.prepare(gelu, tiny_batches[:1])
        assert engine.mlp_predictors == []
        relu = build_model("opt-tiny", seed=0)
        with pytest.raises(RuntimeError, match="different model"):
            engine.install(relu)
        assert all(isinstance(block.mlp.backend, DenseMLPBackend)
                   for block in relu.blocks)

    def test_predicted_gelu_engine_installs_on_a_gelu_model(self, tiny_batches):
        """The MLP-predictor check must not refuse a GeLU model, which has
        attention predictors only."""
        engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=1))
        engine.prepare(build_model("gpt2-tiny", seed=0), tiny_batches[:1])
        model = build_model("gpt2-tiny", seed=1)
        engine.install(model)
        try:
            for block in model.blocks:
                assert isinstance(block.attention.backend, SparseAttentionBackend)
                assert isinstance(block.mlp.backend, DenseMLPBackend)
            loss, _ = model.loss(tiny_batches[0])
        finally:
            engine.uninstall(model)
        assert np.isfinite(float(loss.data))

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


def test_predicted_attention_backend_needs_the_layer_input(tiny_batches):
    """A predicted-mode backend derives its layout from the layer input
    ``x``: the argument is required, so a caller that drops it fails
    instead of silently running oracle masks."""
    from repro.sparsity.ops.layout import layout_from_block_masks
    from repro.tensor import Tensor

    model = build_model("opt-tiny", seed=0)
    engine = LongExposure(LongExposureConfig(block_size=16, predictor_epochs=1))
    engine.prepare(model, tiny_batches[:1])
    attention = model.blocks[0].attention
    backend = SparseAttentionBackend(engine, 0)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 64, model.config.dim)).astype(np.float32)
    q, k, v = (Tensor(rng.normal(size=(2, attention.num_heads, 64, attention.head_dim))
                      .astype(np.float32)) for _ in range(3))
    with pytest.raises(TypeError):
        backend(attention, q, k, v, None)
    assert backend.last_layout is None
    backend(attention, q, k, v, None, Tensor(x))
    expected = layout_from_block_masks(
        engine.attention_predictors[0].predict_patterns(x), 16)
    assert backend.last_layout.signature() == expected.signature()


def _attention_backends(engine):
    return [b for b in engine._sparse_backends if isinstance(b, SparseAttentionBackend)]


def _assert_geometry_of(geometry, layout):
    """``geometry`` is ``layout``'s capacity classes, array for array."""
    fresh = compute_block_geometry(layout, layout.n_blocks * layout.block_size)
    assert np.array_equal(geometry.units, fresh.units)
    assert len(geometry.tiles) == len(fresh.tiles)
    for held, computed in zip(geometry.tiles, fresh.tiles):
        assert np.array_equal(held.index, computed.index)


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
                    backend.layer_index].calibration.budget
                np.testing.assert_allclose(live[backend.layer_index], 1.0 - budget,
                                           atol=0.05)

    def test_sparsity_gauges_read_the_live_layouts(self, refreshed):
        model, engine, tuner = refreshed
        layouts = [b.last_layout for b in engine._sparse_backends
                   if isinstance(b, SparseAttentionBackend)]
        gauges = tuner.profiler.gauges()
        assert gauges["attention_sparsity"] == pytest.approx(
            np.mean([layout.sparsity() for layout in layouts]))
        assert gauges["attention_min_head_sparsity"] == pytest.approx(
            min(layout.head_sparsity().min() for layout in layouts))
        assert "live attention sparsity per layer" in engine.summary()

    def test_panel_efficiency_reads_the_held_geometry(self, refreshed):
        """Useful over attempted attention work: kept blocks over the panel
        blocks of the capacity classes each backend holds and runs."""
        model, engine, tuner = refreshed
        efficiency = engine.live_panel_efficiency()
        assert sorted(efficiency) == list(range(len(model.blocks)))
        for backend in _attention_backends(engine):
            layout = backend.last_layout
            executed = sum(tile.index.size for tile in backend.geometry.tiles)
            assert efficiency[backend.layer_index] == pytest.approx(
                layout.nnz / executed)
            # The ladder pads a unit's panel by less than half.
            assert 2 / 3 <= efficiency[backend.layer_index] <= 1.0
        assert tuner.profiler.gauges()["attention_panel_efficiency"] == \
            pytest.approx(np.mean(list(efficiency.values())))
        assert "attention panel efficiency per layer" in engine.summary()

    def test_each_backend_holds_its_live_layouts_geometry(self, refreshed):
        model, engine, _ = refreshed
        backends = _attention_backends(engine)
        assert len(backends) == len(model.blocks)
        for backend in backends:
            _assert_geometry_of(backend.geometry, backend.last_layout)
        assert len({id(backend.geometry) for backend in backends}) == len(backends)

    def test_oracle_layout_is_the_raw_coverage_mask(self, tiny_batches,
                                                    monkeypatch):
        from repro.sparsity.ops.layout import layout_from_block_masks
        from repro.tensor import Tensor

        model = build_model("opt-tiny", seed=0)
        engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
        engine.prepare(model, tiny_batches[:1])
        raw = []
        exposer_masks = engine.attention_exposer.raw_masks_from_block_mass
        monkeypatch.setattr(engine.attention_exposer, "raw_masks_from_block_mass",
                            lambda mass: raw.append(exposer_masks(mass)) or raw[-1])
        attention = model.blocks[0].attention
        rng = np.random.default_rng(5)
        q, k = (Tensor(rng.normal(size=(2, attention.num_heads, 64,
                                          attention.head_dim)).astype(np.float32))
                for _ in range(2))
        layout = engine.oracle_attention_layout(attention, q, k, 64)
        assert layout.signature() == layout_from_block_masks(raw[0], 16).signature()


def _counting_geometry(monkeypatch) -> list:
    """Record every geometry computation the engine or the kernel makes."""
    from repro.sparsity import engine as engine_module
    from repro.sparsity.ops import block_sparse

    calls = []

    def counting(layout, seq_len):
        calls.append(layout.signature())
        return compute_block_geometry(layout, seq_len)

    monkeypatch.setattr(engine_module, "compute_block_geometry", counting)
    monkeypatch.setattr(block_sparse, "compute_block_geometry", counting)
    return calls


def _predicted_tuner(interval=1, capture=False):
    """``opt-tiny`` + LoRA under a predicted engine (block 16, seq 256)."""
    from repro.runtime import CaptureConfig
    from repro.runtime.trainer import FineTuner, TrainingConfig

    model = build_model("opt-tiny", seed=0)
    rng = np.random.default_rng(11)
    engine = LongExposure(LongExposureConfig(block_size=16, seed=0,
                                             predict_interval=interval))
    engine.prepare(model, [rng.integers(0, 512, size=(2, 256))])
    apply_lora(model)
    engine.install(model)
    tuner = FineTuner(model, TrainingConfig(
        learning_rate=1e-3, capture=CaptureConfig(enabled=capture)), engine=engine)
    return tuner, rng


class TestGeometryOwnership:
    """A backend computes its layout's geometry when it installs a layout
    whose signature or sequence length differs from the one it holds, and
    at no other time."""

    @pytest.mark.parametrize("capture", [True, False], ids=["capture", "no-capture"])
    @pytest.mark.parametrize("interval,repeat,computes", [
        (1, False, 21), (4, False, 5), (1, True, 2)],
        ids=["fresh-K1", "fresh-K4", "repeated"])
    def test_one_compute_per_signature_change(self, monkeypatch, capture,
                                              interval, repeat, computes):
        """Twelve steps.  Fresh batches refresh 24 (K=1) or 6 (K=4) layer
        layouts, three of K=1's and one of K=4's repeating the layer's last
        layout; a repeated batch reproduces each layer's first layout."""
        tuner, rng = _predicted_tuner(interval, capture)
        engine = tuner.engine
        calls = _counting_geometry(monkeypatch)
        fixed = rng.integers(0, 512, size=(2, 256))
        held = [None] * len(_attention_backends(engine))
        changes = 0
        try:
            for _ in range(12):
                tuner.step(fixed if repeat else rng.integers(0, 512, size=(2, 256)))
                keys = [backend.key() for backend in _attention_backends(engine)]
                changes += sum(key != old for key, old in zip(keys, held))
                held = keys
        finally:
            engine.uninstall(tuner.model)
        assert len(calls) == changes == computes

    def test_one_compute_per_changed_adopted_layout(self, monkeypatch):
        tuner, rng = _predicted_tuner()
        engine = tuner.engine
        try:
            tuner.step(rng.integers(0, 512, size=(2, 256)))
            earlier = engine.export_layouts()
            tuner.step(rng.integers(0, 512, size=(2, 256)))
            live = engine.export_layouts()
            changed = [i for i, entry in enumerate(live) if entry[0] == "attn"
                       and entry[1].signature() != earlier[i][1].signature()]
            assert changed
            calls = _counting_geometry(monkeypatch)
            # One attention layer moves back to its earlier layout.
            mixed = list(live)
            mixed[changed[0]] = earlier[changed[0]]
            engine.adopt_layouts(mixed)
            assert calls == [earlier[changed[0]][1].signature()]
            engine.adopt_layouts(earlier)
            assert len(calls) == len(changed)
            # The live layouts again, as a rank receives them: nothing to compute.
            engine.adopt_layouts(pickle.loads(pickle.dumps(earlier)))
            assert len(calls) == len(changed)
            for backend in _attention_backends(engine):
                _assert_geometry_of(backend.geometry, backend.last_layout)
        finally:
            engine.uninstall(tuner.model)

    @pytest.mark.parametrize("install", ["adopt_layouts", "restore_schedule"])
    def test_panel_efficiency_covers_installed_layouts(self, install):
        """Right after layouts are installed from a record, before any
        forward, the panel gauge covers every layer and reads the installed
        layouts, as the sparsity gauges do."""
        tuner, rng = _predicted_tuner()
        engine = tuner.engine
        try:
            tuner.step(rng.integers(0, 512, size=(2, 256)))
            record = engine.schedule_state()
            tuner.step(rng.integers(0, 512, size=(2, 256)))
            installed = [entry for entry in record["layouts"] if entry[0] == "attn"]
            assert any(entry[1].signature() != backend.last_layout.signature()
                       for entry, backend in zip(installed, _attention_backends(engine)))
            if install == "adopt_layouts":
                engine.adopt_layouts(record["layouts"])
            else:
                engine.restore_schedule(record)
            efficiency = engine.live_panel_efficiency()
            assert sorted(efficiency) == list(range(len(installed)))
            for layer, (_, layout, seq_len) in enumerate(installed):
                executed = sum(tile.index.size for tile in
                               compute_block_geometry(layout, seq_len).tiles)
                assert efficiency[layer] == pytest.approx(layout.nnz / executed)
            gauges = engine.gauges()
            assert gauges["attention_sparsity"] == pytest.approx(
                np.mean([layout.sparsity() for _, layout, _ in installed]))
            assert gauges["attention_panel_efficiency"] == pytest.approx(
                np.mean(list(efficiency.values())))
        finally:
            engine.uninstall(tuner.model)

    def test_probe_view_reads_the_refresh_record_and_the_held_geometry(self, monkeypatch):
        """``engine.geometry_cache`` serves the e2e probes: its hit rate is
        the attention layout reuse rate, and a lookup of a live layout
        returns the geometry its backend holds."""
        tuner, rng = _predicted_tuner(interval=4)
        engine = tuner.engine
        try:
            for _ in range(5):      # refreshes on steps 1 and 5
                tuner.step(rng.integers(0, 512, size=(2, 256)))
            view = engine.geometry_cache
            assert (view.hits, view.misses) == (3 * 2, 2 * 2)
            assert view.hits / (view.hits + view.misses) == pytest.approx(
                engine.gauges()["attention_reuse_rate"])
            calls = _counting_geometry(monkeypatch)
            live = [entry for entry in engine.export_layouts() if entry[0] == "attn"]
            for (_, layout, seq_len), backend in zip(live, _attention_backends(engine)):
                assert view.lookup(layout, seq_len) is backend.geometry
            assert calls == []
            copy = pickle.loads(pickle.dumps(live[0][1]))
            _assert_geometry_of(view.lookup(copy, 256), copy)
            assert len(calls) == 1
        finally:
            engine.uninstall(tuner.model)
