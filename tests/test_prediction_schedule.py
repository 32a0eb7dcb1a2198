"""Prediction-scheduler correctness (``predict_interval``, ``-m schedule``).

The scheduler lets the sparse backends reuse the last layout / active-block
set between mask refreshes.  These tests lock its contract:

* with frozen inputs and frozen weights, ``predict_interval=K`` produces
  bitwise-identical losses and refresh-invariant layouts vs.
  ``predict_interval=1``;
* refreshes happen exactly every K scheduler steps, reuses fill the gaps,
  and drifting inputs record nonzero mask drift;
* a sequence-length change always forces a refresh;
* the trainer advances the scheduler and surfaces the staleness gauges in
  the profiler summary;
* reuse is counted per step, so compiled and interpreted runs of the same
  steps read the same engine gauges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.runtime.trainer import FineTuner, TrainingConfig
from repro.sparsity import LongExposure, LongExposureConfig
from repro.sparsity.engine import (SparseAttentionBackend, _active_block_drift,
                                   _layout_drift)
from repro.sparsity.ops import compute_block_geometry
from repro.sparsity.ops.layout import layout_from_block_masks

pytestmark = pytest.mark.schedule


def _oracle_engine(model, batches, interval, block_size=16):
    engine = LongExposure(LongExposureConfig(
        block_size=block_size, oracle_mode=True, predict_interval=interval, seed=0))
    engine.prepare(model, batches)
    return engine


class TestConfig:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            LongExposureConfig(predict_interval=0)
        assert LongExposureConfig(predict_interval=3).predict_interval == 3


class TestDriftMetric:
    def test_identical_layouts_have_zero_drift(self):
        masks = np.zeros((2, 4, 4), dtype=bool)
        masks[:, np.arange(4), np.arange(4)] = True
        masks[:, 2, 0] = True
        a = layout_from_block_masks(masks, block_size=16)
        b = layout_from_block_masks(masks.copy(), block_size=16)
        assert _layout_drift(a, b) == 0.0

    def test_differing_layouts_have_positive_drift(self):
        masks_a = np.zeros((1, 4, 4), dtype=bool)
        masks_a[:, np.arange(4), np.arange(4)] = True
        masks_b = masks_a.copy()
        masks_b[0, 3, 0] = True
        a = layout_from_block_masks(masks_a, block_size=16)
        b = layout_from_block_masks(masks_b, block_size=16)
        drift = _layout_drift(a, b)
        # 4 shared diagonal blocks, 1 extra block: |AΔB|/|A∪B| = 1/5.
        assert drift == pytest.approx(0.2)
        # Symmetric.
        assert _layout_drift(b, a) == pytest.approx(0.2)

    def test_incomparable_layouts_give_none(self):
        masks = np.eye(4, dtype=bool)[None]
        a = layout_from_block_masks(masks, block_size=16)
        b = layout_from_block_masks(np.eye(2, dtype=bool)[None], block_size=16)
        assert _layout_drift(None, a) is None
        assert _layout_drift(b, a) is None

    def test_active_block_drift(self):
        assert _active_block_drift(None, np.array([0, 1])) is None
        assert _active_block_drift(np.array([0, 1]), np.array([0, 1])) == 0.0
        drift = _active_block_drift(np.array([0, 1, 2]), np.array([1, 2, 3]))
        assert drift == pytest.approx(0.5)  # {0,3} differ out of {0,1,2,3}


class TestFrozenInputsBitwiseIdentical:
    @pytest.mark.parametrize("interval", [2, 3])
    def test_interval_k_matches_interval_1(self, tiny_batches, interval):
        """Frozen inputs + frozen weights: reuse must not change anything."""
        ids = tiny_batches[0]
        losses = {}
        for k in (1, interval):
            model = build_model("opt-tiny", seed=0)
            engine = _oracle_engine(model, tiny_batches, k)
            engine.install(model)
            try:
                run = []
                for _ in range(2 * interval):
                    engine.advance_step()
                    loss, _ = model.loss(ids)
                    run.append(float(loss.data))
                losses[k] = run
            finally:
                engine.uninstall(model)
        # Bitwise equality, not approximate: the reused layout is the same
        # object the refresh would have recomputed.
        assert losses[1] == losses[interval]

    def test_reuse_counters_with_frozen_inputs(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = _oracle_engine(model, tiny_batches, interval=3)
        engine.install(model)
        try:
            for _ in range(6):
                engine.advance_step()
                model.loss(tiny_batches[0])
        finally:
            engine.uninstall(model)
        for layer in engine.stats.attention_layers.values():
            assert layer.refreshes == 2      # steps 1 and 4
            assert engine.stats.reuses(layer) == 4
            # Frozen inputs: every refresh reproduces the previous mask.
            assert layer.drift_samples == 1 and layer.drift_mean == 0.0
        assert engine.stats.attention_reuse_rate() == pytest.approx(4 / 6)


class TestRefreshCadenceAndDrift:
    def test_refresh_exactly_every_k_with_drifting_inputs(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = _oracle_engine(model, tiny_batches, interval=2)
        engine.install(model)
        rng = np.random.default_rng(3)
        ids_a = rng.integers(0, 512, size=(2, 64))
        ids_b = np.full((2, 64), 7)      # degenerate repeated-token stream
        try:
            for ids in (ids_a, ids_a, ids_b, ids_b, ids_a):
                engine.advance_step()
                model.loss(ids)
        finally:
            engine.uninstall(model)
        stats = engine.stats
        for layer in stats.attention_layers.values():
            assert layer.refreshes == 3      # steps 1, 3, 5 — exactly every K=2
            assert stats.reuses(layer) == 2
            assert layer.drift_samples == 2
        for layer in stats.mlp_layers.values():
            assert layer.refreshes == 3 and stats.reuses(layer) == 2
        # The input change between refreshes moves at least one layer's mask.
        assert stats.mean_attention_drift() > 0.0

    def test_interval_1_never_reuses(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = _oracle_engine(model, tiny_batches, interval=1)
        engine.install(model)
        try:
            for _ in range(3):
                engine.advance_step()
                model.loss(tiny_batches[0])
        finally:
            engine.uninstall(model)
        for layer in engine.stats.attention_layers.values():
            assert layer.refreshes == 3 and engine.stats.reuses(layer) == 0
        assert engine.stats.attention_reuse_rate() == 0.0

    def test_seq_length_change_forces_refresh(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = _oracle_engine(model, tiny_batches, interval=8)
        engine.install(model)
        ids_long = tiny_batches[0]
        ids_short = tiny_batches[0][:, :32]
        try:
            engine.advance_step()
            model.loss(ids_long)
            model.loss(ids_short)       # same step, new block grid
        finally:
            engine.uninstall(model)
        for layer in engine.stats.attention_layers.values():
            assert layer.refreshes == 2 and engine.stats.reuses(layer) == 0
            # Grid changed between the refreshes: no comparable drift sample.
            assert layer.drift_samples == 0

    def test_lowering_interval_mid_run_takes_effect_immediately(self, tiny_batches):
        """The refresh deadline follows the *current* predict_interval."""
        model = build_model("opt-tiny", seed=0)
        engine = _oracle_engine(model, tiny_batches, interval=64)
        engine.install(model)
        try:
            for _ in range(3):       # refresh at step 1, reuse at 2-3
                engine.advance_step()
                model.loss(tiny_batches[0])
            engine.config.predict_interval = 2
            engine.advance_step()    # step 4: 4 >= 1 + 2 -> refresh now
            model.loss(tiny_batches[0])
        finally:
            engine.uninstall(model)
        for layer in engine.stats.attention_layers.values():
            assert layer.refreshes == 2 and engine.stats.reuses(layer) == 2

    def test_reset_schedule_forces_refresh(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = _oracle_engine(model, tiny_batches, interval=4)
        engine.install(model)
        try:
            engine.advance_step()
            model.loss(tiny_batches[0])
            engine.reset_schedule()
            assert engine.step_index == 0
            engine.advance_step()
            model.loss(tiny_batches[0])
        finally:
            engine.uninstall(model)
        for layer in engine.stats.attention_layers.values():
            assert layer.refreshes == 2 and engine.stats.reuses(layer) == 0


class TestPredictedPathScheduling:
    def test_predicted_backends_reuse_layouts(self, prepared_engine, tiny_batches):
        model, engine = prepared_engine
        saved = engine.config.predict_interval
        engine.config.predict_interval = 2
        engine.stats.reset()
        engine.reset_schedule()
        engine.step_index = 0
        engine.install(model)
        try:
            for _ in range(4):
                engine.advance_step()
                model.loss(tiny_batches[0])
        finally:
            engine.uninstall(model)
            engine.config.predict_interval = saved
        for layer in engine.stats.attention_layers.values():
            assert layer.refreshes == 2 and engine.stats.reuses(layer) == 2
        assert engine.stats.prediction_seconds > 0.0


class TestTrainerIntegration:
    def test_trainer_advances_schedule_and_sets_gauges(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        engine = _oracle_engine(model, tiny_batches, interval=2)
        engine.install(model)
        try:
            from repro.peft import apply_lora
            apply_lora(model)
            tuner = FineTuner(model, TrainingConfig(learning_rate=1e-4),
                              engine=engine)
            report = tuner.train([tiny_batches[0]] * 4, max_steps=4)
        finally:
            engine.uninstall(model)
        assert engine.step_index == 4
        for layer in engine.stats.attention_layers.values():
            assert layer.refreshes == 2 and engine.stats.reuses(layer) == 2
        summary = tuner.profiler.summary_dict()
        assert "gauges" in summary
        gauges = summary["gauges"]
        for key in ("prediction_fraction", "attention_reuse_rate",
                    "mlp_reuse_rate", "attention_mask_drift", "mlp_block_drift"):
            assert key in gauges
        assert gauges["attention_reuse_rate"] == pytest.approx(0.5)
        assert report.steps == 4


class TestPathIndependentGauges:
    def test_compiled_and_interpreted_runs_read_the_same_gauges(self):
        """Twelve predicted-mode steps at K=4 over the same batches, once
        compiled (capture on: only refresh steps call a backend) and once
        interpreted (every step calls every backend), read the same engine
        gauges and refresh/reuse counts: refreshes on steps 1, 5 and 9, so
        three of every four layer-steps are reuses."""
        rng = np.random.default_rng(11)
        calib = rng.integers(0, 512, size=(2, 64))
        batches = [rng.integers(0, 512, size=(2, 64)) for _ in range(12)]

        def run(capture):
            from repro.peft import apply_lora
            from repro.runtime.trainer import CaptureConfig

            model = build_model("opt-tiny", seed=0)
            engine = LongExposure(LongExposureConfig(
                block_size=16, predictor_epochs=2, predict_interval=4, seed=0))
            engine.prepare(model, [calib])
            apply_lora(model)
            engine.install(model)
            try:
                tuner = FineTuner(model, TrainingConfig(
                    learning_rate=1e-3, capture=CaptureConfig(enabled=capture)),
                    engine=engine)
                losses = tuner.train(batches).losses
                return (losses, engine.gauges(), engine.stats.layout_reuse_counts(),
                        engine.stats.attention_reuse_rate())
            finally:
                engine.uninstall(model)

        compiled, interpreted = run(True), run(False)
        assert compiled == interpreted
        _, gauges, counts, reuse_rate = compiled
        assert "prediction_fraction" not in gauges
        assert reuse_rate == gauges["attention_reuse_rate"] == 0.75
        assert counts["attention_refreshes"] == 3 * 2     # two layers
        assert counts["attention_reuses"] == 9 * 2


class TestScheduleRoundTrip:
    def test_rollback_over_a_refresh_step_is_bitwise(self, tiny_batches):
        """Record the schedule before refresh step 3, run that step on other
        inputs, restore the record and run the step again: losses, layouts
        and refresh steps equal the uninterrupted run's, and every attention
        backend holds its live layout's geometry (the detour's is replaced)."""
        rng = np.random.default_rng(5)
        steps = [rng.integers(0, 512, size=(2, 64)) for _ in range(5)]
        detour = np.full((2, 64), 7)

        def run(rollback_at=None):
            model = build_model("opt-tiny", seed=0)
            engine = _oracle_engine(model, tiny_batches, interval=2)
            engine.install(model)
            trace = []
            try:
                for step, ids in enumerate(steps, start=1):
                    if step == rollback_at:
                        record = engine.schedule_state()
                        engine.advance_step()
                        model.loss(detour)
                        engine.restore_schedule(record)
                    engine.advance_step()
                    loss, _ = model.loss(ids)
                    state = engine.schedule_state()
                    trace.append((float(loss.data), engine.layout_state(),
                                  state["step_index"], state["refresh_steps"]))
                    for backend in engine._sparse_backends:
                        if isinstance(backend, SparseAttentionBackend):
                            fresh = compute_block_geometry(backend.last_layout, 64)
                            assert np.array_equal(backend.geometry.units, fresh.units)
                            assert all(np.array_equal(a.index, b.index) for a, b
                                       in zip(backend.geometry.tiles, fresh.tiles))
            finally:
                engine.uninstall(model)
            return trace

        clean = run()
        assert [set(refresh) for *_, refresh in clean] == [{1}, {1}, {3}, {3}, {5}]
        assert run(rollback_at=3) == clean
