"""Tests of the runtime substrate: trainer, profiler, memory, platform, scaling."""

import dataclasses

import numpy as np
import pytest

from repro.models import build_model, get_config
from repro.peft import get_peft_method
from repro.runtime import (
    AttentionConfig,
    CaptureConfig,
    DataParallelTrainer,
    FineTuner,
    MemoryModel,
    PLATFORMS,
    PhaseProfiler,
    TrainingConfig,
    roofline_step_time,
)
from repro.runtime.comms import chunk_schedule
from repro.runtime.platform import training_step_flops
from repro.tensor import fused


def make_finetuner(method="lora", **config_kwargs):
    model = build_model("opt-tiny", seed=0)
    adapted, _ = get_peft_method(method)(model)
    return FineTuner(adapted, TrainingConfig(**config_kwargs))


def batches(n=3, seq=32):
    rng = np.random.default_rng(0)
    return [rng.integers(0, 512, size=(2, seq)) for _ in range(n)]


class TestFineTuner:
    def test_requires_trainable_parameters(self):
        model = build_model("opt-tiny", seed=0)
        model.freeze()
        with pytest.raises(ValueError):
            FineTuner(model)

    def test_single_step_returns_timings(self):
        tuner = make_finetuner()
        loss, timing = tuner.step(batches(1)[0])
        assert np.isfinite(loss)
        assert timing.forward > 0 and timing.backward > 0 and timing.optimizer > 0
        assert timing.total == pytest.approx(timing.forward + timing.backward + timing.optimizer)
        assert "total_ms" in timing.as_milliseconds()

    def test_training_reduces_loss(self):
        tuner = make_finetuner("full", learning_rate=5e-3)
        data = batches(8)
        report = tuner.train([data[i % len(data)] for i in range(12)])
        assert report.steps == 12
        assert report.losses[-1] < report.losses[0]
        assert report.tokens_processed == 12 * 2 * 32

    def test_max_steps_respected(self):
        # An iterator resumes at the first batch not trained on.
        data = batches(5)
        it = iter(data)
        report = make_finetuner().train(it, max_steps=2)
        assert report.steps == 2
        assert next(it) is data[2]

    def test_report_breakdown_table(self):
        tuner = make_finetuner()
        report = tuner.train(batches(3))
        table = report.breakdown_table()
        assert "fwd" in table and "optim" in table
        assert report.mean_step_ms() > 0

    def test_optimizer_state_scales_with_trainable_parameters(self):
        """PEFT's optimizer holds less than full fine-tuning's (Table I)."""
        full = make_finetuner("full").optimizer
        lora = make_finetuner("lora").optimizer
        assert lora.num_parameters() < full.num_parameters()
        assert lora.state_size_bytes() < full.state_size_bytes()

class TestTrainingConfigGroups:
    """The nested CaptureConfig/AttentionConfig groups."""

    def test_config_holds_only_the_fields_a_caller_sets(self):
        names = [f.name for f in dataclasses.fields(TrainingConfig)]
        assert names == ["learning_rate", "grad_clip", "capture", "attention",
                         "data_parallel_workers"]
        for knob in ("weight_decay", "max_steps", "mixed_precision", "log_every"):
            with pytest.raises(TypeError):
                TrainingConfig(**{knob: 1})

    def test_step_signature_is_shapes_dtype_and_kernels(self):
        tuner = make_finetuner()
        ids = batches(1)[0]
        signature = tuner.step_signature(ids)
        assert signature == (ids.shape, str(ids.dtype), None,
                             fused.fused_kernels_enabled())
        assert tuner.step_signature(ids, ids) == (ids.shape, str(ids.dtype),
                                                  ids.shape,
                                                  fused.fused_kernels_enabled())
        assert tuner.step_signature(batches(1, seq=16)[0]) != signature

    def test_nested_round_trip(self):
        cfg = TrainingConfig(
            capture=CaptureConfig(enabled=True, warmup=2),
            attention=AttentionConfig(streaming=True, streaming_tile=64))
        assert cfg.capture == CaptureConfig(enabled=True, warmup=2)
        assert cfg.attention == AttentionConfig(streaming=True,
                                                streaming_tile=64)
        assert dataclasses.asdict(cfg)["capture"] == {"enabled": True,
                                                      "warmup": 2}
        assert dataclasses.asdict(cfg)["attention"] == {"streaming": True,
                                                        "streaming_tile": 64}
        tuner = make_finetuner(capture=cfg.capture, attention=cfg.attention)
        assert tuner.capture.warmup_steps == 2
        # The reference tape is a scope around the call, not a config field.
        with fused.reference_kernels():
            loss, _ = tuner.step(batches(1)[0])
        assert np.isfinite(loss)
        assert tuner.capture.full_fail_reason == "reference kernels"


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "predicted"])
def test_grad_clip_is_bitwise_under_compiled_replay(monkeypatch, sparse):
    """A clip that fires on every step trains the same bits whether the
    step replays a compiled plan or runs interpreted, dense and with a
    predicted-sparse engine at ``predict_interval=2``."""
    from repro.peft import apply_lora
    from repro.runtime import trainer as trainer_module
    from repro.sparsity import LongExposure, LongExposureConfig

    rng = np.random.default_rng(3)
    calib = rng.integers(0, 512, size=(2, 64))
    data = [rng.integers(0, 512, size=(2, 64)) for _ in range(7)]
    norms = []

    def recording_clip(params, max_norm):
        norms.append(clip(params, max_norm))
        return norms[-1]

    clip = trainer_module.clip_grad_norm
    monkeypatch.setattr(trainer_module, "clip_grad_norm", recording_clip)

    def run(capture):
        model = build_model("opt-tiny", seed=0)
        engine = None
        if sparse:
            engine = LongExposure(LongExposureConfig(
                block_size=16, predictor_epochs=2, predict_interval=2, seed=0))
            engine.prepare(model, [calib])
        apply_lora(model)
        if engine is not None:
            engine.install(model)
        try:
            tuner = FineTuner(model, TrainingConfig(
                grad_clip=1e-3, capture=CaptureConfig(enabled=capture)),
                engine=engine)
            losses = tuner.train(data).losses
            params = [p.data.copy() for p in tuner.optimizer.params]
            return losses, params, tuner.capture
        finally:
            if engine is not None:
                engine.uninstall(model)

    compiled_losses, compiled_params, capture = run(True)
    assert len(norms) == 7 and min(norms) > 1e-3     # the clip fired
    assert capture.full_replays == (2 if sparse else 5)
    interpreted_losses, interpreted_params, _ = run(False)
    assert compiled_losses == interpreted_losses
    for mine, theirs in zip(compiled_params, interpreted_params):
        assert np.array_equal(mine, theirs)


def test_row_tile_is_owned_by_the_model(monkeypatch):
    """Dense attention's kernel is a value on each MultiHeadAttention, set once
    by the tuner: no process global, nothing set and restored per step."""
    from repro.nn import MultiHeadAttention
    from repro.sparsity import LongExposure, LongExposureConfig

    def row_tiles(model):
        return {m.row_tile for m in model.modules()
                if isinstance(m, MultiHeadAttention)}

    def lora_tuner(streaming, tile=16):
        model, _ = get_peft_method("lora")(build_model("opt-tiny", seed=0))
        return FineTuner(model, TrainingConfig(attention=AttentionConfig(
            streaming=streaming, streaming_tile=tile)))

    # The config lands on every attention module; the default materialises.
    assert row_tiles(lora_tuner(True, tile=24).model) == {24}
    assert row_tiles(FineTuner(get_peft_method("lora")(
        build_model("opt-tiny", seed=0))[0]).model) == {None}

    # Engine install / uninstall on either side of tuner construction.
    rng = np.random.default_rng(0)
    model = build_model("opt-tiny", seed=0)
    engine = LongExposure(LongExposureConfig(block_size=16, oracle_mode=True))
    engine.prepare(model, [rng.integers(0, 512, size=(1, 32))])
    engine.install(model)
    FineTuner(model, TrainingConfig(attention=AttentionConfig(
        streaming=True, streaming_tile=32)))
    engine.uninstall(model)
    assert row_tiles(model) == {32}
    FineTuner(model, TrainingConfig(attention=AttentionConfig(
        streaming=True, streaming_tile=8)))
    engine.install(model)
    assert row_tiles(model) == {8}
    engine.uninstall(model)
    assert row_tiles(model) == {8}

    # Count which dense kernel each step runs, and at which row tile.
    calls = []
    sdpa, streaming = fused.scaled_dot_product_attention, fused.streaming_attention

    def counted_sdpa(*args, **kwargs):
        calls.append(("sdpa", None))
        return sdpa(*args, **kwargs)

    def counted_streaming(*args, tile, **kwargs):
        calls.append(("streaming", tile))
        return streaming(*args, tile=tile, **kwargs)

    monkeypatch.setattr(fused, "scaled_dot_product_attention", counted_sdpa)
    monkeypatch.setattr(fused, "streaming_attention", counted_streaming)

    data = batches(3)
    dedicated = {}
    for s in (False, True):
        alone = lora_tuner(s)
        dedicated[s] = [alone.step(b)[0] for b in data]
    tuners = {s: lora_tuner(s) for s in (False, True)}
    layers = len(tuners[True].model.blocks)
    expected = {False: [("sdpa", None)] * layers,
                True: [("streaming", 16)] * layers}
    interleaved = {False: [], True: []}
    for batch in data:
        for s in (True, False):                    # alternate, no set/restore
            calls.clear()
            interleaved[s].append(tuners[s].step(batch)[0])
            assert calls == expected[s], (s, calls)
    assert interleaved == dedicated


class TestProfiler:
    def test_phases_accumulate(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        profiler.add("a", 0.5)
        profiler.add("b", 0.25)
        totals = profiler.totals()
        assert totals["a"] > 0.5 and totals["b"] == 0.25
        assert profiler.counts()["a"] == 2
        assert "phase" in profiler.report()
        profiler.reset()
        assert profiler.totals() == {}


class TestMemoryModel:
    def setup_method(self):
        self.model = MemoryModel(get_config("opt-1.3b"))

    def test_peft_uses_less_memory_than_full(self):
        peft = self.model.peft_baseline(4, 1024, trainable_params=2_000_000)
        full = self.model.full_finetuning(4, 1024)
        assert peft.total < full.total

    def test_long_exposure_saves_memory_over_peft(self):
        peft = self.model.peft_baseline(4, 1024, trainable_params=2_000_000)
        sparse = self.model.long_exposure(4, 1024, trainable_params=2_000_000,
                                          attention_density=0.3, mlp_density=0.5)
        optimal = self.model.long_exposure(4, 1024, trainable_params=2_000_000,
                                           attention_density=0.3, mlp_density=0.5,
                                           offload_inactive=True)
        assert sparse.total < peft.total
        assert optimal.total < sparse.total

    def test_attention_buffers_grow_quadratically_with_sequence(self):
        short = self.model.peft_baseline(4, 512, 2_000_000).attention_buffers
        long = self.model.peft_baseline(4, 1024, 2_000_000).attention_buffers
        assert long == pytest.approx(4 * short)

    def test_breakdown_dict_totals(self):
        breakdown = self.model.peft_baseline(2, 256, 1_000_000)
        d = breakdown.as_dict()
        assert d["total_gb"] == pytest.approx(breakdown.total_gb())

    def test_streaming_attention_buffers_linear_in_sequence(self):
        streaming = MemoryModel(get_config("opt-1.3b"), streaming=True,
                                streaming_tile=128)
        short = streaming.peft_baseline(4, 1024, 2_000_000).attention_buffers
        long = streaming.peft_baseline(4, 2048, 2_000_000).attention_buffers
        # Two (batch, heads, row_tile, s) scratch tiles and a logsumexp row:
        # doubling the sequence doubles the footprint instead of quadrupling
        # it, and it undercuts the materializing model.
        assert long == pytest.approx(2 * short)
        dense = self.model.peft_baseline(4, 2048, 2_000_000).attention_buffers
        assert long < dense

    def test_streaming_takes_cheaper_bound_vs_block_sparse(self):
        streaming = MemoryModel(get_config("opt-1.3b"), streaming=True,
                                streaming_tile=128)
        cfg = streaming.config
        seq, batch, density = 4096, 4, 0.05
        got = streaming.attention_buffer_bytes(batch, seq, density, block_size=64)
        materialized = batch * cfg.num_heads * seq * seq / 2.0 * density * 4
        # Two class chunks of half the staged grid's 64 x 64 score blocks
        # (heads * seq * 64 entries between them) and the logsumexp row.
        streamed = batch * cfg.num_heads * seq * (64 + 1.0) * 4
        assert got == pytest.approx(min(materialized, streamed))
        assert got == pytest.approx(streamed)
        # Short sequences: the streamed bound exceeds the materialized one,
        # so streaming never *adds* modelled memory.
        tiny = streaming.attention_buffer_bytes(batch, 64, 1.0)
        assert tiny == self.model.attention_buffer_bytes(batch, 64, 1.0)


class TestPlatformModel:
    def test_platform_registry(self):
        assert set(PLATFORMS) == {"A100", "A6000"}
        assert PLATFORMS["A100"].memory_bandwidth_gbps == 1555

    def test_sparsity_reduces_flops(self):
        config = get_config("opt-1.3b")
        dense = training_step_flops(config, 4, 1024)
        sparse = training_step_flops(config, 4, 1024, attention_density=0.4, mlp_density=0.5)
        assert sparse < dense

    def test_roofline_speedup_from_sparsity(self):
        config = get_config("opt-1.3b")
        platform = PLATFORMS["A100"]
        dense = roofline_step_time(config, platform, 4, 1024)
        sparse = roofline_step_time(config, platform, 4, 1024,
                                    attention_density=0.4, mlp_density=0.5)
        assert dense > sparse > 0

    def test_longer_sequences_cost_more(self):
        config = get_config("opt-1.3b")
        platform = PLATFORMS["A100"]
        assert (roofline_step_time(config, platform, 4, 1024)
                > roofline_step_time(config, platform, 4, 512))


def _dp_tuner():
    """Module-level factory for the data-parallel worker processes."""
    return make_finetuner("lora")


class TestDataParallelTrainer:
    """Smoke coverage of the real shared-memory backend from the runtime
    suite; the deep determinism/failure grid lives in test_distributed.py
    (``-m dist``)."""

    def test_two_worker_step_runs_and_reports_comm(self):
        data = np.random.default_rng(0).integers(0, 512, size=(4, 32))
        with DataParallelTrainer(_dp_tuner, workers=2,
                                 step_timeout_s=60.0) as trainer:
            loss, timing = trainer.step(data)
            assert np.isfinite(loss)
            assert timing.comm > 0.0
            assert timing.total >= timing.comm

    def test_indivisible_batch_rejected(self):
        trainer = DataParallelTrainer(_dp_tuner, workers=2,
                                      step_timeout_s=60.0)
        try:
            with pytest.raises(ValueError):
                trainer.step(np.zeros((3, 8), dtype=np.int64))
        finally:
            trainer.close()

    def test_chunk_schedule_partitions_the_buffer(self):
        schedule = chunk_schedule(300, world=4, chunk_elems=128)
        assert [owner for _, _, owner in schedule] == [0, 1, 2]
        flat = [i for start, end, _ in schedule for i in range(start, end)]
        assert flat == list(range(300))
