"""Shared-memory data-parallel trainer tests (``-m dist``).

Covers the three contracts of :mod:`repro.runtime.distributed`:

* **Determinism** — for a fixed seed and worker count, losses and final
  parameters are bitwise-reproducible run to run; ``workers=1`` is bitwise
  identical to the single-process :class:`FineTuner`; wider runs agree with
  the single-process trajectory to float tolerance (shard-shaped GEMMs take
  different BLAS blocking paths, so exact bits differ across worker counts).
* **Failure handling** — a worker killed mid-step surfaces as a
  :class:`DistributedError` with per-rank diagnostics within a bounded
  timeout, and both shared-memory segments are unlinked.
* **Segment lifecycle** — a clean run leaves nothing in ``/dev/shm``.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.models import ModelConfig, build_model
from repro.peft import apply_lora
from repro.runtime import (CaptureConfig, DataParallelTrainer,
                           DistributedError, FineTuner, TrainingConfig,
                           train_data_parallel)
from repro.runtime.comms import (STAT_FULL_REPLAYS, STAT_MASK_SYNCS,
                                 STAT_RECAPTURES, chunk_schedule)
from repro.sparsity import LongExposure, LongExposureConfig

pytestmark = pytest.mark.dist

NANO = ModelConfig(name="dp-nano", family="gpt2", vocab_size=64,
                   max_seq_len=64, dim=16, num_layers=1, num_heads=2,
                   activation="gelu", sparsify_init=False)


def _nano_tuner():
    model = build_model(NANO, seed=0)
    apply_lora(model)
    return FineTuner(model, TrainingConfig())


def _capturing_tuner():
    model = build_model(NANO, seed=0)
    apply_lora(model)
    return FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=True)))


def _engine_tuner(capture: bool = False):
    model = build_model("opt-tiny", seed=0)
    rng = np.random.default_rng(7)
    calib = rng.integers(0, model.config.vocab_size, size=(2, 32))
    engine = LongExposure(LongExposureConfig(
        block_size=16, seed=0, predictor_epochs=1, predict_interval=2,
        calibration_lengths=(32,)))
    engine.prepare(model, [calib])
    apply_lora(model)
    engine.install(model)
    return FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=capture)),
                     engine=engine)


def _captured_engine_tuner():
    return _engine_tuner(capture=True)


def _batches(count=4, rows=4, seq=16, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, NANO.vocab_size, size=(rows, seq)).astype(np.int64)
            for _ in range(count)]


def _shm_entries(needle: str):
    try:
        return [name for name in os.listdir("/dev/shm") if needle in name]
    except FileNotFoundError:            # non-Linux tmpfs layout
        return []


class TestChunkSchedule:
    def test_covers_every_element_exactly_once(self):
        schedule = chunk_schedule(1000, world=3, chunk_elems=64)
        covered = []
        for start, end, owner in schedule:
            assert 0 <= owner < 3
            covered.extend(range(start, end))
        assert covered == list(range(1000))

    def test_ownership_is_round_robin_and_deterministic(self):
        schedule = chunk_schedule(256, world=2, chunk_elems=64)
        assert [owner for _, _, owner in schedule] == [0, 1, 0, 1]
        assert schedule == chunk_schedule(256, world=2, chunk_elems=64)

    def test_empty_and_tail_chunks(self):
        assert chunk_schedule(0, 4, 64) == []
        schedule = chunk_schedule(100, 4, 64)
        assert schedule[-1][1] == 100


class TestDeterminism:
    def test_one_worker_bitwise_matches_single_process(self):
        data = _batches()
        reference = _nano_tuner()
        ref_losses = [reference.step(batch)[0] for batch in data]
        report = train_data_parallel(_nano_tuner, data, workers=1,
                                     step_timeout_s=60.0)
        assert report.losses == ref_losses
        ref_params = [np.asarray(p.data) for p in reference.optimizer.params]
        assert len(report.final_params) == len(ref_params)
        for mine, theirs in zip(report.final_params, ref_params):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_wider_runs_are_run_to_run_bitwise_and_allclose(self, workers):
        data = _batches()
        reference = _nano_tuner()
        ref_losses = [reference.step(batch)[0] for batch in data]
        first = train_data_parallel(_nano_tuner, data, workers=workers,
                                    step_timeout_s=60.0)
        second = train_data_parallel(_nano_tuner, data, workers=workers,
                                     step_timeout_s=60.0)
        assert first.losses == second.losses
        assert first.param_digest == second.param_digest
        for mine, theirs in zip(first.final_params, second.final_params):
            assert np.array_equal(mine, theirs)
        np.testing.assert_allclose(first.losses, ref_losses, rtol=1e-5)

    def test_digest_certifies_cross_rank_replication(self):
        report = train_data_parallel(_nano_tuner, _batches(count=2),
                                     workers=2, step_timeout_s=60.0)
        # fetch_params raises if ranks diverged; a surviving digest is the
        # cross-rank bitwise-replication certificate.
        assert len(report.param_digest) == 64
        assert report.workers == 2


class TestReport:
    def test_max_steps_leaves_the_rest_of_an_iterator(self):
        data = _batches(count=3)
        it = iter(data)
        with DataParallelTrainer(_nano_tuner, workers=1,
                                 step_timeout_s=60.0) as trainer:
            report = trainer.train(it, max_steps=2, fetch_params=False)
        assert report.steps == 2
        assert next(it) is data[2]

    def test_comm_time_is_broken_out_of_every_step(self):
        # Scaling reads are only as good as this breakdown: one comm sample
        # per step, inside that step's wall clock, and a real (nonzero)
        # gradient exchange once two ranks share the batch.
        data = _batches(count=3)
        report = train_data_parallel(_nano_tuner, data, workers=2,
                                     step_timeout_s=60.0)
        assert len(report.comm_s_per_step) == len(report.step_wall_s) == len(data)
        for comm, wall in zip(report.comm_s_per_step, report.step_wall_s):
            assert 0.0 <= comm <= wall
        assert report.mean_comm_ms() > 0
        assert report.steps_per_second() > 0

    def test_stat_slots_index_their_names(self):
        # ``worker_stats`` zips STAT_NAMES over a rank's slots: every STAT_*
        # slot must be distinct, dense, and name its own column.
        from repro.runtime import comms

        slots = {name: getattr(comms, name) for name in dir(comms)
                 if name.startswith("STAT_") and name != "STAT_NAMES"}
        assert sorted(slots.values()) == list(range(comms.STATS_SLOTS))
        assert len(comms.STAT_NAMES) == comms.STATS_SLOTS
        for name, slot in slots.items():
            assert comms.STAT_NAMES[slot].startswith(name[5:].lower()), name


class TestCaptureIntegration:
    def test_exactly_one_recapture_per_worker_on_shard_shape_change(self):
        with DataParallelTrainer(_capturing_tuner, workers=2,
                                 step_timeout_s=60.0) as trainer:
            for batch in _batches(count=3, seq=16):
                trainer.step(batch)
            for batch in _batches(count=2, seq=24, seed=5):
                trainer.step(batch)
            stats = trainer._last_stats
            for rank in range(2):
                assert stats[rank, STAT_RECAPTURES] == 1
                # seq-16 steps: warm-up, capture, replay; seq-24: recapture,
                # replay — two replayed steps per worker in total, both
                # through the compiled plan (the gradient exchange sits
                # between its backward and the optimizer tail).
                assert stats[rank, STAT_FULL_REPLAYS] == 2


@pytest.fixture(scope="module")
def engine_data():
    """Six steps at ``predict_interval=2``: mask refreshes on 1, 3 and 5."""
    rng = np.random.default_rng(11)
    return [rng.integers(0, 64, size=(4, 32)).astype(np.int64) for _ in range(6)]


@pytest.fixture(scope="module")
def engine_run(engine_data):
    """Uncaptured 2-worker sparse run with rank-0 mask broadcast."""
    return train_data_parallel(_engine_tuner, engine_data, workers=2,
                               step_timeout_s=120.0)


class TestMaskBroadcast:
    def test_rank0_layouts_are_adopted_by_all_ranks(self, engine_run):
        syncs = [s["mask_syncs"] for s in engine_run.worker_stats]
        assert syncs[0] == syncs[1] and syncs[0] >= 1
        assert all(np.isfinite(engine_run.losses))

    def test_captured_ranks_recapture_on_the_refresh_step(self, engine_run,
                                                          engine_data):
        """Rank 0 derives the masks inside its refresh step and records the
        next plan there; the other ranks adopt them before theirs and
        re-capture only if the adopted layouts differ from their plan's.
        Either way the trajectory is the uncaptured one, bit for bit."""
        captured = train_data_parallel(_captured_engine_tuner, engine_data,
                                       workers=2, step_timeout_s=120.0)
        assert captured.losses == engine_run.losses
        assert captured.param_digest == engine_run.param_digest
        rank0, rank1 = captured.worker_stats
        # Steps 2, 3 and 5 capture on rank 0; 4 and 6 replay compiled.
        assert rank0["full_replays"] == 2
        assert 2 <= rank1["full_replays"] <= 4

    @pytest.mark.fault
    def test_recovery_replays_a_refresh_step_bitwise(self, engine_run,
                                                     engine_data):
        """A gradient chunk corrupted on refresh step 3 rolls both ranks back
        after rank 0 has already dropped its plan and recorded a new one over
        the refreshed masks; the replayed step refreshes and captures again."""
        from repro.runtime.fault import FaultInjector, FaultRule

        trainer = DataParallelTrainer(
            _captured_engine_tuner, workers=2, step_timeout_s=120.0,
            fault_injector=FaultInjector(rules=[FaultRule(
                site="shm_chunk_corruption", rank=1, occurrence=3)]))
        try:
            report = trainer.train(engine_data)
        finally:
            trainer.close()
        assert report.comm_checksum_failures >= 1 and report.worker_restarts == 0
        assert report.losses == engine_run.losses
        assert report.param_digest == engine_run.param_digest

    @pytest.mark.fault
    @pytest.mark.parametrize("victim", [0, 1])
    def test_respawn_on_a_refresh_step_is_bitwise(self, engine_run,
                                                  engine_data, victim):
        """A rank dying inside refresh step 3 is respawned from the donor's
        state, per-layer refresh steps included, so the two ranks agree that
        the replayed step is a mask-broadcast step: one restart, then the
        uninterrupted trajectory bit for bit."""
        from repro.runtime.fault import FaultInjector, FaultRule

        trainer = DataParallelTrainer(
            _captured_engine_tuner, workers=2, step_timeout_s=2.0,
            fault_injector=FaultInjector(rules=[FaultRule(
                site="worker_crash_before_barrier", rank=victim,
                occurrence=3)]))
        try:
            report = trainer.train(engine_data)
        finally:
            trainer.close()
        assert report.worker_restarts == 1
        assert [e["victims"] for e in report.recovery_events] == [[victim]]
        assert report.losses == engine_run.losses
        assert report.param_digest == engine_run.param_digest
        assert _shm_entries(trainer.session) == []


class TestFailureHandling:
    def test_worker_killed_mid_step_raises_and_unlinks(self):
        # max_restarts=0 opts out of elastic recovery: this test locks the
        # fail-fast degradation path (the recovery path is locked by the
        # fault tier in tests/test_fault.py).
        batch = _batches(count=1)[0]
        trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                      step_timeout_s=2.0,
                                      max_restarts=0,
                                      _test_step_delay_s=1.0)
        try:
            trainer.step(batch)                      # boots the workers
            session = trainer.session
            victim = trainer.worker_pids()[1]
            timer = threading.Timer(0.3, os.kill, args=(victim, signal.SIGKILL))
            timer.start()
            start = time.perf_counter()
            with pytest.raises(DistributedError) as excinfo:
                trainer.step(batch)
            elapsed = time.perf_counter() - start
            timer.cancel()
            # Bounded: the parent waits at most ~2x the step timeout + slack.
            assert elapsed < trainer._parent_timeout + 15.0
            assert "rank" in str(excinfo.value)
            assert _shm_entries(session) == []
        finally:
            trainer.close()
        assert _shm_entries(trainer.session) == []

    def test_indivisible_batch_is_rejected(self):
        trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                      step_timeout_s=60.0)
        try:
            with pytest.raises(ValueError, match="cannot be split"):
                trainer.step(np.zeros((5, 16), dtype=np.int64))
        finally:
            trainer.close()

    def test_factory_error_surfaces_as_diagnostic(self):
        trainer = DataParallelTrainer(_boom_tuner, workers=2,
                                      step_timeout_s=5.0)
        try:
            with pytest.raises(DistributedError) as excinfo:
                trainer.step(_batches(count=1)[0])
            assert "boom" in str(excinfo.value)
        finally:
            trainer.close()
        assert _shm_entries(trainer.session) == []


def _boom_tuner():
    raise RuntimeError("boom: tuner factory failed")


class TestSegmentLifecycle:
    def test_clean_run_unlinks_everything(self):
        trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                      step_timeout_s=60.0)
        trainer.step(_batches(count=1)[0])
        session = trainer.session
        assert len(_shm_entries(session)) == 2      # boot + data live
        trainer.close()
        assert _shm_entries(session) == []
        for process in trainer._state["processes"]:
            assert not process.is_alive()

    def test_close_is_idempotent(self):
        trainer = DataParallelTrainer(_nano_tuner, workers=1,
                                      step_timeout_s=60.0)
        trainer.step(_batches(count=1)[0])
        trainer.close()
        trainer.close()
        with pytest.raises(DistributedError, match="closed"):
            trainer.step(_batches(count=1)[0])

    def test_config_worker_count_is_honoured(self):
        config = TrainingConfig(data_parallel_workers=2)
        with DataParallelTrainer(_nano_tuner, config,
                                 step_timeout_s=60.0) as trainer:
            assert trainer.world == 2
            loss, timing = trainer.step(_batches(count=1)[0])
            assert np.isfinite(loss)
            assert timing.comm > 0.0
