"""Resilience tier (``-m fault``): fault injection, recovery, durability.

Locks the three contracts of the PR-10 resilience layer:

* **Elastic recovery is invisible in the numbers.**  A rank SIGKILLed
  mid-step (or hung, or feeding corrupt bytes into the all-reduce) is
  recovered — quiesce → respawn → digest-verified state donation → step
  replay — and the run's losses and final parameters are *bitwise* equal to
  an uninterrupted run at the same seed.  ``max_restarts`` exhaustion
  degrades to :class:`DistributedError` with the restart history attached.
* **Tenant state survives the process.**  `TenantStateStore` round-trips are
  bit-exact; torn/corrupt checkpoint files are detected by SHA-256, never
  loaded, quarantined aside; a restarted `FineTuningService` rehydrates
  every surviving tenant with digests equal to pre-crash state.
* **Cleanup is unconditional.**  ``SharedSegment.close/unlink`` and
  ``StepCapture.retire`` are idempotent and safe from any failure point,
  including on instances whose construction never ran.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.models import ModelConfig, build_model
from repro.peft import apply_lora
from repro.runtime import (CaptureConfig, DataParallelTrainer,
                           DistributedError, FineTuner, TrainingConfig)
from repro.runtime.capture import StepCapture
from repro.runtime.comms import DistributedError as CommsError
from repro.runtime.comms import SharedSegment
from repro.runtime.fault import (FAULT_SITES, FaultInjector, FaultRule,
                                 InjectedFault, RetryPolicy)
from repro.serve import (CheckpointCorruptError, FineTuningService,
                         ServiceConfig, TenantStateStore)

pytestmark = pytest.mark.fault

NANO = ModelConfig(name="fault-nano", family="gpt2", vocab_size=64,
                   max_seq_len=64, dim=16, num_layers=1, num_heads=2,
                   activation="gelu", sparsify_init=False)


def _nano_tuner():
    model = build_model(NANO, seed=0)
    apply_lora(model)
    return FineTuner(model, TrainingConfig())


def _batches(count=5, rows=4, seq=16, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 64, size=(rows, seq)).astype(np.int64)
            for _ in range(count)]


def _shm_entries(needle):
    try:
        return [n for n in os.listdir("/dev/shm") if needle in n]
    except FileNotFoundError:
        return []


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted 2-worker reference run (losses + param digest)."""
    trainer = DataParallelTrainer(_nano_tuner, workers=2, step_timeout_s=60.0)
    try:
        report = trainer.train(_batches())
    finally:
        trainer.close()
    return report


# ---------------------------------------------------------------------------
# fault primitives
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_delay_schedule_is_deterministic_and_bounded(self):
        a = RetryPolicy(max_retries=5, base_delay_s=0.01, max_delay_s=0.05,
                        backoff=2.0, jitter=0.25, seed=7)
        b = RetryPolicy(max_retries=5, base_delay_s=0.01, max_delay_s=0.05,
                        backoff=2.0, jitter=0.25, seed=7)
        assert a.delays() == b.delays()
        assert len(a.delays()) == 5
        for delay in a.delays():
            assert 0.0 < delay <= 0.05 * 1.25
        assert a.delays() != RetryPolicy(max_retries=5, seed=8).delays()

    def test_call_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        result = RetryPolicy(max_retries=3).call(flaky, retry_on=(OSError,),
                                                 sleep=slept.append)
        assert result == "ok"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_call_reraises_after_budget(self):
        def always():
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            RetryPolicy(max_retries=2).call(always, retry_on=(OSError,),
                                            sleep=lambda _s: None)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestFaultInjector:
    def test_occurrence_and_hits(self):
        inj = FaultInjector(rules=[FaultRule(site="barrier_timeout", rank=1,
                                             occurrence=2, hits=1)])
        assert not inj.should_fire("barrier_timeout", 1)   # visit 1
        assert inj.should_fire("barrier_timeout", 1)       # visit 2: fires
        assert not inj.should_fire("barrier_timeout", 1)   # hits exhausted
        assert inj.fired_events == [("barrier_timeout", 1, 2)]

    def test_rank_filter(self):
        inj = FaultInjector(rules=[FaultRule(
            site="worker_crash_before_barrier", rank=0, occurrence=1)])
        assert not inj.should_fire("worker_crash_before_barrier", 1)
        assert inj.should_fire("worker_crash_before_barrier", 0)

    def test_probability_is_seed_deterministic(self):
        def fires(seed):
            inj = FaultInjector(seed=seed, rules=[FaultRule(
                site="checkpoint_write_failure", occurrence=None, hits=100,
                probability=0.5)])
            return [inj.should_fire("checkpoint_write_failure")
                    for _ in range(32)]

        assert fires(3) == fires(3)
        assert any(fires(3)) and not all(fires(3))

    def test_maybe_raise_and_validation(self):
        inj = FaultInjector(rules=[FaultRule(site="checkpoint_write_failure")])
        with pytest.raises(InjectedFault):
            inj.maybe_raise("checkpoint_write_failure")
        inj.maybe_raise("checkpoint_write_failure")  # exhausted: no raise
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="meteor_strike")
        assert set(FAULT_SITES) >= {"worker_crash_before_barrier",
                                    "shm_chunk_corruption",
                                    "checkpoint_write_failure"}


# ---------------------------------------------------------------------------
# idempotent cleanup primitives
# ---------------------------------------------------------------------------

class TestSharedSegmentLifecycle:
    def test_double_close_and_unlink_are_noops(self):
        seg = SharedSegment.create(f"fault-seg-{os.getpid()}", 4096)
        name = seg.name
        seg.close()
        seg.close()
        seg.unlink()
        seg.unlink()
        assert _shm_entries(name) == []

    def test_unlink_after_close_still_removes_the_name(self):
        seg = SharedSegment.create(f"fault-seg2-{os.getpid()}", 4096)
        name = seg.name
        assert _shm_entries(name)
        seg.close()
        assert seg.closed
        seg.unlink()                      # re-attaches by name internally
        assert _shm_entries(name) == []

    def test_buf_raises_after_close(self):
        seg = SharedSegment.create(f"fault-seg3-{os.getpid()}", 4096)
        try:
            assert len(seg.buf) == 4096
        finally:
            seg.close()
            seg.unlink()
        with pytest.raises(CommsError, match="closed"):
            seg.buf

    def test_safe_on_unconstructed_instance(self):
        ghost = object.__new__(SharedSegment)
        ghost.close()                     # must not raise
        ghost.unlink()
        assert ghost.closed


class TestStepCaptureRetire:
    def test_double_retire(self):
        capture = StepCapture()
        capture.retire()
        capture.retire()
        assert capture.forward_plan is None and capture.arena.bytes_held == 0

    def test_retired_capture_records_again(self):
        # Retiring frees the plan and the arena, not the capture: the next
        # step of its signature records a new plan, bit for bit the step a
        # tuner without capture takes.
        def tuner(enabled):
            model = build_model("opt-tiny", seed=0)
            apply_lora(model)
            return FineTuner(model, TrainingConfig(
                capture=CaptureConfig(enabled=enabled)))

        captured, plain = tuner(True), tuner(False)
        ids = np.random.default_rng(4).integers(0, 512, size=(2, 32))
        for step in range(4):
            if step == 2:
                capture = captured.capture
                capture.retire()
                assert capture.forward_plan is None
                assert capture.arena.bytes_held == 0
            assert captured.step(ids)[0] == plain.step(ids)[0]
        assert captured.capture is capture
        assert (capture.full_captures, capture.full_replays) == (2, 2)
        assert capture.last_step_allocations == 0

    def test_retire_on_unconstructed_instance(self):
        ghost = object.__new__(StepCapture)
        ghost.retire()                    # must not raise
        ghost.retire()
        assert ghost.arena.bytes_held == 0


# ---------------------------------------------------------------------------
# elastic recovery (bitwise contract)
# ---------------------------------------------------------------------------

def _faulted_run(injector, **kwargs):
    trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                  fault_injector=injector, **kwargs)
    try:
        report = trainer.train(_batches())
    finally:
        trainer.close()
    assert _shm_entries(trainer.session) == []
    return report


class TestElasticRecovery:
    def test_crash_before_barrier_is_bitwise_recovered(self, baseline):
        report = _faulted_run(
            FaultInjector(rules=[FaultRule(
                site="worker_crash_before_barrier", rank=1, occurrence=2)]),
            step_timeout_s=4.0)
        assert report.worker_restarts == 1
        assert report.losses == baseline.losses
        assert report.param_digest == baseline.param_digest
        assert [e["victims"] for e in report.recovery_events] == [[1]]

    def test_crash_after_barrier_rolls_back_survivor_updates(self, baseline):
        # Survivors completed their optimizer update before discovering the
        # death; the snapshot rollback must undo it or the replay double-
        # applies the step.
        report = _faulted_run(
            FaultInjector(rules=[FaultRule(
                site="worker_crash_after_barrier", rank=0, occurrence=3)]),
            step_timeout_s=4.0)
        assert report.worker_restarts == 1
        assert report.losses == baseline.losses
        assert report.param_digest == baseline.param_digest

    def test_chunk_corruption_detected_and_replayed(self, baseline):
        report = _faulted_run(
            FaultInjector(rules=[FaultRule(
                site="shm_chunk_corruption", rank=1, occurrence=2)]),
            step_timeout_s=4.0)
        # Detection, not propagation: no respawn needed, the step replays.
        assert report.worker_restarts == 0
        assert report.comm_checksum_failures >= 1
        assert report.losses == baseline.losses
        assert report.param_digest == baseline.param_digest

    def test_hung_rank_recovers_like_a_dead_one(self, baseline):
        report = _faulted_run(
            FaultInjector(rules=[FaultRule(
                site="barrier_timeout", rank=1, occurrence=2)]),
            step_timeout_s=3.0)
        assert report.losses == baseline.losses
        assert report.param_digest == baseline.param_digest

    def test_external_sigkill_mid_step_is_bitwise_recovered(self, baseline):
        # The acceptance scenario: a real SIGKILL from outside, landing in
        # the middle of a slowed step.
        trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                      step_timeout_s=4.0,
                                      _test_step_delay_s=0.5)
        try:
            batches = _batches()
            losses = [trainer.step(batches[0])[0]]   # boot + step 1
            victim = trainer.worker_pids()[1]
            timer = threading.Timer(0.2, os.kill,
                                    args=(victim, signal.SIGKILL))
            timer.start()
            try:
                for batch in batches[1:]:            # step 2 eats the kill
                    losses.append(trainer.step(batch)[0])
            finally:
                timer.cancel()
            _, digest = trainer.fetch_params()
            restarts = trainer.worker_restarts
        finally:
            trainer.close()
        assert restarts == 1
        assert losses == baseline.losses
        assert digest == baseline.param_digest
        assert _shm_entries(trainer.session) == []

    def test_max_restarts_exhaustion_degrades_with_history(self):
        injector = FaultInjector(rules=[
            FaultRule(site="worker_crash_before_barrier", rank=0,
                      occurrence=1),
            FaultRule(site="worker_crash_before_barrier", rank=1,
                      occurrence=2),
        ])
        trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                      step_timeout_s=3.0, max_restarts=1,
                                      fault_injector=injector)
        try:
            with pytest.raises(DistributedError) as excinfo:
                trainer.train(_batches())
        finally:
            trainer.close()
        message = str(excinfo.value)
        assert "max_restarts" in message
        assert "restart history" in message
        assert _shm_entries(trainer.session) == []

    def test_a_step_that_breaks_on_every_replay_fails_bounded(self):
        # Corruption on every visit breaks every replay of step 1 without a
        # victim, so max_restarts never trips; MAX_STEP_REPLAYS must.
        injector = FaultInjector(rules=[FaultRule(
            site="shm_chunk_corruption", rank=1, occurrence=None, hits=10**9)])
        trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                      step_timeout_s=3.0,
                                      fault_injector=injector)
        start = time.perf_counter()
        try:
            with pytest.raises(DistributedError) as excinfo:
                trainer.train(_batches())
        finally:
            trainer.close()
        assert time.perf_counter() - start < 30.0
        message = str(excinfo.value)
        assert f"MAX_STEP_REPLAYS={DataParallelTrainer.MAX_STEP_REPLAYS}" in message
        assert "restart history" in message
        assert message.count("step 1: victims=[]") == DataParallelTrainer.MAX_STEP_REPLAYS
        assert _shm_entries(trainer.session) == []
        assert not [child for child in multiprocessing.active_children()
                    if child.name.startswith(trainer.session)]

    def test_gauges_land_on_the_trainer_profiler(self):
        trainer = DataParallelTrainer(_nano_tuner, workers=2,
                                      step_timeout_s=30.0)
        try:
            trainer.step(_batches(count=1)[0])
            gauges = trainer.profiler.gauges()
        finally:
            trainer.close()
        assert gauges["worker_restarts"] == 0.0
        assert gauges["comm_checksum_failures"] == 0.0


# ---------------------------------------------------------------------------
# durable tenant store
# ---------------------------------------------------------------------------

class TestTenantStateStore:
    def _slabs(self, seed=0, total=64):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal(total).astype(np.float64),
                rng.standard_normal(total).astype(np.float64),
                rng.standard_normal(total).astype(np.float64))

    def test_round_trip_is_bitwise(self, tmp_path):
        store = TenantStateStore(str(tmp_path))
        params, m, v = self._slabs()
        store.save("tenant/alpha:1", 17, params, m, v)
        step, p2, m2, v2 = store.load("tenant/alpha:1")
        assert step == 17
        assert p2.tobytes() == params.tobytes()
        assert m2.tobytes() == m.tobytes()
        assert v2.tobytes() == v.tobytes()
        assert store.writes == 1 and store.restores == 1

    def test_overwrite_keeps_latest(self, tmp_path):
        store = TenantStateStore(str(tmp_path))
        params, m, v = self._slabs(seed=1)
        store.save("a", 1, params, m, v)
        params2, m2, v2 = self._slabs(seed=2)
        store.save("a", 2, params2, m2, v2)
        step, p, _, _ = store.load("a")
        assert step == 2 and p.tobytes() == params2.tobytes()

    def test_torn_file_is_quarantined(self, tmp_path):
        store = TenantStateStore(str(tmp_path))
        store.save("a", 1, *self._slabs())
        path = store.path("a")
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) // 2])      # torn write
        with pytest.raises(CheckpointCorruptError, match="torn|quarantined"):
            store.load("a")
        assert not os.path.exists(path)
        assert store.quarantined_files() == ["a.ckpt.corrupt"]

    def test_bit_rot_is_quarantined(self, tmp_path):
        store = TenantStateStore(str(tmp_path))
        store.save("a", 1, *self._slabs())
        path = store.path("a")
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF                                   # flip one byte
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="SHA-256"):
            store.load("a")
        assert store.quarantined == 1

    def test_scan_skips_corrupt_and_returns_survivors(self, tmp_path):
        store = TenantStateStore(str(tmp_path))
        store.save("good", 5, *self._slabs(seed=3))
        store.save("bad", 9, *self._slabs(seed=4))
        open(store.path("bad"), "wb").write(b"not a checkpoint")
        assert store.scan() == {"good": 5}
        assert store.quarantined_files() == ["bad.ckpt.corrupt"]

    def test_injected_write_failure_is_retried(self, tmp_path):
        injector = FaultInjector(rules=[FaultRule(
            site="checkpoint_write_failure", occurrence=None, hits=2)])
        store = TenantStateStore(
            str(tmp_path),
            retry=RetryPolicy(max_retries=3, base_delay_s=0.0),
            fault_injector=injector)
        store.save("a", 1, *self._slabs())                # two failures, then ok
        assert len(injector.fired_events) == 2
        assert store.load("a")[0] == 1

    def test_write_failure_past_budget_raises_leaving_no_file(self, tmp_path):
        injector = FaultInjector(rules=[FaultRule(
            site="checkpoint_write_failure", occurrence=None, hits=100)])
        store = TenantStateStore(
            str(tmp_path),
            retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
            fault_injector=injector)
        with pytest.raises(InjectedFault):
            store.save("a", 1, *self._slabs())
        assert not store.exists("a")
        assert store.scan() == {}


# ---------------------------------------------------------------------------
# service durability + lane guard
# ---------------------------------------------------------------------------

def _traffic(service, tenants, steps=2, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for tenant in tenants:
            service.submit(tenant,
                           rng.integers(0, 64, size=(2, 16)).astype(np.int64))
    service.flush()


class TestServiceDurability:
    CFG = dict(max_resident_tenants=2, seq_buckets=(16,))
    TENANTS = ("alice", "bob", "carol")

    def test_restart_rehydrates_bit_exact(self, tmp_path):
        cfg = ServiceConfig(state_dir=str(tmp_path), **self.CFG)
        service = FineTuningService(cfg)
        _traffic(service, self.TENANTS)
        digests = {t: service.tenant_digest(t) for t in self.TENANTS}
        steps = {t: service.fetch_adapter(t).step_count for t in self.TENANTS}
        written = service.checkpoint()
        assert written >= 1

        reborn = FineTuningService(ServiceConfig(state_dir=str(tmp_path),
                                                 **self.CFG))
        assert {t: reborn.tenant_digest(t) for t in self.TENANTS} == digests
        assert {t: reborn.fetch_adapter(t).step_count
                for t in self.TENANTS} == steps
        # Rehydrated tenants keep training from where they stopped.
        _traffic(reborn, ("alice",), steps=1, seed=9)
        assert reborn.fetch_adapter("alice").step_count == steps["alice"] + 1

    def test_corrupt_checkpoint_is_quarantined_service_starts(self, tmp_path):
        cfg = ServiceConfig(state_dir=str(tmp_path), **self.CFG)
        service = FineTuningService(cfg)
        _traffic(service, self.TENANTS)
        digests = {t: service.tenant_digest(t) for t in self.TENANTS}
        service.checkpoint()
        victim = os.path.join(str(tmp_path), "lora", "alice.ckpt")
        raw = open(victim, "rb").read()
        open(victim, "wb").write(raw[:-9] + b"CORRUPTED")

        reborn = FineTuningService(ServiceConfig(state_dir=str(tmp_path),
                                                 **self.CFG))
        registry = reborn._lanes["lora"].registry
        assert registry.tenants() == ["bob", "carol"]     # alice quarantined
        assert registry.store.quarantined_files() == ["alice.ckpt.corrupt"]
        assert reborn.tenant_digest("bob") == digests["bob"]
        assert reborn.gauges()["tenant_quarantined"] == 1.0

    def test_checkpoint_without_state_dir_raises(self):
        service = FineTuningService(ServiceConfig(seq_buckets=(16,)))
        with pytest.raises(RuntimeError, match="state_dir"):
            service.checkpoint()

    def test_durability_gauges_reach_profiler_summary(self, tmp_path):
        cfg = ServiceConfig(state_dir=str(tmp_path), **self.CFG)
        service = FineTuningService(cfg)
        _traffic(service, self.TENANTS, steps=1)
        service.checkpoint()
        summary = service.profiler.summary_dict()
        gauges = summary["gauges"]
        for name in ("tenant_checkpoint_writes", "tenant_restores",
                     "tenant_quarantined"):
            assert name in gauges
        assert gauges["tenant_checkpoint_writes"] >= 3.0


class TestFullLaneGuard:
    def test_oversized_full_lane_is_rejected(self):
        with pytest.raises(ValueError, match="anti-goal"):
            FineTuningService(ServiceConfig(model="opt-small",
                                            adapters=("full",)))

    def test_tiny_full_lane_fits_the_budget(self):
        service = FineTuningService(ServiceConfig(adapters=("full",),
                                                  seq_buckets=(16,)))
        _traffic(service, ("solo",), steps=1)
        assert service.fetch_adapter("solo").step_count == 1

    def test_guard_can_be_disabled(self):
        config = ServiceConfig(model="opt-small", adapters=("full",),
                               max_lane_trainable_bytes=None,
                               seq_buckets=(16,))
        assert FineTuningService(config).base_digest()
