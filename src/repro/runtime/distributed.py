"""Real shared-memory data parallelism: sharded workers + flat all-reduce.

``N`` worker processes on one box each build an identical
:class:`~repro.runtime.trainer.FineTuner` (same factory, same seeds), run the
captured/compiled training step on their contiguous shard of every global
batch, and exchange gradients through a single flat contiguous buffer in
``multiprocessing.shared_memory`` — a chunked fixed-order reduce-scatter over
the optimizer's flat gradient population (one message per step), followed by
a *replicated* flat optimizer tail so parameters stay bitwise-identical across
workers without ever being broadcast.

Determinism contract
--------------------
* For a fixed seed **and fixed worker count**, losses and parameters are
  bitwise-reproducible run to run: shards are contiguous fixed splits, the
  chunk reduction always sums rank slots in rank order, and every worker
  applies the same optimizer arithmetic to the same reduced gradient.
* With ``workers=1`` the trainer is bitwise-identical to the single-process
  :class:`FineTuner` on the same batches (the one-slot reduce is an exact
  copy and the division by ``world`` is skipped).
* Across *different* worker counts results agree to float tolerance only:
  shard-shaped GEMMs take different BLAS blocking paths, so the per-shard
  gradients — and hence their fixed-order mean — differ in final bits from
  the full-batch gradient.
* **Recovery preserves bitwise identity.**  The optimizer tail only runs
  after both all-reduce barriers complete, so a failure detected anywhere in
  the step means *no* rank has applied a partial update whose inputs other
  ranks lack.  Every worker records its training state (:class:`_WorkerState`:
  flat parameters, Adam moments, step count and the sparsity engine's
  schedule, per-layer refresh steps included) at the top of each
  step; on failure the survivors roll back to that record and the whole step
  is replayed from identical state and identical inputs — the run's losses
  and final parameters are bit-for-bit what an uninterrupted run produces
  (locked by the ``fault`` test tier).

Failure contract
----------------
Every barrier wait carries a timeout.  When a rank dies, hangs past the
timeout, or detects gradient corruption (per-chunk CRC32, see
:mod:`repro.runtime.comms`), every worker handles it the same way and the
parent alone decides what happens next:

1. **quiesce** — survivors catch the broken rendezvous, restore their
   pre-step record, and park in a polling loop outside every barrier;
2. **respawn** — the parent identifies dead/hung ranks (killing hung ones),
   resets the barrier set, and forks replacement processes for the victims;
3. **restore** — a surviving donor rank takes a fresh record of its live
   state and ships its pickle through the shared blob region,
   SHA-256-stamped; each replacement verifies the digest and restores the
   record into its fresh tuner, so its refresh schedule matches the
   survivors' step for step;
4. **replay** — the parent releases everyone and re-issues the in-flight
   step.

``max_restarts`` bounds respawns across the trainer's lifetime, and
``max_restarts=0`` fails the first broken step; ``MAX_STEP_REPLAYS`` bounds
the breaks of one step in a row, with or without victims.  Either bound (or
an application-level worker exception, which would simply recur on replay)
degrades to the fail-fast behaviour: :class:`DistributedError` with per-rank
diagnostics *plus* the recovery history, stragglers terminated and both
segments unlinked — never a hang, never an orphaned ``/dev/shm`` entry.

Predictor-refresh amortization
------------------------------
When workers carry a :class:`~repro.sparsity.LongExposure` engine, rank 0
alone refreshes the masks on steps where the schedule is due and broadcasts
the resulting layouts (tiny per-head block masks) through the shared blob
region; the other ranks adopt them before their forward pass.  All workers
compute with identical layouts, and the probe/oracle cost is paid once per
refresh instead of once per worker.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
import traceback
import uuid
import weakref
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import multiprocessing as mp

import numpy as np

from repro.runtime.comms import (
    BarrierBroken, BarrierSet, BootViews, CommIntegrityError, CommSpec,
    DataViews, DistributedError, GradientAllReducer, SharedSegment,
    boot_regions, data_regions, wait_barrier,
    CMD_PARAMS, CMD_STEP, CMD_STOP,
    CTL_BLOB_CAP, CTL_COMMAND, CTL_DONATION_READY, CTL_DONOR,
    CTL_GRAD_ELEMS, CTL_MASK_BLOB_LEN, CTL_PARAM_BLOB_LEN,
    CTL_RECOVERY_SEQ, CTL_RESUME,
    ST_BOOTING, ST_ERROR, ST_READY, ST_RECOVERING, ST_STEPPED,
    STAT_BACKWARD, STAT_CHECKSUM_FAILURES, STAT_CHECKSUM_S, STAT_COMM,
    STAT_FORWARD, STAT_MASK_SYNCS, STAT_NAMES, STAT_OPTIMIZER,
    STAT_RECAPTURES, STAT_FULL_REPLAYS,
    _CODE_DTYPES, _DTYPE_CODES,
)
from repro.runtime.fault import FaultInjector
from repro.runtime.profiler import PhaseProfiler
from repro.runtime.trainer import FineTuner, PhaseTimings, TrainingReport

__all__ = [
    "DistributedError",
    "DistributedReport",
    "DataParallelTrainer",
    "train_data_parallel",
]

_PICKLE = pickle.HIGHEST_PROTOCOL

# Poll period of the quiesced-worker recovery loop (seconds).
_RECOVERY_POLL_S = 0.002


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _param_digest(params) -> bytes:
    digest = hashlib.sha256()
    for param in params:
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.digest()


def _boot_timeout(step_timeout_s: float) -> float:
    """Patience for anything that builds a whole tuner first."""
    return max(step_timeout_s * 4, 60.0)


def _poll(ready: Callable[[], object], timeout_s: float):
    """Call ``ready`` every ``_RECOVERY_POLL_S`` until it returns something
    truthy, and return that; return None once ``timeout_s`` has passed."""
    deadline = time.monotonic() + timeout_s
    while True:
        outcome = ready()
        if outcome:
            return outcome
        if time.monotonic() > deadline:
            return None
        time.sleep(_RECOVERY_POLL_S)


def _worker_fail(views: Optional[BootViews], rank: int,
                 barriers: BarrierSet, exc: BaseException) -> None:
    """Record the failure for the parent and wake every blocked peer."""
    if views is not None:
        with suppress(Exception):
            views.write_error(rank, "".join(traceback.format_exception(exc)))
    barriers.abort_all()


class _WorkerState:
    """One worker's training state, for rollback and donation alike:
    flat parameters, Adam moments, step count and the engine's
    ``schedule_state()`` (live masks and per-layer refresh steps).

    Constructing one records the tuner; :meth:`take` re-records into the
    same buffers at the top of every step (a copy per parameter, the two
    moment memcpys and the scalars).
    :meth:`restore` also zeroes the gradients — the backward accumulates, so
    stale grads would double-count on replay.  The pickle is the donor slab.
    The refresh steps must travel with it: ranks that disagree on whether a
    refresh is due wait at different rendezvous, and every replay breaks.
    """

    def __init__(self, tuner: FineTuner):
        total, dtype = tuner.optimizer.grad_layout()
        self.params = np.empty(total, dtype)
        self.m = np.empty(total, dtype)
        self.v = np.empty(total, dtype)
        self.take(tuner)

    def take(self, tuner: FineTuner) -> None:
        optimizer = tuner.optimizer
        optimizer.gather_flat_params(self.params)
        optimizer.gather_flat_state(self.m, self.v)
        self.step_count = int(optimizer.step_count)
        engine = tuner.engine
        self.schedule = None if engine is None else engine.schedule_state()

    def restore(self, tuner: FineTuner) -> None:
        optimizer = tuner.optimizer
        optimizer.scatter_flat_params(self.params)
        optimizer.scatter_flat_state(self.m, self.v)
        optimizer.step_count = self.step_count
        if self.schedule is not None:
            tuner.engine.restore_schedule(self.schedule)
        optimizer.zero_grad()
        tuner.model.zero_grad()


def _await_donation(views: BootViews, data_views: DataViews, rank: int,
                    spec: CommSpec) -> Optional[_WorkerState]:
    """Replacement-rank boot: the donor's SHA-256-verified state, or None
    when the parent stopped the session while we waited."""
    ctl = views.ctl

    def arrived():
        if int(ctl[CTL_DONATION_READY]) == int(ctl[CTL_RECOVERY_SEQ]):
            return "ready"
        if int(ctl[CTL_COMMAND]) == CMD_STOP:
            return "stop"
        return None

    outcome = _poll(arrived, _boot_timeout(spec.step_timeout_s))
    if outcome is None:
        raise DistributedError(
            f"rank {rank}: donor slab never arrived during recovery")
    if outcome == "stop":
        return None
    donor = int(ctl[CTL_DONOR])
    blob = data_views.read_blob(int(ctl[CTL_PARAM_BLOB_LEN]))
    if hashlib.sha256(blob).digest() != bytes(views.digest[donor]):
        raise DistributedError(
            f"rank {rank}: donated state from rank {donor} failed its "
            f"SHA-256 digest check — refusing to train from corrupt state")
    return pickle.loads(blob)


def _elastic_wait(views: BootViews, data_views: DataViews, rank: int,
                  spec: CommSpec, tuner: FineTuner) -> bool:
    """Quiesced-survivor loop: park outside every barrier until the parent
    resumes (True, status back to ST_READY) or stops (False) the session,
    serving donor requests along the way.

    The entry value of ``CTL_RESUME`` is read *before* the rank advertises
    itself as ST_RECOVERING: the parent only bumps CTL_RESUME after seeing
    every rank recovering, so reading first closes the race where a resume
    issued between the two reads would be mistaken for the entry state.
    """
    ctl = views.ctl
    entry_resume = int(ctl[CTL_RESUME])
    views.status[rank] = ST_RECOVERING

    def released():
        if int(ctl[CTL_COMMAND]) == CMD_STOP:
            return "stop"
        if int(ctl[CTL_RESUME]) != entry_resume:
            return "resume"
        seq = int(ctl[CTL_RECOVERY_SEQ])
        if seq != int(ctl[CTL_DONATION_READY]) and int(ctl[CTL_DONOR]) == rank:
            # A fresh record of the live state, never the per-step one: after
            # a step_begin break that one is a step old.
            blob = pickle.dumps(_WorkerState(tuner), protocol=_PICKLE)
            views.digest[rank] = np.frombuffer(
                hashlib.sha256(blob).digest(), np.uint8)
            ctl[CTL_PARAM_BLOB_LEN] = data_views.write_blob(blob)
            ctl[CTL_DONATION_READY] = seq
        return None

    outcome = _poll(released, max(spec.step_timeout_s * 10, 120.0))
    if outcome is None:
        raise DistributedError(
            f"rank {rank} quiesced for recovery but the parent never "
            f"resumed the session")
    if outcome == "stop":
        return False
    views.status[rank] = ST_READY
    return True


def _worker_main(spec: CommSpec, rank: int,
                 tuner_factory: Callable[[], FineTuner],
                 barriers: BarrierSet, step_delay_s: float = 0.0,
                 fault_injector: Optional[FaultInjector] = None,
                 resume_boot: bool = False) -> None:
    """Entry point of one data-parallel worker process.

    ``resume_boot=True`` is the replacement-rank path: the session is
    already live, so the boot/setup rendezvous are skipped — the worker
    validates its layout against the agreed ctl values, restores state from
    the donor slab, and joins the quiesced ranks waiting for resume.
    """
    boot_seg = data_seg = None
    views = data_views = None
    try:
        boot_seg = SharedSegment.attach(spec.boot_name)
        views = BootViews(boot_seg, spec.world, spec.batch_capacity)
    except BaseException as exc:                      # cannot even report
        _worker_fail(None, rank, barriers, exc)
        return
    try:
        tuner = tuner_factory()
        if not isinstance(tuner, FineTuner):
            raise DistributedError(
                f"tuner_factory must return a FineTuner, got {type(tuner)!r}")
        optimizer = tuner.optimizer
        grad_elems, grad_dtype = optimizer.grad_layout()
        params_bytes = sum(int(p.data.nbytes) for p in optimizer.params)
        blob_capacity = max(4 * params_bytes + (1 << 16), 1 << 20)
        views.meta[rank] = (grad_elems, _DTYPE_CODES[grad_dtype.name])
        if resume_boot:
            if int(views.ctl[CTL_GRAD_ELEMS]) != grad_elems:
                raise DistributedError(
                    f"replacement rank {rank} built a tuner with "
                    f"{grad_elems} gradient elements; the live session "
                    f"agreed on {int(views.ctl[CTL_GRAD_ELEMS])} — the "
                    f"factory is not deterministic")
        else:
            if rank == 0:
                views.ctl[CTL_GRAD_ELEMS] = grad_elems
                views.ctl[CTL_BLOB_CAP] = blob_capacity
            views.status[rank] = ST_READY
            boot_timeout = _boot_timeout(spec.step_timeout_s)
            wait_barrier(barriers.boot, boot_timeout, "boot")
            wait_barrier(barriers.setup, boot_timeout, "setup")

        data_seg = SharedSegment.attach(spec.data_name)
        data_views = DataViews(data_seg, spec.world,
                               int(views.ctl[CTL_GRAD_ELEMS]), grad_dtype,
                               int(views.ctl[CTL_BLOB_CAP]))
        reducer = GradientAllReducer(optimizer, data_views, rank, spec.world,
                                     barriers, spec.step_timeout_s,
                                     fault_injector=fault_injector)
        tuner.grad_reducer = reducer
        engine = tuner.engine
        mask_syncs = 0
        state = _WorkerState(tuner)       # rollback point of the current step

        if resume_boot:
            donated = _await_donation(views, data_views, rank, spec)
            if donated is None:
                return
            donated.restore(tuner)
            if not _elastic_wait(views, data_views, rank, spec, tuner):
                return

        while True:
            # Between train() calls the parent may stay away arbitrarily
            # long, so this wait is unbounded; workers are daemons (they die
            # with the parent) and a failing peer aborts the barrier, which
            # wakes this wait with BrokenBarrierError.
            try:
                barriers.step_begin.wait()
            except Exception:
                # Nothing to roll back — the step never started.
                if not _elastic_wait(views, data_views, rank, spec, tuner):
                    break
                continue
            command = int(views.ctl[CTL_COMMAND])
            if command == CMD_STOP:
                break
            if command == CMD_PARAMS:
                views.digest[rank] = np.frombuffer(
                    _param_digest(optimizer.params), np.uint8)
                if rank == 0:
                    blob = pickle.dumps(
                        [np.ascontiguousarray(p.data) for p in optimizer.params],
                        protocol=_PICKLE)
                    views.ctl[CTL_PARAM_BLOB_LEN] = data_views.write_blob(blob)
                wait_barrier(barriers.step_end, spec.step_timeout_s, "step_end")
                continue
            if command != CMD_STEP:
                raise DistributedError(f"unknown command {command}")

            try:
                state.take(tuner)
                if step_delay_s > 0.0:  # test seam: slow the compute window
                    time.sleep(step_delay_s)
                batch = views.read_batch()
                shard_rows = batch.shape[0] // spec.world
                shard = np.ascontiguousarray(
                    batch[rank * shard_rows:(rank + 1) * shard_rows])

                mask_wait_s = 0.0
                if (engine is not None and spec.world > 1
                        and engine.refresh_due_next(shard.shape[-1])):
                    mask_syncs += 1
                    if rank == 0:
                        def _broadcast_masks() -> None:
                            # Runs inside the reducer (post-backward, so the
                            # refreshed layouts exist) while the other ranks
                            # are still waiting to start their forward pass.
                            blob = pickle.dumps(engine.export_layouts(),
                                                protocol=_PICKLE)
                            views.ctl[CTL_MASK_BLOB_LEN] = \
                                data_views.write_blob(blob)
                            wait_barrier(barriers.masks, spec.step_timeout_s,
                                         "masks")
                        reducer.pre_reduce = _broadcast_masks
                    else:
                        mask_start = time.perf_counter()
                        wait_barrier(barriers.masks, spec.step_timeout_s,
                                     "masks")
                        blob = data_views.read_blob(
                            int(views.ctl[CTL_MASK_BLOB_LEN]))
                        engine.adopt_layouts(pickle.loads(blob),
                                             refresh_step=engine.step_index + 1)
                        mask_wait_s = time.perf_counter() - mask_start

                checksum_s_before = reducer.checksum_seconds
                loss, timing = tuner.step(shard)
                views.loss[rank] = loss
                stats = views.stats[rank]
                stats[STAT_COMM] = timing.comm + mask_wait_s
                stats[STAT_FORWARD] = timing.forward
                stats[STAT_BACKWARD] = timing.backward
                stats[STAT_OPTIMIZER] = timing.optimizer
                capture = tuner.capture
                if capture is not None:
                    stats[STAT_RECAPTURES] = tuner.recaptures
                    stats[STAT_FULL_REPLAYS] = capture.full_replays
                stats[STAT_MASK_SYNCS] = mask_syncs
                stats[STAT_CHECKSUM_FAILURES] = reducer.checksum_failures
                stats[STAT_CHECKSUM_S] = (reducer.checksum_seconds
                                          - checksum_s_before)
                views.status[rank] = ST_STEPPED
                wait_barrier(barriers.step_end, spec.step_timeout_s,
                             "step_end")
            except (BarrierBroken, CommIntegrityError):
                # Survivable step failure: wake every blocked peer (and the
                # parent), roll back to the top of the step, quiesce.  The
                # parent respawns dead ranks and replays this step — or
                # fails the run and terminates us.
                barriers.abort_all()
                state.restore(tuner)
                if not _elastic_wait(views, data_views, rank, spec, tuner):
                    break
    except BaseException as exc:
        _worker_fail(views, rank, barriers, exc)
    finally:
        # Drop every exported view before closing; only the parent unlinks.
        if data_views is not None:
            data_views.release()
        if views is not None:
            views.release()
        for seg in (data_seg, boot_seg):
            if seg is not None:
                seg.close()


# ---------------------------------------------------------------------------
# parent-side trainer
# ---------------------------------------------------------------------------

@dataclass
class DistributedReport(TrainingReport):
    """A :class:`TrainingReport` plus data-parallel evidence.

    ``step_timings`` aggregate each phase as the **max over ranks** (the
    critical path of the concurrent step); ``step_wall_s`` is the parent's
    wall clock per step, which is what throughput claims should use.
    ``worker_restarts`` counts ranks respawned by elastic recovery;
    ``recovery_events`` records each recovery (victims, reason, wall time);
    ``comm_checksum_failures`` sums CRC32 mismatches detected (and rolled
    back) on the all-reduce path.
    """

    workers: int = 1
    step_wall_s: List[float] = field(default_factory=list)
    comm_s_per_step: List[float] = field(default_factory=list)
    worker_stats: List[Dict[str, float]] = field(default_factory=list)
    param_digest: str = ""
    final_params: List[np.ndarray] = field(default_factory=list)
    worker_restarts: int = 0
    recovery_events: List[Dict] = field(default_factory=list)
    comm_checksum_failures: float = 0.0

    def mean_comm_ms(self, skip_warmup: int = 1) -> float:
        values = self.comm_s_per_step[skip_warmup:] or self.comm_s_per_step
        return float(np.mean(values) * 1000.0) if values else 0.0

    def steps_per_second(self, skip_warmup: int = 1) -> float:
        walls = self.step_wall_s[skip_warmup:] or self.step_wall_s
        total = float(np.sum(walls))
        return len(walls) / total if total > 0 else float("inf")


def _static_cleanup(state: dict) -> None:
    """Last-resort teardown shared by close(), _fail() and the finalizer."""
    processes = state.get("processes", ())
    for process in processes:
        with suppress(Exception):
            if process.is_alive():
                process.terminate()
    for process in processes:
        with suppress(Exception):
            process.join(timeout=2.0)
    for key in ("boot_views", "data_views"):
        views = state.pop(key, None)
        if views is not None:
            with suppress(Exception):
                views.release()
    for key in ("boot_shm", "data_shm"):
        seg = state.pop(key, None)
        if seg is not None:
            seg.close()
            seg.unlink()
    state["processes"] = []


class DataParallelTrainer:
    """Drives N sharded worker processes through the shared-memory protocol.

    Workers are forked where ``fork`` exists (no pickling constraints,
    instant startup), else spawned.

    Parameters
    ----------
    tuner_factory:
        Zero-argument callable, run *inside every worker*, returning the
        :class:`FineTuner` to train.  It must be deterministic (same seeds →
        bitwise-identical models in every rank) and, where workers are
        spawned, picklable (a module-level function or ``functools.partial``
        over one).
    workers:
        Number of worker processes (ranks).
    step_timeout_s:
        Bound on every intra-step barrier wait; a worker death surfaces as
        a recovery (or :class:`DistributedError`) within a small multiple
        of this.
    batch_capacity:
        Size in bytes of the shared batch region; default 4x the first
        published batch.
    max_restarts:
        Total rank respawns the trainer may perform before degrading to
        fail-fast :class:`DistributedError` (with the recovery history in
        the diagnostics).  ``0`` is the fail-fast choice: the first broken
        step fails the run.
    fault_injector:
        Optional :class:`~repro.runtime.fault.FaultInjector` forwarded to
        the *original* worker incarnations (replacement ranks run
        fault-free so a one-shot schedule cannot re-fire after respawn).
    """

    # Breaks of one step in a row (with or without victims) that fail the
    # run: a fault that recurs on every replay is not transient.
    MAX_STEP_REPLAYS = 3

    def __init__(self, tuner_factory: Callable[[], FineTuner],
                 workers: int, *,
                 step_timeout_s: float = 60.0,
                 batch_capacity: Optional[int] = None,
                 max_restarts: int = 2,
                 fault_injector: Optional[FaultInjector] = None,
                 _test_step_delay_s: float = 0.0):
        world = int(workers)
        if world < 1:
            raise ValueError(f"need at least one worker, got {world}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.tuner_factory = tuner_factory
        self.world = world
        self.step_timeout_s = float(step_timeout_s)
        self.batch_capacity = batch_capacity
        self.max_restarts = int(max_restarts)
        self.fault_injector = fault_injector
        self.profiler = PhaseProfiler()
        self._test_step_delay_s = float(_test_step_delay_s)
        self._ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                                   else "spawn")
        self.session = f"lexdp-{os.getpid():x}-{uuid.uuid4().hex[:8]}"
        self._state: dict = {"processes": []}
        self._finalizer = weakref.finalize(self, _static_cleanup, self._state)
        self._started = False
        self._closed = False
        self._step_id = 0
        self._restarts = 0
        self._recovery_history: List[Dict] = []
        self._spec: Optional[CommSpec] = None
        self._barriers: Optional[BarrierSet] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def _parent_timeout(self) -> float:
        return self.step_timeout_s * 2 + 5.0

    @property
    def worker_restarts(self) -> int:
        return self._restarts

    def _ensure_started(self, first_batch: np.ndarray) -> None:
        if self._closed:
            raise DistributedError("trainer is closed")
        if self._started:
            return
        capacity = self.batch_capacity
        if capacity is None:
            capacity = max(4 * int(first_batch.nbytes), 1 << 20)
        spec = CommSpec(session=self.session, world=self.world,
                        batch_capacity=int(capacity),
                        step_timeout_s=self.step_timeout_s)
        _, boot_bytes = boot_regions(self.world, spec.batch_capacity)
        boot_seg = SharedSegment.create(spec.boot_name, boot_bytes)
        self._state["boot_shm"] = boot_seg
        boot_views = BootViews(boot_seg, self.world, spec.batch_capacity)
        # Shared memory arrives zeroed on Linux, but make the protocol fields
        # explicit rather than rely on it.
        boot_views.ctl[:] = 0
        boot_views.status[:] = 0
        self._state["boot_views"] = boot_views
        barriers = BarrierSet(self._ctx, self.world)
        processes = []
        for rank in range(self.world):
            process = self._ctx.Process(
                target=_worker_main,
                args=(spec, rank, self.tuner_factory, barriers,
                      self._test_step_delay_s, self.fault_injector, False),
                name=f"{self.session}-rank{rank}", daemon=True)
            process.start()
            processes.append(process)
        self._state["processes"] = processes
        self._spec = spec
        self._barriers = barriers
        self._boot_views = boot_views
        boot_timeout = _boot_timeout(self.step_timeout_s)
        self._guarded_wait(barriers.boot, "boot", timeout=boot_timeout)

        # Workers reported their flat gradient population; they must agree.
        meta = boot_views.meta.copy()
        if np.any(boot_views.status.copy() == ST_ERROR):
            self._fail("a worker failed during startup")
        if len({tuple(row) for row in meta.tolist()}) != 1:
            self._fail(f"workers disagree on the gradient layout: "
                       f"{meta.tolist()} — the tuner factory is not "
                       f"deterministic across ranks")
        grad_elems = int(meta[0, 0])
        grad_dtype = _CODE_DTYPES[int(meta[0, 1])]
        blob_capacity = int(boot_views.ctl[CTL_BLOB_CAP])
        _, data_bytes = data_regions(self.world, grad_elems,
                                     grad_dtype.itemsize, blob_capacity)
        data_seg = SharedSegment.create(spec.data_name, data_bytes)
        self._state["data_shm"] = data_seg
        data_views = DataViews(data_seg, self.world, grad_elems, grad_dtype,
                               blob_capacity)
        self._state["data_views"] = data_views
        self._data_views = data_views
        self._guarded_wait(barriers.setup, "setup", timeout=boot_timeout)
        self._started = True

    def worker_pids(self) -> List[int]:
        return [process.pid for process in self._state["processes"]]

    def close(self) -> None:
        """Stop the workers and unlink both segments; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            with suppress(Exception):
                self._boot_views.ctl[CTL_COMMAND] = CMD_STOP
                self._barriers.step_begin.wait(timeout=min(
                    self.step_timeout_s, 10.0))
                for process in self._state["processes"]:
                    process.join(timeout=min(self.step_timeout_s, 10.0))
        if self._barriers is not None:
            self._barriers.abort_all()
        _static_cleanup(self._state)
        self._finalizer.detach()

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- failure handling --------------------------------------------------------

    def _guarded_wait(self, barrier, what: str,
                      timeout: Optional[float] = None) -> None:
        try:
            wait_barrier(barrier, timeout if timeout is not None
                         else self._parent_timeout, what)
        except DistributedError:
            self._fail(f"rendezvous {what!r} broke or timed out")

    def _fail(self, reason: str) -> None:
        diagnostic = [f"data-parallel run failed: {reason}"]
        views = self._state.get("boot_views")
        processes = self._state.get("processes", [])
        statuses = (views.status.copy().tolist()
                    if views is not None else [])
        for rank, process in enumerate(processes):
            line = (f"  rank {rank}: pid={process.pid} "
                    f"alive={process.is_alive()} exitcode={process.exitcode}")
            if rank < len(statuses):
                line += f" status={statuses[rank]}"
            diagnostic.append(line)
            if views is not None:
                error = views.read_error(rank)
                if error:
                    indented = "\n".join("    " + l
                                         for l in error.strip().splitlines())
                    diagnostic.append(indented)
        if self._recovery_history:
            diagnostic.append(f"  restart history ({self._restarts} restarts, "
                              f"max_restarts={self.max_restarts}):")
            for event in self._recovery_history:
                diagnostic.append(f"    step {event['step_id']}: "
                                  f"victims={event['victims']} "
                                  f"wall={event['wall_s']:.2f}s — "
                                  f"{event['reason']}")
        if self._barriers is not None:
            self._barriers.abort_all()
        self._closed = True
        _static_cleanup(self._state)
        self._finalizer.detach()
        raise DistributedError("\n".join(diagnostic))

    def _check_worker_errors(self) -> None:
        status = self._boot_views.status.copy()
        if np.any(status == ST_ERROR):
            failed = [rank for rank, value in enumerate(status.tolist())
                      if value == ST_ERROR]
            self._fail(f"rank(s) {failed} reported an error")

    # -- elastic recovery --------------------------------------------------------

    def _recover(self, reason: str, breaks: int) -> None:
        """Quiesce → respawn → restore → release; raises via _fail when the
        failure is not survivable (see the module docstring).  ``breaks``
        counts the in-flight step's breaks in a row, this one included."""
        views = self._boot_views
        barriers = self._barriers
        processes = self._state["processes"]
        recover_start = time.perf_counter()
        if np.any(views.status.copy() == ST_ERROR):
            # An application-level worker exception would simply recur on
            # replay; surface it instead of burning restarts.
            self._fail(f"{reason}; a worker reported an error")
        if self.max_restarts == 0:
            self._fail(reason)
        # Wake everything still blocked in a barrier; survivors roll back
        # and park in the recovery loop, outside every barrier.
        barriers.abort_all()

        def unquiesced() -> List[int]:
            status = views.status.copy()
            return [rank for rank, process in enumerate(processes)
                    if process.is_alive() and status[rank] != ST_RECOVERING]

        if not _poll(lambda: not unquiesced(), self.step_timeout_s * 2 + 10.0):
            # Hung ranks (alive, never quiesced — e.g. stuck in user code):
            # treat them exactly like dead ones.
            for rank in unquiesced():
                with suppress(Exception):
                    processes[rank].terminate()
                    processes[rank].join(timeout=2.0)
                    if processes[rank].is_alive():
                        processes[rank].kill()
        for process in processes:           # reap zombies so is_alive is real
            if not process.is_alive():
                process.join(timeout=1.0)
        victims = [rank for rank, process in enumerate(processes)
                   if not process.is_alive()]
        survivors = [rank for rank in range(self.world)
                     if rank not in victims]
        event = {"step_id": self._step_id, "reason": reason,
                 "victims": victims, "wall_s": 0.0}

        def give_up(why: str) -> None:
            self._recovery_history.append(event)
            self._fail(f"{reason}; {why}")

        if not survivors:
            give_up("every rank died — no survivor to recover from")
        if breaks >= self.MAX_STEP_REPLAYS:
            give_up(f"the step broke {breaks} times in a row "
                    f"(MAX_STEP_REPLAYS={self.MAX_STEP_REPLAYS})")
        if self._restarts + len(victims) > self.max_restarts:
            give_up(f"respawning rank(s) {victims} would exceed "
                    f"max_restarts={self.max_restarts}")
        # Everyone alive is quiesced outside the barriers: safe to reset.
        barriers.reset_all()
        ctl = views.ctl
        if victims:
            ctl[CTL_DONOR] = survivors[0]
            ctl[CTL_RECOVERY_SEQ] = int(ctl[CTL_RECOVERY_SEQ]) + 1
            for rank in victims:
                views.status[rank] = ST_BOOTING
                views.err_len[rank] = 0
                # Replacements run without the fault injector: their visit
                # counters would restart from zero, so a one-shot schedule
                # ("crash on the 2nd reduce") would re-fire forever.
                replacement = self._ctx.Process(
                    target=_worker_main,
                    args=(self._spec, rank, self.tuner_factory, barriers,
                          self._test_step_delay_s, None, True),
                    name=f"{self.session}-rank{rank}-r{self._restarts + 1}",
                    daemon=True)
                replacement.start()
                processes[rank] = replacement
            self._restarts += len(victims)

        def restored() -> bool:
            status = views.status.copy()
            if np.any(status == ST_ERROR):
                give_up("a rank errored during recovery")
            if not all(process.is_alive() for process in processes):
                give_up("a rank died during recovery")
            return bool(np.all(status == ST_RECOVERING))

        # Replacements build a whole tuner before reporting in: boot-scale
        # patience, not step-scale.
        if not _poll(restored, _boot_timeout(self.step_timeout_s)):
            give_up("ranks never finished quiescing/restoring for recovery")
        event["wall_s"] = time.perf_counter() - recover_start
        self._recovery_history.append(event)
        self.profiler.set_gauge("worker_restarts", float(self._restarts))
        # Release every quiesced rank back into the command loop; the caller
        # replays the in-flight step.
        ctl[CTL_RESUME] = int(ctl[CTL_RESUME]) + 1

    # -- stepping ----------------------------------------------------------------

    def step(self, batch: np.ndarray) -> (float, PhaseTimings):
        """Run one global step; returns (global mean loss, max-phase timings).

        A failed step is recovered and *replayed* (same batch, same step id,
        rolled-back state) until it completes, or until recovery gives up
        with :class:`DistributedError` — at the latest on the step's
        ``MAX_STEP_REPLAYS``-th break in a row.
        """
        batch = np.asarray(batch)
        if batch.shape[0] % self.world != 0:
            raise ValueError(f"global batch of {batch.shape[0]} sequences "
                             f"cannot be split over {self.world} workers")
        self._ensure_started(batch)
        views = self._boot_views
        self._step_id += 1
        breaks = 0
        while True:
            views.publish_batch(batch)
            views.ctl[CTL_COMMAND] = CMD_STEP
            wall_start = time.perf_counter()
            try:
                wait_barrier(self._barriers.step_begin, self._parent_timeout,
                             "step_begin")
                wait_barrier(self._barriers.step_end, self._parent_timeout,
                             "step_end")
            except BarrierBroken:
                breaks += 1
                self._recover(f"step {self._step_id} rendezvous broke", breaks)
                continue
            break
        wall = time.perf_counter() - wall_start
        self._check_worker_errors()
        losses = views.loss.copy()
        stats = views.stats.copy()
        # Fixed-order mean over equal shards: for world == 1 this is exactly
        # the worker's loss (sum of one element over 1).
        loss = float(losses.sum() / self.world)
        timing = PhaseTimings(
            forward=float(stats[:, STAT_FORWARD].max()),
            backward=float(stats[:, STAT_BACKWARD].max()),
            optimizer=float(stats[:, STAT_OPTIMIZER].max()),
            comm=float(stats[:, STAT_COMM].max()),
        )
        self._last_wall_s = wall
        self._last_stats = stats
        self.profiler.set_gauge("worker_restarts", float(self._restarts))
        self.profiler.set_gauge(
            "comm_checksum_failures",
            float(stats[:, STAT_CHECKSUM_FAILURES].sum()))
        return loss, timing

    def fetch_params(self) -> (List[np.ndarray], str):
        """Final trainable parameters (rank 0) + the cross-rank digest.

        Raises :class:`DistributedError` if any rank's parameter bytes
        diverged — the bitwise-replication invariant of the replicated
        optimizer tail failed.
        """
        if not self._started:
            raise DistributedError("no step has run yet")
        views = self._boot_views
        views.ctl[CTL_COMMAND] = CMD_PARAMS
        self._guarded_wait(self._barriers.step_begin, "step_begin")
        self._guarded_wait(self._barriers.step_end, "step_end")
        self._check_worker_errors()
        digests = views.digest.copy()
        unique = {bytes(digests[rank]) for rank in range(self.world)}
        if len(unique) != 1:
            self._fail("parameters diverged across workers: "
                       + ", ".join(f"rank{r}={bytes(digests[r]).hex()[:12]}"
                                   for r in range(self.world)))
        blob = self._data_views.read_blob(
            int(views.ctl[CTL_PARAM_BLOB_LEN]))
        return pickle.loads(blob), unique.pop().hex()

    # -- full loop ---------------------------------------------------------------

    def train(self, batches: Iterable[np.ndarray],
              max_steps: Optional[int] = None,
              fetch_params: bool = True) -> DistributedReport:
        """Train over an iterable of global token-id batches.

        With ``max_steps`` at most that many batches are drawn, so an
        iterator resumes at the first batch not trained on.
        """
        losses: List[float] = []
        timings: List[PhaseTimings] = []
        walls: List[float] = []
        comms: List[float] = []
        tokens = 0
        for batch in itertools.islice(batches, max_steps):
            batch = np.asarray(batch)
            loss, timing = self.step(batch)
            losses.append(loss)
            timings.append(timing)
            walls.append(self._last_wall_s)
            comms.append(timing.comm)
            tokens += int(batch.size)
        worker_stats = []
        checksum_failures = 0.0
        stats = getattr(self, "_last_stats", None)
        if stats is not None:
            worker_stats = [dict(zip(STAT_NAMES, stats[rank].tolist()))
                            for rank in range(self.world)]
            checksum_failures = float(stats[:, STAT_CHECKSUM_FAILURES].sum())
        params: List[np.ndarray] = []
        digest = ""
        if fetch_params and losses:
            params, digest = self.fetch_params()
        return DistributedReport(
            steps=len(losses), losses=losses, step_timings=timings,
            tokens_processed=tokens, workers=self.world, step_wall_s=walls,
            comm_s_per_step=comms, worker_stats=worker_stats,
            param_digest=digest, final_params=params,
            worker_restarts=self._restarts,
            recovery_events=list(self._recovery_history),
            comm_checksum_failures=checksum_failures)


def train_data_parallel(tuner_factory: Callable[[], FineTuner],
                        batches: Sequence[np.ndarray], workers: int,
                        **trainer_kwargs) -> DistributedReport:
    """One-shot convenience wrapper: spawn, train, tear down."""
    with DataParallelTrainer(tuner_factory, workers, **trainer_kwargs) as trainer:
        return trainer.train(batches)
