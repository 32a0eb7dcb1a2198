"""Shared-memory communication substrate for data-parallel training.

This module owns everything three-or-more processes have to agree on:

* **Segment lifecycle** — the parent process creates two named
  ``multiprocessing.shared_memory`` segments (a *boot* segment whose size is
  known up front, and a *data* segment sized from the gradient population the
  workers report during the boot handshake), and is the only process that
  ever ``unlink()``\\ s them.  Workers attach by name and only ``close()``;
  on this interpreter (CPython 3.11) attaching does not register with the
  resource tracker, so creator-unlinks is the whole protocol and a clean run
  leaves nothing in ``/dev/shm``.
* **Chunk schedule** — :func:`chunk_schedule` partitions the flat gradient
  buffer into fixed-size chunks striped round-robin across ranks.  Each rank
  reduces *its* chunks by summing the per-rank slots in rank order
  ``0..world-1`` — the summation order is a function of the chunk alone,
  never of which rank happens to execute it, so the reduced values are
  bitwise-reproducible for a given worker count.
* **Barrier/epoch protocol** — a :class:`BarrierSet` carries the rendezvous
  points of one step: ``step_begin``/``step_end`` include the parent
  (commands and results cross there), ``grads``/``reduced`` are
  workers-only (the two halves of the all-reduce), and ``masks`` orders the
  rank-0 layout broadcast at sparsity-refresh steps.  Every wait carries a
  timeout; a worker that dies mid-step breaks its peers' barrier within that
  timeout, survivors abort the remaining barriers, and the parent turns the
  broken rendezvous into a recovery (or a :class:`DistributedError`) instead
  of a hang.

The gradient exchange itself is :class:`GradientAllReducer`: one contiguous
gather of the optimizer's flat gradient population into the rank's slot, a
fixed-order chunked reduce-scatter into the shared ``reduced`` buffer, and a
scatter back into ``param.grad`` — a single message per step regardless of
parameter count, which is exactly what the flat optimizer layout exists to
enable.  Every chunk carries a CRC32 that the reducing rank checks before it
sums the chunk in; there is no switch to turn that off.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class DistributedError(RuntimeError):
    """A data-parallel run failed (worker death, divergence, protocol error)."""


class BarrierBroken(DistributedError):
    """A rendezvous broke or timed out — a peer died, hung, or aborted.

    Kept distinct from :class:`DistributedError` because it is the one
    failure the elastic recovery path treats as *survivable*: the worker's
    own state is intact, only the rendezvous is gone.
    """


class CommIntegrityError(DistributedError):
    """A per-chunk CRC32 checksum mismatched on the all-reduce path.

    Raised *before* the corrupt chunk enters the reduction, so corruption is
    detected, never propagated into the optimizer state.
    """


# -- protocol constants ---------------------------------------------------------

CMD_STEP, CMD_PARAMS, CMD_STOP = 1, 2, 3     # 0: nothing issued yet

ST_BOOTING, ST_READY, ST_STEPPED, ST_ERROR, ST_RECOVERING = 0, 1, 2, 3, 4

# ctl slot indices (int64 array in the boot segment)
CTL_COMMAND = 0
CTL_NDIM = 1
CTL_SHAPE = 2          # 2..5: up to 4 batch dimensions
CTL_DTYPE = 6
CTL_GRAD_ELEMS = 7     # written by rank 0 during the boot handshake
CTL_BLOB_CAP = 8
CTL_PARAM_BLOB_LEN = 9
CTL_MASK_BLOB_LEN = 10
# Elastic-recovery slots (parent-driven; see runtime/distributed.py).
CTL_RECOVERY_SEQ = 11  # bumped by the parent when a respawn needs a donor slab
CTL_DONOR = 12         # surviving rank asked to export its state
CTL_DONATION_READY = 13  # donor echoes CTL_RECOVERY_SEQ once the blob is up
CTL_RESUME = 14        # bumped by the parent to release quiesced workers
CTL_SLOTS = 15

# Elements per chunk of the fixed-order reduce schedule.
CHUNK_ELEMS = 1 << 16

_DTYPE_CODES = {"int32": 1, "int64": 2, "float32": 3, "float64": 4}
_CODE_DTYPES = {code: np.dtype(name) for name, code in _DTYPE_CODES.items()}

# per-rank float64 stats slots written after every step
STAT_COMM = 0
STAT_FORWARD = 1
STAT_BACKWARD = 2
STAT_OPTIMIZER = 3
STAT_RECAPTURES = 4
STAT_FULL_REPLAYS = 5
STAT_MASK_SYNCS = 6
STAT_CHECKSUM_FAILURES = 7
STAT_CHECKSUM_S = 8
STATS_SLOTS = 9

STAT_NAMES = ("comm_s", "forward_s", "backward_s", "optimizer_s",
              "recaptures", "full_replays", "mask_syncs",
              "checksum_failures", "checksum_s")

DIGEST_BYTES = 32
ERROR_BYTES = 4096

_ALIGN = 64

BrokenBarrier = threading.BrokenBarrierError


def _layout(regions: Sequence[Tuple[str, int]]) -> Tuple[Dict[str, int], int]:
    """Cache-line-aligned offsets for named byte regions; returns total size."""
    offsets: Dict[str, int] = {}
    cursor = 0
    for name, nbytes in regions:
        cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
        offsets[name] = cursor
        cursor += int(nbytes)
    return offsets, cursor


def boot_regions(world: int, batch_capacity: int) -> Tuple[Dict[str, int], int]:
    return _layout([
        ("ctl", CTL_SLOTS * 8),
        ("status", world * 8),
        ("meta", world * 2 * 8),          # (grad_elems, dtype_code) per rank
        ("err_len", world * 8),
        ("loss", world * 8),
        ("stats", world * STATS_SLOTS * 8),
        ("digest", world * DIGEST_BYTES),
        ("errors", world * ERROR_BYTES),
        ("batch", batch_capacity),
    ])


def data_regions(world: int, grad_elems: int, itemsize: int,
                 blob_capacity: int) -> Tuple[Dict[str, int], int]:
    return _layout([
        ("grad", world * grad_elems * itemsize),
        ("reduced", grad_elems * itemsize),
        ("crc", world * _crc_slots(grad_elems) * 4),
        ("blob", blob_capacity),
    ])


class SharedSegment:
    """Idempotent lifecycle wrapper over one named shared-memory segment.

    ``multiprocessing.shared_memory.SharedMemory`` raises on double
    ``close()``/``unlink()`` and leaves no safe way to tear down a handle
    whose construction failed half-way.  Recovery paths need the opposite
    contract — cleanup must be callable unconditionally, any number of
    times, from any failure point — so this wrapper guarantees:

    * ``close()`` and ``unlink()`` are no-ops after the first call;
    * both are safe on an instance whose constructor raised (or that was
      never ``__init__``-ed at all);
    * ``unlink()`` only ever removes the name once, and swallows the
      already-gone case.
    """

    def __init__(self, name: str, create: bool = False, size: int = 0):
        self.name = name
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._closed = False
        self._unlinked = False
        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=size)

    @classmethod
    def create(cls, name: str, size: int) -> "SharedSegment":
        return cls(name, create=True, size=size)

    @classmethod
    def attach(cls, name: str) -> "SharedSegment":
        return cls(name)

    @property
    def buf(self):
        if getattr(self, "_shm", None) is None:
            raise DistributedError(
                f"shared segment {getattr(self, 'name', '?')!r} is closed")
        return self._shm.buf

    @property
    def closed(self) -> bool:
        return bool(getattr(self, "_closed", True))

    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        shm = getattr(self, "_shm", None)
        self._shm = None
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass

    def unlink(self) -> None:
        if getattr(self, "_unlinked", False):
            return
        self._unlinked = True
        name = getattr(self, "name", None)
        if name is None:
            return
        shm = getattr(self, "_shm", None)
        try:
            if shm is not None:
                shm.unlink()
            else:
                # Already closed: unlink through a fresh handle by name.
                handle = shared_memory.SharedMemory(name=name)
                handle.close()
                handle.unlink()
        except Exception:
            pass


def _crc_slots(grad_elems: int) -> int:
    """One CRC32 slot per chunk of :data:`CHUNK_ELEMS` (at least one)."""
    return max(1, -(-grad_elems // CHUNK_ELEMS))


def chunk_schedule(total_elems: int, world: int,
                   chunk_elems: int) -> List[Tuple[int, int, int]]:
    """``(start, end, owner_rank)`` chunks striped round-robin across ranks.

    The owner only decides *who computes* a chunk; the reduction order inside
    each chunk is always rank ``0..world-1``, so ownership never affects the
    reduced bits.
    """
    if total_elems <= 0:
        return []
    chunk_elems = max(1, int(chunk_elems))
    starts = list(range(0, total_elems, chunk_elems))
    return [(start, min(start + chunk_elems, total_elems), index % world)
            for index, start in enumerate(starts)]


class BarrierSet:
    """The rendezvous points of the step protocol (see module docstring)."""

    _WORKER_NAMES = ("grads", "reduced", "masks")
    _ALL_NAMES = ("boot", "setup", "step_begin", "step_end") + _WORKER_NAMES

    def __init__(self, ctx, world: int):
        self.boot = ctx.Barrier(world + 1)
        self.setup = ctx.Barrier(world + 1)
        self.step_begin = ctx.Barrier(world + 1)
        self.step_end = ctx.Barrier(world + 1)
        self.grads = ctx.Barrier(world)
        self.reduced = ctx.Barrier(world)
        self.masks = ctx.Barrier(world)

    def abort_all(self) -> None:
        """Break every barrier so no process can block on this session again."""
        for name in self._ALL_NAMES:
            try:
                getattr(self, name).abort()
            except Exception:
                pass

    def reset_all(self) -> None:
        """Return every barrier to the empty, unbroken state.

        The elastic recovery path aborts the set to wake blocked peers, waits
        for every survivor to quiesce *outside* the barriers, then resets so
        the next step generation can rendezvous on the same objects (new
        worker processes inherit them through fork/pickle at respawn).
        """
        for name in self._ALL_NAMES:
            try:
                getattr(self, name).reset()
            except Exception:
                pass


@dataclass
class CommSpec:
    """Everything a worker needs to find and speak the session's segments."""

    session: str                 # shm name prefix; segments are <session>-boot/-data
    world: int
    batch_capacity: int
    step_timeout_s: float

    @property
    def boot_name(self) -> str:
        return f"{self.session}-boot"

    @property
    def data_name(self) -> str:
        return f"{self.session}-data"


class BootViews:
    """Typed NumPy views over the boot segment's regions."""

    def __init__(self, shm, world: int, batch_capacity: int):
        offsets, _ = boot_regions(world, batch_capacity)
        buf = shm.buf
        self._batch_offset = offsets["batch"]
        self._batch_capacity = batch_capacity
        self._shm = shm
        self.ctl = np.ndarray((CTL_SLOTS,), np.int64, buf, offsets["ctl"])
        self.status = np.ndarray((world,), np.int64, buf, offsets["status"])
        self.meta = np.ndarray((world, 2), np.int64, buf, offsets["meta"])
        self.err_len = np.ndarray((world,), np.int64, buf, offsets["err_len"])
        self.loss = np.ndarray((world,), np.float64, buf, offsets["loss"])
        self.stats = np.ndarray((world, STATS_SLOTS), np.float64, buf,
                                offsets["stats"])
        self.digest = np.ndarray((world, DIGEST_BYTES), np.uint8, buf,
                                 offsets["digest"])
        self.errors = np.ndarray((world, ERROR_BYTES), np.uint8, buf,
                                 offsets["errors"])

    # -- batch publication -----------------------------------------------------
    def publish_batch(self, batch: np.ndarray) -> None:
        batch = np.ascontiguousarray(batch)
        if batch.ndim > 4:
            raise DistributedError(f"batches of ndim {batch.ndim} > 4 are not "
                                   f"supported by the comms header")
        code = _DTYPE_CODES.get(batch.dtype.name)
        if code is None:
            raise DistributedError(f"unsupported batch dtype {batch.dtype}")
        if batch.nbytes > self._batch_capacity:
            raise DistributedError(
                f"batch of {batch.nbytes} bytes exceeds the shared batch "
                f"capacity of {self._batch_capacity} bytes (sized from the "
                f"first published batch; pass batch_capacity= to raise it)")
        ctl = self.ctl
        ctl[CTL_NDIM] = batch.ndim
        ctl[CTL_SHAPE:CTL_SHAPE + 4] = 0
        ctl[CTL_SHAPE:CTL_SHAPE + batch.ndim] = batch.shape
        ctl[CTL_DTYPE] = code
        view = np.ndarray(batch.shape, batch.dtype, self._shm.buf,
                          self._batch_offset)
        np.copyto(view, batch)

    def read_batch(self) -> np.ndarray:
        """A *copy* of the published batch (the region is reused next step)."""
        ctl = self.ctl
        ndim = int(ctl[CTL_NDIM])
        shape = tuple(int(d) for d in ctl[CTL_SHAPE:CTL_SHAPE + ndim])
        dtype = _CODE_DTYPES[int(ctl[CTL_DTYPE])]
        view = np.ndarray(shape, dtype, self._shm.buf, self._batch_offset)
        return view.copy()

    # -- error slots -----------------------------------------------------------
    def write_error(self, rank: int, message: str) -> None:
        data = message.encode("utf-8", errors="replace")[:ERROR_BYTES]
        self.errors[rank, :len(data)] = np.frombuffer(data, np.uint8)
        self.err_len[rank] = len(data)
        self.status[rank] = ST_ERROR

    def read_error(self, rank: int) -> str:
        length = int(self.err_len[rank])
        if length <= 0:
            return ""
        return bytes(self.errors[rank, :length]).decode("utf-8",
                                                        errors="replace")

    def release(self) -> None:
        """Drop every exported view so the segment can be closed."""
        self.__dict__ = {"_shm": None}


class DataViews:
    """Typed views over the data segment: grad slots, reduced buffer, blob."""

    def __init__(self, shm, world: int,
                 grad_elems: int, dtype: np.dtype, blob_capacity: int):
        offsets, _ = data_regions(world, grad_elems, dtype.itemsize,
                                  blob_capacity)
        self._shm = shm
        self._blob_offset = offsets["blob"]
        self.blob_capacity = blob_capacity
        self.grad = np.ndarray((world, grad_elems), dtype, shm.buf,
                               offsets["grad"])
        self.reduced = np.ndarray((grad_elems,), dtype, shm.buf,
                                  offsets["reduced"])
        self.crc = np.ndarray((world, _crc_slots(grad_elems)), np.uint32,
                              shm.buf, offsets["crc"])

    def write_blob(self, payload: bytes) -> int:
        if len(payload) > self.blob_capacity:
            raise DistributedError(
                f"blob of {len(payload)} bytes exceeds the shared blob "
                f"capacity of {self.blob_capacity} bytes")
        view = np.ndarray((len(payload),), np.uint8, self._shm.buf,
                          self._blob_offset)
        view[:] = np.frombuffer(payload, np.uint8)
        return len(payload)

    def read_blob(self, length: int) -> bytes:
        view = np.ndarray((int(length),), np.uint8, self._shm.buf,
                          self._blob_offset)
        return bytes(view)

    def release(self) -> None:
        self.__dict__ = {"_shm": None}


def wait_barrier(barrier, timeout: Optional[float], what: str) -> None:
    """Barrier wait that converts breakage/timeout into :class:`BarrierBroken`."""
    try:
        barrier.wait(timeout=timeout)
    except BrokenBarrier as exc:
        raise BarrierBroken(
            f"barrier {what!r} broken or timed out after {timeout}s — a peer "
            f"likely died or errored mid-step") from exc


class GradientAllReducer:
    """Flat-buffer chunked all-reduce over a shared-memory segment.

    Installed on a worker's :class:`~repro.runtime.trainer.FineTuner` as its
    ``grad_reducer``; called once per step between the backward pass and the
    optimizer update.  The three phases:

    1. *gather* — :meth:`repro.optim.Adam.gather_flat_grad` copies every
       ``param.grad`` into this rank's contiguous slot (one buffer, not one
       message per parameter);
    2. *reduce* — after the ``grads`` barrier, each rank sums its scheduled
       chunks across all slots in rank order and divides by the worker count
       (the mean matches the single-process full-batch gradient up to float
       rounding; for ``world == 1`` the copy is exact, keeping the one-worker
       trainer bitwise-identical to the single-process trainer);
    3. *scatter* — after the ``reduced`` barrier,
       :meth:`~repro.optim.Adam.scatter_flat_grad` copies the reduced buffer
       back into every ``param.grad`` in place.

    A ``pre_reduce`` callback (set by the worker harness on rank 0 at
    sparsity-refresh steps) runs first, inside the timed window, so the mask
    broadcast is accounted as communication time.

    Every rank publishes a CRC32 per chunk of its own gradient slot before
    the ``grads`` barrier, and a chunk owner re-verifies every rank's
    checksum *before* summing that rank's bytes in.  A mismatch (shared
    memory corrupted between the writer's hash and the reader's use) raises
    :class:`CommIntegrityError` instead of feeding garbage into every rank's
    optimizer, and the whole step is rolled back and replayed.  The checksum
    time is kept apart (``checksum_seconds``) so the bench can show it stays
    a rounding error against the barrier-dominated comm time.
    """

    def __init__(self, optimizer, data: DataViews, rank: int, world: int,
                 barriers: BarrierSet, timeout_s: float, fault_injector=None):
        self.optimizer = optimizer
        self.data = data
        self.rank = rank
        self.world = world
        self.barriers = barriers
        self.timeout_s = timeout_s
        self.schedule = chunk_schedule(data.reduced.size, world, CHUNK_ELEMS)
        self.fault_injector = fault_injector
        self.pre_reduce: Optional[Callable[[], None]] = None
        self.checksum_seconds = 0.0
        self.checksum_failures = 0

    def _publish_checksums(self, slot: np.ndarray) -> None:
        crc_row = self.data.crc[self.rank]
        for index, (chunk_start, chunk_end, _) in enumerate(self.schedule):
            crc_row[index] = zlib.crc32(slot[chunk_start:chunk_end])

    def _verify_chunk(self, index: int, chunk_start: int, chunk_end: int) -> None:
        grad, crc = self.data.grad, self.data.crc
        for other in range(self.world):
            expected = int(crc[other, index])
            actual = zlib.crc32(grad[other, chunk_start:chunk_end])
            if actual != expected:
                self.checksum_failures += 1
                raise CommIntegrityError(
                    f"gradient chunk {index} [{chunk_start}:{chunk_end}) from "
                    f"rank {other} failed its CRC32 check "
                    f"(expected {expected:#010x}, got {actual:#010x}) — "
                    f"corrupt bytes were NOT reduced")

    def __call__(self, params) -> float:
        start = time.perf_counter()
        injector, rank = self.fault_injector, self.rank
        if self.pre_reduce is not None:
            callback, self.pre_reduce = self.pre_reduce, None
            callback()
        slot = self.data.grad[rank]
        self.optimizer.gather_flat_grad(slot)
        crc_start = time.perf_counter()
        self._publish_checksums(slot)
        checksum_s = time.perf_counter() - crc_start
        if injector is not None:
            if injector.should_fire("shm_chunk_corruption", rank):
                # Perturb after the CRC was published: in-flight corruption
                # the verifier on the other side must catch.
                slot[0] += 1.0
            if injector.should_fire("barrier_timeout", rank):
                time.sleep(self.timeout_s + 1.0)
            if injector.should_fire("worker_crash_before_barrier", rank):
                import os
                os._exit(17)
        wait_barrier(self.barriers.grads, self.timeout_s, "grads")
        grad, reduced, world = self.data.grad, self.data.reduced, self.world
        for index, (chunk_start, chunk_end, owner) in enumerate(self.schedule):
            if owner != rank:
                continue
            crc_start = time.perf_counter()
            self._verify_chunk(index, chunk_start, chunk_end)
            checksum_s += time.perf_counter() - crc_start
            segment = reduced[chunk_start:chunk_end]
            np.copyto(segment, grad[0, chunk_start:chunk_end])
            for other in range(1, world):
                segment += grad[other, chunk_start:chunk_end]
            if world > 1:
                segment /= world
        wait_barrier(self.barriers.reduced, self.timeout_s, "reduced")
        if injector is not None and injector.should_fire(
                "worker_crash_after_barrier", rank):
            import os
            os._exit(18)
        self.optimizer.scatter_flat_grad(reduced)
        self.checksum_seconds += checksum_s
        return time.perf_counter() - start
