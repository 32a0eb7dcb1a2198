"""Shape/dtype-keyed buffer arena with generation-based recycling.

PEFT fine-tuning runs thousands of steps with bit-identical shapes, yet the
seed tape allocated fresh output and temporary ndarrays for every op of every
step — for buffers past glibc's mmap threshold that means an mmap/munmap pair
plus a page-fault storm per allocation, every step, forever.  The arena turns
that steady state into buffer *reuse*:

* :meth:`BufferArena.take` returns a buffer for ``(shape, dtype)`` — recycled
  from the free pool when one is available (a *hit*), freshly allocated
  otherwise (a *miss*).  At steady state every take hits and the per-step
  allocation count is zero.
* **Generations** delimit training steps: :meth:`BufferArena.next_generation`
  returns every buffer handed out during the previous step to the free pool
  wholesale.  This is safe because step ``N``'s activations and gradients are
  dead once step ``N + 1`` begins (the trainer zeroes gradients at the end of
  each step); it is the CUDA-graph memory-pool discipline realised for a
  NumPy tape.  The same boundary bounds the pool: it keeps only the keys
  the finished step took and drops (counting in ``evictions``) the free
  list of every other key.  So buffers of shapes a sparsity refresh
  retired go at the next boundary, a key the steady state takes keeps as
  many buffers as it ever had out at once, and a key that only refresh
  steps take is allocated again at each refresh.
* :meth:`BufferArena.release` returns a buffer *mid-generation* — the
  liveness seam.  Ops release their dead temporaries (softmax row maxima, the
  backward's dS buffers, consumed saved activations), and the autograd loop
  releases every gradient at its last use: once its consumer's closure has
  run, once it is summed into an accumulation buffer (either operand), or
  as soon as it is produced for a parent that takes no gradient.  What goes
  back is the buffer that owns the gradient's memory — closures hand
  gradients on as ``reshape`` / ``transpose`` views — and only while no
  pending gradient overlaps that memory (see
  :meth:`repro.tensor.Tensor.backward`).  Non-overlapping buffers therefore
  share storage within one step: layer ``k``'s backward reuses the very
  buffers layer ``k + 1`` just finished with, which both bounds peak memory
  and keeps the working set cache-hot.  When the optimizer runs, the only
  buffers still out are the parameters' gradients.

The module also owns the *active arena* switch the allocation seams consult:
:func:`empty` / :func:`zeros` route through the active arena when one is
installed (capture mode) and degrade to plain ``np.empty`` / ``np.zeros``
otherwise.  Every kernel is one function body over buffers from this seam
(or plan-owned ones while a forward is being recorded, see
:func:`repro.tensor.plan.emit`), so captured and uncaptured execution differ
only in the provenance of their buffers — which is what makes the modes
bitwise identical.  A recorded forward's kernel *scratch* does not come from
here: it comes from a pool of the plan being recorded
(:func:`repro.tensor.plan.scratch_alloc`), one ``BufferArena`` that lives
only as long as the recording and allocates its misses from the recording's
blocks of the process's plan pool, so the kernels of one plan share one set
of scratch, and plans of other signatures share its bytes.  The capture
step's backward runs over a *taping* ``BufferArena`` on those blocks too:
the buffers it hands out, in take order, are the plan's backward tape,
and every replay of that backward takes them again, in order, from a
:class:`TapeArena`, which looks up no key and takes nothing back.  A view
of a buffer on a block has the block as its ``.base``, so the arena maps
each block to the buffer it took there (:meth:`BufferArena.buffer_on`).

This module lives in ``repro.tensor`` (the lowest layer) so the tensor core
and the fused kernels can import it without cycles; the step capture that
installs an arena around each step is
:class:`repro.runtime.capture.StepCapture`.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "BufferArena",
    "TapeArena",
    "TapeDivergence",
    "active",
    "set_active",
    "scope",
    "empty",
    "zeros",
    "release",
]


class BufferArena:
    """Pool of ndarrays keyed by ``(shape, dtype)`` with generation recycling."""

    __slots__ = ("_free", "_used", "_taken", "_alloc", "_roots", "tape",
                 "generation", "takes", "hits", "misses", "bytes_held",
                 "evictions")

    # Whether buffers come back mid-generation (see :class:`TapeArena`).
    recycles = True

    def __init__(self, alloc=np.empty, tape: bool = False) -> None:
        # What a miss allocates from: ``alloc(shape, dtype)``, uninitialised.
        self._alloc = alloc
        self._free: Dict[Tuple, List[np.ndarray]] = {}
        self._used: Dict[int, Tuple[Tuple, np.ndarray]] = {}
        self._taken: Set[Tuple] = set()   # keys taken since the last boundary
        # A miss that ``alloc`` made as a view of a larger array (a plan-pool
        # block), by that array's id: NumPy collapses the ``.base`` of a view
        # of the buffer to the block, so this is how one finds the buffer.
        self._roots: Dict[int, np.ndarray] = {}
        # With ``tape``, every buffer handed out, in take order.
        self.tape: Optional[List[np.ndarray]] = [] if tape else None
        self.generation = 0
        self.takes = 0
        self.hits = 0
        self.misses = 0
        self.bytes_held = 0           # current footprint of the whole pool
        self.evictions = 0

    def _push_free(self, key: Tuple, buf: np.ndarray) -> None:
        lst = self._free.get(key)
        if lst is None:
            self._free[key] = [buf]
        else:
            lst.append(buf)

    @staticmethod
    def _key(shape, dtype) -> Tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def take(self, shape, dtype=np.float32, zero: bool = False) -> np.ndarray:
        """Return a buffer of ``shape``/``dtype`` (recycled when possible).

        With ``zero=True`` the buffer is zero-filled; otherwise its contents
        are undefined (like ``np.empty``) and the caller must fully overwrite
        it — every allocation seam in the stack is written that way.
        """
        key = self._key(shape, dtype)
        self.takes += 1
        self._taken.add(key)
        free = self._free.get(key)
        if free:
            buf = free.pop()
            self.hits += 1
            if zero:
                buf.fill(0)
        else:
            self.misses += 1
            if self._alloc is np.empty:   # np.zeros keeps calloc's zero pages
                buf = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
            else:
                buf = self._alloc(shape, dtype)
                if buf.base is not None:
                    self._roots[id(buf.base)] = buf
                if zero:
                    buf.fill(0)
            self.bytes_held += buf.nbytes
        self._used[id(buf)] = (key, buf)
        if self.tape is not None:
            self.tape.append(buf)
        return buf

    def release(self, buf: np.ndarray) -> bool:
        """Return ``buf`` to the free pool mid-generation (liveness reuse).

        Only buffers handed out by :meth:`take` in the current generation are
        accepted (identity-matched); anything else — views, foreign arrays —
        is ignored, so callers can release opportunistically.
        """
        entry = self._used.pop(id(buf), None)
        if entry is None:
            return False
        key, owned = entry
        self._push_free(key, owned)
        return True

    def owns(self, buf: np.ndarray) -> bool:
        """Whether ``buf`` is a live arena buffer of the current generation."""
        return id(buf) in self._used

    def buffer_on(self, root: np.ndarray) -> Optional[np.ndarray]:
        """The live buffer of the current generation whose memory is
        ``root``'s — ``root`` itself, or the buffer a miss took on it (a
        plan-pool block) — or None.  ``root`` owns its memory: it is the end
        of a chain of views."""
        buf = self._roots.get(id(root), root)
        return buf if id(buf) in self._used else None

    def outstanding(self) -> Tuple[np.ndarray, ...]:
        """The buffers handed out and not yet taken back."""
        return tuple(buf for _, buf in self._used.values())

    def next_generation(self) -> None:
        """Recycle every outstanding buffer and drop the free list of every
        key the finished step did not take; call at each step boundary."""
        for key, buf in self._used.values():
            self._push_free(key, buf)
        self._used.clear()
        for key in [key for key in self._free if key not in self._taken]:
            dead = self._free.pop(key)
            self.evictions += len(dead)
            self.bytes_held -= sum(buf.nbytes for buf in dead)
        self._taken.clear()
        self.generation += 1

    def buffers(self) -> Tuple[np.ndarray, ...]:
        """Every buffer the pool holds, free or handed out."""
        return (tuple(buf for lst in self._free.values() for buf in lst)
                + tuple(buf for _, buf in self._used.values()))

    def hit_rate(self) -> float:
        return self.hits / self.takes if self.takes else 0.0


class TapeDivergence(RuntimeError):
    """A replayed backward asked its :class:`TapeArena` for a buffer the
    recorded backward did not take at that point."""


class TapeArena:
    """A recorded backward's takes, handed out again in the same order.

    ``buffers`` is the tape: every buffer a taping :class:`BufferArena`
    handed out while the capture step's backward ran, in take order (one
    released and taken again is listed again).  A replay of that backward
    runs the same closures in the same order, so its ``n``-th take is the
    recording's ``n``-th: :meth:`take` checks the shape and dtype, zero-fills
    when asked, and returns it.  Nothing goes back mid-step — the tape
    already reuses what the recording's releases freed — so :meth:`release`
    and :meth:`owns` refuse everything, and no free list or overlap scan
    runs.  Any other take, or a backward that ends short of the tape, raises
    :class:`TapeDivergence`.  ``live`` are the buffers still out when the
    recorded backward ended: the gradients it leaves the optimizer.
    """

    __slots__ = ("buffers", "live", "nbytes", "_next")

    recycles = False

    def __init__(self, buffers, live=()) -> None:
        self.buffers: Tuple[np.ndarray, ...] = tuple(buffers)
        self.live: Tuple[np.ndarray, ...] = tuple(live)
        # The distinct buffers' bytes.
        self.nbytes = sum(buf.nbytes for buf in self.distinct())
        self._next = 0

    def distinct(self) -> Tuple[np.ndarray, ...]:
        """The tape's buffers, each once."""
        return tuple({id(buf): buf for buf in self.buffers}.values())

    def rewind(self) -> "TapeArena":
        """Start a replay: the next take is the tape's first."""
        self._next = 0
        return self

    def take(self, shape, dtype=np.float32, zero: bool = False) -> np.ndarray:
        n = self._next
        if n == len(self.buffers):
            raise TapeDivergence(f"backward tape overrun: take {n + 1} of a "
                                 f"{n}-take tape")
        buf = self.buffers[n]
        if buf.shape != tuple(shape) or buf.dtype != np.dtype(dtype):
            raise TapeDivergence(
                f"backward tape take {n} asked for {tuple(shape)} "
                f"{np.dtype(dtype)}, the tape holds {buf.shape} {buf.dtype}")
        self._next = n + 1
        if zero:
            buf.fill(0)
        return buf

    def finish(self) -> None:
        """End a replay; raises if it took fewer buffers than the tape."""
        if self._next != len(self.buffers):
            raise TapeDivergence(f"backward tape underrun: {self._next} of "
                                 f"{len(self.buffers)} takes")

    def release(self, buf: np.ndarray) -> bool:
        return False

    def owns(self, buf: np.ndarray) -> bool:
        return False

    def outstanding(self) -> Tuple[np.ndarray, ...]:
        """The buffers this replay has taken so far: a tape takes none back."""
        return self.buffers[:self._next]


# ---------------------------------------------------------------------------
# active-arena switch consulted by the allocation seams
# ---------------------------------------------------------------------------

_ACTIVE: Optional[BufferArena] = None


def active() -> Optional[BufferArena]:
    """The arena currently backing the allocation seams (None = plain NumPy)."""
    return _ACTIVE


def set_active(arena: Optional[BufferArena]) -> Optional[BufferArena]:
    """Install ``arena`` as the active arena; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = arena
    return previous


@contextlib.contextmanager
def scope(arena: Optional[BufferArena]) -> Iterator[Optional[BufferArena]]:
    """Context manager installing ``arena`` for the duration."""
    previous = set_active(arena)
    try:
        yield arena
    finally:
        set_active(previous)


def empty(shape, dtype=np.float32) -> np.ndarray:
    """Arena-aware ``np.empty``: recycled buffer when an arena is active."""
    arena = _ACTIVE
    if arena is not None:
        return arena.take(shape, dtype)
    return np.empty(shape, dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    """Arena-aware ``np.zeros`` (recycled buffers are re-zeroed on reuse)."""
    arena = _ACTIVE
    if arena is not None:
        return arena.take(shape, dtype, zero=True)
    return np.zeros(shape, dtype)


def release(*bufs: np.ndarray) -> None:
    """Return dead temporaries to the active arena (no-op without one)."""
    arena = _ACTIVE
    if arena is not None:
        for buf in bufs:
            arena.release(buf)
