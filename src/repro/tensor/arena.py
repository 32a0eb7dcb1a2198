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
of scratch, and plans of other signatures share its bytes.

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
    "active",
    "set_active",
    "scope",
    "empty",
    "zeros",
    "release",
]


class BufferArena:
    """Pool of ndarrays keyed by ``(shape, dtype)`` with generation recycling."""

    __slots__ = ("_free", "_used", "_taken", "_alloc", "generation", "takes",
                 "hits", "misses", "bytes_held", "evictions")

    def __init__(self, alloc=np.empty) -> None:
        # What a miss allocates from: ``alloc(shape, dtype)``, uninitialised.
        self._alloc = alloc
        self._free: Dict[Tuple, List[np.ndarray]] = {}
        self._used: Dict[int, Tuple[Tuple, np.ndarray]] = {}
        self._taken: Set[Tuple] = set()   # keys taken since the last boundary
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
                if zero:
                    buf.fill(0)
            self.bytes_held += buf.nbytes
        self._used[id(buf)] = (key, buf)
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
