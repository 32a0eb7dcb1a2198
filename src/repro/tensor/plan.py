"""Forward-plan recording: compile one step's kernel calls into a flat plan.

A steady-state training step re-runs the same forward over the same shapes,
rebuilding ``Tensor`` objects and closures every time.  This module supplies
the forward half of the full-step compiler (the backward half is the capture
step's DFS schedule, retained with its graph):

* :class:`ForwardRecorder` — installed around the capture step's forward via
  :func:`set_recorder`.  Every instrumented op seam (``_binary_out``,
  ``_matmul_out``, the fused kernels, the sparse custom ops) *records* a
  zero-argument replay thunk over buffers it bound exactly once; pure views
  (``transpose``, contiguous ``reshape``) are *noted* so the coverage check
  still balances.  ``Tensor._make`` independently counts every graph node
  built while a recorder is installed, and keeps the ids of the
  grad-carrying ones; recording only succeeds when ``created == noted`` —
  any op the seams do not cover (reference-mode softmax, fancy indexing,
  vector matmuls) makes the step run interpreted instead of silently
  replaying a partial forward.
* :class:`ForwardPlan` — the compiled result: the recorded thunks, in
  recorded order.  ``run()`` calls them one after another.  Each thunk *is*
  its kernel's only forward body (:func:`emit`): the interpreted forward
  calls the same function over arena buffers, so replay is bitwise identical
  to it by construction.
* :class:`SlabPlan` — where a recording's forward-only buffers live: byte
  offsets into one slab, learned by the capture from an earlier, learning
  run of the same forward (:class:`repro.runtime.capture.SlabLearner`, a
  recorder that keeps nothing it records).  A recorder given
  one hands those allocations out as views of its slab, so buffers whose
  forward lifetimes never meet share bytes; every other buffer stays a
  fresh array of its own.

The recorder switch lives here (lowest layer) so ``tensor.py`` and the fused
kernels can consult it without import cycles; the step-level lifecycle —
when to record, when to replay, when to invalidate — is owned by
:class:`repro.runtime.capture.StepCapture`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.tensor import arena as _arena

__all__ = [
    "ForwardEntry",
    "ForwardRecorder",
    "ForwardPlan",
    "SlabPlan",
    "recorder",
    "set_recorder",
]


class ForwardEntry:
    """One recorded kernel call: a replay thunk and a tag naming the kernel."""

    __slots__ = ("run", "tag")

    def __init__(self, run: Callable[[], None], tag: str = ""):
        self.run = run
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ForwardEntry({self.tag or 'op'})"


class SlabPlan:
    """Byte offsets of a recording's forward-only buffers in one shared slab.

    ``slots`` maps an allocation's key — the index of the entry being bound
    when it was made and its ordinal among that entry's allocations — to
    ``(shape, dtype, offset, last)``: the buffer the key must ask for (as
    :class:`repro.tensor.arena.BufferArena` keys it), where it starts in the
    slab, and the last forward entry that reads it.  No backward closure
    reads a slot, so its bytes are free again once entry ``last`` has run.
    ``nbytes`` is the slab's size; ``tags`` the entry tags of the recording
    the plan was learned from, which a later recording must repeat for the
    plan to apply.
    """

    __slots__ = ("slots", "nbytes", "tags")

    def __init__(self, slots, nbytes: int, tags: Sequence[str]):
        self.slots: Dict[Tuple[int, int], Tuple[tuple, str, int, int]] = dict(slots)
        self.nbytes = int(nbytes)
        self.tags: Tuple[str, ...] = tuple(tags)


class ForwardRecorder:
    """Collects :class:`ForwardEntry` thunks during one capture forward.

    ``created`` is incremented by ``Tensor._make`` for *every* node built
    while the recorder is installed (frozen-region ops included — staged
    inputs change between replays, so even ``requires_grad=False`` compute
    must be replayed).  ``noted`` is incremented once per op seam that either
    recorded an entry or declared itself a pure view.  The two must balance
    for the plan to be trusted; see :meth:`ok`.  ``built`` holds the ids of
    the grad-carrying nodes among them: a retained backward schedule that
    reaches any other interior node would re-run a closure no replay
    refreshes, so the capture step does not compile it.  ``buffers`` lists
    the plan buffers the kernels took through :func:`plan_alloc`, the slab
    once; ``keys`` holds the allocation key (see :class:`SlabPlan`) of each
    of them that was taken uninitialised (``None`` for a zero-filled one).

    Given a ``slab_plan``, an uninitialised allocation whose key and shape
    match a slot is a view of :attr:`slab` at the slot's offset, listed in
    :attr:`slots` as ``(view, last)`` with the slot's last forward reader.

    What a recording keeps goes through four methods a subclass may
    override: :meth:`record` (the entry), :meth:`build` (a grad-carrying
    node), ``_keep`` (a fresh plan buffer) and ``_next_entry``.
    """

    __slots__ = ("entries", "created", "noted", "built", "failed",
                 "fail_reason", "scratch", "buffers", "keys", "slab_plan",
                 "slab", "slots", "_site")

    def __init__(self, slab_plan: Optional[SlabPlan] = None) -> None:
        self.entries: List[ForwardEntry] = []
        # The plan's scratch pool (see :func:`emit`): it lives as long as
        # this recording, and its buffers as long as the thunks bound to them.
        self.scratch = _arena.BufferArena()
        self.buffers: List[np.ndarray] = []
        self.keys: List[Optional[Tuple[int, int]]] = []
        self.slab_plan = slab_plan
        self.slab: Optional[np.ndarray] = None
        self.slots: List[Tuple[np.ndarray, int]] = []
        if slab_plan is not None:
            # Float32 words, like the activations it holds; slots are byte
            # ranges of it.
            self.slab = np.empty(-(-slab_plan.nbytes // 4), np.float32)
            self.buffers.append(self.slab)
            self.keys.append(None)
        self._site = (0, 0)
        self.created = 0
        self.noted = 0
        self.built: Set[int] = set()
        self.failed = False
        self.fail_reason = ""

    def record(self, run: Callable[[], None], tag: str = "") -> None:
        """Record one replayable kernel call (counts as one covered node)."""
        self.entries.append(ForwardEntry(run, tag))
        self.noted += 1

    def build(self, node) -> None:
        """Note ``node``, a grad-carrying graph node ``Tensor._make`` just
        built with its parents and backward closure."""
        self.built.add(id(node))

    def _next_entry(self) -> int:
        """The index the next recorded entry takes."""
        return len(self.entries)

    def _key(self) -> Tuple[int, int]:
        """The next allocation's key: (entry being bound, ordinal in it)."""
        entry, ordinal = self._site
        if entry != self._next_entry():
            entry, ordinal = self._next_entry(), 0
        self._site = (entry, ordinal + 1)
        return entry, ordinal

    def _keep(self, buf: np.ndarray, key: Optional[Tuple[int, int]]) -> None:
        """List a fresh plan buffer and its allocation key (None: zero-filled)."""
        self.buffers.append(buf)
        self.keys.append(key)

    def empty(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialised plan buffer: the slab view of a matching slot,
        or a fresh array listed in :attr:`buffers`."""
        key = self._key()
        slot = None if self.slab_plan is None else self.slab_plan.slots.get(key)
        if slot is not None and slot[:2] == _arena.BufferArena._key(shape, dtype):
            shape, dtype, offset, last = slot
            size = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            view = self.slab.view(np.uint8)[offset:offset + size].view(
                dtype).reshape(shape)
            self.slots.append((view, last))
            return view
        buf = np.empty(shape, dtype)
        self._keep(buf, key)
        return buf

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        """A fresh zero-filled plan buffer, listed in :attr:`buffers`."""
        self._key()
        buf = np.zeros(shape, dtype)
        self._keep(buf, None)
        return buf

    def owned(self) -> Tuple[np.ndarray, ...]:
        """Every array the recorded plan owns, each once: its plan buffers
        and its scratch pool's."""
        return tuple(self.buffers) + self.scratch.buffers()

    def note_view(self, count: int = 1) -> None:
        """Declare ``count`` nodes as pure views needing no replay work."""
        self.noted += count

    def fail(self, reason: str) -> None:
        """Mark the capture as non-replayable (op with no stable thunk)."""
        if not self.failed:
            self.failed = True
            self.fail_reason = reason

    def ok(self) -> bool:
        """Whether every node built during the forward is covered."""
        if self.failed:
            return False
        if self.created != self.noted:
            self.fail_reason = (f"forward coverage gap: {self.created} nodes "
                                f"built, {self.noted} covered")
            return False
        return True


# ---------------------------------------------------------------------------
# recorder switch consulted by the op seams
# ---------------------------------------------------------------------------

_RECORDER: Optional[ForwardRecorder] = None


def recorder() -> Optional[ForwardRecorder]:
    """The recorder currently collecting forward entries (None = off)."""
    return _RECORDER


def set_recorder(rec: Optional[ForwardRecorder]) -> Optional[ForwardRecorder]:
    """Install ``rec`` as the active recorder; returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = rec
    return previous


def plan_alloc(rec: Optional[ForwardRecorder], zero: bool = False):
    """The allocator for a kernel's own buffers: its outputs and whatever
    its ``run`` or its backward reads after the call.

    While ``rec`` records, that is an array the recording owns and lists
    (:meth:`ForwardRecorder.empty`) — fresh, or a view of its slab where a
    :class:`SlabPlan` places a forward-only buffer: the arena's generation
    recycling must never reclaim plan state, and the list is what the
    plan's byte count is taken from.  Otherwise it is the arena.  ``zero=True``
    zero-fills either way.  The sibling of :func:`scratch_alloc`.

    An uninitialised buffer is keyed, so a slab plan may place it: the run
    of the entry being bound must rewrite it whole on every replay, before
    anything reads it.  State a kernel binds once at record time and its
    ``run`` only reads — a weight gather, a negated mask — takes
    ``zero=True``: zero-filled buffers are never keyed.
    """
    if rec is not None:
        return rec.zeros if zero else rec.empty
    return _arena.zeros if zero else _arena.empty


def scratch_alloc(rec: Optional[ForwardRecorder]):
    """The allocator for a kernel's replay scratch: buffers its ``run`` fully
    rewrites before reading and no one reads after it returns.

    While ``rec`` records, that is the plan's own scratch pool, so kernels
    recorded one after another share one set of scratch (the four layers'
    attention workspaces are one workspace); otherwise it is the arena.
    Buffers a body *reads* but does not write — a mask negated once at
    record time, a bias gathered once — are not scratch: they take the
    kernel's ordinary allocator and stay the thunk's own.
    """
    return rec.scratch.take if rec is not None else _arena.empty


def emit(rec: Optional[ForwardRecorder], run: Callable[[], None], tag: str,
         *scratch) -> None:
    """Execute a kernel body once, then settle who keeps its buffers.

    Every forward kernel writes its NumPy calls exactly once, in a ``run``
    thunk over buffers it bound through one allocator choice,
    :func:`plan_alloc`: plan-owned while ``rec`` is recording, the arena's
    otherwise.  Recording
    keeps ``run`` as the replay entry and hands ``scratch`` back to the
    plan's scratch pool (:func:`scratch_alloc`), where the next recorded
    kernel takes it again: replay runs the entries one at a time, so their
    scratch never needs to coexist.  Interpreted execution hands ``scratch``
    back to the arena.  Either pool ignores buffers it did not hand out.
    Buffer provenance is the only difference between the two, which is what
    makes replay bitwise equal to the interpreted forward.
    """
    run()
    if rec is not None:
        rec.record(run, tag)
        for buf in scratch:
            rec.scratch.release(buf)
    else:
        _arena.release(*scratch)


# ---------------------------------------------------------------------------
# compiled plan
# ---------------------------------------------------------------------------

class ForwardPlan:
    """The recorded kernel calls over pre-bound buffers, in recorded order.

    ``buffers`` are the arrays the plan owns (:meth:`ForwardRecorder.owned`:
    its slab counted once, not its views); ``nbytes`` is their footprint.
    ``scratch`` is the scratch pool's share of them, which every entry
    rewrites before reading; ``slots`` are the slab views, each with the
    last entry that reads it (:attr:`ForwardRecorder.slots`).
    """

    __slots__ = ("entries", "buffers", "scratch", "slots")

    def __init__(self, entries: Sequence[ForwardEntry],
                 buffers: Sequence[np.ndarray] = (),
                 scratch: Sequence[np.ndarray] = (),
                 slots: Sequence[Tuple[np.ndarray, int]] = ()):
        self.entries: Tuple[ForwardEntry, ...] = tuple(entries)
        self.buffers: Tuple[np.ndarray, ...] = tuple(buffers)
        self.scratch: Tuple[np.ndarray, ...] = tuple(scratch)
        self.slots: Tuple[Tuple[np.ndarray, int], ...] = tuple(slots)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self.buffers)

    def run(self) -> None:
        """Replay every entry in recorded order."""
        for entry in self.entries:
            entry.run()
