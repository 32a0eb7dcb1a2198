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
* :class:`PlanPool` — the process's rewritable plan memory (see "Shared plan
  memory" below), and :class:`PlanBinding`, one recording's claim on it.

**Shared plan memory.**  A keyed plan buffer — one a kernel takes
uninitialised, so the entry being bound rewrites it whole on every replay
before anything reads it — holds nothing between steps; nor do the
forward-only slab, the scratch pool and the backward tape (the buffers the
recorded backward took, which every replayed backward takes again in order;
the optimizer reads the gradients among them before the next step begins).
So every capture's recording binds those to blocks of one process-wide
:class:`PlanPool`, and plans of different signatures share bytes.  Each
allocation takes a whole block, one allocation per block, so one plan's
buffers never overlap.  Before it records, a :class:`PlanBinding` matches
the bytes the recording is expected to take (its *demand*: what the
capture's last recording took, or what its learning run took plus a gradient
per trainable leaf) to the blocks live plans hold, largest first, each to
the smallest block that fits.  If all of it fits, the recording only shares.
If not, it *grows* the pool: it takes only blocks within :data:`GROW_SLACK`
of a buffer's size, allocates the rest, and *supersedes* every block it
left.  No later recording takes a superseded block, and a capture whose plan
holds one drops that plan at its next step and records once more, over the
pool's blocks (its own unsuperseded ones among them, held by the plan that
superseded the rest), and supersedes nothing then.
So after warm-up the pool holds about one largest signature's plan memory,
whatever order the signatures arrive in, and a re-recording never sets off
another.  A recording made while no other plan is live finds no blocks and
allocates each buffer on its own, as plain ``np.empty`` would.  State a
kernel binds once at record time is zero-filled and stays private to its
plan (:func:`plan_alloc`), on arrays of the plan's binding.

A step that drops its plan and records the next one — a mask refresh,
moved layouts, a rebind, a replay that raised — *carries* the dropped
plan's memory into the recording: its unsuperseded blocks that no live
plan holds, and its private arrays.  The binding matches its demand to
those blocks by exact size before anything else, and hands a private
array of exactly the bytes a zero-filled buffer asks for, zeroed again.
What the forward did not take goes when the forward ends
(:meth:`PlanBinding.settle`), except as many blocks of each size as the
dropped plan's backward took, which the recorded backward takes again.
Buffers whose size follows the layouts are allocated at a capacity that
only grows (the neuron-sparse MLP's,
:mod:`repro.sparsity.ops.neuron_sparse`), so a re-recording after warm-up
takes the memory its dropped plan held and allocates nothing.

The contract that makes the sharing safe: no plan buffer of a captured
step is read once another captured step in the process has begun.  Every
captured step runs to its end before the next one starts (nothing in the
package threads steps), and a step reads what it returns (the loss value)
before it returns.

The recorder switch lives here (lowest layer) so ``tensor.py`` and the fused
kernels can consult it without import cycles; the step-level lifecycle —
when to record, when to replay, when to invalidate — is owned by
:class:`repro.runtime.capture.StepCapture`.
"""

from __future__ import annotations

import bisect
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.tensor import arena as _arena

__all__ = [
    "ForwardEntry",
    "ForwardRecorder",
    "ForwardPlan",
    "PlanBinding",
    "PlanPool",
    "SlabPlan",
    "plan_pool",
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


# How far over a buffer's bytes a block that a growing recording takes may be.
GROW_SLACK = 0.125


class _Block:
    """One allocation of the plan pool and how many live bindings hold it."""

    __slots__ = ("data", "holders", "superseded")

    def __init__(self, nbytes: int):
        self.data = np.empty(nbytes, np.uint8)
        self.holders = 0
        self.superseded = False


class PlanBinding:
    """One recording's blocks of a :class:`PlanPool` (see the module
    docstring).  :meth:`take` hands out a buffer on a block; :meth:`release`
    gives the blocks back when the plan is dropped (or the binding is
    collected).

    ``demand`` — the bytes the recording is expected to take, in any order
    — is matched up front.  First, each item to a ``carried`` block of
    exactly its bytes: a dropped plan's blocks that no live binding holds,
    which a re-recording of its step takes again.  Then the rest to the
    pool's free blocks, largest first, each to the smallest block that
    fits it: matching in arrival order would spend the large blocks on the
    small buffers a forward takes first.  A recording whose demand does not
    all fit *grows* the pool, if ``grow`` allows it: it takes only blocks
    within :data:`GROW_SLACK` of a buffer's bytes, allocates the rest anew,
    and supersedes every block it left, so that the plans holding those
    record again over its blocks.  ``taken`` lists the bytes of every take,
    the demand of the plan's next recording.  ``stale`` says a later
    recording superseded one of the blocks.

    ``backward`` lists the bytes the recorded backward is expected to take
    (the dropped plan's backward tape; after :meth:`finish`, this
    recording's own).  :meth:`settle`, when the forward ends, lets go of
    the carried blocks the forward did not take but for as many of each
    size as ``backward`` lists; a carried block of such a size that no
    demand was matched to is kept too, for the backward's takes to
    best-fit.  Carried blocks of any other size go at once.

    :meth:`zeros` hands out the plan's private zero-filled state, on arrays
    of the binding's own (``private``): a ``carried_private`` one of
    exactly the bytes asked for, zero-filled again, or a fresh one.
    """

    __slots__ = ("blocks", "taken", "stale", "private", "backward", "_pool",
                 "_planned", "_free", "_sizes", "_reserve", "_spare",
                 "_settled", "_release", "__weakref__")

    def __init__(self, pool: "PlanPool", free: Sequence[_Block],
                 demand: Sequence[int] = (), grow: bool = True,
                 carried: Iterable[_Block] = (),
                 carried_private: Iterable[np.ndarray] = (),
                 backward: Sequence[int] = ()):
        self.blocks: List[_Block] = []
        self.taken: List[int] = []
        self.stale = False
        self.private: List[np.ndarray] = []
        self.backward: List[int] = list(backward)
        self._pool = pool
        self._release = weakref.finalize(self, pool._drop, self.blocks)
        self._release.atexit = False
        self._settled = 0
        self._spare: Dict[int, List[np.ndarray]] = {}
        for raw in carried_private:
            self._spare.setdefault(raw.nbytes, []).append(raw)
        by_size: Dict[int, List[_Block]] = {}
        for block in carried:
            if not block.holders and not block.superseded:
                by_size.setdefault(block.data.nbytes, []).append(block)
        exact: Dict[int, List[_Block]] = {}
        rest = []
        for nbytes in demand:
            blocks = by_size.get(nbytes)
            if blocks:
                exact.setdefault(nbytes, []).append(blocks.pop())
            else:
                rest.append(nbytes)
        wanted = set(self.backward)
        self._reserve = [block for nbytes, blocks in by_size.items()
                         if nbytes in wanted for block in blocks]
        free = sorted(free, key=lambda block: block.data.nbytes)
        self._match(free, rest, None)
        if grow and free and sum(map(len, self._planned.values())) < len(rest):
            # Some of the demand fits nowhere: grow the pool.
            self._match(free, rest, GROW_SLACK)
            if self._free:
                for block in self._free:
                    block.superseded = True
                self._free, self._sizes = [], []
                pool._supersede()
        for nbytes, blocks in exact.items():
            # Last, so that takes pop the carried blocks first.
            self._planned.setdefault(nbytes, []).extend(blocks)

    def _match(self, free: List[_Block], demand: Sequence[int],
               slack: Optional[float]) -> None:
        """Plan ``demand`` onto ``free``, largest first, each item onto the
        smallest block that fits it (within ``slack`` of its bytes, if
        given); the blocks left over stay free."""
        self._free = list(free)
        self._sizes = [block.data.nbytes for block in free]
        self._planned: Dict[int, List[_Block]] = {}
        for nbytes in sorted(demand, reverse=True):
            block = self._best_fit(nbytes, slack)
            if block is not None:
                self._planned.setdefault(nbytes, []).append(block)

    def _best_fit(self, nbytes: int, slack: Optional[float] = None) -> Optional[_Block]:
        """Remove and return the smallest free block of ``nbytes`` or more
        (and no more than ``slack`` over, if given)."""
        i = bisect.bisect_left(self._sizes, nbytes)
        if i == len(self._free) or (
                slack is not None and self._sizes[i] > nbytes * (1 + slack)):
            return None
        del self._sizes[i]
        return self._free.pop(i)

    def take(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialised ``shape``/``dtype`` buffer at the start of the
        block planned for its bytes, of the smallest free block that fits,
        or of a new block."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if not nbytes:
            return np.empty(shape, dtype)
        planned = self._planned.get(nbytes)
        block = planned.pop() if planned else self._best_fit(nbytes)
        if block is None:
            block = _Block(nbytes)
            self._pool.allocations += 1
        self._pool._hold(block)
        self.blocks.append(block)
        self.taken.append(nbytes)
        return np.ndarray(shape, dtype, buffer=block.data)

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        """A zero-filled ``shape``/``dtype`` buffer on a private array: a
        carried one of exactly its bytes, zeroed again, or a fresh one."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if not nbytes:
            return np.zeros(shape, dtype)
        spare = self._spare.get(nbytes)
        if spare:
            raw = spare.pop()
            raw.fill(0)
        else:
            raw = np.zeros(nbytes, np.uint8)
        self.private.append(raw)
        return np.ndarray(shape, dtype, buffer=raw)

    def settle(self) -> None:
        """The forward has taken its last buffer: let go of the carried
        memory it did not take, but for the blocks the backward is expected
        to take (see the class docstring)."""
        self._settled = len(self.taken)
        wanted: Dict[int, int] = {}
        for nbytes in self.backward:
            wanted[nbytes] = wanted.get(nbytes, 0) + 1
        for nbytes, blocks in self._planned.items():
            kept = []
            for block in blocks:
                if not block.holders:               # carried, not taken
                    if not wanted.get(nbytes):
                        continue
                    wanted[nbytes] -= 1
                kept.append(block)
            blocks[:] = kept
        free = self._free + self._reserve
        free.sort(key=lambda block: block.data.nbytes)
        self._free, self._sizes = free, [block.data.nbytes for block in free]
        self._reserve, self._spare = [], {}

    def finish(self) -> None:
        """The recording has taken its last buffer: its backward took the
        bytes after :meth:`settle`'s, and the free blocks it did not take
        go (a dropped plan's would stay alive)."""
        self.backward = self.taken[self._settled:]
        self._free, self._sizes, self._planned = [], [], {}

    def release(self) -> List[_Block]:
        """Stop holding the blocks (idempotent); returns the ones no
        recording superseded and no live binding holds, which a
        re-recording may take again: those it took and the carried ones it
        still keeps.  The private arrays stay in ``private`` for it to take
        too."""
        kept = [block for block in self.blocks if not block.superseded]
        self._release()
        kept += [block for block in (*(b for blocks in self._planned.values()
                                       for b in blocks),
                                     *self._free, *self._reserve)
                 if not block.holders and not block.superseded]
        self.blocks, self._free, self._sizes, self._planned = [], [], [], {}
        self._reserve, self._spare = [], {}
        return kept


class PlanPool:
    """The blocks live plans bind their rewritable memory to (see the module
    docstring); ``resident_bytes`` is their distinct bytes, ``allocations``
    how many blocks were ever allocated."""

    __slots__ = ("_resident", "_bindings", "resident_bytes", "allocations")

    def __init__(self) -> None:
        self._resident: Dict[_Block, None] = {}   # held blocks, first hold first
        self._bindings: List[weakref.ref] = []
        self.resident_bytes = 0
        self.allocations = 0

    def bind(self, demand: Sequence[int] = (), grow: bool = True,
             carried: Iterable[_Block] = (),
             carried_private: Iterable[np.ndarray] = (),
             backward: Sequence[int] = ()) -> PlanBinding:
        """A binding for a recording expected to take ``demand`` bytes, over
        the ``carried`` blocks and private arrays of the plan it replaces
        (whose backward took ``backward`` bytes) and every unsuperseded
        block a live binding holds; ``grow`` lets it supersede blocks (see
        :class:`PlanBinding`)."""
        free = [block for block in self._resident if not block.superseded]
        binding = PlanBinding(self, free, demand, grow, carried,
                              carried_private, backward)
        self._bindings = [ref for ref in self._bindings if ref() is not None]
        self._bindings.append(weakref.ref(binding))
        return binding

    def _supersede(self) -> None:
        """Mark every live binding that holds a superseded block stale."""
        for ref in self._bindings:
            binding = ref()
            if binding is not None and any(block.superseded
                                           for block in binding.blocks):
                binding.stale = True

    def _hold(self, block: _Block) -> None:
        if not block.holders:
            self._resident[block] = None
            self.resident_bytes += block.data.nbytes
        block.holders += 1

    def _drop(self, blocks: List[_Block]) -> None:
        for block in blocks:
            block.holders -= 1
            if not block.holders:
                del self._resident[block]
                self.resident_bytes -= block.data.nbytes


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
    Given a ``binding``, every other uninitialised buffer, the slab and the
    scratch pool's buffers are taken from it (:class:`PlanBinding`);
    without one they are plain arrays.

    What a recording keeps goes through four methods a subclass may
    override: :meth:`record` (the entry), :meth:`build` (a grad-carrying
    node), ``_keep`` (a fresh plan buffer) and ``_next_entry``.
    """

    __slots__ = ("entries", "created", "noted", "built", "failed",
                 "fail_reason", "scratch", "buffers", "keys", "slab_plan",
                 "slab", "slots", "binding", "_fresh", "_site")

    def __init__(self, slab_plan: Optional[SlabPlan] = None,
                 binding: Optional[PlanBinding] = None) -> None:
        self.entries: List[ForwardEntry] = []
        self.binding = binding
        self._fresh = np.empty if binding is None else binding.take
        # The plan's scratch pool (see :func:`emit`): it lives as long as
        # this recording, and its buffers as long as the thunks bound to them.
        self.scratch = _arena.BufferArena(self._fresh)
        self.buffers: List[np.ndarray] = []
        self.keys: List[Optional[Tuple[int, int]]] = []
        self.slab_plan = slab_plan
        self.slab: Optional[np.ndarray] = None
        self.slots: List[Tuple[np.ndarray, int]] = []
        if slab_plan is not None:
            # Float32 words, like the activations it holds; slots are byte
            # ranges of it.
            self.slab = self._fresh(-(-slab_plan.nbytes // 4), np.float32)
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
        or a fresh one (the binding's, if any) listed in :attr:`buffers`."""
        key = self._key()
        slot = None if self.slab_plan is None else self.slab_plan.slots.get(key)
        if slot is not None and slot[:2] == _arena.BufferArena._key(shape, dtype):
            shape, dtype, offset, last = slot
            size = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            view = self.slab.view(np.uint8)[offset:offset + size].view(
                dtype).reshape(shape)
            self.slots.append((view, last))
            return view
        buf = self._fresh(shape, dtype)
        self._keep(buf, key)
        return buf

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        """A zero-filled plan buffer, private to the plan (the binding's, if
        any), listed in :attr:`buffers`."""
        self._key()
        buf = (np.zeros if self.binding is None else self.binding.zeros)(shape, dtype)
        self._keep(buf, None)
        return buf

    def owned(self) -> Tuple[np.ndarray, ...]:
        """Every array the recorded plan owns, each once: its plan buffers
        and its scratch pool's."""
        return tuple(self.buffers) + self.scratch.buffers()

    def keyed(self) -> Tuple[np.ndarray, ...]:
        """The plan buffers every replay rewrites before reading them: the
        uninitialised ones and the slab."""
        return tuple(buf for buf, key in zip(self.buffers, self.keys)
                     if key is not None) + (() if self.slab is None else (self.slab,))

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
# The process's one pool of rewritable plan memory (see the module docstring).
_POOL = PlanPool()


def recorder() -> Optional[ForwardRecorder]:
    """The recorder currently collecting forward entries (None = off)."""
    return _RECORDER


def set_recorder(rec: Optional[ForwardRecorder]) -> Optional[ForwardRecorder]:
    """Install ``rec`` as the active recorder; returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = rec
    return previous


def plan_pool() -> PlanPool:
    """The process-wide pool every capture's recordings bind to."""
    return _POOL


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
    last entry that reads it (:attr:`ForwardRecorder.slots`); ``keyed`` the
    buffers every replay rewrites before reading them
    (:meth:`ForwardRecorder.keyed`).  Those and the scratch hold nothing
    between steps, which is what lets plans share them (the module
    docstring's shared plan memory).
    """

    __slots__ = ("entries", "buffers", "scratch", "slots", "keyed")

    def __init__(self, entries: Sequence[ForwardEntry],
                 buffers: Sequence[np.ndarray] = (),
                 scratch: Sequence[np.ndarray] = (),
                 slots: Sequence[Tuple[np.ndarray, int]] = (),
                 keyed: Sequence[np.ndarray] = ()):
        self.entries: Tuple[ForwardEntry, ...] = tuple(entries)
        self.buffers: Tuple[np.ndarray, ...] = tuple(buffers)
        self.scratch: Tuple[np.ndarray, ...] = tuple(scratch)
        self.slots: Tuple[Tuple[np.ndarray, int], ...] = tuple(slots)
        self.keyed: Tuple[np.ndarray, ...] = tuple(keyed)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self.buffers)

    def run(self) -> None:
        """Replay every entry in recorded order."""
        for entry in self.entries:
            entry.run()
