"""Steady-state step capture: compile one step, then replay it.

PEFT fine-tuning is a steady-state workload — thousands of steps with
bit-identical shapes — yet every step of the seed runtime rebuilt the Python
autograd graph node by node, re-sorted it topologically, and allocated fresh
output/temporary ndarrays for every op.  :class:`StepCapture` captures that
steady state, CUDA-graph-style, for the NumPy autograd graph.  One capture
serves one step signature (input/label shapes, dtype, kernel toggles); the
:class:`~repro.runtime.trainer.FineTuner` keeps one for each of its most
recently stepped signatures and hands each step's forward and backward to
:meth:`StepCapture.run`, which decides everything below.

``run`` installs the capture's :class:`~repro.tensor.arena.BufferArena`
for the step and picks one of three paths from what the caller observes:
whether the kernels are the recordable fused ones, whether the sparsity
engine re-derives its masks this step (and its ``predict_interval``), and
the engine's layout state.  No option selects a path.  The first row that
matches decides:

==========================================  ===========  ===========
what the step observes                      the plan     the step
==========================================  ===========  ===========
reference kernels                           kept         interpreted
a mask refresh at ``predict_interval`` 1    dropped      interpreted
a mask refresh at ``predict_interval`` > 1  dropped      recorded
layouts moved since the plan was recorded   dropped      recorded
a plan on a superseded plan-pool block      dropped      recorded
a plan                                      kept         replayed
a plan whose replay raises                  dropped      recorded
no plan                                     —            recorded
==========================================  ===========  ===========

A step the table records runs interpreted instead once ``MAX_FAILURES``
recordings in a row failed to compile.

* **recorded** — the forward runs over persistent staging buffers under a
  :class:`~repro.tensor.plan.ForwardRecorder`, which keeps one replay thunk
  per forward kernel over buffers bound exactly once.  The backward runs
  its ordinary DFS schedule once and keeps the graph alive, over a fresh
  taping :class:`~repro.tensor.arena.BufferArena` whose misses are blocks
  of the recording's plan-pool binding: every buffer it hands out, in take
  order, is the plan's *backward tape*.  A recorder veto or coverage gap
  (every graph node built must be recorded or noted as a view), or a
  backward schedule reaching an interior node the recorded forward did
  not build, installs no plan: the backward runs plainly over the
  capture's arena, and why is kept in ``full_fail_reason``.
* **replayed** — stage inputs → run the flat ForwardPlan → execute the
  retained backward schedule over a :class:`~repro.tensor.arena.TapeArena`
  of the tape: its ``n``-th take is the recording's ``n``-th buffer and
  nothing is released, so no graph node is built, the step allocates
  nothing and no arena key, free list or overlap scan is touched.  The
  replayed order *is* the recorded order over the same buffers, so
  captured and uncaptured execution are bitwise identical (locked by the
  parity suite).  A replay that raises — a kernel, or a backward asking
  its tape for another buffer than the recording took
  (:class:`~repro.tensor.arena.TapeDivergence`) — clears the gradients its
  schedule's leaves got, drops the plan (counted in ``full_fallbacks``)
  and records the step again.
* **interpreted** — the forward and the DFS backward exactly as without
  capture, over recycled arena buffers, allocating nothing once warm.

A refresh step is the capture step because the probes and exposers that
derive the masks run between kernels as plain NumPy the recorder never
sees: the thunks close over layouts that hold until the next refresh, so a
block is one capture plus ``interval - 1`` replays, and dropping the plan
before the forward keeps a plan's buffers from ever living beside its
successor's.  Layouts that moved without a refresh of the signature's own —
adopted from another replica, or refreshed by another signature's step —
no longer match the plan's closed-over geometry.

Full-plan buffers are never takes of the capture's arena, so generation
recycling cannot reclaim live plan state: that arena serves interpreted
steps and a recording's forward-time takes, by its one recycling rule
(a step boundary keeps only the keys the finished step took, see
:mod:`repro.tensor.arena`).

**Shared plan memory.**  A plan's keyed buffers, its forward-only slab, its
scratch pool and its backward tape hold nothing between steps, so every
recording binds them to blocks of the process's one
:class:`~repro.tensor.plan.PlanPool` (:func:`~repro.tensor.plan.plan_pool`),
sharing bytes with the live plans of every other capture, in this tuner
or another (the matching rule is in :mod:`repro.tensor.plan`).
Zero-filled record-time state — weight gathers, drop masks, the class
chunks' staged K|V and Q grids — stays the plan's own.  A recording that
grows the pool supersedes the blocks it left, and a capture whose plan
holds a superseded block drops that plan at its next step and records
once more (counted in ``rebinds``), so after warm-up the process holds
about one largest signature's plan memory.  A signature's first recording
expects its learning run's bytes and a gradient per trainable leaf it
saw; a later one, its last recording's, tape included.  ``plan_bytes``
stays what the capture's plan binds, its tape included
(``backward_bytes``); ``plan_resident_bytes`` is the pool's distinct
bytes.  The contract: no plan buffer of a captured step is read once
another captured step in the process has begun — the tape's gradients
are read by the optimizer before that.  Nothing in the package threads
steps, so no two captured steps overlap, and ``run`` reads the loss value
before it returns.  A capture alone in its process finds no other plan's
blocks, so each of its buffers is allocated on its own, as without the
pool.  A step that drops its plan and records — a refresh, moved layouts,
a rebind, a replay that raised — carries the dropped plan's memory into
the recording: its unsuperseded blocks no live plan holds, matched to the
recording's demand by exact size first, and its private zero-filled
arrays, zeroed again when taken.  What the forward did not take goes when
the forward ends, but for blocks of the sizes its backward took, which
the recorded backward takes again.  A neuron-sparse MLP sizes its
layout-dependent buffers by a capacity that only grows, so after warm-up
such a step allocates nothing.

**Forward-only slab.**  A plan would otherwise keep every activation its
forward wrote for the whole step, although the retained backward reads
only some of them.  So a signature's first capture runs its forward twice.
The first run is a *learning* one, under a :class:`SlabLearner`: it walks
every array each forward entry's thunk can reach as the entry is recorded,
and every array each grad-carrying node's backward closure can reach as
the node is built (closure cells, defaults, bound methods, ``Tensor.data``,
containers, ``__slots__`` and instance attributes, dataclass fields among
them), then the loss and the staged inputs.  An uninitialised plan buffer
that no closure, loss or staged input reaches is *forward-only*: live from
the entry that binds it, whose run rewrites it every replay, to the last
entry that reads it.  (State a kernel binds once at record time is
zero-filled, and so never a candidate; see
:func:`repro.tensor.plan.plan_alloc`.)  The learner keeps none of the
thunks, closures, graph edges or buffers it walks, so the learning forward
frees each buffer at its last use, as an inference forward does, and the
capture step peaks no higher than a replay.  :func:`assign_offsets`
colours the forward-only intervals into one slab, and the second run
records the forward with a :class:`~repro.tensor.plan.SlabPlan` that hands
those buffers out as slab views.  The engine's masks are derived by the
first of the two forwards and reused by the second, so the step's engine
state, counters and numbers are one forward's.  Later captures of the
signature — refresh steps, dropped or retired plans — record once, with
the learned slab plan, and re-walk only the backward: a recording that
does not repeat the learned entry tags and slots, or whose backward
reaches the slab, is recorded again over plain buffers and counted in
``slab_misses``, and the next capture learns afresh.  A vetoed recording
is no miss and keeps the learned plan: its backward runs plainly, and
only if the veto moved the entries (a kernel that vetoes records none,
shifting every later allocation's key and so its slab slot) is its
forward first recorded again over plain buffers.

Contract: capture mode assumes the standard training-step shape — gradients
are consumed and zeroed within the step, and no Tensor from step ``N`` is
read at step ``N + 1`` (the arena recycles step ``N``'s buffers wholesale).
User-level ``retain_graph=True`` double-backwards are not supported while
capturing (the compiler's internal graph retention is not a double backward:
the retained schedule is executed once per step).
"""

from __future__ import annotations

import time
import types
import weakref
from collections import defaultdict
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.tensor import arena as _tensor_arena
from repro.tensor import plan as _tensor_plan
from repro.tensor.arena import BufferArena, TapeArena
from repro.tensor.plan import ForwardPlan, ForwardRecorder, PlanBinding, SlabPlan
from repro.tensor.tensor import Tensor

__all__ = ["SlabLearner", "StepCapture", "assign_offsets"]

# Every slab offset is a multiple of this many bytes.
SLAB_ALIGN = 64


def assign_offsets(sizes: Sequence[int], intervals: Sequence[Tuple[int, int]],
                   align: int = SLAB_ALIGN) -> Tuple[List[int], int]:
    """Greedy interval colouring: slab offsets for buffers of ``sizes``
    bytes, each live over an inclusive ``(first, last)`` interval.

    Largest buffer first (ties: earlier ``first``, then input order), each
    at the lowest ``align``-multiple offset clear of every buffer placed
    before it whose interval meets its own — so two buffers live at one
    moment never share a byte.  Returns the offsets in input order and the
    slab's size.
    """
    order = sorted(range(len(sizes)),
                   key=lambda i: (-sizes[i], intervals[i][0], i))
    offsets = [0] * len(sizes)
    placed: List[int] = []
    total = 0
    for i in order:
        first, last = intervals[i]
        offset = 0
        for lo, hi in sorted((offsets[j], offsets[j] + sizes[j]) for j in placed
                             if intervals[j][0] <= last and first <= intervals[j][1]):
            if offset + sizes[i] <= lo:
                break
            offset = max(offset, -(-hi // align) * align)
        offsets[i] = offset
        placed.append(i)
        total = max(total, offset + sizes[i])
    return offsets, total


def _reached(roots: Iterable) -> List[np.ndarray]:
    """Every array ``roots`` reach through closure cells and defaults, bound
    methods, ``Tensor.data`` (not a node's parents or closure), containers,
    ``__slots__`` and instance attributes (dataclass fields among them)."""
    arrays: List[np.ndarray] = []
    seen: Set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (str, bytes, int, float, type, types.ModuleType, np.generic)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:           # a cell not yet assigned
                    pass
            stack.extend(obj.__defaults__ or ())
            stack.extend((obj.__kwdefaults__ or {}).values())
        elif isinstance(obj, types.MethodType):
            stack += [obj.__self__, obj.__func__]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        else:
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return arrays


def _owner(a: np.ndarray) -> np.ndarray:
    """The array at the end of ``a``'s chain of views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _span(a: np.ndarray) -> Tuple[int, int]:
    """The address range ``[lo, hi)`` of ``a``'s bytes."""
    lo = hi = a.__array_interface__["data"][0]
    if a.size == 0:
        return lo, lo
    for dim, stride in zip(a.shape, a.strides):
        if stride < 0:
            lo += stride * (dim - 1)
        else:
            hi += stride * (dim - 1)
    return lo, hi + a.itemsize


def _touched(arrays: Iterable[np.ndarray],
             buffers: Sequence[np.ndarray]) -> Set[int]:
    """Indices of the ``buffers`` whose bytes any of ``arrays`` views.

    A buffer that owns its memory is touched by every view of it; one that
    views a larger array (a slab view, a buffer on a plan-pool block) only
    by the arrays whose address range meets its own."""
    groups: Dict[int, List[int]] = defaultdict(list)
    for i, buf in enumerate(buffers):
        groups[id(_owner(buf))].append(i)
    spans: Dict[int, Tuple[int, int]] = {}

    def meeting(array: np.ndarray, candidates: Sequence[int]) -> List[int]:
        if not candidates:
            return []
        lo, hi = _span(array)
        found = []
        for i in candidates:
            if i not in spans:
                spans[i] = _span(buffers[i])
            if lo < spans[i][1] and spans[i][0] < hi:
                found.append(i)
        return found

    hits: Set[int] = set()
    for array in arrays:
        owner = _owner(array)
        if owner.flags.owndata:
            group = groups.get(id(owner), ())
            hits.update(i for i in group if buffers[i] is owner)
            hits.update(meeting(array, [i for i in group if buffers[i] is not owner]))
            continue
        # Memory from some other object (``as_strided``, a raw buffer):
        # compare addresses.
        hits.update(meeting(array, range(len(buffers))))
    return hits


class SlabLearner(ForwardRecorder):
    """A learning recording: it learns the slab plan of the forward it sees
    and keeps nothing a replay or a backward could use.

    Every uninitialised plan buffer with bytes is a *candidate*, tracked by
    a weak reference only.  Each entry's ``run`` is walked as it is
    recorded, and becomes the last reader of every live candidate it
    reaches; each grad-carrying node's backward closure is walked as the
    node is built, and every live candidate it reaches is out of the slab.
    Neither the thunk nor the closure is kept, and the node's parents and
    closure are dropped at once, so the forward's buffers die at their last
    use, as in an inference forward.  :meth:`plan` walks the forward's
    results last (see the module docstring).  ``candidates`` lists each
    candidate's allocation key, arena key and bytes.
    """

    __slots__ = ("tags", "candidates", "_refs", "_live", "_last", "_backward",
                 "_leaves")

    def __init__(self) -> None:
        super().__init__()
        self.tags: List[str] = []
        # Per candidate: its key, arena key and bytes; a weak reference; the
        # last entry that reads it.
        self.candidates: List[Tuple[Tuple[int, int], tuple, int]] = []
        self._refs: List[weakref.ref] = []
        self._last: List[int] = []
        self._live: List[int] = []               # candidates maybe alive
        self._backward: Set[int] = set()         # candidates a closure reads
        # The bytes of each trainable leaf a built node reads, by id: the
        # gradients the backward is sure to leave the optimizer.
        self._leaves: Dict[int, int] = {}

    def _next_entry(self) -> int:
        return len(self.tags)

    def _keep(self, buf: np.ndarray, key: Optional[Tuple[int, int]]) -> None:
        if key is None or not buf.nbytes:
            return
        self._live.append(len(self._refs))
        self._refs.append(weakref.ref(buf))
        self.candidates.append((key, BufferArena._key(buf.shape, buf.dtype), buf.nbytes))
        self._last.append(key[0])

    def _reach(self, roots: Iterable) -> List[int]:
        """The live candidates ``roots`` reach."""
        live = [(i, buf) for i in self._live if (buf := self._refs[i]()) is not None]
        self._live = [i for i, _ in live]
        hits = _touched(_reached(roots), [buf for _, buf in live])
        return [live[k][0] for k in hits]

    def record(self, run: Callable[[], None], tag: str = "") -> None:
        for i in self._reach([run]):
            self._last[i] = len(self.tags)
        self.tags.append(tag)
        self.noted += 1

    def build(self, node: Tensor) -> None:
        self._backward.update(self._reach([node._backward]))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in self.built:
                self._leaves[id(parent)] = parent.data.nbytes
        self.built.add(id(node))
        node._backward = None
        node._parents = ()

    def plan(self, results: Iterable) -> Optional[SlabPlan]:
        """The slab plan of the forward-only candidates — those neither a
        backward closure nor ``results`` (the loss, the staged inputs)
        reach — or None when there are none."""
        self._backward.update(self._reach(results))
        chosen = [i for i in range(len(self.candidates)) if i not in self._backward]
        if not chosen:
            return None
        intervals = [(self.candidates[i][0][0], self._last[i]) for i in chosen]
        offsets, nbytes = assign_offsets([self.candidates[i][2] for i in chosen], intervals)
        slots = {self.candidates[i][0]: self.candidates[i][1] + (offset, last)
                 for i, offset, (_, last) in zip(chosen, offsets, intervals)}
        return SlabPlan(slots, nbytes, self.tags)

    def demand(self, plan: Optional[SlabPlan]) -> List[int]:
        """The bytes a recording of this forward with ``plan`` takes from
        the plan pool: its slab, the uninitialised buffers outside it, the
        scratch pool's buffers, and of its backward's takes the ones known
        before it runs — a gradient for each trainable leaf."""
        slots = {} if plan is None else plan.slots
        return ([] if plan is None else [-(-plan.nbytes // 4) * 4]) + [
            nbytes for key, _, nbytes in self.candidates if key not in slots
        ] + [buf.nbytes for buf in self.scratch.buffers()] + list(
            self._leaves.values())


def _slab_holds(rec: ForwardRecorder, backward_roots: List) -> bool:
    """Whether a recording made with a slab plan kept to it: the learned
    entry tags, every slot handed out, and no backward reach into the slab."""
    plan = rec.slab_plan
    if (tuple(entry.tag for entry in rec.entries) != plan.tags
            or len(rec.slots) != len(plan.slots)):
        return False
    return not _touched(_reached(backward_roots), [rec.slab])


def _backward_roots(loss: Tensor, staged: Iterable[np.ndarray]) -> List:
    """What a compiled step reads after its forward: the retained backward
    closures, the loss and the staged inputs."""
    return ([node._backward for node in loss._schedule()
             if node._backward is not None] + [loss] + list(staged))


def _recording(rec: ForwardRecorder, forward: Callable[[], Tensor]) -> Tensor:
    """``forward()`` with ``rec`` installed as the recorder."""
    _tensor_plan.set_recorder(rec)
    try:
        return forward()
    finally:
        _tensor_plan.set_recorder(None)


def _break_graph(loss: Tensor, rec: ForwardRecorder) -> None:
    """Drop the closures and parent links of the nodes ``rec`` saw built
    below ``loss``: they form reference cycles, which would keep the
    recording's buffers alive until the next cycle collection."""
    for node in loss._schedule():
        if id(node) in rec.built:
            node._backward = None
            node._parents = ()


def _carry(binding: PlanBinding) -> Tuple[List, List[np.ndarray], List[int]]:
    """Release ``binding``; what a re-recording of its step may take again
    (the ``carried``, ``carried_private`` and ``backward`` of
    :meth:`PlanPool.bind`)."""
    return binding.release(), binding.private, binding.backward


class StepCapture:
    """One step signature's compiled plan, backward tape and buffer arena.

    :meth:`run` is the whole step: it replays the plan, records one, or
    runs interpreted over the arena (see the module docstring's table).
    """

    # Vetoed compiles in a row that give up.
    MAX_FAILURES = 3

    def __init__(self):
        self.arena = BufferArena()
        # Where the signature's forward-only buffers go (see the module
        # docstring); learned by the first recording.
        self.slab_plan: Optional[SlabPlan] = None
        self.slab_misses = 0
        # Counters (surfaced as profiler gauges by the trainer).
        self.steps = 0
        self.last_step_allocations = 0
        # Full-step compiler state (see module docstring).  ``forward_plan``
        # replays the forward's kernel calls; ``full_schedule`` is the
        # retained backward schedule over the capture step's graph;
        # ``full_loss`` is the retained loss tensor, the backward root (its
        # ``.data`` is a plan buffer refreshed by every forward replay);
        # ``full_seed`` is the persistent backward seed;
        # ``full_layout_state`` is the engine's layouts at the last capture,
        # which the plan's geometry fits: a step that sees other layouts
        # drops the plan.
        self.forward_plan: Optional[ForwardPlan] = None
        # The buffers the capture step's backward took, in take order: every
        # replayed backward takes them again (see the module docstring).
        self.backward_tape: Optional[TapeArena] = None
        self.full_schedule = None
        self.full_loss: Optional[Tensor] = None
        self.full_seed = None
        self.full_layout_state = None
        self.full_captures = 0
        self.full_replays = 0
        self.full_fallbacks = 0
        self.full_fail_reason = ""
        self._full_failures = 0
        self._recorder: Optional[ForwardRecorder] = None
        self._staged: Dict[str, np.ndarray] = {}
        # The installed plan's blocks of the plan pool.  ``_carried`` holds
        # the memory of a plan this step dropped, for its recording to take
        # again: the unsuperseded blocks, the private arrays and the bytes
        # its backward took (see ``PlanPool.bind``); ``_rebind`` says the
        # plan was superseded, so this step's recording supersedes nothing.
        self._binding: Optional[PlanBinding] = None
        self._carried: Optional[Tuple[List, List[np.ndarray], List[int]]] = None
        self._rebind = False
        # The bytes the next recording is expected to take from the pool:
        # the last recording's, or its learner's.
        self._demand: Sequence[int] = ()
        self.rebinds = 0

    def run(self, forward: Callable[[np.ndarray, Optional[np.ndarray]], Tensor],
            input_ids, labels=None, *, compilable: bool = True,
            refresh: bool = False, interval: int = 1,
            layout_state: Optional[Callable[[], Hashable]] = None,
            ) -> Tuple[float, float, float]:
        """One step's forward and backward; returns ``(loss value, forward
        seconds, backward seconds)``.

        ``forward(input_ids, labels)`` returns the step's loss tensor; a
        recorded step calls it on staged copies.  ``compilable`` says the
        kernels are the recordable fused ones, ``refresh`` that the
        sparsity engine re-derives its masks this step, ``interval`` its
        ``predict_interval`` and ``layout_state()`` its layouts (None
        without an engine).  Gradients are left on the parameters for the
        caller's optimizer tail.
        """
        layout_state = layout_state or (lambda: None)
        # With interval 1 every step refreshes: nothing would ever replay.
        record = (compilable and not (refresh and interval == 1)
                  and self._full_failures < self.MAX_FAILURES)
        if not compilable:
            self.full_fail_reason = "reference kernels"
        elif refresh or (self.forward_plan is not None
                         and layout_state() != self.full_layout_state):
            self.drop_full_plan(carry=record)
        elif self._binding is not None and self._binding.stale:
            self._outgrown()
        self.steps += 1
        self.arena.next_generation()
        misses = self.arena.misses
        self.last_step_allocations = 0
        try:
            with _tensor_arena.scope(self.arena):
                return self._step(forward, input_ids, labels, compilable,
                                  record, layout_state)
        finally:
            self._carried, self._rebind = None, False
            self.last_step_allocations += self.arena.misses - misses

    def _step(self, forward, input_ids, labels, replay: bool, record: bool,
              layout_state: Callable[[], Hashable]) -> Tuple[float, float, float]:
        if replay and self.forward_plan is not None:
            self._stage(input_ids, labels)
            try:
                start = time.perf_counter()
                self.forward_plan.run()
                forward_s = time.perf_counter() - start
                start = time.perf_counter()
                tape = self.backward_tape
                with _tensor_arena.scope(tape.rewind()):
                    self.full_loss._execute_backward(self.full_schedule,
                                                     self.full_seed, False, True)
                tape.finish()
                backward_s = time.perf_counter() - start
                self.full_replays += 1
                return float(self.full_loss.data), forward_s, backward_s
            except Exception as exc:
                # A partial replay may have half-written gradients: clear
                # them and record the step from scratch.
                for node in self.full_schedule:
                    if node._backward is None:
                        node.grad = None
                self.drop_full_plan(f"replay raised {type(exc).__name__}: {exc}",
                                    carry=record)
        start = time.perf_counter()
        if record:
            ids, lab = self._stage(input_ids, labels)
            loss = self._record_forward(lambda: forward(ids, lab))
        else:
            loss = forward(input_ids, labels)
        forward_s = time.perf_counter() - start
        start = time.perf_counter()
        if record:
            self._compile(loss, layout_state())
        else:
            loss.backward()
        backward_s = time.perf_counter() - start
        return float(loss.data), forward_s, backward_s

    def _stage(self, input_ids, labels) -> List[Optional[np.ndarray]]:
        """Copy the batch into the persistent staging buffers.

        The plan's thunks are bound to these buffers at capture; each replay
        refreshes them in place so the compiled step sees the new batch
        through the very same arrays.  A shape/dtype change replaces a
        buffer.
        """
        staged = []
        for name, value in (("input_ids", input_ids), ("labels", labels)):
            if value is not None:
                value = np.asarray(value)
                buf = self._staged.get(name)
                if buf is None or buf.shape != value.shape or buf.dtype != value.dtype:
                    buf = self._staged[name] = np.array(value)
                else:
                    np.copyto(buf, value)
                value = buf
            staged.append(value)
        return staged

    def _record_forward(self, forward: Callable[[], Tensor]) -> Tensor:
        """Record this step's forward, ``forward()`` returning its loss.

        Without a slab plan the forward first runs under a
        :class:`SlabLearner`, and is then recorded with the plan it learned
        (over plain buffers if it learned none).  A recording made with a
        slab plan that did not keep to it is recorded again over plain
        buffers: a counted miss, which drops the plan so that the next
        capture learns afresh — unless the recording was vetoed: a veto
        keeps the plan, and is recorded again only if it handed out slab
        views at all.  The loss returned is the recording's that
        :meth:`_compile` compiles.
        """
        if self.slab_plan is None:
            self.slab_plan = self._learn(forward)
        loss = self._record(forward, self.slab_plan)
        rec = self._recorder
        vetoed = not rec.ok()
        if (rec.slab is None or (vetoed and not rec.slots)
                or _slab_holds(rec, _backward_roots(loss, self._staged.values()))):
            return loss
        # The slab views were not the plan's: the backward reads one, or
        # their keys moved (a vetoing kernel records no entry, shifting every
        # later key) and a later entry may overwrite one before it is read.
        self._drop_recording(loss)
        loss = rec = None
        if not vetoed:
            self.slab_misses += 1
            self.slab_plan = None
        return self._record(forward, None)

    def _learn(self, forward: Callable[[], Tensor]) -> Optional[SlabPlan]:
        """Run ``forward()`` under a :class:`SlabLearner`: the slab plan it
        learned, None if it has nothing to share or did not record."""
        learner = SlabLearner()
        loss = _recording(learner, forward)
        plan = learner.plan([loss, *self._staged.values()])
        plan = plan if learner.ok() else None
        self._demand = learner.demand(plan)
        return plan

    def _drop_recording(self, loss: Tensor) -> None:
        """Free the current recording and its graph below ``loss`` now; the
        step's next recording may take its memory again."""
        _break_graph(loss, self._recorder)
        self._carried = _carry(self._recorder.binding)
        self._recorder = None

    def _record(self, forward: Callable[[], Tensor],
                slab_plan: Optional[SlabPlan]) -> Tensor:
        """Run ``forward()`` under a fresh recorder, kept in ``_recorder``,
        bound to the plan pool's blocks and the memory carried from the
        plan this step dropped (see :meth:`PlanPool.bind`); what the
        forward did not take of the latter goes when it ends."""
        carried, private, backward = self._carried or ((), (), ())
        self._carried = None
        binding = _tensor_plan.plan_pool().bind(
            self._demand, grow=not self._rebind, carried=carried,
            carried_private=private, backward=backward)
        carried = private = None
        self._recorder = ForwardRecorder(slab_plan, binding)
        try:
            loss = _recording(self._recorder, forward)
        except BaseException:
            binding.release()
            self._recorder = None
            raise
        finally:
            self._demand = binding.taken
        binding.settle()
        return loss

    def _compile(self, loss: Tensor, layout_state) -> None:
        """Run the recorded step's backward and install its plan if covered.

        ``loss`` is the backward root, whose plan buffer replays read the
        step's loss value from.  The backward takes its buffers from a
        taping arena over the recording's plan-pool blocks, which become the
        plan's backward tape.  On a recorder veto, a coverage gap, or a
        backward schedule that reaches an interior node the recorded
        forward did not build (its closure would never be refreshed by a
        replay), the backward runs plainly over the capture's arena and the
        reason is kept in ``full_fail_reason``.
        """
        rec, self._recorder = self._recorder, None
        self.full_layout_state = layout_state
        schedule = loss._schedule()
        seed = np.ones_like(loss.data)
        reason = ""
        if not rec.ok():
            reason = rec.fail_reason
        elif any(node._backward is not None and id(node) not in rec.built
                 for node in schedule):
            reason = "backward schedule not capturable"
        if reason:
            loss._execute_backward(schedule, seed, True, False)
            rec.binding.release()
            self._full_failures += 1
            self.full_fail_reason = reason
            return
        taping = BufferArena(rec.binding.take, tape=True)
        pool = _tensor_plan.plan_pool()
        blocks = pool.allocations
        with _tensor_arena.scope(taping):
            loss._execute_backward(schedule, seed, True, True)
        rec.binding.finish()
        # The blocks the backward could not share count as its arena's
        # misses would.
        self.last_step_allocations += pool.allocations - blocks
        self.backward_tape = TapeArena(taping.tape, taping.outstanding())
        self.forward_plan = ForwardPlan(rec.entries, rec.owned(),
                                        rec.scratch.buffers(), rec.slots,
                                        rec.keyed())
        self._binding = rec.binding
        self.full_schedule = schedule
        self.full_loss = loss
        self.full_seed = seed
        self.full_captures += 1
        self._full_failures = 0

    def profile(self, replays: int = 1) -> Dict[str, Tuple[float, float, int]]:
        """Where a compiled step's time goes: ``{tag: (fwd_ms, bwd_ms, calls)}``.

        Re-runs the installed plan — forward entries, then the retained
        backward schedule — once untimed and then ``replays`` times timing
        every kernel, and returns per-replay means.  Forward tags are the
        plan entries' tags without their ``:activation`` suffix
        (``linear:none`` → ``linear``); backward tags name the function that
        owns the node's closure (``linear.<locals>.backward`` → ``linear``,
        ``Tensor.__mul__``).  ``calls`` counts a tag's forward entries per
        replay, or its backward closures for a tag only the backward has.

        Nothing a step reads is disturbed: the forward re-reads the staged
        inputs of the last step and rewrites its plan buffers with the same
        values, the backward's buffers come from a private arena (the
        capture's arena, its generation and counters are untouched), and
        every leaf gradient is set aside and restored afterwards.
        """
        if self.forward_plan is None:
            raise RuntimeError("profile() needs an installed full-step plan")
        if replays < 1:
            raise ValueError(f"replays must be positive, got {replays}")
        schedule = self.full_schedule
        leaves = [node for node in schedule if node._backward is None]
        saved_grads = [leaf.grad for leaf in leaves]
        interior = [node for node in schedule if node._backward is not None]
        closures = [node._backward for node in interior]
        fwd_ms: Dict[str, float] = defaultdict(float)
        bwd_ms: Dict[str, float] = defaultdict(float)
        fwd_calls: Dict[str, int] = defaultdict(int)
        bwd_calls: Dict[str, int] = defaultdict(int)
        timing = False

        def timed(fn):
            tag = fn.__qualname__.split(".<locals>")[0]

            def run(grad):
                start = time.perf_counter()
                result = fn(grad)
                if timing:
                    bwd_ms[tag] += (time.perf_counter() - start) * 1000.0
                    bwd_calls[tag] += 1
                return result

            return run

        try:
            for node in interior:
                node._backward = timed(node._backward)
            with _tensor_arena.scope(BufferArena()) as arena:
                for replay in range(replays + 1):
                    timing = replay > 0          # the first replay warms the arena
                    arena.next_generation()
                    for leaf in leaves:
                        leaf.grad = None
                    for entry in self.forward_plan.entries:
                        start = time.perf_counter()
                        entry.run()
                        if timing:
                            tag = entry.tag.split(":")[0]
                            fwd_ms[tag] += (time.perf_counter() - start) * 1000.0
                            fwd_calls[tag] += 1
                    self.full_loss._execute_backward(schedule, self.full_seed,
                                                     False, True)
        finally:
            for node, fn in zip(interior, closures):
                node._backward = fn
            for leaf, grad in zip(leaves, saved_grads):
                leaf.grad = grad
        return {tag: (fwd_ms[tag] / replays, bwd_ms[tag] / replays,
                      (fwd_calls[tag] or bwd_calls[tag]) // replays)
                for tag in sorted(set(fwd_ms) | set(bwd_ms))}

    def _outgrown(self) -> None:
        """Another capture's recording superseded a block of this plan's:
        drop the plan, and record this step over the pool, superseding none
        (its other blocks are pool blocks: the superseding plan holds them;
        see :class:`~repro.tensor.plan.PlanBinding`)."""
        self._rebind = True
        self.drop_full_plan(carry=True)
        self.rebinds += 1

    def drop_full_plan(self, reason: str = "", carry: bool = False) -> None:
        """Invalidate the compiled full-step plan (idempotent).

        A non-empty ``reason`` marks the drop as a fallback — a live plan
        that could not be replayed — and is kept in ``full_fail_reason``.
        ``carry`` keeps the plan's memory for this step's recording to take
        again instead of allocating anew: its unsuperseded blocks and its
        private zero-filled arrays.  What the recording's forward does not
        take goes when the forward ends, but for blocks of the sizes the
        dropped backward took, which the recorded backward takes again (see
        :meth:`PlanBinding.settle`), so an old-size block never sits beside
        its successor for a whole step.
        """
        if getattr(self, "forward_plan", None) is None:
            return
        carried = _carry(self._binding)
        if carry:
            self._carried = carried
        self.forward_plan = self._binding = self.backward_tape = None
        self.full_schedule = None
        self.full_loss = None
        self.full_seed = None
        if reason:
            self.full_fallbacks += 1
            self.full_fail_reason = reason

    def retire(self) -> None:
        """Drop the plan and release the arena pool (idempotent).

        The trainer keeps one capture per step signature in a bounded LRU;
        evicting a signature must reclaim its whole working set — the
        compiled plan's buffers and tape, the retained backward schedule,
        and the arena pool — not just forget the plan object.  A
        retired capture stays usable: its next step records a new plan,
        with the slab plan it learned (a few ints, kept).

        Recovery paths call this unconditionally from any failure point, so
        it must be safe to call twice and safe on an instance whose
        construction never completed (every attribute access is defensive).
        """
        self.drop_full_plan()
        self.arena = BufferArena()

    # -- reporting -----------------------------------------------------------
    def plan_bytes(self) -> int:
        """Bytes the compiled plan owns: its plan buffers, its forward-only
        slab (once), its scratch pool and its backward tape's buffers."""
        if self.forward_plan is None:
            return 0
        return self.forward_plan.nbytes + self.backward_bytes()

    def backward_bytes(self) -> int:
        """Bytes of the backward tape's distinct buffers."""
        return self.backward_tape.nbytes if self.backward_tape is not None else 0

    @staticmethod
    def tape_resident_bytes(captures: Iterable["StepCapture"]) -> int:
        """The distinct bytes under the backward tapes of ``captures``:
        tapes of other signatures share plan-pool blocks."""
        owners = {id(owner): owner.nbytes
                  for capture in captures if capture.backward_tape is not None
                  for owner in map(_owner, capture.backward_tape.buffers)}
        return sum(owners.values())

    @staticmethod
    def plan_resident_bytes() -> int:
        """The distinct bytes the process's plan pool holds: what every live
        plan's keyed buffers, slabs, scratch and backward tape take
        together."""
        return _tensor_plan.plan_pool().resident_bytes

    def forward_only_bytes(self) -> int:
        """What the compiled plan's slab views would hold unshared."""
        if self.forward_plan is None:
            return 0
        return sum(view.nbytes for view, _ in self.forward_plan.slots)

    def gauges(self) -> Dict[str, float]:
        """Point-in-time metrics for :meth:`PhaseProfiler.set_gauge`.

        ``arena_bytes`` and ``plan_bytes`` together are the step's resident
        buffers: what the arena of interpreted steps pools, and what the
        compiled plan owns, its backward tape included (``backward_bytes``
        alone).  ``plan_resident_bytes`` is the plan pool's distinct bytes,
        process wide: plans of other signatures share them.
        ``forward_only_bytes`` is what the plan's forward-only buffers
        would hold without their shared slab.
        """
        return {
            "arena_allocations_step": float(self.last_step_allocations),
            "arena_bytes": float(self.arena.bytes_held),
            "plan_bytes": float(self.plan_bytes()),
            "backward_bytes": float(self.backward_bytes()),
            "plan_resident_bytes": float(self.plan_resident_bytes()),
            "forward_only_bytes": float(self.forward_only_bytes()),
            "arena_hit_rate": self.arena.hit_rate(),
            "arena_evictions": float(self.arena.evictions),
            "capture_full_captures": float(self.full_captures),
            "capture_full_replays": float(self.full_replays),
            "capture_full_fallbacks": float(self.full_fallbacks),
            "capture_rebinds": float(self.rebinds),
        }

    def summary(self) -> str:
        return (f"StepCapture(steps={self.steps}, "
                f"full_captures={self.full_captures}, "
                f"full_replays={self.full_replays}, "
                f"full_fallbacks={self.full_fallbacks}, "
                f"arena={self.arena.bytes_held / 1024 ** 2:.1f} MiB, "
                f"plan={self.plan_bytes() / 1024 ** 2:.1f} MiB, "
                f"backward={self.backward_bytes() / 1024 ** 2:.1f} MiB, "
                f"forward_only={self.forward_only_bytes() / 1024 ** 2:.1f} MiB, "
                f"slab_misses={self.slab_misses}, rebinds={self.rebinds}, "
                f"allocs/step={self.last_step_allocations})")
