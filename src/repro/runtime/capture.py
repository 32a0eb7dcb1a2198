"""Steady-state step capture: compile one step, then replay it.

PEFT fine-tuning is a steady-state workload — thousands of steps with
bit-identical shapes — yet every step of the seed runtime rebuilt the Python
autograd graph node by node, re-sorted it topologically, and allocated fresh
output/temporary ndarrays for every op.  :class:`StepCapture` captures that
steady state, CUDA-graph-style, for the NumPy autograd graph:

1. **warm-up** — the first step(s) run exactly as before (one-time caches:
   geometry, causal masks, packed probe weights).
2. **capture + compile** — the next step runs with the
   :class:`~repro.tensor.arena.BufferArena` installed and a
   :class:`~repro.tensor.plan.ForwardRecorder` collecting one replay thunk
   per forward kernel over buffers bound exactly once.  The backward runs
   its ordinary DFS schedule once and keeps the graph alive.
3. **replay** — a steady-state step is **stage inputs → run the flat
   ForwardPlan → execute the retained backward schedule → optimizer tail**:
   the Python autograd graph was built exactly once, at capture, and every
   arena take hits the pool, so the step allocates nothing.  The replayed
   order *is* the recorded order over the same buffers, so captured and
   uncaptured execution are bitwise identical (locked by the parity suite).
4. **refresh = re-capture** — a sparsity-mask refresh step (every
   ``predict_interval``-th) is a capture step: the trainer drops the live
   forward plan *before* the forward and records the next one *during* it.
   The probes and exposers deriving the masks run between kernels as plain
   NumPy the recorder never sees, and the thunks close over layouts that
   hold until the next refresh — one capture plus ``interval - 1`` compiled
   replays per block, a plan's buffers never alive beside its successor's.
   If the masks moved, the arena's free lists (backward buffers sized for
   the old layout) are trimmed at that step.  With ``predict_interval = 1``
   nothing would ever be replayed, so the forward stays interpreted.
5. **invalidate / degrade** — a signature change (input shape/dtype, label
   shape, kernel toggles) drops the plan and triggers exactly
   one re-capture; so do layouts adopted from another replica that differ
   from the plan's.  A step that cannot replay a compiled plan — reference
   kernels, a recorder veto or coverage gap (every graph node built must be
   recorded or noted as a view), a backward schedule reaching an interior
   node the recorded forward did not build, a replay that raised — runs
   interpreted over recycled arena buffers: the forward and the DFS
   backward exactly as without capture, still allocating nothing once the
   pool is warm.  Which path a step takes is selected from what the step
   observes, never from an option, and why it could not compile is kept in
   ``full_fail_reason``.

Full-plan buffers are plain allocations — never arena takes — so generation
recycling cannot reclaim live plan state.

Contract: capture mode assumes the standard training-step shape — gradients
are consumed and zeroed within the step, and no Tensor from step ``N`` is
read at step ``N + 1`` (the arena recycles step ``N``'s buffers wholesale).
User-level ``retain_graph=True`` double-backwards are not supported while
capturing (the compiler's internal graph retention is not a double backward:
the retained schedule is executed once per step).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.tensor import arena as _tensor_arena
from repro.tensor import plan as _tensor_plan
from repro.tensor.arena import BufferArena
from repro.tensor.plan import ForwardPlan, ForwardRecorder
from repro.tensor.tensor import Tensor

__all__ = ["StepCapture"]


class StepCapture:
    """Per-trainer capture state machine (warm-up → capture → replay).

    ``warmup_steps`` uncaptured steps populate the one-time caches; the next
    step is the capture step (the capture step itself must see steady-state
    control flow).  Every later step of the same signature is a replay: it
    runs the compiled plan when one is installed and runs interpreted over
    the arena otherwise.

    A signature whose capture step is followed by no replay is sterile (the
    signature flips at least as fast as it can be captured).  After
    ``MAX_FAILURES`` sterile signatures *without an intervening healthy
    replay streak* capture switches itself off (``state == "off"``) — the
    workload is not steady-state and paying the bookkeeping is pointless —
    and swaps in a fresh empty arena so the retired pool is reclaimed.  A
    streak of ``FAILURE_RESET_REPLAYS`` consecutive replays clears the
    count.  Compiling is counted apart: after ``MAX_FAILURES`` vetoed
    compiles in a row the compiler stops trying, and the steps keep running
    interpreted.
    """

    WARMUP = "warmup"
    CAPTURE = "capture"
    REPLAY = "replay"
    OFF = "off"
    # Sterile signatures (or vetoed compiles) in a row that give up.
    MAX_FAILURES = 3
    # Consecutive successful replays that prove the workload steady-state
    # again and forgive earlier sterile signatures.
    FAILURE_RESET_REPLAYS = 8

    def __init__(self, warmup_steps: int = 1):
        self.arena = BufferArena()
        self.state = self.WARMUP if warmup_steps > 0 else self.CAPTURE
        self.signature: Optional[Hashable] = None
        self.warmup_steps = int(warmup_steps)
        # Counters (surfaced as profiler gauges by the trainer).
        self.steps = 0
        self.recaptures = 0
        self.last_step_allocations = 0
        self._warmup_left = self.warmup_steps
        self._failures = 0
        self._replay_streak = 0
        self._alloc_before = 0
        self._prev_arena: Optional[BufferArena] = None
        self._step_open = False
        # Full-step compiler state (see module docstring).  ``forward_plan``
        # replays the forward's kernel calls; ``full_schedule`` is the
        # retained backward schedule over the capture step's graph;
        # ``full_loss`` is the retained loss tensor, the backward root (its
        # ``.data`` is a plan buffer refreshed by every forward replay);
        # ``full_seed`` is the persistent backward seed;
        # ``full_layout_state`` is the engine's layouts at the last capture:
        # what plan geometry and pooled shapes fit (outlives a dropped plan).
        self.forward_plan: Optional[ForwardPlan] = None
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

    # -- step lifecycle ------------------------------------------------------
    def begin_step(self, signature: Hashable) -> None:
        """Enter a step; ``signature`` pins everything that shapes the graph.

        The trainer passes input/label shapes and whether the step runs
        inside ``fused.reference_kernels()``; a change invalidates the plan
        and schedules exactly one re-capture.
        """
        self.steps += 1
        if self.state == self.OFF:
            return
        trim_stale = False
        if signature != self.signature:
            # Shapes/dtypes moved: every full-plan buffer binding is stale.
            self.drop_full_plan()
            if self.signature is not None and self.state != self.WARMUP:
                # Shape change mid-run: drop the plan and (below, once the
                # previous step's outstanding buffers have been recycled by
                # next_generation) the stale-shape buffer pools — a
                # bucketed-length loader would otherwise accumulate one full
                # working set per length seen.  Then re-capture once.
                if self.state == self.REPLAY:
                    # Only a signature change after a completed capture is a
                    # *re*-capture (the gauge advertises exactly-one-per-
                    # shape-change; a flip before the first capture is not
                    # one).
                    if self._replay_streak == 0:
                        # The previous signature was never replayed: it is
                        # flipping at least as fast as we can capture
                        # (shape-alternating batches).  Sterile signatures
                        # count toward the kill-switch — without this, such
                        # a workload would pay capture bookkeeping plus a
                        # full working-set reallocation on every single
                        # step, forever.
                        self._failures += 1
                    self.recaptures += 1
                self.state = (self.OFF if self._failures >= self.MAX_FAILURES
                              else self.CAPTURE)
                trim_stale = True
            self.signature = signature
            if self.state == self.OFF:
                # Retired at the transition: the previous generation's
                # buffers are dead, so drop the whole pool right away.
                self.arena = BufferArena()
                return
        self._step_open = True
        if self.state == self.WARMUP:
            return
        self.arena.next_generation()
        if trim_stale:
            self.arena.trim()
        self._alloc_before = self.arena.misses
        self._prev_arena = _tensor_arena.set_active(self.arena)

    def _count_step(self, compiled: bool = False) -> None:
        """The one place a step is counted, whichever path ran it: the
        capture step of a signature moves the machine to replay, and every
        later step of it is a replay (``compiled`` when it ran the plan)."""
        if self.state == self.CAPTURE:
            self.state = self.REPLAY
            self._replay_streak = 0
        elif self.state == self.REPLAY:
            if compiled:
                self.full_replays += 1
            self._replay_streak += 1
            if self._replay_streak >= self.FAILURE_RESET_REPLAYS:
                self._failures = 0

    def run_backward(self, loss: Tensor) -> None:
        """This step's backward when no plan is being compiled: the plain
        DFS pass (over the arena once captured)."""
        loss.backward()
        self._count_step()

    def end_step(self) -> None:
        """Leave the step: detach the arena, roll the state machine."""
        if not self._step_open:
            return
        self._step_open = False
        if self.state == self.WARMUP:
            self._warmup_left -= 1
            if self._warmup_left <= 0:
                self.state = self.CAPTURE
            return
        _tensor_arena.set_active(self._prev_arena)
        self._prev_arena = None
        self.last_step_allocations = self.arena.misses - self._alloc_before

    # -- full-step compiler --------------------------------------------------
    def stage(self, name: str, value) -> np.ndarray:
        """Copy ``value`` into the persistent staging buffer for ``name``.

        The full plan's thunks are bound to these buffers at capture; each
        replay refreshes them in place so the compiled step sees the new
        batch through the very same arrays.  A shape/dtype change replaces
        the buffer (and the step signature invalidates the plan anyway).
        """
        value = np.asarray(value)
        buf = self._staged.get(name)
        if buf is None or buf.shape != value.shape or buf.dtype != value.dtype:
            buf = np.array(value)
            self._staged[name] = buf
        else:
            np.copyto(buf, value)
        return buf

    def full_ready(self) -> bool:
        """Whether a compiled full-step plan is installed and replayable."""
        return self.forward_plan is not None and self.state == self.REPLAY

    def wants_full_capture(self) -> bool:
        """Whether this step should record a full plan (trainer consults)."""
        return (self.forward_plan is None
                and self._step_open
                and self.state in (self.CAPTURE, self.REPLAY)
                and self._full_failures < self.MAX_FAILURES)

    def begin_full_capture(self) -> ForwardRecorder:
        """Install a :class:`ForwardRecorder` around this step's forward."""
        rec = ForwardRecorder()
        self._recorder = rec
        _tensor_plan.set_recorder(rec)
        return rec

    def abort_full_capture(self) -> None:
        """Uninstall the recorder (idempotent; also the failed-forward path)."""
        if self._recorder is not None:
            self._recorder = None
            _tensor_plan.set_recorder(None)

    def finish_full_capture(self, loss: Tensor, layout_state=None) -> bool:
        """Run this step's backward and compile the full plan if covered.

        ``loss`` is the backward root, whose plan buffer replays read the
        step's loss value from.  Returns True when the full plan is
        installed.  On a recorder veto, a coverage gap, or a backward
        schedule that reaches an interior node the recorded forward did not
        build (its closure would never be refreshed by a replay), the
        backward runs plainly, the reason is kept in ``full_fail_reason``
        and False is returned.
        """
        rec = self._recorder
        self.abort_full_capture()
        if layout_state != self.full_layout_state:
            # The masks moved since the last captured step: the free lists
            # hold the old layout's backward buffers, dead shapes from here on.
            self.arena.trim()
            self.full_layout_state = layout_state
        schedule = loss._schedule()
        reason = ""
        if not rec.ok():
            reason = rec.fail_reason
        elif any(node._backward is not None and id(node) not in rec.built
                 for node in schedule):
            reason = "backward schedule not capturable"
        loss._execute_backward(schedule, np.ones_like(loss.data), True,
                               not reason)
        self._count_step()
        if reason:
            self._full_failures += 1
            self.full_fail_reason = reason
            return False
        self.forward_plan = ForwardPlan(rec.entries)
        self.full_schedule = schedule
        self.full_loss = loss
        self.full_seed = np.ones_like(loss.data)
        self.full_captures += 1
        self._full_failures = 0
        return True

    def replay_full_forward(self) -> None:
        """Run the compiled forward plan (caller staged the inputs first)."""
        self.forward_plan.run()

    def replay_full_backward(self) -> None:
        """Execute the retained backward schedule over the refreshed buffers."""
        self.full_loss._execute_backward(self.full_schedule, self.full_seed,
                                         False, True)
        self._count_step(compiled=True)

    def full_loss_value(self) -> float:
        """The loss of the last full replay."""
        return float(self.full_loss.data)

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
        if not self.full_ready():
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

    def drop_full_plan(self, reason: str = "") -> None:
        """Invalidate the compiled full-step plan (idempotent).

        A non-empty ``reason`` marks the drop as a fallback — a live plan
        that could not be replayed — and is kept in ``full_fail_reason``.
        """
        if getattr(self, "forward_plan", None) is None:
            return
        self.forward_plan = None
        self.full_schedule = None
        self.full_loss = None
        self.full_seed = None
        if reason:
            self.full_fallbacks += 1
            self.full_fail_reason = reason

    def retire(self) -> None:
        """Drop the plan and release the arena pool (terminal, idempotent).

        The serving layer keeps one capture per signature bucket in a bounded
        plan cache; evicting a bucket must reclaim its whole working set —
        the compiled plan's buffers, the retained backward schedule, and the
        arena pool they came from — not just forget the plan object.

        Recovery paths call this unconditionally from any failure point, so
        it must be safe to call twice and safe on an instance whose
        construction never completed (every attribute access is defensive).
        """
        self.drop_full_plan()
        self.signature = None
        self.state = self.OFF
        self.arena = BufferArena()

    # -- reporting -----------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        """Point-in-time metrics for :meth:`PhaseProfiler.set_gauge`."""
        return {
            "arena_allocations_step": float(self.last_step_allocations),
            "arena_bytes": float(self.arena.bytes_held),
            "arena_hit_rate": self.arena.hit_rate(),
            "arena_evictions": float(self.arena.evictions),
            "capture_recaptures": float(self.recaptures),
            "capture_full_captures": float(self.full_captures),
            "capture_full_replays": float(self.full_replays),
            "capture_full_fallbacks": float(self.full_fallbacks),
        }

    def summary(self) -> str:
        return (f"StepCapture(state={self.state}, steps={self.steps}, "
                f"recaptures={self.recaptures}, "
                f"full_captures={self.full_captures}, "
                f"full_replays={self.full_replays}, "
                f"full_fallbacks={self.full_fallbacks}, "
                f"arena={self.arena.bytes_held / 1024 ** 2:.1f} MiB, "
                f"allocs/step={self.last_step_allocations})")
