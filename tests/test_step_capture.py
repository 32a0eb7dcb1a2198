"""Step-capture runtime tests: arena, compiled replay, allocation regression.

A captured step either replays its compiled plan or runs interpreted over
the buffer arena.  Three concerns, three marker tiers:

* ``-m parity`` — captured-vs-uncaptured *bitwise* parity over full training
  steps for every backend × fused-toggle × refresh-schedule combination
  (losses, per-step gradients, optimizer state, parameters), via the shared
  harness in :mod:`parity`, every degradation from the compiled step to the
  interpreted one, each reached through its real trigger, and a generated
  state machine over both in any order;
* ``-m alloc`` (also ``perf_smoke``) — the allocation-regression gate: once
  a step is captured, subsequent steps must perform **zero** new arena
  allocations on either path and compiled steps build **zero** graph nodes,
  for the dense, oracle-sparse and predicted configurations, every step
  signature a tuner alternates among keeps its own compiled plan (up to
  ``MAX_CAPTURES`` of them), sharing the process's plan pool, a replayed
  backward takes its recorded tape and nothing from an arena, and by the
  optimizer tail of a compiled step every backward buffer still out is a
  parameter's gradient (the liveness gate);
* unmarked unit tests for :class:`BufferArena`, the forward recorder and
  the backward schedule, including its release of aliased gradients.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

import parity
from repro.models import build_model
from repro.optim import Adam
from repro.peft import apply_lora
from repro.runtime import (AttentionConfig, BufferArena, CaptureConfig,
                           FineTuner, StepCapture, TrainingConfig)
from repro.runtime.trainer import MAX_CAPTURES
from repro.sparsity import LongExposure, LongExposureConfig
from repro.tensor import arena as tensor_arena
from repro.tensor import fused
from repro.tensor import plan as tensor_plan
from repro.tensor import tensor as tensor_core
from repro.tensor.arena import TapeArena
from repro.tensor.tensor import Tensor, custom_op, node_build_count


# ---------------------------------------------------------------------------
# BufferArena unit tests
# ---------------------------------------------------------------------------

def test_arena_take_miss_then_generation_hit():
    arena = BufferArena()
    a = arena.take((4, 3))
    b = arena.take((4, 3))
    assert a is not b                      # same generation -> distinct buffers
    assert arena.misses == 2 and arena.hits == 0
    arena.next_generation()
    c = arena.take((4, 3))
    d = arena.take((4, 3))
    assert {id(c), id(d)} == {id(a), id(b)}   # recycled wholesale
    assert arena.misses == 2 and arena.hits == 2


def test_arena_keys_on_shape_and_dtype():
    arena = BufferArena()
    a = arena.take((8,), np.float32)
    arena.next_generation()
    assert arena.take((8,), np.float64) is not a   # dtype mismatch
    assert arena.take((4,), np.float32) is not a   # shape mismatch
    assert arena.take((8,), np.float32) is a


def test_arena_release_recycles_mid_generation():
    arena = BufferArena()
    a = arena.take((16,))
    assert arena.owns(a)
    assert arena.release(a)
    assert not arena.owns(a)
    assert arena.take((16,)) is a          # same generation reuse
    # Foreign arrays are ignored; a double release must not duplicate the
    # pool entry (two takers sharing one buffer would corrupt data).
    assert not arena.release(np.zeros(16, np.float32))
    assert arena.release(a)
    assert not arena.release(a)            # double release is a no-op
    b = arena.take((16,))
    c = arena.take((16,))
    assert b is a and c is not a           # the pool held exactly one copy
    view = arena.take((16,))[:4]
    assert not arena.release(view)         # views are never pooled


def test_arena_zeroed_take():
    arena = BufferArena()
    a = arena.take((5,), zero=True)
    assert np.all(a == 0)
    a[:] = 7.0
    arena.next_generation()
    b = arena.take((5,), zero=True)
    assert b is a and np.all(b == 0)       # re-zeroed on reuse


def test_arena_boundary_keeps_only_the_keys_the_step_took():
    arena = BufferArena()
    pooled = [arena.take((4,)) for _ in range(3)]
    stale = arena.take((8,))
    arena.next_generation()          # all four free; both keys were taken
    assert arena.evictions == 0
    arena.take((4,))                 # one of three out: the key keeps all three
    scratch = arena.take((2,))
    assert arena.release(scratch)    # released mid-step: kept all the same
    live = arena.take((6,))          # out at the boundary: recycled, not evicted
    arena.next_generation()          # (8,) was not taken: its list goes
    assert arena.evictions == 1
    assert arena.bytes_held == (3 * 4 + 2 + 6) * 4
    assert ({id(b) for b in arena.buffers()}
            == {id(b) for b in pooled + [scratch, live]})
    misses = arena.misses
    for shape in ((4,), (4,), (4,), (2,), (6,)):
        arena.take(shape)
    assert arena.misses == misses    # every kept buffer comes back as a hit
    assert arena.take((8,)) is not stale and arena.misses == misses + 1


def test_arena_keeps_a_steady_keys_whole_working_set_across_boundaries():
    arena = BufferArena()
    first = [arena.take((4,)) for _ in range(12)]
    for _ in range(5):               # a step that takes 12 at once, every step
        arena.next_generation()
        again = [arena.take((4,)) for _ in range(12)]
        assert {id(b) for b in again} == {id(b) for b in first}
    assert arena.evictions == 0 and arena.misses == 12
    assert arena.bytes_held == 12 * first[0].nbytes


def test_arena_drops_a_key_at_the_first_boundary_it_was_not_taken():
    arena = BufferArena()
    idle = arena.take((8,))
    busy = arena.take((2,))
    arena.next_generation()
    arena.release(arena.take((2,)))  # taken and released: still a taken key
    assert arena.evictions == 0
    arena.next_generation()          # (8,) idle for one step: it goes now
    assert arena.evictions == 1
    assert [id(b) for b in arena.buffers()] == [id(busy)]
    assert arena.bytes_held == busy.nbytes
    arena.next_generation()          # nothing taken: the pool empties
    assert arena.evictions == 2 and arena.bytes_held == 0
    assert arena.buffers() == ()
    assert arena.take((8,)) is not idle and arena.misses == 3


def test_integer_division_matches_uncaptured_under_arena():
    # np.divide promotes int operands to float64; the arena out-buffer must
    # follow suit instead of handing the ufunc an integer buffer.
    a = Tensor(np.array([4, 9], dtype=np.int64))
    b = Tensor(np.array([2, 3], dtype=np.int64))
    plain = (a / b).data
    with tensor_arena.scope(BufferArena()):
        arena_backed = (a / b).data
    assert plain.dtype == arena_backed.dtype
    assert np.array_equal(plain, arena_backed)


def _captured(model, attention: AttentionConfig = None, **kwargs) -> FineTuner:
    """A capture-enabled tuner over ``model``."""
    return FineTuner(model, TrainingConfig(
        capture=CaptureConfig(enabled=True),
        attention=attention or AttentionConfig()), **kwargs)


def test_first_step_of_a_signature_captures():
    model = build_model("opt-tiny", seed=0)
    apply_lora(model)
    tuner = _captured(model)
    ids = np.random.default_rng(3).integers(0, model.config.vocab_size,
                                            size=(2, 32))
    assert tuner.capture is None          # made by the first step
    tuner.step(ids)
    capture = tuner.capture
    assert capture.full_captures == 1     # step 1 IS the capture step
    tuner.step(ids)
    assert tuner.capture is capture
    assert capture.full_replays == 1      # step 2 already replays
    assert tuner.recaptures == 0          # one signature, one capture


def test_arena_helpers_degrade_without_active_arena():
    assert tensor_arena.active() is None
    buf = tensor_arena.empty((3,))
    assert isinstance(buf, np.ndarray)
    tensor_arena.release(buf)              # no-op
    assert np.all(tensor_arena.zeros((3,)) == 0)


# ---------------------------------------------------------------------------
# backward schedule
# ---------------------------------------------------------------------------

def test_schedule_orders_grad_carrying_nodes_root_first():
    # The one DFS order every backward runs in: the root first, every node
    # ahead of its parents, and no constant (``frozen``, the 2.0 scalar) —
    # they never receive a gradient.
    w = Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
    frozen = Tensor(np.full(3, 2.0, np.float32))
    x = w * 2.0
    y = x * frozen
    z = y + x
    loss = z.sum()
    assert [id(n) for n in loss._schedule()] == [id(n) for n in
                                                 (loss, z, y, x, w)]
    loss.backward()
    assert np.array_equal(w.grad, np.full(3, 2.0 * 2.0 + 2.0, np.float32))


# A consumed gradient goes back to the arena at once, but only the buffer
# owning its memory and only once no pending gradient overlaps it.  Each case
# below hands a gradient to its parents as an alias of the incoming one.  The
# probe nodes record whether their incoming gradient still lay in an arena
# buffer in flight when they read it, and write their own output into a fresh
# arena buffer of the same shape, so an early release would be overwritten.

def _covered_op(x, out, fill, backward):
    """A one-parent op whose body ``fill(x.data, out)`` the recorder covers."""
    tensor_plan.emit(tensor_plan.recorder(), lambda: fill(x.data, out), "alias")
    return custom_op(out, (x,), backward)


def _probe(x, live):
    def backward(grad):
        arena = tensor_arena.active()
        if arena is not None:
            live.append(any(np.may_share_memory(grad, buf)
                            for buf in arena.outstanding()))
        return (np.multiply(grad, 2.0, out=tensor_arena.empty(grad.shape)),)

    return _covered_op(x, np.empty(x.shape, np.float32),
                       lambda d, o: np.copyto(o, d), backward)


ALIASES = {
    "one gradient, two parents": lambda h, live: h + _probe(h * 3.0, live),
    "x + x": lambda h, live: h + h,
    "reshape view": lambda h, live: _covered_op(
        h, np.empty(24, np.float32),
        lambda d, o: np.copyto(o, d.reshape(24)),
        lambda g: (g.reshape(4, 6),)),
    "transpose of a reshape view": lambda h, live: _covered_op(
        h, np.empty(24, np.float32),
        lambda d, o: np.copyto(o, d.T.reshape(24)),
        lambda g: (g.reshape(6, 4).T,)),
    # Its base is a stride-tricks wrapper, not the buffer: only a memory
    # overlap check sees the alias.
    "as_strided view": lambda h, live: _covered_op(
        h, np.empty((4, 6), np.float32),
        lambda d, o: np.copyto(o, d),
        lambda g: (np.lib.stride_tricks.as_strided(g, g.shape, g.strides),)),
    "broadcast_to": lambda h, live: _covered_op(
        h, np.empty(6, np.float32),
        lambda d, o: np.sum(d, axis=0, out=o),
        lambda g: (np.broadcast_to(g, (4, 6)),)),
}


def _alias_step_grads(alias, tier):
    """Leaf gradients of three steps over ``ALIASES[alias]``, and the probes'
    liveness reads: ``tier`` None runs without an arena."""
    rng = np.random.default_rng(0)
    a, c = (Tensor(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
            for _ in range(2))
    live = []

    def forward():
        out = ALIASES[alias](_probe(a * c, live), live)
        squared = out * out           # its gradient is an arena buffer
        return _covered_op(squared, np.empty((), np.float32),
                           lambda d, o: np.sum(d, out=o),
                           lambda g: (np.broadcast_to(g, squared.shape),))

    capture = StepCapture()
    ids = np.zeros((1, 1), np.int64)             # staged, never read
    grads = []
    for _ in range(3):
        if tier is None:
            forward().backward()
        else:
            capture.run(lambda ids, labels: forward(), ids,
                        compilable=tier == "compiled")
        grads.append((a.grad.copy(), c.grad.copy()))
        a.grad = c.grad = None
    if tier == "compiled":
        assert (capture.full_captures, capture.full_replays) == (1, 2), \
            capture.full_fail_reason
    return grads, live


@pytest.mark.parametrize("tier", ["compiled", "interpreted"])
@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_aliased_gradient_is_not_released_while_pending(alias, tier):
    plain, _ = _alias_step_grads(alias, None)
    grads, live = _alias_step_grads(alias, tier)
    assert live and all(live), live
    for (pa, pc), (ga, gc) in zip(plain, grads):
        assert np.array_equal(pa, ga) and np.array_equal(pc, gc)


# ---------------------------------------------------------------------------
# forward recorder + plan
# ---------------------------------------------------------------------------

def _recorded(build):
    """Run ``build()`` under a fresh recorder; returns (recorder, result)."""
    rec = tensor_plan.ForwardRecorder()
    tensor_plan.set_recorder(rec)
    try:
        result = build()
    finally:
        tensor_plan.set_recorder(None)
    return rec, result


def test_forward_plan_replays_thunks_in_recorded_order():
    a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    b = Tensor(np.full((2, 3), 2.0, np.float32))
    rec, out = _recorded(lambda: ((a * b) + a).transpose().reshape(2, 3))
    assert rec.ok() and [e.tag for e in rec.entries] == [
        "multiply", "add", "reshape_copy"]     # the transpose is a noted view
    plan = tensor_plan.ForwardPlan(rec.entries)
    assert len(plan) == 3
    a.data[...] = 1.0                          # "stage" a new input in place
    plan.run()                                 # recorded order: mul, add, copy
    assert np.array_equal(out.data, np.full((2, 3), 3.0, np.float32))


def test_forward_recorder_rejects_uncovered_and_vetoed_forwards():
    a = Tensor(np.ones((2, 3), np.float32))
    rec, _ = _recorded(lambda: (a * 2.0).exp())       # exp has no record seam
    assert not rec.ok()
    assert rec.fail_reason == "forward coverage gap: 2 nodes built, 1 covered"
    vec = Tensor(np.ones(3, np.float32))
    rec, _ = _recorded(lambda: a @ vec)               # vetoed by the seam
    assert not rec.ok() and "vector matmul" in rec.fail_reason
    assert tensor_plan.recorder() is None


def test_recorded_kernels_share_one_scratch_set():
    # A replay runs one entry at a time, so a kernel's scratch goes back to
    # the plan's pool once it is recorded and the next kernel takes it: the
    # second mask's two calls allocate no scratch of their own.  The masks
    # themselves are read by every replay, so they are not scratch — each
    # call's replay must still see its own mask.
    from repro.nn.attention import causal_mask

    rng = np.random.default_rng(5)
    q, k, v = (Tensor(rng.normal(size=(1, 2, 48, 8)).astype(np.float32))
               for _ in range(3))
    masks = (causal_mask(48), rng.random((48, 48)) < 0.7)

    def build():
        return [fused.scaled_dot_product_attention(q, k, v, mask, tile=tile)
                for mask in masks for tile in (48, 16)]

    rec, recorded = _recorded(build)
    assert rec.ok()
    pool = rec.scratch
    assert pool.misses > 0 and pool.hits == pool.misses
    for out in recorded:
        out.data[...] = np.nan
    tensor_plan.ForwardPlan(rec.entries).run()
    for out, fresh in zip(recorded, build()):
        assert np.array_equal(out.data, fresh.data)


def _kernel_vetoes():
    """reason -> zero-argument call of the kernel over the vetoed input."""
    from repro.sparsity.ops import neuron_sparse_linear_pair
    from repro.tensor import fused

    rng = np.random.default_rng(17)

    def normal(*shape):
        return rng.normal(size=shape).astype(np.float32)

    strided = Tensor(normal(3, 2, 4).transpose(1, 0, 2))    # non-contiguous
    w, b = Tensor(normal(5, 4)), Tensor(normal(5))
    targets = rng.integers(0, 4, size=(2, 3))
    q, k, v = (Tensor(normal(1, 2, 21, 3)) for _ in range(3))
    w2, b2 = Tensor(normal(4, 5)), Tensor(normal(4))
    active = np.array([1, 3, 4])
    lora_a, lora_b = Tensor(normal(2, 4)), Tensor(normal(5, 2))
    return {
        "linear over a non-contiguous activation":
            lambda: fused.linear(strided, w, b, activation="relu"),
        "linear cross entropy over a non-contiguous input":
            lambda: fused.linear_cross_entropy(strided, w, targets, shift=False)[0],
        "neuron-sparse MLP over a non-contiguous activation":
            lambda: neuron_sparse_linear_pair(strided, w, b, w2, b2, active),
        "lora_linear over a non-contiguous activation":
            lambda: fused.lora_linear(strided, w, b, lora_a, lora_b, 2.0),
    }


KERNEL_VETOES = _kernel_vetoes()


@pytest.mark.parametrize("reason", sorted(KERNEL_VETOES))
def test_kernel_veto_falls_through_to_the_interpreted_body(reason):
    # A vetoed kernel must say why, leave no entry behind, and still compute
    # exactly what the unrecorded call computes (same body, arena buffers).
    call = KERNEL_VETOES[reason]
    rec, vetoed = _recorded(call)
    assert rec.failed and rec.fail_reason == reason
    assert rec.entries == [] and not rec.ok()
    assert np.array_equal(vetoed.data, call().data)


# ---------------------------------------------------------------------------
# captured-vs-uncaptured bitwise parity (full training steps)
# ---------------------------------------------------------------------------
#
# The trajectory (losses, per-step gradients, Adam moments, final parameters)
# must stay bitwise identical to the plain interpreted run whichever path a
# step takes: compiled replay, a refresh step's re-capture, or — reference
# kernels, oracle mode's trainable base weights — interpreted over the arena.

@pytest.mark.parity
@pytest.mark.parametrize("schedule", sorted(parity.CAPTURE_SCHEDULES))
@pytest.mark.parametrize("fused_enabled", [True, False],
                         ids=["fused", "reference"])
@pytest.mark.parametrize("backend", parity.CAPTURE_BACKENDS)
def test_captured_steps_bitwise_identical(backend, fused_enabled, schedule):
    steps, predict_interval = parity.CAPTURE_SCHEDULES[schedule]
    parity.assert_capture_parity(backend, fused_enabled, steps=steps,
                                 predict_interval=predict_interval)


# ---------------------------------------------------------------------------
# allocation regression (-m alloc / perf_smoke)
# ---------------------------------------------------------------------------

def _build_tuner(backend: str, seq: int = 32, predict_interval: int = 1,
                 attention: AttentionConfig = None, capture: bool = True):
    """A tuner over a fixed batch; returns (tuner, ids).

    Its first step makes ``tuner.capture``.  The sparse backends refresh
    their masks every ``predict_interval`` steps: the default 1 makes every
    step a refresh (interpreted over the arena); 4 makes refresh step 1 the
    capture plus compile, steps 2-4 compiled replays and refresh step 5 the
    re-capture.
    """
    model_name = "gpt2-tiny" if backend == "dense" else "opt-tiny"
    model = build_model(model_name, seed=0)
    rng = np.random.default_rng(3)
    engine = None
    if backend != "dense":
        calib = rng.integers(0, model.config.vocab_size, size=(2, seq))
        engine = LongExposure(LongExposureConfig(
            block_size=16, seed=0, oracle_mode=(backend == "oracle"),
            predictor_epochs=2, predict_interval=predict_interval))
        engine.prepare(model, [calib])
    if backend == "predicted":
        apply_lora(model)
    if engine is not None:
        engine.install(model)
    optimizer = Adam(model.trainable_parameters(), lr=1e-3)
    tuner = FineTuner(model,
                      TrainingConfig(capture=CaptureConfig(enabled=capture),
                                     attention=attention or AttentionConfig()),
                      optimizer=optimizer, engine=engine)
    ids = rng.integers(0, model.config.vocab_size, size=(2, seq))
    return tuner, ids


def _add_uncovered_op(model):
    """Make ``model.loss`` build one graph node no record seam covers.

    ``Tensor.exp`` has no replay thunk, so a capture step over this loss
    fails the recorder's coverage check and the step runs its forward
    interpreted.  The extra term is ``exp(loss) * 0``, applied identically to
    a captured tuner and its plain twin.  Returns a switch: ``gap(False)``
    restores the plain loss.
    """
    plain_loss = model.loss

    def loss_with_gap(ids, labels=None):
        loss, count = plain_loss(ids, labels=labels)
        return loss + loss.exp() * 0.0, count

    def gap(on: bool) -> None:
        model.loss = loss_with_gap if on else plain_loss

    gap(True)
    return gap


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("backend", ["dense", "oracle", "predicted"])
def test_zero_allocations_after_capture(backend):
    tuner, ids = _build_tuner(backend)
    try:
        tuner.step(ids)                            # capture step (allocates)
        capture = tuner.capture
        # Only the dense step compiles: oracle mode trains the base weights
        # and every predicted step refreshes, so those run interpreted.
        compiled = backend == "dense"
        assert capture.full_captures == compiled
        capture_allocs = capture.last_step_allocations
        assert capture_allocs > 0                  # the capture step populates
        if backend == "oracle":
            # The oracle derives its masks from live activations every step,
            # and the first update moves the MLP's active-neuron count: step
            # 2 allocates that one new shape class, then the masks hold.
            tuner.step(ids)
        for _ in range(2):                         # steps N+1, N+2: replay
            tuner.step(ids)
            assert capture.last_step_allocations == 0, \
                f"{backend}: captured steady state still allocates"
        assert capture.full_replays == 2 * compiled
        assert capture.full_fallbacks == 0
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("engine", [False, True], ids=["dense", "predicted"])
def test_compiled_step_holds_only_parameter_gradients(engine):
    # The liveness gate: every activation gradient goes back to the arena at
    # its last use, so when the optimizer runs, the only backward buffers
    # still out — the tape's buffers the recorded backward never released —
    # are the trainable parameters' ``.grad``.
    if engine:
        tuner, ids = _build_tuner("predicted", seq=64, predict_interval=4)
    else:
        model = build_model("opt-tiny", seed=0)
        apply_lora(model)
        tuner = _captured(model)
        ids = np.random.default_rng(3).integers(0, model.config.vocab_size,
                                                size=(2, 64))
    try:
        tuner.step(ids)                            # capture
        capture = tuner.capture
        stray = []
        optimizer_step = tuner.optimizer.step

        def checked_step():
            grads = [p.grad for p in tuner.optimizer.params]
            live = capture.backward_tape.live + capture.arena.outstanding()
            stray.extend(buf.shape for buf in live
                         if not any(grad is buf for grad in grads))
            optimizer_step()

        tuner.optimizer.step = checked_step
        tuner.step(ids)
        assert capture.full_replays == 1, capture.full_fail_reason
        assert stray == []
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("backend", ["dense", "predicted"])
def test_full_step_zero_graph_builds_and_allocations(backend):
    # The tentpole gate: once the full plan is compiled, a steady-state step
    # builds ZERO Python graph nodes (the graph was built exactly once, at
    # capture) and performs ZERO arena allocations.
    tuner, ids = _build_tuner(backend, predict_interval=4)
    try:
        tuner.step(ids)                            # capture + full compile
        capture = tuner.capture
        assert capture.full_captures == 1, capture.full_fail_reason
        for _ in range(2):                         # steps 2-3: compiled replay
            before = node_build_count()
            tuner.step(ids)
            assert node_build_count() == before, \
                f"{backend}: compiled step still builds graph nodes"
            assert capture.last_step_allocations == 0, \
                f"{backend}: compiled step still allocates"
        assert capture.full_replays == 2
        assert capture.full_fallbacks == 0
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("backend", ["dense", "predicted"])
def test_replayed_backward_takes_its_tape_and_scans_nothing(backend, monkeypatch):
    # The capture step's backward takes from an arena and scans pending
    # gradients before each release; a replay takes the recorded tape in
    # order, every buffer once per take, and neither looks up an arena key
    # nor scans for overlaps.
    tuner, ids = _build_tuner(backend, predict_interval=4)
    counts = dict(take=0, scan=0, tape=0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(BufferArena, "take", counting("take", BufferArena.take))
    monkeypatch.setattr(TapeArena, "take", counting("tape", TapeArena.take))
    monkeypatch.setattr(tensor_core, "_release_dead",
                        counting("scan", tensor_core._release_dead))
    try:
        tuner.step(ids)                            # capture + full compile
        capture = tuner.capture
        assert capture.full_captures == 1, capture.full_fail_reason
        assert counts["take"] > 0 and counts["scan"] > 0 and counts["tape"] == 0
        counts.update(take=0, scan=0)
        for _ in range(2):
            tuner.step(ids)
            assert capture.last_step_allocations == 0
        assert capture.full_replays == 2 and capture.full_fallbacks == 0
        assert counts == dict(take=0, scan=0,
                              tape=2 * len(capture.backward_tape.buffers))
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)


# ---------------------------------------------------------------------------
# the frozen-base chain: plan entries per projection, per-tag attribution
# ---------------------------------------------------------------------------

def _compiled_opt_tiny(peft, steps: int = 3):
    """A captured ``opt-tiny`` tuner adapted by ``peft``, stepped ``steps``
    times over a fixed batch (step 1 compiles); returns (tuner, ids)."""
    model = build_model("opt-tiny", seed=0)
    peft(model)
    tuner = _captured(model)
    ids = np.random.default_rng(3).integers(0, model.config.vocab_size,
                                            size=(2, 32))
    for _ in range(steps):
        tuner.step(ids)
    assert tuner.capture.forward_plan is not None, tuner.capture.full_fail_reason
    return tuner, ids


def test_optimizer_subclass_step_runs_on_compiled_steps():
    """A compiled replay ends in ``optimizer.step()`` like every other step,
    so an ``Adam`` subclass overriding it sees all of them."""

    class CountingAdam(Adam):
        calls = 0

        def step(self):
            self.calls += 1
            super().step()

    model = build_model("opt-tiny", seed=0)
    apply_lora(model)
    optimizer = CountingAdam(model.trainable_parameters(), lr=1e-3)
    tuner = _captured(model, optimizer=optimizer)
    ids = np.random.default_rng(3).integers(0, model.config.vocab_size,
                                            size=(2, 32))
    for _ in range(6):
        tuner.step(ids)
    assert tuner.capture.full_replays == 5
    assert optimizer.step_count == optimizer.calls == 6


@pytest.mark.perf_smoke
def test_lora_adds_no_plan_entries_beyond_its_projections():
    # The same compiled step with LoRA on q/v and with the base untouched
    # (BitFit trains biases only, so its forward is the frozen base's): each
    # adapted projection turns one ``linear`` entry into one ``lora_linear``
    # entry and adds nothing else — the rank-r GEMMs, the scale and the add
    # were four more entries per projection (a multiply and an add each).
    from collections import Counter

    from repro.peft import apply_bitfit

    def tags(peft):
        tuner, _ = _compiled_opt_tiny(peft)
        return Counter(e.tag for e in tuner.capture.forward_plan.entries)

    lora, base = tags(apply_lora), tags(apply_bitfit)
    adapted = 2 * 2                                 # 2 layers x (q_proj, v_proj)
    assert lora - base == Counter({"lora_linear": adapted})
    assert base - lora == Counter({"linear:none": adapted})
    assert lora["multiply"] == 0


def test_adapted_projection_is_one_node_and_one_plan_entry():
    from repro.nn import Linear
    from repro.peft import LoRALinear

    rng = np.random.default_rng(0)
    layer = LoRALinear(Linear(8, 6, rng=rng), rank=4, alpha=8, rng=rng)
    layer.lora_B.data[...] = rng.normal(size=layer.lora_B.shape)
    x = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
    before = node_build_count()
    rec, out = _recorded(lambda: layer(x))
    assert node_build_count() - before == 1
    assert rec.ok() and [e.tag for e in rec.entries] == ["lora_linear"]
    assert set(out._parents) == {x, layer.base.weight, layer.base.bias,
                                 layer.lora_A, layer.lora_B}
    np.testing.assert_allclose(
        out.data, x.data @ layer.merged_weight().T + layer.base.bias.data,
        rtol=1e-5, atol=1e-6)


def test_profile_attributes_the_step_and_leaves_it_untouched():
    tuner, ids = _compiled_opt_tiny(apply_lora)
    twin, _ = _compiled_opt_tiny(apply_lora)
    capture = tuner.capture
    params = tuner.optimizer.params
    # Leaf gradients are restored as they were, values and identity.
    held = [np.full(p.shape, 0.5, np.float32) for p in params]
    for p, grad in zip(params, held):
        p.grad = grad
    arena = capture.arena
    counters = (arena.generation, arena.takes, arena.misses, arena.bytes_held)
    replays = capture.full_replays
    profile = capture.profile(replays=2)
    assert all(p.grad is grad for p, grad in zip(params, held))
    assert all(np.all(grad == 0.5) for grad in held)
    for p in params:
        p.grad = None
    assert capture.arena is arena
    assert (arena.generation, arena.takes, arena.misses, arena.bytes_held) == counters
    assert capture.full_replays == replays
    # One row per kernel tag, forward tags without their activation suffix.
    # opt-tiny: 2 layers x (k_proj, out_proj) and one MLP node each; the
    # tied LM head runs inside the loss.
    assert profile["lora_linear"][2] == 4 and profile["linear"][2] == 2 * 2
    assert profile["mlp"][2] == 2 and "mlp:relu" not in profile
    assert profile["linear_cross_entropy"][2] == 1
    assert "cross_entropy" not in profile
    assert profile["layer_norm"][2] == 2 * 2 + 1
    # Dense attention: its plan tag forward, its body's closure backward.
    assert profile["sdpa"][2] == 2 and profile["sdpa"][1] == 0.0
    assert profile["_row_tile_attention"][2] == 2
    assert profile["_row_tile_attention"][0] == 0.0
    assert "_class_chunk_attention" not in profile
    assert profile["lora_linear"][0] > 0 and profile["lora_linear"][1] > 0
    # The embedding sum and two residual sums per layer: recorded ``add``
    # entries forward, the in-place sum's closure backward (the frozen
    # embeddings' sum takes no gradient).
    assert profile["add"][2] == 1 + 2 * 2 and profile["add"][1] == 0.0
    assert profile["residual_add"][2] == 2 * 2 and profile["residual_add"][0] == 0.0
    assert "Tensor.__add__" not in profile
    assert "linear:none" not in profile
    # The next steps are bitwise what they would have been.
    for _ in range(2):
        assert tuner.step(ids)[0] == twin.step(ids)[0]
    for a, b in zip(params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)


@pytest.mark.perf_smoke
def test_sums_and_head_merges_bind_no_plan_buffer():
    # The embedding sum and each residual sum write into the sub-layer
    # output they consume, and attention's output is laid out so merging
    # its heads is a view: a captured step records no ``reshape_copy``, and
    # no plan buffer is bound between an ``add`` entry and the one before.
    tuner, ids = _compiled_opt_tiny(apply_lora)
    tags = [entry.tag for entry in tuner.capture.forward_plan.entries]
    assert "reshape_copy" not in tags and tags.count("add") == 1 + 2 * 2

    class Ledger(tensor_plan.ForwardRecorder):
        """Counts the plan buffers bound before each recorded entry."""

        def record(self, run, tag=""):
            self.bound.append(len(self.buffers))
            super().record(run, tag)

    rec = Ledger()
    rec.bound = []
    tensor_plan.set_recorder(rec)
    try:
        tuner.model.loss(ids)
    finally:
        tensor_plan.set_recorder(None)
    assert rec.ok() and [entry.tag for entry in rec.entries] == tags
    adds = [j for j, tag in enumerate(tags) if tag == "add"]
    assert all(rec.bound[j] == rec.bound[j - 1] for j in adds)


def test_profile_needs_a_compiled_plan():
    with pytest.raises(RuntimeError, match="full-step plan"):
        StepCapture().profile()


@pytest.mark.parity
@pytest.mark.parametrize("how", ["extra take", "other shape"])
def test_replay_off_its_tape_falls_back_and_records_again(how, monkeypatch):
    # A replayed backward that asks its tape for one buffer more, or for
    # another shape, raises; the capture drops the plan as a counted
    # fallback naming the tape, records the step again, and every step
    # trains a plain twin's bits.
    tuner, ids = _build_tuner("dense")
    plain, _ = _build_tuner("dense", capture=False)
    for _ in range(2):                             # capture, replay
        assert tuner.step(ids)[0] == plain.step(ids)[0]
    capture = tuner.capture
    node = capture.full_schedule[0]                # the loss; its backward takes
    intact, take = node._backward, TapeArena.take

    def reshaped(self, shape, dtype=np.float32, zero=False):
        monkeypatch.setattr(TapeArena, "take", take)
        return take(self, tuple(shape) + (1,), dtype, zero)

    def diverging(grad):
        node._backward = intact
        if how == "extra take":
            tensor_arena.empty((1,), np.float32)
        else:
            monkeypatch.setattr(TapeArena, "take", reshaped)
        return intact(grad)

    node._backward = diverging
    assert tuner.step(ids)[0] == plain.step(ids)[0]
    assert node._backward is intact and TapeArena.take is take
    assert capture.full_fail_reason.startswith(
        "replay raised TapeDivergence: backward tape")
    assert (capture.full_captures, capture.full_replays,
            capture.full_fallbacks) == (2, 1, 1)
    assert tuner.step(ids)[0] == plain.step(ids)[0]
    assert (capture.full_captures, capture.full_replays) == (2, 2)
    for a, b in zip(tuner.optimizer.params, plain.optimizer.params):
        assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# degradation to interpreted steps, reached through each real trigger
# ---------------------------------------------------------------------------
#
# No option selects the interpreted path; a step lands there because of what
# it observes.  Each trigger below is driven on a captured tuner and a plain
# twin in lockstep (same seeds, same batch): every loss and the final
# parameters must match bitwise, the counters must say which path ran each
# step and why, an interpreted step past the capture must run over the warm
# arena, and — where the condition can pass — the next eligible step must be
# compiled again.

def _raise_once_in(plan, position: int = 3, fired: list = None) -> None:
    """Make the plan's ``position``-th thunk raise on its next call only
    (appending to ``fired`` when it does)."""
    entry = plan.entries[position]
    intact = entry.run

    def broken():
        entry.run = intact
        if fired is not None:
            fired.append(position)
        raise RuntimeError("injected thunk failure")

    entry.run = broken


@pytest.mark.parity
@pytest.mark.parametrize("trigger", ["reference_kernels",
                                     "trainable_base_weights", "coverage_gap",
                                     "replay_exception"])
def test_degrades_to_interpreted_steps(trigger):
    build = {
        "reference_kernels": dict(backend="dense"),
        "trainable_base_weights": dict(backend="oracle", predict_interval=8),
        "coverage_gap": dict(backend="dense"),
        "replay_exception": dict(backend="dense"),
    }[trigger]
    tuner, ids = _build_tuner(**build)
    plain, _ = _build_tuner(capture=False, **build)
    gaps = []
    if trigger == "coverage_gap":
        gaps = [_add_uncovered_op(tuner.model), _add_uncovered_op(plain.model)]
    seen = []                                      # full_replays per step
    kernels = (fused.reference_kernels if trigger == "reference_kernels"
               else contextlib.nullcontext)

    def step():
        with kernels():
            assert tuner.step(ids)[0] == plain.step(ids)[0], \
                f"{trigger}: loss differs at step {len(seen) + 1}"
        seen.append(tuner.capture.full_replays)

    try:
        # Capture, replays.  The gap is closed after its second veto: a
        # third would use up MAX_FAILURES and stop the compiler.  Vetoed
        # base weights stop it after step 3, so step 4 is the first forward
        # without a recorder (its kernel outputs come from the arena, not
        # from plan buffers) and step 5 the first over a warm pool.
        for _ in range({"coverage_gap": 2,
                        "trainable_base_weights": 5}.get(trigger, 4)):
            step()
        capture = tuner.capture
        if trigger == "reference_kernels":
            # Never eligible: the forward is not a recordable kernel stream.
            assert capture.full_captures == 0
            assert capture.full_fail_reason == "reference kernels"
            assert seen[-1] == 0 and capture.last_step_allocations == 0
        elif trigger == "trainable_base_weights":
            # Vetoed on steps 1, 2 and 3; after MAX_FAILURES attempts the
            # compiler stops asking and the reason stays on record.
            assert capture.full_captures == 0
            assert "trainable base weights" in capture.full_fail_reason
            assert capture._full_failures == capture.MAX_FAILURES
            assert seen[-1] == 0 and capture.last_step_allocations == 0
            for _ in range(5):                     # across the step-9 refresh
                step()
            assert seen[-1] == 0
            assert "trainable base weights" in capture.full_fail_reason
        elif trigger == "coverage_gap":
            assert capture.full_captures == 0
            assert "coverage gap" in capture.full_fail_reason
            assert seen[-1] == 0 and capture.last_step_allocations == 0
            for gap in gaps:
                gap(False)
            step()                                 # compiled at once
            assert capture.full_captures == 1
            step()
            assert seen[-1] == 1
        elif trigger == "replay_exception":
            assert seen[-1] == 3 and capture.full_captures == 1
            _raise_once_in(capture.forward_plan)
            step()          # replay raises -> interpreted step, re-compiled
            assert seen[-1] == 3
            assert capture.full_fail_reason == \
                "replay raised RuntimeError: injected thunk failure"
            assert capture.full_captures == 2
            step()
            assert seen[-1] == 4
        assert capture.full_fallbacks == (trigger == "replay_exception")
        assert list(tuner.captures.values()) == [capture]   # one signature
        for a, b in zip(tuner.optimizer.params, plain.optimizer.params):
            assert np.array_equal(a.data, b.data), f"{trigger}: params differ"
    finally:
        for t in (tuner, plain):
            if t.engine is not None:
                t.engine.uninstall(t.model)


def _log_grads(tuner) -> list:
    """Snapshot every gradient the optimizer's ``step`` sees."""
    log = []
    optimizer_step = tuner.optimizer.step

    def logged():
        log.append([p.grad.copy() for p in tuner.optimizer.params])
        optimizer_step()

    tuner.optimizer.step = logged
    return log


@pytest.mark.parity
def test_plan_not_recordable_with_external_interior_node():
    """A backward schedule reaching an interior node that the recorded
    forward did not build vetoes the compile: a replay would re-run that
    node's closure over values no thunk refreshes.  The node here is a sum
    over a parameter built between steps, which the loss adds times zero;
    the forward itself is fully covered.  Every step then runs interpreted,
    bitwise equal to a plain twin in losses and gradients."""
    tuner, ids = _build_tuner("dense")
    plain, _ = _build_tuner("dense", capture=False)

    def wire(twin):
        """Route ``twin``'s loss through an external node; returns the
        function that rebuilds that node."""
        plain_loss = twin.model.loss
        param = twin.optimizer.params[-1]
        external = [None]

        def loss_with_external(ids, labels=None):
            loss, count = plain_loss(ids, labels=labels)
            return loss + external[0] * 0.0, count

        def rebuild():
            external[0] = param.sum()

        twin.model.loss = loss_with_external
        return rebuild

    rebuilds = [wire(tuner), wire(plain)]
    grads = [_log_grads(tuner), _log_grads(plain)]
    for step in range(1, 6):
        for rebuild in rebuilds:
            rebuild()                              # outside any forward
        assert tuner.step(ids)[0] == plain.step(ids)[0], f"step {step}"
    capture = tuner.capture
    assert capture.full_captures == 0 and capture.full_replays == 0
    assert capture.full_fail_reason == "backward schedule not capturable"
    assert capture._full_failures == capture.MAX_FAILURES
    assert len(grads[0]) == len(grads[1]) == 5
    for step, (a, b) in enumerate(zip(*grads), start=1):
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb), f"gradient differs at step {step}"


@pytest.mark.parity
@pytest.mark.parametrize("interval", [4, 1])
def test_refresh_step_is_the_capture_step(interval):
    """A mask-refresh step drops the live plan before its forward and records
    the next one during it, so the following ``interval - 1`` steps replay
    compiled and nothing ever degrades; with ``predict_interval=1`` every
    step refreshes, nothing could be replayed, and the compiler stays cold.
    Lockstep with a plain twin: the trajectory is bitwise the same."""
    tuner, ids = _build_tuner("predicted", predict_interval=interval)
    plain, _ = _build_tuner("predicted", predict_interval=interval,
                            capture=False)
    try:
        for step in range(1, 15):              # refreshes on 1, 5, 9, 13
            assert tuner.step(ids)[0] == plain.step(ids)[0], f"step {step}"
            # With an interval every refresh captures, and all steps in
            # between replay.
            capture = tuner.capture
            captures = 1 + (step - 1) // 4 if interval > 1 else 0
            assert capture.full_captures == captures, f"step {step}"
            assert capture.full_replays == (
                step - captures if interval > 1 else 0), f"step {step}"
        assert capture.full_fallbacks == 0
        assert capture.full_fail_reason == ""
        assert (capture.forward_plan is None) == (interval == 1)
        assert tuner.recaptures == 0
        for a, b in zip(tuner.optimizer.params, plain.optimizer.params):
            assert np.array_equal(a.data, b.data), "params differ"
    finally:
        for t in (tuner, plain):
            t.engine.uninstall(t.model)


class _CaptureLifecycle(RuleBasedStateMachine):
    """A captured tuner and a plain twin, stepped in lockstep through shape
    flips, reference-kernel steps, coverage gaps, injected replay failures
    and retirements of the current capture, in any order.

    After every rule the trajectory is the twin's bit for bit, a step that
    replayed a compiled plan allocated nothing, and every compiled fallback
    is an injected replay failure.  Two lengths under two kernel modes are
    at most ``MAX_CAPTURES`` signatures, so no capture is ever evicted.
    """

    build = dict(backend="dense")

    def __init__(self):
        super().__init__()
        self.tuner, self.ids = _build_tuner(**self.build)
        self.plain, _ = _build_tuner(capture=False, **self.build)
        self.gaps = [_add_uncovered_op(t.model) for t in (self.tuner,
                                                          self.plain)]
        self.gap = False
        for gap in self.gaps:
            gap(False)
        self.fired = []                            # injected raises that ran

    def teardown(self):
        for t in (self.tuner, self.plain):
            if t.engine is not None:
                t.engine.uninstall(t.model)

    def _summary(self) -> str:
        return self.tuner.capture.summary()

    def _step(self, seq: int, kernels=contextlib.nullcontext) -> None:
        ids = self.ids[:, :seq]
        replays = {id(c): c.full_replays for c in self.tuner.captures.values()}
        with kernels():
            assert self.tuner.step(ids)[0] == self.plain.step(ids)[0], \
                self._summary()
        capture = self.tuner.capture
        if capture.full_replays > replays.get(id(capture), 0):
            assert capture.last_step_allocations == 0, self._summary()

    @initialize()
    def capture_and_compile(self):
        for _ in range(2):
            self._step(32)

    @rule(seq=st.sampled_from([32, 16]), steps=st.integers(1, 4))
    def step(self, seq, steps):
        for _ in range(steps):
            self._step(seq)

    @rule(seq=st.sampled_from([32, 16]))
    def step_under_reference_kernels(self, seq):
        self._step(seq, fused.reference_kernels)

    @rule()
    def toggle_coverage_gap(self):
        self.gap = not self.gap
        for gap in self.gaps:
            gap(self.gap)

    @precondition(lambda self: self.tuner.capture.forward_plan is not None)
    @rule()
    def next_replay_raises_once(self):
        capture = self.tuner.capture
        _raise_once_in(capture.forward_plan, fired=self.fired)
        shape = next(signature[0] for signature, held
                     in self.tuner.captures.items() if held is capture)
        self._step(shape[-1])                      # the plan's own shape

    @rule()
    def retire_the_current_capture(self):
        self.tuner.capture.retire()

    @invariant()
    def parameters_match_the_twin(self):
        for a, b in zip(self.tuner.optimizer.params,
                        self.plain.optimizer.params):
            assert np.array_equal(a.data, b.data), self._summary()

    @invariant()
    def every_fallback_was_injected(self):
        fallbacks = sum(c.full_fallbacks for c in self.tuner.captures.values())
        assert fallbacks == len(self.fired), self.tuner.capture.full_fail_reason


class _PredictedCaptureLifecycle(_CaptureLifecycle):
    """The same rules over a predicted engine refreshing every 4th step, so
    refresh re-captures interleave with everything else."""

    build = dict(backend="predicted", predict_interval=4)


_LIFECYCLE_SETTINGS = settings(max_examples=10, stateful_step_count=12,
                               deadline=None,
                               suppress_health_check=[HealthCheck.too_slow])
TestCaptureLifecycleDense = pytest.mark.parity(_CaptureLifecycle.TestCase)
TestCaptureLifecycleDense.settings = _LIFECYCLE_SETTINGS
TestCaptureLifecyclePredicted = pytest.mark.parity(
    _PredictedCaptureLifecycle.TestCase)
TestCaptureLifecyclePredicted.settings = _LIFECYCLE_SETTINGS


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_arena_does_not_grow_across_refreshes():
    """Fresh batches move the layouts at every refresh.  The re-capture drops
    the old plan first and its backward takes the dropped plan's blocks
    again, so the backward buffers after the third re-capture are the size
    they were after the first capture — not one working set plus a stale
    one per refresh larger.  A re-capture's backward allocates only the
    buffers the dropped plan's blocks do not fit, fewer than the first
    capture."""
    tuner, _ = _build_tuner("predicted", seq=128, predict_interval=4)
    rng = np.random.default_rng(5)
    held, allocations, layouts = {}, {}, set()
    try:
        for step in range(1, 15):              # refreshes on 1, 5, 9, 13
            tuner.step(rng.integers(0, 512, size=(2, 128)))
            held[step] = tuner.capture.backward_bytes()
            allocations[step] = tuner.capture.last_step_allocations
            layouts.add(tuner.engine.layout_state())
        capture = tuner.capture
        assert capture.full_captures == 4 and capture.full_fallbacks == 0
        assert len(layouts) > 1                # at least one layout moved
        assert held[13] <= 1.1 * held[1], held
        assert all(allocations[step] < allocations[1]
                   for step in (5, 9, 13)), allocations
    finally:
        tuner.engine.uninstall(tuner.model)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_sparse_capture_holds_nothing_nnz_sized():
    """The attention kernel saves its output, a logsumexp row and the staged
    K/V grid, and its backward works panel by panel: the pool a sparse
    capture holds is about a streaming-dense capture's, and doubling the
    layout's active blocks barely moves it (a panel is bounded by the
    sequence, not by nnz; the chain this replaced grew 22 % here)."""
    seq = 256
    dense_model = build_model("opt-tiny", seed=0)
    apply_lora(dense_model)
    dense = _captured(dense_model, AttentionConfig(streaming_tile=32))
    tuner, ids = _build_tuner("predicted", seq=seq, predict_interval=64)
    for _ in range(3):
        dense.step(ids)
    dense_capture = dense.capture
    assert dense_capture.full_replays == 2

    def held_under(sparsity):
        layout = parity.grid_layout(seq, 16, sparsity, heads=4)
        tuner.engine.adopt_layouts(
            [("attn", layout, seq) if entry[0] == "attn" else entry
             for entry in tuner.engine.export_layouts()])
        capture = tuner.capture
        replays = capture.full_replays
        for _ in range(3):                         # re-capture, then replays
            tuner.step(ids)
        assert capture.full_replays == replays + 2
        return layout.nnz, capture.backward_bytes()

    try:
        tuner.step(ids)                            # the first refresh
        few, held_few = held_under(0.6)
        many, held_many = held_under(0.0)
        assert many >= 2 * few
        assert held_many < 1.1 * held_few, (held_few, held_many)
        assert held_many <= 1.5 * dense_capture.backward_bytes(), \
            (held_many, dense_capture.backward_bytes())
    finally:
        tuner.engine.uninstall(tuner.model)


def _alternate(tuner, shapes, rounds: int) -> dict:
    """Step ``tuner`` round-robin over ``shapes`` (one batch each);
    returns signature -> the arena allocations of each of its steps."""
    allocs = {}
    for _ in range(rounds):
        for ids in shapes:
            tuner.step(ids)
            allocs.setdefault(tuner.step_signature(ids), []).append(
                tuner.capture.last_step_allocations)
    return allocs


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_alternating_shapes_replay_both_plans():
    # Batches whose shape flips every step: each shape keeps its own
    # capture, so from its second visit on each replays its compiled plan
    # and allocates nothing.  One capture after the first is one recapture.
    tuner, ids = _build_tuner("dense")
    shapes = [ids, ids[:, :16]]
    allocs = _alternate(tuner, shapes, rounds=4)
    assert tuner.recaptures == 1
    assert tuner.profiler.summary_dict()["gauges"]["capture_recaptures"] == 1
    for signature, capture in tuner.captures.items():
        assert (capture.full_captures, capture.full_replays) == (1, 3)
        assert allocs[signature][0] > 0 and allocs[signature][1:] == [0] * 3


@pytest.mark.alloc
def test_plan_pool_shares_fitting_demand_and_supersedes_what_growth_leaves():
    # Over an empty pool each buffer gets a block of its own.  A demand that
    # fits shares blocks, largest first onto the smallest that fits.  One
    # that does not grows the pool: it takes blocks within the slack, makes
    # the rest, and supersedes the blocks it left, so their holders are
    # stale.  A re-recording takes its unsuperseded blocks again and
    # supersedes nothing.  Blocks no binding holds any more are taken again
    # when given back.
    pool = tensor_plan.PlanPool()
    first = pool.bind(demand=[100, 300, 200])
    small, large, middle = (first.take((n,), np.uint8) for n in (100, 300, 200))
    assert [b.data.nbytes for b in first.blocks] == [100, 300, 200]
    assert pool.resident_bytes == 600
    second = pool.bind(demand=[150, 248])
    a = second.take((150,), np.uint8)
    b = second.take((62,), np.float32)             # 248 bytes
    assert np.shares_memory(a, middle) and np.shares_memory(b, large)
    assert b.shape == (62,) and b.dtype == np.float32
    assert pool.resident_bytes == 600 and not first.stale
    third = pool.bind(demand=[400, 290, 90])
    assert first.stale and second.stale
    c, d, e = (third.take((n,), np.uint8) for n in (400, 290, 90))
    assert np.shares_memory(d, large) and np.shares_memory(e, small)
    assert not any(np.shares_memory(c, x) for x in (small, middle, large))
    assert pool.resident_bytes == 1000 and not third.stale
    kept = first.release()
    assert [block.data.nbytes for block in kept] == [100, 300]
    assert first.release() == []
    assert [block.data.nbytes for block in second.release()] == [300]
    assert pool.resident_bytes == 800               # the superseded 200 went
    again = pool.bind(demand=[100, 300, 200], grow=False)
    for n, shared in ((100, small), (300, large), (200, c)):
        assert np.shares_memory(again.take((n,), np.uint8), shared)
    assert not third.stale and pool.resident_bytes == 800
    again.release()
    third.release()
    assert pool.resident_bytes == 0
    given = pool.bind()
    given.give(kept)
    assert np.shares_memory(given.take((250,), np.uint8), large)
    assert pool.resident_bytes == 300
    given.release()
    fresh = pool.bind(demand=[300])
    assert fresh.take((8,), np.uint8).base is fresh.blocks[0].data
    assert pool.resident_bytes == 8


@pytest.mark.alloc
def test_a_plan_outgrown_by_another_signature_records_once_more():
    # Short batches first, then long ones: the long plan outgrows blocks the
    # short plan holds, so the short capture's next step records once more,
    # over the pool's larger blocks, and every later step of both replays.
    # A plain twin trains the same bits, and the pool holds the long plan's
    # memory, not both.
    import gc

    gc.collect()
    tuner, ids = _build_tuner("dense")
    plain, _ = _build_tuner("dense", capture=False)
    shapes = [ids[:, :16], ids]
    for _ in range(3):
        for batch in shapes:
            assert tuner.step(batch)[0] == plain.step(batch)[0]
    short, long = (tuner.captures[tuner.step_signature(s)] for s in shapes)
    assert (short.full_captures, short.full_replays, short.rebinds) == (2, 1, 1)
    assert (long.full_captures, long.full_replays, long.rebinds) == (1, 2, 0)
    resident = long.gauges()["plan_resident_bytes"]
    assert resident == short.gauges()["plan_resident_bytes"]
    assert resident == tuner.profiler.summary_dict()["gauges"]["plan_resident_bytes"]
    assert resident <= 1.1 * long.plan_bytes()
    for a, b in zip(tuner.optimizer.params, plain.optimizer.params):
        assert np.array_equal(a.data, b.data)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_reference_kernel_step_leaves_the_fused_plan_installed():
    tuner, ids = _build_tuner("dense")
    for _ in range(2):
        tuner.step(ids)
    fused_capture = tuner.capture
    plan = fused_capture.forward_plan
    assert (fused_capture.full_captures, fused_capture.full_replays) == (1, 1)
    with fused.reference_kernels():
        tuner.step(ids)                            # its own capture, interpreted
        assert tuner.capture is not fused_capture
        assert tuner.capture.full_fail_reason == "reference kernels"
    assert fused_capture.forward_plan is plan
    for _ in range(2):
        tuner.step(ids)
        assert tuner.capture is fused_capture
        assert fused_capture.last_step_allocations == 0
    assert (fused_capture.full_captures, fused_capture.full_replays) == (1, 3)
    assert fused_capture.forward_plan is plan and tuner.recaptures == 1


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_signature_past_the_bound_evicts_the_least_recently_used():
    # MAX_CAPTURES + 1 lengths in turn: the last one evicts the first
    # length's capture, retiring its plan and arena.  Revisiting that length
    # re-captures, and the trajectory stays a plain twin's bit for bit.
    tuner, ids = _build_tuner("dense", seq=8 * (MAX_CAPTURES + 1))
    plain, _ = _build_tuner("dense", seq=8 * (MAX_CAPTURES + 1),
                            capture=False)
    shapes = [ids[:, :8 * (i + 1)] for i in range(MAX_CAPTURES + 1)]

    def step(batch):
        assert tuner.step(batch)[0] == plain.step(batch)[0]

    for batch in shapes[:MAX_CAPTURES]:
        step(batch)
    evicted = tuner.captures[tuner.step_signature(shapes[0])]
    assert evicted.forward_plan is not None and evicted.backward_bytes() > 0
    step(shapes[-1])
    assert len(tuner.captures) == MAX_CAPTURES
    assert tuner.step_signature(shapes[0]) not in tuner.captures
    assert evicted.forward_plan is None and evicted.backward_tape is None
    assert evicted.backward_bytes() == 0 and evicted.arena.bytes_held == 0
    for _ in range(2):
        step(shapes[0])                            # re-capture, then replay
    assert tuner.capture is not evicted
    assert (tuner.capture.full_captures, tuner.capture.full_replays) == (1, 1)
    assert tuner.recaptures == MAX_CAPTURES + 1
    for a, b in zip(tuner.optimizer.params, plain.optimizer.params):
        assert np.array_equal(a.data, b.data)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_capture_gauges_reach_profiler():
    tuner, ids = _build_tuner("dense")
    for _ in range(3):
        tuner.step(ids)
    capture = tuner.capture
    gauges = tuner.profiler.summary_dict()["gauges"]
    for key in ("arena_allocations_step", "arena_bytes", "plan_bytes",
                "backward_bytes", "forward_only_bytes", "arena_hit_rate",
                "arena_evictions",
                "capture_recaptures", "capture_full_captures",
                "capture_full_replays", "capture_full_fallbacks"):
        assert key in gauges
    assert "capture_replay_steps" not in gauges
    assert "capture_fallbacks" not in gauges
    assert gauges["arena_allocations_step"] == 0.0
    # A compiled step's backward runs over its tape, which the plan owns:
    # the arena serves interpreted steps alone.
    assert gauges["arena_bytes"] == 0 and gauges["backward_bytes"] > 0
    assert gauges["capture_full_replays"] >= 1.0
    assert capture.summary().startswith("StepCapture(")
    assert "forward_only=" in capture.summary()
    # The slab views' bytes are counted once, through the one plan buffer
    # they all share; unshared they would hold more than it.
    plan = capture.forward_plan
    views = [view for view, _ in plan.slots]
    assert views and gauges["forward_only_bytes"] == sum(v.nbytes for v in views)
    slabs = [buf for buf in plan.buffers
             if any(np.shares_memory(buf, view) for view in views)]
    assert len(slabs) == 1 and all(buf is not view for buf in plan.buffers
                                   for view in views)
    tape = capture.backward_tape.distinct()
    assert gauges["backward_bytes"] == sum(buf.nbytes for buf in tape)
    assert gauges["plan_bytes"] == (sum(buf.nbytes for buf in plan.buffers)
                                    + gauges["backward_bytes"])
    assert gauges["forward_only_bytes"] > slabs[0].nbytes


@pytest.mark.alloc
def test_arena_and_plan_bytes_cover_the_steps_resident_growth():
    # Every resident byte of a compiled step is gauged: what the arena pools
    # plus what the plan owns (its buffers, its scratch pool and its
    # backward tape) is at least 90 % of the heap a capture and two replays
    # leave traced.  The rest is graph nodes, closures and optimizer state.
    import gc
    import tracemalloc

    model = build_model("opt-tiny", seed=0)
    apply_lora(model)
    tuner = _captured(model)
    ids = np.random.default_rng(3).integers(0, model.config.vocab_size,
                                            size=(1, 256))
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(3):                         # capture, two replays
            tuner.step(ids)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    capture = tuner.capture
    assert capture.full_replays == 2, capture.full_fail_reason
    gauges = capture.gauges()
    assert gauges["plan_bytes"] == (capture.forward_plan.nbytes
                                    + capture.backward_bytes()) > 0
    covered = gauges["arena_bytes"] + gauges["plan_bytes"]
    assert 0.9 * grown <= covered <= grown, (covered, grown)


@pytest.mark.alloc
def test_no_step_buffer_is_vocabulary_sized():
    # The LM head's logits, their exponentials and their gradient exist a
    # chunk of rows at a time, so after a replayed step no buffer the plan,
    # its backward tape or the arena holds has (seq - 1) * vocab elements.  Attention runs row
    # tiles of 64 here: at the default 128 its score tile, heads * seq * 128
    # = 262 144 elements, is 0.2 % over this model's (seq - 1) * vocab.
    seq = 512
    model = build_model("opt-tiny", seed=0)
    apply_lora(model)
    tuner = _captured(model, AttentionConfig(streaming_tile=64))
    ids = np.random.default_rng(3).integers(0, model.config.vocab_size,
                                            size=(1, seq))
    for _ in range(2):                             # capture, replay
        tuner.step(ids)
    capture = tuner.capture
    assert capture.full_replays == 1, capture.full_fail_reason
    buffers = (capture.forward_plan.buffers + capture.backward_tape.buffers
               + capture.arena.buffers())
    largest = max(buf.size for buf in buffers)
    assert largest < (seq - 1) * model.config.vocab_size, largest


@pytest.mark.alloc
def test_no_step_buffer_holds_a_whole_mlp_activation():
    # A frozen MLP walks its rows a chunk at a time: after a replayed step
    # neither the plan, its forward-only slab, its backward tape nor the
    # arena holds a
    # (seq, 4 * dim) float32 array — no hidden activation and no activation
    # gradient — while the backward keeps each layer's ReLU mask whole.
    seq = 512
    model = build_model("opt-tiny", seed=0)
    apply_lora(model)
    tuner = _captured(model)
    ids = np.random.default_rng(3).integers(0, model.config.vocab_size,
                                            size=(1, seq))
    for _ in range(2):                             # capture, replay
        tuner.step(ids)
    capture = tuner.capture
    assert capture.full_replays == 1, capture.full_fail_reason
    hidden = model.config.hidden_dim
    whole = [buf for buf in capture.forward_plan.buffers
             + capture.backward_tape.distinct() + capture.arena.buffers()
             if buf.ndim and buf.shape[-1] == hidden and buf.size == seq * hidden]
    assert ([buf.dtype for buf in whole]
            == [np.dtype(bool)] * model.config.num_layers), \
        [(buf.shape, buf.dtype) for buf in whole]
    assert not [shape for shape, _, _, _ in capture.slab_plan.slots.values()
                if shape[-1:] == (hidden,) and np.prod(shape) == seq * hidden]


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_capture_mode_leaves_globals_clean():
    tuner, ids = _build_tuner("dense")
    for _ in range(3):
        tuner.step(ids)
    assert tensor_arena.active() is None
    assert tensor_plan.recorder() is None


# ---------------------------------------------------------------------------
# streaming tiled attention: capture parity, heap steadiness, the memory wall
# ---------------------------------------------------------------------------

# Both execution paths, as an input: "compiled" replays the whole step;
# "interpreted" is the same tuner behind a coverage gap, so its steps run
# interpreted through the fused kernels over recycled arena buffers.
TIERS = ["compiled", "interpreted"]


def _build_streaming_tuner(seq: int = 48, tile: int = 16,
                           tier: str = "compiled", batch: int = 2,
                           model: str = "gpt2-tiny", capture: bool = True):
    """Dense tuner with the row tile wired via the config; returns
    (tuner, ids)."""
    model = build_model(model, seed=0)
    if tier == "interpreted":
        _add_uncovered_op(model)
    rng = np.random.default_rng(3)
    optimizer = Adam(model.trainable_parameters(), lr=1e-3)
    tuner = FineTuner(model,
                      TrainingConfig(
                          capture=CaptureConfig(enabled=capture),
                          attention=AttentionConfig(streaming_tile=tile)),
                      optimizer=optimizer)
    ids = rng.integers(0, model.config.vocab_size, size=(batch, seq))
    return tuner, ids


def _assert_tier(capture: StepCapture, tier: str, replays: int) -> None:
    if tier == "compiled":
        assert capture.full_captures == 1, capture.full_fail_reason
        assert capture.full_replays == replays
    else:
        assert capture.full_captures == 0 and capture.full_replays == 0
        assert "coverage gap" in capture.full_fail_reason


@pytest.mark.parity
@pytest.mark.parametrize("tier", TIERS)
def test_streaming_capture_replay_bitwise_identical(tier):
    # The streaming kernels' bodies — replayed from the plan, or run
    # interpreted over arena buffers behind a coverage gap — must
    # reproduce the uncaptured streaming step bit for bit; seq=48 with
    # tile=16 exercises multiple tiles per row block.
    results = []
    for use_capture in (False, True):
        tuner, ids = _build_streaming_tuner(tier=tier, capture=use_capture)
        losses = [tuner.step(ids)[0] for _ in range(4)]
        params = [p.data.copy() for p in tuner.optimizer.params]
        results.append((losses, params, tuner.capture))
    (base_losses, base_params, _), (cap_losses, cap_params, cap) = results
    assert base_losses == cap_losses
    for a, b in zip(base_params, cap_params):
        assert np.array_equal(a, b)
    _assert_tier(cap, tier, replays=3)


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("tier", TIERS)
def test_streaming_zero_allocations_after_capture(tier):
    tuner, ids = _build_streaming_tuner(tier=tier)
    tuner.step(ids)                                # capture (+ full compile)
    capture = tuner.capture
    for _ in range(2):
        tuner.step(ids)
        assert capture.last_step_allocations == 0, \
            "streaming captured steady state still allocates"
    _assert_tier(capture, tier, replays=2)


@pytest.mark.perf_smoke
@pytest.mark.alloc
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("tile", [256, 64], ids=["materializing", "streaming"])
@pytest.mark.parametrize("model", ["gpt2-tiny", "opt-tiny"])   # GeLU, ReLU
def test_replayed_steps_heap_steady(model, tile, tier):
    # Deeper gate than the arena counters: tracemalloc sees *every* heap
    # allocation, so per-step ufunc temporaries the arena never notices
    # (``denom = x.sum(...)``, an ``~attn_mask`` inside a masked fill) show
    # up here as peak-traced-memory deltas at array scale — a
    # (1, 4, 256, 256) float32 temp is 1 MiB against a 128 KiB budget.
    # The irreducible floor under the budget is NumPy's constant-size
    # broadcast-iterator buffers (~32 KiB per buffered in-place broadcast
    # op, sequence-independent), ~65 KiB peak at this config.  Steady-state
    # heap *growth* is gated separately after a gc.collect() — graph-node
    # reference cycles are reclaimed by the cycle collector, not refcounts,
    # so without the collect the reading would race GC scheduling; the
    # remaining ~2 KiB/step drift is tracemalloc's own trace table plus
    # arena bookkeeping reaching steady state, far below the 64 KiB/step
    # signature of leaking even a single (256, 64) float32 tile.
    import gc
    import tracemalloc

    # A 256-row tile is one tile over the whole sequence: the materialising
    # shape of the same kernel.
    tuner, ids = _build_streaming_tuner(seq=256, tile=tile, tier=tier,
                                        batch=1, model=model)
    try:
        for _ in range(8):                         # capture, replays
            tuner.step(ids)
        capture = tuner.capture
        _assert_tier(capture, tier, replays=7)
        gc.collect()
        tracemalloc.start()
        for _ in range(2):                         # stabilise tracer overhead
            tuner.step(ids)
        gc.collect()
        current0, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            tuner.step(ids)
            _, peak = tracemalloc.get_traced_memory()
            assert capture.last_step_allocations == 0
            assert peak - before < 128 * 1024, \
                f"replayed step allocated {peak - before} transient heap bytes"
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert current - current0 < 24 * 1024, \
            f"3 replayed steps grew the heap by {current - current0} bytes"
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_refresh_step_forward_retains_no_heap_arrays():
    # predict_interval=1 makes every step a mask refresh: the forward runs
    # interpreted through block-sparse attention and the neuron-sparse MLP
    # over arena buffers.  Whatever it saves for the backward must come from
    # the arena too — a heap ``pre > 0`` ReLU mask per MLP is 147 648 B live
    # at the end of this forward (202 KiB in all) against the ~49 KiB of
    # graph nodes, closures and layout bookkeeping that legitimately remain.
    import gc
    import tracemalloc

    tuner, ids = _build_tuner("predicted", seq=256)
    plain_loss = tuner.model.loss
    held = []

    def loss_then_measure(ids, labels=None):
        out = plain_loss(ids, labels=labels)
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    try:
        for _ in range(4):                         # refreshes over a warm arena
            tuner.step(ids)
        capture = tuner.capture
        assert capture.steps == 4 and capture.full_replays == 0
        tuner.model.loss = loss_then_measure
        tracemalloc.start()
        for _ in range(2):                         # stabilise tracer overhead
            tuner.step(ids)
        for _ in range(3):
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            tuner.step(ids)
            assert capture.last_step_allocations == 0
            assert held[-1] - before < 96 * 1024, \
                f"refresh forward kept {held[-1] - before} heap bytes alive"
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        tuner.model.loss = plain_loss
        tuner.engine.uninstall(tuner.model)


@pytest.mark.perf_smoke
@pytest.mark.alloc
def test_seq4096_streaming_breaks_memory_wall():
    # The tentpole gate: a seq-4096 batch-1 LoRA step in row tiles of 128
    # must peak at < 1/4 of one 4096-row tile's traced memory (one tile is
    # the materialising shape: (1, heads, 4096, 4096) score and dS buffers;
    # tiles of 128 keep O(seq * tile) scratch plus the logsumexp).
    import tracemalloc

    from repro.models import ModelConfig

    cfg = ModelConfig(name="longctx-nano", family="gpt2", vocab_size=128,
                      max_seq_len=4096, dim=32, num_layers=1, num_heads=2,
                      activation="gelu", sparsify_init=False)
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(1, 4096))
    peaks = {}
    try:
        for tile in (4096, 128):
            model = build_model(cfg, seed=0)
            apply_lora(model)
            tuner = FineTuner(model, TrainingConfig(attention=AttentionConfig(
                streaming_tile=tile)))
            tracemalloc.start()
            loss, _ = tuner.step(ids)
            _, peaks[tile] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert np.isfinite(loss)
        assert peaks[128] * 4 < peaks[4096], \
            f"tile-128 peak {peaks[128]} not <1/4 of " \
            f"one-tile {peaks[4096]}"
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
