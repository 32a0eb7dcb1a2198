"""The forward-only slab: a compiled step's buffers that no backward reads
share one slab, placed by greedy interval colouring.

* the colouring itself, as a property over generated intervals;
* a forward-only buffer that is no node's whole output shares the slab;
* a frozen MLP's input and output share it, and a frozen linear's merged-
  heads input is a view of attention's kept output, outside it;
* the capture lifecycle on a predicted sparse engine: one learning forward
  at the signature's first capture, none at a refresh re-capture, and the
  losses, parameters and engine record of an uncaptured twin, bit for bit;
* a learned plan the next recording does not keep to is a counted miss,
  recorded again over plain buffers; a vetoed recording is no miss and
  keeps the plan, recorded again only if the veto moved its slab keys;
* an evicted signature stepped again learns its plan again;
* the learning recording is freed before the real one allocates, its plan
  is the one a walk made after a plain recording's forward finds (OPT and
  GPT-2, every PEFT method and engine, and a vetoing recording), and the
  capture step it belongs to peaks at a replayed step's level;
* every PEFT method's captured run is its uncaptured twin, bit for bit, and
  compiles unless a named reason keeps it interpreted;
* every float plan buffer a retained backward closure reaches is one the
  backward reads: NaN-filled after a replayed forward, it changes a
  parameter gradient.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_model
from repro.optim import Adam
from repro.peft import apply_lora, get_peft_method
from repro.runtime import CaptureConfig, FineTuner, StepCapture, TrainingConfig
from repro.runtime import capture as capture_mod
from repro.runtime.capture import SlabLearner, assign_offsets
from repro.runtime.trainer import MAX_CAPTURES
from repro.sparsity import LongExposure, LongExposureConfig
from repro.tensor import arena as tensor_arena
from repro.tensor import fused
from repro.tensor import plan as tensor_plan
from repro.tensor.arena import BufferArena
from repro.tensor.plan import SlabPlan


# ---------------------------------------------------------------------------
# the interval assignment
# ---------------------------------------------------------------------------

_BUFFERS = st.lists(
    st.tuples(st.integers(1, 4096), st.integers(0, 40), st.integers(0, 12)),
    min_size=1, max_size=24)


@settings(max_examples=200, deadline=None)
@given(buffers=_BUFFERS, align=st.sampled_from([1, 8, 64]))
def test_assignment_separates_live_buffers_within_its_bounds(buffers, align):
    sizes = [size for size, _, _ in buffers]
    intervals = [(first, first + length) for _, first, length in buffers]
    offsets, total = assign_offsets(sizes, intervals, align)
    assert all(offset % align == 0 for offset in offsets)
    assert all(offset + size <= total for offset, size in zip(offsets, sizes))
    for i in range(len(sizes)):
        for j in range(i):
            if intervals[i][0] <= intervals[j][1] and intervals[j][0] <= intervals[i][1]:
                assert (offsets[i] + sizes[i] <= offsets[j]
                        or offsets[j] + sizes[j] <= offsets[i]), (i, j)
    peak = max(sum(size for size, (first, last) in zip(sizes, intervals)
                   if first <= t <= last)
               for t in range(max(last for _, last in intervals) + 1))
    assert peak <= total <= sum(-(-size // align) * align for size in sizes)
    assert assign_offsets(sizes, intervals, align) == (offsets, total)


def test_assignment_reuses_bytes_of_disjoint_lifetimes():
    offsets, total = assign_offsets([100, 100, 100], [(0, 1), (2, 3), (1, 2)], 64)
    assert offsets == [0, 0, 128] and total == 228


# ---------------------------------------------------------------------------
# the capture lifecycle
# ---------------------------------------------------------------------------

def _counted_forwards(tuner) -> list:
    """Count ``tuner.model.loss`` calls: every forward the step runs."""
    calls = []
    loss = tuner.model.loss

    def counted(*args, **kwargs):
        calls.append(1)
        return loss(*args, **kwargs)

    tuner.model.loss = counted
    return calls


def _sparse_tuner(capture: bool, interval: int = 2, seq: int = 64):
    model = build_model("opt-tiny", seed=0)
    rng = np.random.default_rng(5)
    engine = LongExposure(LongExposureConfig(
        block_size=16, seed=0, predictor_epochs=2, predict_interval=interval))
    engine.prepare(model, [rng.integers(0, model.config.vocab_size, size=(2, seq))])
    apply_lora(model)
    engine.install(model)
    tuner = FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=capture)),
                      optimizer=Adam(model.trainable_parameters(), lr=1e-3),
                      engine=engine)
    batches = [rng.integers(0, model.config.vocab_size, size=(2, seq))
               for _ in range(7)]
    return tuner, batches


@pytest.mark.parity
def test_refresh_recaptures_reuse_the_learned_slab_bitwise():
    # predict_interval 2: steps 1, 3, 5 and 7 refresh and capture, the
    # others replay.  Only step 1 runs a second (learning) forward.
    twin, batches = _sparse_tuner(capture=False)
    tuner, _ = _sparse_tuner(capture=True)
    forwards = _counted_forwards(tuner)
    try:
        for batch in batches:
            assert tuner.step(batch)[0] == twin.step(batch)[0]
        capture = tuner.capture
        assert (capture.full_captures, capture.full_replays) == (4, 3), \
            capture.full_fail_reason
        assert len(forwards) == 4 + 1
        assert capture.slab_misses == 0
        assert capture.forward_only_bytes() > capture.slab_plan.nbytes > 0
        for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
            assert np.array_equal(a.data, b.data)
        stats, twin_stats = tuner.engine.stats, twin.engine.stats
        assert stats.layout_reuse_counts() == twin_stats.layout_reuse_counts()
        assert stats.attention_layers == twin_stats.attention_layers
        assert stats.mlp_layers == twin_stats.mlp_layers
        assert tuner.engine.layout_state() == twin.engine.layout_state()
    finally:
        for t in (tuner, twin):
            t.engine.uninstall(t.model)


def _dense_tuner(capture: bool = True):
    model = build_model("opt-tiny", seed=0)
    apply_lora(model)
    tuner = FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=capture)),
                      optimizer=Adam(model.trainable_parameters(), lr=1e-3))
    ids = np.random.default_rng(3).integers(0, model.config.vocab_size, size=(2, 64))
    return tuner, ids


def test_forward_only_buffers_need_not_be_a_nodes_output():
    # Layer 0's attention norm reads the embedding, which takes no gradient,
    # so no backward closure holds its normalised rows or inverse standard
    # deviations: both go to the slab beside the node's output, and the
    # steps stay the uncaptured twin's bit for bit.
    tuner, ids = _dense_tuner()
    twin, _ = _dense_tuner(capture=False)
    for _ in range(3):
        assert tuner.step(ids)[0] == twin.step(ids)[0]
    capture = tuner.capture
    assert (capture.full_captures, capture.full_replays) == (1, 2)
    norm = capture.slab_plan.tags.index("layer_norm")
    slots = capture.slab_plan.slots
    assert {(norm, 0), (norm, 1)} <= set(slots)   # normalized, inv_std
    sizes = {key: int(np.prod(shape)) * np.dtype(dtype).itemsize
             for key, (shape, dtype, _, _) in slots.items()}
    assert capture.forward_only_bytes() == sum(sizes.values())
    assert sizes[norm, 1] == ids.size * 4
    for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)


def test_a_frozen_kernels_input_and_output_are_forward_only(monkeypatch):
    # LoRA on q/v leaves out_proj and the MLPs frozen.  The MLP's backward
    # keeps only its ReLU mask, not its input (the norm's output) or its
    # output (which the residual sum then holds), so the slab holds both.
    # out_proj's input is no copy: merging the heads views attention's
    # output, which attention's backward reads, so it stays out of the
    # slab.  The steps stay the uncaptured twin's bit for bit.
    tuner, ids = _dense_tuner()
    twin, _ = _dense_tuner(capture=False)
    block = tuner.model.blocks[0]
    seen = {"mlp": []}
    merged = []
    linear, mlp = fused.linear, fused.mlp

    def spying_linear(x, weight, *args, **kwargs):
        rec = tensor_plan.recorder()
        if weight is block.attention.out_proj.weight and rec is not None:
            assert x.requires_grad and not weight.requires_grad
            merged.append((rec.slab, x.data))
        return linear(x, weight, *args, **kwargs)

    def spying_mlp(x, fc1_weight, *args, **kwargs):
        out = mlp(x, fc1_weight, *args, **kwargs)
        rec = tensor_plan.recorder()
        if fc1_weight is block.mlp.fc1.weight and rec is not None:
            assert x.requires_grad and not fc1_weight.requires_grad
            seen["mlp"].append((rec.slab, x.data, out.data))
        return out

    monkeypatch.setattr(fused, "linear", spying_linear)
    monkeypatch.setattr(fused, "mlp", spying_mlp)
    for _ in range(3):
        assert tuner.step(ids)[0] == twin.step(ids)[0]
    capture = tuner.capture
    assert (capture.full_captures, capture.full_replays) == (1, 2)
    for kernel, calls in seen.items():
        assert len(calls) == 2, kernel             # learning, then slab recording
        (no_slab, *learned), (slab, *placed) = calls
        assert no_slab is None and slab is not None
        for before, after in zip(learned, placed):
            assert np.shares_memory(after, slab) and not np.shares_memory(before, after)
    assert len(merged) == 2
    for slab, x in merged:
        assert not x.flags.owndata and (slab is None or not np.shares_memory(x, slab))
    for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parity
def test_a_plan_the_recording_breaks_is_a_counted_miss(monkeypatch):
    # Every uninitialised plan buffer at offset 0 of one slab: the backward
    # reaches the slab, and the forward's buffers overwrite each other.  Each
    # capture notices, records again over plain buffers, and stays bitwise.
    learn = SlabLearner.plan

    def everything_at_zero(learner, results):
        plan = learn(learner, results)
        slots = {key: site + (0, len(learner.tags) - 1)
                 for key, site, _ in learner.candidates}
        return plan and SlabPlan(slots, max(size for _, _, size in learner.candidates),
                                 plan.tags)

    monkeypatch.setattr(SlabLearner, "plan", everything_at_zero)
    tuner, ids = _dense_tuner()
    twin, _ = _dense_tuner(capture=False)
    for _ in range(3):
        assert tuner.step(ids)[0] == twin.step(ids)[0]
    tuner.capture.drop_full_plan()
    for _ in range(2):
        assert tuner.step(ids)[0] == twin.step(ids)[0]
    capture = tuner.capture
    assert capture.slab_misses == 2                # both captures
    assert (capture.full_captures, capture.full_replays) == (2, 3)
    assert capture.forward_only_bytes() == 0       # plain buffers
    for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)


def test_an_evicted_signature_relearns_its_slab_bitwise():
    # MAX_CAPTURES + 1 lengths evict the first; stepped again it is a new
    # capture, which learns its slab plan again before it records, and
    # replays it — every step the uncaptured twin's bit for bit.
    tuner, ids = _dense_tuner()
    twin, _ = _dense_tuner(capture=False)
    forwards = _counted_forwards(tuner)
    shapes = [ids[:, :8 * (i + 1)] for i in range(MAX_CAPTURES + 1)]
    for batch in shapes + [shapes[0], shapes[0]]:
        assert tuner.step(batch)[0] == twin.step(batch)[0]
    assert len(forwards) == 2 * (len(shapes) + 1)  # each learns, then records
    capture = tuner.capture
    assert (capture.full_captures, capture.full_replays) == (1, 1)
    assert capture.slab_misses == 0 and capture.forward_plan.slots
    for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)


def test_a_vetoed_recording_keeps_the_learned_slab_plan():
    # A recording the recorder vetoes is not recorded again: the step runs
    # its forward once, interpreted, with the recorder's reason, and the
    # plan learned before it serves the next capture (one forward).
    tuner, ids = _dense_tuner()
    twin, _ = _dense_tuner(capture=False)
    for _ in range(2):
        assert tuner.step(ids)[0] == twin.step(ids)[0]
    capture = tuner.capture
    learned = capture.slab_plan
    capture.drop_full_plan()
    forwards = _counted_forwards(tuner)
    veto = [True]
    loss = tuner.model.loss

    def vetoed(*args, **kwargs):
        if veto[0] and tensor_plan.recorder() is not None:
            tensor_plan.recorder().fail("injected veto")
        return loss(*args, **kwargs)

    tuner.model.loss = vetoed
    assert tuner.step(ids)[0] == twin.step(ids)[0]
    assert len(forwards) == 1
    assert capture.full_fail_reason == "injected veto"
    assert capture.slab_misses == 0 and capture.slab_plan is learned
    assert capture.forward_plan is None and capture.full_captures == 1
    veto[0] = False
    assert tuner.step(ids)[0] == twin.step(ids)[0]
    assert len(forwards) == 2
    assert capture.full_captures == 2 and capture.forward_plan.slots
    for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parity
def test_a_veto_that_moves_the_slab_keys_records_again_bitwise(monkeypatch):
    # Layer 0's out_proj input turns non-contiguous at a re-capture under a
    # learned plan: that linear vetoes and records no entry, so every later
    # allocation's key moves onto another's slab slot.  The forward is
    # recorded again over plain buffers (vetoed again, no miss, the plan
    # kept) and the step stays the uncaptured twin's bit for bit.
    tuner, ids = _dense_tuner()
    twin, _ = _dense_tuner(capture=False)
    for _ in range(2):
        assert tuner.step(ids)[0] == twin.step(ids)[0]
    capture = tuner.capture
    learned = capture.slab_plan
    capture.drop_full_plan()
    forwards = _counted_forwards(tuner)
    strided = {id(t.model.blocks[0].attention.out_proj.weight) for t in (tuner, twin)}
    linear = fused.linear

    def strided_linear(x, weight, *args, **kwargs):
        if id(weight) in strided:
            x.data = np.asfortranarray(x.data)
        return linear(x, weight, *args, **kwargs)

    monkeypatch.setattr(fused, "linear", strided_linear)
    assert tuner.step(ids)[0] == twin.step(ids)[0]
    for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)
    assert len(forwards) == 2
    assert capture.full_fail_reason == "linear over a non-contiguous activation"
    assert capture.slab_misses == 0 and capture.slab_plan is learned
    assert capture.forward_plan is None
    monkeypatch.setattr(fused, "linear", linear)
    assert tuner.step(ids)[0] == twin.step(ids)[0]
    assert len(forwards) == 3
    assert capture.full_captures == 2 and capture.forward_plan.slots
    for a, b in zip(tuner.optimizer.params, twin.optimizer.params):
        assert np.array_equal(a.data, b.data)


def test_learning_recording_is_freed_before_the_real_one(monkeypatch):
    refs = []
    keep, record = SlabLearner._keep, StepCapture._record

    def spying_keep(learner, buf, key):
        refs.append(weakref.ref(buf))
        return keep(learner, buf, key)

    def checked_record(self, forward, slab_plan):
        if slab_plan is not None:
            assert refs and not any(ref() is not None for ref in refs)
        return record(self, forward, slab_plan)

    monkeypatch.setattr(SlabLearner, "_keep", spying_keep)
    monkeypatch.setattr(StepCapture, "_record", checked_record)
    tuner, ids = _dense_tuner()
    gc.collect()
    gc.disable()                                   # freed by refcounts alone
    try:
        tuner.step(ids)
    finally:
        gc.enable()
    assert tuner.capture.slab_plan is not None and tuner.capture.forward_plan.slots


# ---------------------------------------------------------------------------
# the learner against a walk made after the forward
# ---------------------------------------------------------------------------

def _after_the_fact_plan(rec, loss, staged):
    """The slab plan of a plain recording ``rec`` (loss ``loss``) from walks
    made once its forward is over: every array the retained backward
    closures, the loss and the staged inputs reach takes its buffer out, and
    every other uninitialised buffer lives from the entry that binds it to
    the last entry whose thunk reaches it."""
    roots = ([node._backward for node in loss._schedule() if node._backward is not None]
             + [loss, *staged])
    candidates = [i for i, (buf, key) in enumerate(zip(rec.buffers, rec.keys))
                  if key is not None and buf.nbytes]
    backward = capture_mod._touched(capture_mod._reached(roots),
                                    [rec.buffers[i] for i in candidates])
    chosen = [i for k, i in enumerate(candidates) if k not in backward]
    if not chosen:
        return None
    buffers = [rec.buffers[i] for i in chosen]
    last = [rec.keys[i][0] for i in chosen]
    for j, entry in enumerate(rec.entries):
        for k in capture_mod._touched(capture_mod._reached([entry.run]), buffers):
            last[k] = max(last[k], j)
    intervals = [(rec.keys[i][0], end) for i, end in zip(chosen, last)]
    offsets, nbytes = assign_offsets([buf.nbytes for buf in buffers], intervals)
    slots = {rec.keys[i]: (buf.shape, buf.dtype.str, offset, end)
             for i, buf, offset, (_, end) in zip(chosen, buffers, offsets, intervals)}
    return SlabPlan(slots, nbytes, [entry.tag for entry in rec.entries])


def _plan_fields(plan):
    return None if plan is None else (plan.slots, plan.nbytes, plan.tags)


def _check_learning_against_the_walk(monkeypatch) -> list:
    """Make each learning recording be followed by a plain recording of the
    same forward, and assert that the learner's plan is what a walk after
    that recording's forward finds.  Returns each learner's ``(plan,
    ok())``, the plan as it was learned whether or not the forward
    recorded."""
    learned = []
    plan, learn = SlabLearner.plan, StepCapture._learn

    def kept_plan(learner, results):
        learned.append((plan(learner, results), learner.ok()))
        return learned[-1][0]

    def checked_learn(self, forward):
        result = learn(self, forward)
        rec = tensor_plan.ForwardRecorder()
        loss = capture_mod._recording(rec, forward)
        expected = _after_the_fact_plan(rec, loss, self._staged.values())
        capture_mod._break_graph(loss, rec)
        raw, ok = learned[-1]
        assert ok == rec.ok(), rec.fail_reason
        assert _plan_fields(raw) == _plan_fields(expected)
        assert result is (raw if ok else None)
        return result

    monkeypatch.setattr(SlabLearner, "plan", kept_plan)
    monkeypatch.setattr(StepCapture, "_learn", checked_learn)
    return learned


def _peft_tuner(model_name: str, method: str, engine: str, capture: bool = True):
    model = build_model(model_name, seed=0)
    rng = np.random.default_rng(4)
    sparse = None
    if engine != "none":
        sparse = LongExposure(LongExposureConfig(
            block_size=16, seed=0, oracle_mode=engine == "oracle",
            predictor_epochs=1, predict_interval=2))
        sparse.prepare(model, [rng.integers(0, model.config.vocab_size, size=(1, 48))])
    model, _ = get_peft_method(method)(model)
    if sparse is not None:
        sparse.install(model)
    tuner = FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=capture)),
                      engine=sparse)
    return tuner, rng.integers(0, model.config.vocab_size, size=(2, 48))


# Why a setup of the grid below runs interpreted; every other one compiles.
# Prefix tuning's tanh, concatenate and slice have no record seam.  (An
# engine's neuron-sparse MLP over trainable base tensors — BitFit's fc1
# bias, full fine-tuning's weights — re-gathers them in its thunk and
# compiles.)
_PREFIX_GAP = "forward coverage gap: 49 nodes built, 45 covered"
_INTERPRETED: dict = {}


@pytest.mark.parity
@pytest.mark.parametrize("engine", ["none", "oracle"])
@pytest.mark.parametrize("method", ["lora", "adapter", "bitfit", "prefix", "full"])
@pytest.mark.parametrize("model_name", ["opt-tiny", "gpt2-tiny"])
def test_each_peft_method_compiles_to_its_uncaptured_twin(model_name, method, engine):
    runs = [_peft_tuner(model_name, method, engine, capture=capture)
            for capture in (True, False)]
    try:
        for _ in range(4):
            captured, plain = (tuner.step(ids)[0] for tuner, ids in runs)
            assert captured == plain
    finally:
        for tuner, _ in runs:
            if tuner.engine is not None:
                tuner.engine.uninstall(tuner.model)
    (captured, _), (plain, _) = runs
    for a, b in zip(captured.optimizer.params, plain.optimizer.params):
        assert np.array_equal(a.data, b.data)
    expected = (_PREFIX_GAP if method == "prefix"
                else _INTERPRETED.get((model_name, method, engine), ""))
    assert captured.capture.full_fail_reason == expected
    if not expected:
        assert captured.capture.full_captures >= 1
        assert captured.capture.full_replays >= 1


def _replayed_grads(capture, poisoned=None) -> list:
    """The leaf gradients of one replay of ``capture``'s plan, forward then
    retained backward, with ``poisoned`` NaN-filled between the two.  The
    backward takes a private arena, and the leaves' gradients are put back."""
    schedule = capture.full_schedule
    leaves = [node for node in schedule if node._backward is None]
    saved = [leaf.grad for leaf in leaves]
    try:
        with tensor_arena.scope(BufferArena()):
            for leaf in leaves:
                leaf.grad = None
            capture.forward_plan.run()
            if poisoned is not None:
                poisoned.fill(np.nan)
            capture.full_loss._execute_backward(schedule, capture.full_seed,
                                                False, True)
            return [None if leaf.grad is None else leaf.grad.copy()
                    for leaf in leaves]
    finally:
        for leaf, grad in zip(leaves, saved):
            leaf.grad = grad


@pytest.mark.parity
@pytest.mark.parametrize("engine", ["none", "oracle"])
@pytest.mark.parametrize("method", ["lora", "bitfit", "adapter"])
@pytest.mark.parametrize("model_name", ["opt-tiny", "gpt2-tiny"])
def test_the_walk_keeps_only_plan_buffers_the_backward_reads(model_name, method,
                                                             engine):
    # Every float plan buffer a retained backward closure reaches stays out
    # of the slab and is kept whole for the step, so the backward must read
    # it: NaN-filled after a replayed forward, it changes some parameter
    # gradient.  A closure that keeps a Tensor or a buffer only for a flag
    # or a shape fails here.  Scratch is left out: whoever uses it rewrites
    # it first.
    tuner, ids = _peft_tuner(model_name, method, engine)
    try:
        for _ in range(2):                         # capture, replay
            tuner.step(ids)
        capture = tuner.capture
        if (model_name, method, engine) in _INTERPRETED:
            assert capture.forward_plan is None
            return
        plan = capture.forward_plan
        roots = [node._backward for node in capture.full_schedule
                 if node._backward is not None]
        scratch = {id(buf) for buf in plan.scratch}
        floats = [buf for buf in plan.buffers
                  if buf.dtype.kind == "f" and id(buf) not in scratch]
        reached = capture_mod._touched(capture_mod._reached(roots), floats)
        assert reached
        clean = _replayed_grads(capture)
        for i in sorted(reached):
            poisoned = _replayed_grads(capture, floats[i])
            assert any((a is None) != (b is None)
                       or (a is not None and not np.array_equal(a, b))
                       for a, b in zip(poisoned, clean)), floats[i].shape
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)


@pytest.mark.parity
@pytest.mark.parametrize("engine", ["none", "oracle", "predicted"])
@pytest.mark.parametrize("method", ["lora", "adapter", "bitfit", "prefix", "full"])
@pytest.mark.parametrize("model_name", ["opt-tiny", "gpt2-tiny"])
def test_the_learner_plans_what_a_walk_after_the_forward_finds(
        model_name, method, engine, monkeypatch):
    # The learner walks each thunk as it is recorded and each backward
    # closure as its node is built, and keeps neither; a walk over a plain
    # recording of the same forward, made after it, must find the same
    # slots, offsets, slab size and entry tags.
    learned = _check_learning_against_the_walk(monkeypatch)
    tuner, ids = _peft_tuner(model_name, method, engine)
    try:
        for _ in range(3):
            tuner.step(ids)
    finally:
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)
    assert learned
    if any(ok for _, ok in learned):
        assert tuner.capture.full_captures


@pytest.mark.parity
def test_a_vetoing_learner_plans_what_the_walk_finds(monkeypatch):
    # Layer 0's out_proj input is non-contiguous: that linear vetoes and
    # records no entry, so every later key moves.  The learner's plan is
    # still the walk's, and the capture keeps none: the step runs plainly.
    learned = _check_learning_against_the_walk(monkeypatch)
    tuner, ids = _dense_tuner()
    weight = tuner.model.blocks[0].attention.out_proj.weight
    linear = fused.linear

    def strided_linear(x, w, *args, **kwargs):
        if w is weight:
            x.data = np.asfortranarray(x.data)
        return linear(x, w, *args, **kwargs)

    monkeypatch.setattr(fused, "linear", strided_linear)
    tuner.step(ids)
    (plan, ok), = learned
    assert not ok and plan is not None and plan.slots
    assert tuner.capture.slab_plan is None and tuner.capture.forward_plan is None
    assert tuner.capture.full_fail_reason == "linear over a non-contiguous activation"


@pytest.mark.alloc
@pytest.mark.parametrize("engine", ["none", "predicted"])
def test_the_capture_step_peaks_at_a_replays_level(engine):
    # A signature's first capture runs its forward twice.  The first,
    # learning, recording keeps no thunk, closure or graph edge, so its
    # buffers die at their last use and the capture step's traced peak is
    # its replays' (on opt-small at 1 x 512 ~1.00x, dense and predicted
    # sparse alike; 1.06x and 1.08x while that recording held every buffer
    # of the forward until it ended).
    import tracemalloc

    model = build_model("opt-small", seed=0)
    rng = np.random.default_rng(0)
    sparse = None
    if engine == "predicted":
        sparse = LongExposure(LongExposureConfig(
            block_size=16, seed=0, predictor_epochs=1, predict_interval=4))
        sparse.prepare(model, [rng.integers(0, model.config.vocab_size, size=(1, 512))])
    apply_lora(model)
    if sparse is not None:
        sparse.install(model)
    tuner = FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=True)),
                      engine=sparse)
    ids = rng.integers(0, model.config.vocab_size, size=(1, 512))
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(4):
            tracemalloc.reset_peak()
            tuner.step(ids)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        if sparse is not None:
            sparse.uninstall(model)
    capture = tuner.capture
    assert (capture.full_captures, capture.full_replays) == (1, 3)
    assert capture.forward_plan.slots
    assert peaks[0] <= 1.02 * max(peaks[1:]), [p / 2 ** 20 for p in peaks]
