"""Phase-timed fine-tuning trainer.

The trainer reproduces the measurement protocol behind the paper's Table I,
Figure 7, Figure 10 and Figure 13: every training step is split into the
forward pass, the backward pass and the optimizer step, each timed with
``time.perf_counter``; when a LongExposure engine is attached, the prediction
overhead its backends accumulate is reported as a separate phase (it is part
of the forward/backward wall-clock, shown separately for the breakdown).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.nn import Module, MultiHeadAttention
from repro.optim import Adam, clip_grad_norm
from repro.runtime.capture import StepCapture
from repro.runtime.profiler import PhaseProfiler
from repro.tensor import fused


@dataclass
class CaptureConfig:
    """Steady-state step capture (see :mod:`repro.runtime.capture`).

    With ``enabled``, after ``warmup`` uncaptured steps the tuner records one
    step — forward kernel calls, backward schedule, buffer population — and
    replays it: steady-state steps run forward + backward + optimizer tail
    through recycled buffers without building a single Python graph node,
    bitwise identical to the uncaptured path.  A shape change triggers
    exactly one re-capture, and with a sparsity engine every mask-refresh
    step is one: it records the plan the next ``predict_interval - 1`` steps
    replay.  Steps that cannot replay a compiled plan (reference kernels, an
    op with no replay form) run interpreted over the same recycled buffers;
    which one a step gets is decided from what the step observes, not
    configured.
    """

    enabled: bool = False
    warmup: int = 1
    # The plan runs its thunks in recorded order on the calling thread.  Not
    # a field and read by nothing in the package: a self-test under
    # benchmarks/e2e/ (frozen by BENCHMARK.json) reads this name back, and
    # the constant goes when that assertion does.
    executor_threads = 1


@dataclass
class AttentionConfig:
    """Dense attention's kernel, set once on the tuner's model.

    With ``streaming`` the dense-attention path runs the row-tiled kernel
    (see :func:`repro.tensor.fused.streaming_attention`) over query-row
    tiles ``streaming_tile`` rows high, each reading the keys up to its
    mask's last kept column, never materialising the quadratic score matrix
    — the long-context choice, and under a causal mask about half the work
    of the materialising kernel.  :class:`FineTuner` writes it into every
    :class:`~repro.nn.attention.MultiHeadAttention`'s ``row_tile`` at
    construction; sparse backends run the same kernel and pick their row
    tile from the layout.
    """

    streaming: bool = False
    streaming_tile: int = 128


@dataclass
class TrainingConfig:
    """Hyper-parameters of the fine-tuning loop.

    The capture/compiler and attention-routing toggles live in the nested
    :class:`CaptureConfig` and :class:`AttentionConfig` groups::

        TrainingConfig(capture=CaptureConfig(enabled=True),
                       attention=AttentionConfig(streaming=True))
    """

    learning_rate: float = 1e-3
    grad_clip: float = 0.0
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    # Data parallelism: with N > 1,
    # :class:`repro.runtime.distributed.DataParallelTrainer` runs N worker
    # processes over this config, each stepping its batch shard and
    # exchanging gradients through a shared-memory flat-buffer all-reduce.
    # FineTuner itself always runs one process; the knob tells the
    # distributed front-end how wide to go.
    data_parallel_workers: int = 1


@dataclass
class PhaseTimings:
    """Per-phase timing of one training step (seconds).

    ``comm`` is the data-parallel gradient-exchange time (barrier waits +
    chunked reduce + mask broadcast); it is zero for single-process training
    and broken out of the optimizer phase so scaling regressions are
    attributable from the step breakdown alone.
    """

    forward: float
    backward: float
    optimizer: float
    prediction: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        return self.forward + self.backward + self.optimizer + self.comm

    def as_milliseconds(self) -> dict:
        return {
            "forward_ms": self.forward * 1000,
            "backward_ms": self.backward * 1000,
            "optimizer_ms": self.optimizer * 1000,
            "prediction_ms": self.prediction * 1000,
            "comm_ms": self.comm * 1000,
            "total_ms": self.total * 1000,
        }


@dataclass
class TrainingReport:
    """Aggregate result of a fine-tuning run."""

    steps: int
    losses: List[float]
    step_timings: List[PhaseTimings]
    tokens_processed: int

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    def mean_timings(self, skip_warmup: int = 1) -> PhaseTimings:
        """Average phase timings, skipping warm-up steps (cache effects)."""
        timings = self.step_timings[skip_warmup:] or self.step_timings
        return PhaseTimings(
            forward=float(np.mean([t.forward for t in timings])),
            backward=float(np.mean([t.backward for t in timings])),
            optimizer=float(np.mean([t.optimizer for t in timings])),
            prediction=float(np.mean([t.prediction for t in timings])),
            comm=float(np.mean([t.comm for t in timings])),
        )

    def mean_step_ms(self, skip_warmup: int = 1) -> float:
        return self.mean_timings(skip_warmup).total * 1000

    def breakdown_table(self) -> str:
        """Table-I-style row: phase times and their share of the total."""
        mean = self.mean_timings()
        total = mean.total or 1.0
        return (f"fwd {mean.forward * 1000:7.1f}ms ({mean.forward / total:5.1%})  "
                f"bwd {mean.backward * 1000:7.1f}ms ({mean.backward / total:5.1%})  "
                f"optim {mean.optimizer * 1000:6.1f}ms ({mean.optimizer / total:5.1%})  "
                f"total {total * 1000:7.1f}ms")


class FineTuner:
    """Runs fine-tuning steps on a (PEFT-adapted, optionally sparsified) model.

    Parameters
    ----------
    model:
        Any module exposing ``loss(input_ids) -> (Tensor, int)`` — a
        :class:`repro.models.CausalLMModel` or a PEFT wrapper around one.
    optimizer:
        :class:`~repro.optim.Adam` over the *trainable* parameters (the
        paper's setup); built from ``learning_rate`` when not given.
    engine:
        Optional :class:`repro.sparsity.LongExposure` whose prediction
        overhead should be read out per step.
    grad_reducer:
        Optional callable ``(params) -> seconds`` run between the backward
        pass and the optimizer update — the data-parallel gradient exchange
        (see :class:`repro.runtime.comms.GradientAllReducer`).  It must
        mutate every ``param.grad`` in place with the globally-reduced
        gradient and return the seconds it spent; the trainer reports that
        as the ``comm`` phase.  May also be assigned after construction
        (``tuner.grad_reducer = ...``), which is how the worker harness
        wires it.
    """

    def __init__(self, model: Module, config: Optional[TrainingConfig] = None,
                 optimizer: Optional[Adam] = None, engine=None,
                 capture=None, grad_reducer=None):
        self.model = model
        self.config = config or TrainingConfig()
        trainable = model.trainable_parameters()
        if not trainable:
            raise ValueError("model has no trainable parameters; apply a PEFT method first")
        self.optimizer = optimizer or Adam(trainable, lr=self.config.learning_rate)
        self.engine = engine
        self.profiler = PhaseProfiler()
        # Step capture: pass a StepCapture, True, or enable via the config.
        if capture is None:
            capture = self.config.capture.enabled
        if capture is True:
            capture = StepCapture(warmup_steps=self.config.capture.warmup)
        self.capture: Optional[StepCapture] = capture or None
        self.grad_reducer = grad_reducer
        # Kernel routing is a value on the model, set once here.  The
        # process globals a step still consults: the reference-tape flag
        # (entered only through fused.reference_kernels(), part of the
        # capture signature), the active arena and the forward recorder
        # (set and restored by StepCapture inside the step), and
        # the content-keyed geometry/causal-mask caches (value caches, safe
        # to share across tuners and tenants).
        attention = self.config.attention
        row_tile = int(attention.streaming_tile) if attention.streaming else None
        for module in model.modules():
            if isinstance(module, MultiHeadAttention):
                module.row_tile = row_tile
        # Flat-update closure for compiled steps (None -> ordinary step()).
        self._optim_plan_tail = self.optimizer.plan_tail()

    def step_signature(self, input_ids: np.ndarray,
                       labels: Optional[np.ndarray] = None):
        """Everything that shapes the step's graph; a change forces re-capture.

        The multi-tenant service buckets requests by this key: requests with
        equal signatures replay one compiled plan.
        """
        input_ids = np.asarray(input_ids)
        return (input_ids.shape, str(input_ids.dtype),
                None if labels is None else np.asarray(labels).shape,
                fused.fused_kernels_enabled())

    # -- single step -------------------------------------------------------------
    def step(self, input_ids: np.ndarray,
             labels: Optional[np.ndarray] = None) -> (float, PhaseTimings):
        """One fine-tuning step; returns (loss value, phase timings)."""
        if self.engine is not None:
            # Drive the prediction scheduler: with predict_interval=K the
            # sparse backends re-derive their masks every K-th step and reuse
            # them in between.
            self.engine.advance_step()
        engine_pred_before = self.engine.stats.prediction_seconds if self.engine else 0.0

        capture = self.capture
        if capture is not None:
            input_ids = np.asarray(input_ids)
            capture.begin_step(self.step_signature(input_ids, labels))
        loss_value: Optional[float] = None
        forward_s = backward_s = 0.0
        replayed = False
        try:
            # A step runs compiled when fused kernels are on.  A mask-refresh
            # step is the capture step: the live plan goes *before* the
            # forward (its buffers and the new plan's never coexist) and the
            # new one is recorded *during* it (see capture.py, item 4).  Only
            # with predict_interval 1, where every step refreshes and nothing
            # would ever be replayed, does the step stay interpreted.
            full = False
            if capture is not None:
                if not fused.fused_kernels_enabled():
                    capture.full_fail_reason = "reference kernels"
                elif (self.engine is None
                      or not self.engine.refresh_due(input_ids.shape[-1])):
                    full = True
                elif self.engine.config.predict_interval > 1:
                    capture.drop_full_plan()
                    full = True
            if full and capture.full_ready() and self.engine is not None \
                    and self.engine.layout_state() != capture.full_layout_state:
                # Layouts adopted from another replica (data-parallel ranks
                # != 0) moved the masks under the plan's closed-over geometry.
                capture.drop_full_plan("sparsity layout changed since capture")
            if full and capture.full_ready():
                capture.stage("input_ids", input_ids)
                if labels is not None:
                    capture.stage("labels", labels)
                start = time.perf_counter()
                try:
                    capture.replay_full_forward()
                    forward_s = time.perf_counter() - start
                    start = time.perf_counter()
                    capture.replay_full_backward()
                    backward_s = time.perf_counter() - start
                    loss_value = capture.full_loss_value()
                    replayed = True
                except Exception as exc:
                    # A partial replay may have half-written gradients; zero
                    # them and fall through to the interpreted step, which
                    # recomputes everything from scratch.
                    capture.drop_full_plan(
                        f"replay raised {type(exc).__name__}: {exc}")
                    self.optimizer.zero_grad()
                    self.model.zero_grad()
                    loss_value = None

            if loss_value is None:
                rec = None
                ids, lab = input_ids, labels
                if full and capture.wants_full_capture():
                    # Run this forward over the persistent staging buffers so
                    # the recorded thunks are bound to arrays every later
                    # replay refreshes in place.
                    ids = capture.stage("input_ids", input_ids)
                    lab = (capture.stage("labels", labels)
                           if labels is not None else None)
                    rec = capture.begin_full_capture()
                start = time.perf_counter()
                try:
                    loss, _ = self.model.loss(ids, labels=lab)
                except BaseException:
                    if rec is not None:
                        capture.abort_full_capture()
                    raise
                forward_s = time.perf_counter() - start

                start = time.perf_counter()
                if rec is not None:
                    capture.finish_full_capture(
                        loss,
                        self.engine.layout_state()
                        if self.engine is not None else None)
                elif capture is not None:
                    capture.run_backward(loss)
                else:
                    loss.backward()
                backward_s = time.perf_counter() - start
                loss_value = float(loss.data)

            start = time.perf_counter()
            comm_s = 0.0
            if self.grad_reducer is not None:
                # Data-parallel gradient exchange: every worker's shard
                # gradients are reduced to their fixed-order mean before the
                # (replicated) optimizer tail, so parameters stay bitwise
                # identical across workers.  The reducer times itself —
                # barrier waits included — and that time is reported as the
                # ``comm`` phase, not as optimizer time.
                comm_s = float(self.grad_reducer(self.optimizer.params))
            if self.config.grad_clip > 0:
                clip_grad_norm(self.optimizer.params, self.config.grad_clip)
            if replayed and self._optim_plan_tail is not None:
                self._optim_plan_tail()
            else:
                self.optimizer.step()
            self.optimizer.zero_grad()
            self.model.zero_grad()
            optimizer_s = time.perf_counter() - start - comm_s
        finally:
            if capture is not None:
                capture.end_step()

        prediction_s = 0.0
        if self.engine is not None:
            prediction_s = self.engine.stats.prediction_seconds - engine_pred_before

        self.profiler.add("forward", forward_s)
        self.profiler.add("backward", backward_s)
        self.profiler.add("optimizer", optimizer_s)
        if self.grad_reducer is not None:
            self.profiler.add("comm", comm_s)
        if self.engine is not None:
            self.profiler.add("prediction", prediction_s)
            # Figure 10's share: prediction seconds over the phase seconds
            # of every step so far (prediction runs inside the forward).
            totals = self.profiler.totals()
            phase_s = sum(totals.get(name, 0.0)
                          for name in ("forward", "backward", "optimizer", "comm"))
            self.profiler.set_gauge("prediction_fraction",
                                    totals["prediction"] / phase_s if phase_s > 0.0 else 0.0)
            for name, value in self.engine.gauges().items():
                self.profiler.set_gauge(name, value)
        if capture is not None:
            # Steady-state allocation counts + arena footprint next to the
            # phase timings: allocations/step must read ~0 once captured.
            for name, value in capture.gauges().items():
                self.profiler.set_gauge(name, value)

        timing = PhaseTimings(forward=forward_s, backward=backward_s,
                              optimizer=optimizer_s, prediction=prediction_s,
                              comm=comm_s)
        return loss_value, timing

    # -- full loop ------------------------------------------------------------------
    def train(self, batches: Iterable[np.ndarray],
              max_steps: Optional[int] = None) -> TrainingReport:
        """Fine-tune over an iterable of token-id batches.

        With ``max_steps`` at most that many batches are drawn, so an
        iterator resumes at the first batch not trained on.
        """
        losses: List[float] = []
        timings: List[PhaseTimings] = []
        tokens = 0
        for batch in itertools.islice(batches, max_steps):
            batch = np.asarray(batch)
            loss_value, timing = self.step(batch)
            losses.append(loss_value)
            timings.append(timing)
            tokens += int(batch.size)
        return TrainingReport(steps=len(losses), losses=losses,
                              step_timings=timings, tokens_processed=tokens)
