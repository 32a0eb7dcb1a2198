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
from typing import Dict, Hashable, Iterable, List, Optional

import numpy as np

from repro.nn import Module, MultiHeadAttention
from repro.nn.attention import ROW_TILE
from repro.optim import Adam, clip_grad_norm
from repro.runtime.capture import StepCapture
from repro.runtime.profiler import PhaseProfiler
from repro.tensor import fused

# Step signatures a tuner keeps a capture for; the least recently stepped
# one beyond this is retired.
MAX_CAPTURES = 4


@dataclass
class CaptureConfig:
    """Steady-state step capture.

    With ``enabled``, each step runs on its signature's
    :class:`~repro.runtime.capture.StepCapture` — the first step of a
    signature records it, later steps replay it, bitwise identical to the
    uncaptured path — for each of the tuner's ``MAX_CAPTURES`` most recently
    stepped signatures.  Which path a step takes (replay, record or
    interpreted over recycled buffers) is decided by
    :meth:`StepCapture.run` from what the step observes, not configured:
    the table in :mod:`repro.runtime.capture`'s docstring.
    """

    enabled: bool = False
    # The plan runs its thunks in recorded order on the calling thread.  Not
    # a field and read by nothing in the package: a self-test under
    # benchmarks/e2e/ (frozen by BENCHMARK.json) reads this name back, and
    # the constant goes when that assertion does.
    executor_threads = 1


@dataclass
class AttentionConfig:
    """Dense attention's row tile, set once on the tuner's model.

    Dense attention runs the row-tiled kernel (see
    :func:`repro.tensor.fused.scaled_dot_product_attention`) over query-row
    tiles ``streaming_tile`` rows high, each reading the keys up to its
    mask's last kept column, never materialising the quadratic score matrix
    — under a causal mask about half the work of the full score matrix.
    :class:`FineTuner` writes it into every
    :class:`~repro.nn.attention.MultiHeadAttention`'s ``row_tile`` at
    construction; sparse backends run the same kernel and pick their tiles
    from the layout.
    """

    streaming_tile: int = ROW_TILE


@dataclass
class TrainingConfig:
    """Hyper-parameters of the fine-tuning loop.

    The capture/compiler and attention-routing toggles live in the nested
    :class:`CaptureConfig` and :class:`AttentionConfig` groups::

        TrainingConfig(capture=CaptureConfig(enabled=True),
                       attention=AttentionConfig(streaming_tile=64))
    """

    learning_rate: float = 1e-3
    grad_clip: float = 0.0
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)


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
                 grad_reducer=None):
        self.model = model
        self.config = config or TrainingConfig()
        trainable = model.trainable_parameters()
        if not trainable:
            raise ValueError("model has no trainable parameters; apply a PEFT method first")
        self.optimizer = optimizer or Adam(trainable, lr=self.config.learning_rate)
        self.engine = engine
        self.profiler = PhaseProfiler()
        # Step capture (config.capture.enabled): one StepCapture per step
        # signature, least recently stepped first.  ``capture`` is the one
        # the last step ran; ``recaptures`` counts those made after the
        # first.
        self.captures: Dict[Hashable, StepCapture] = {}
        self.capture: Optional[StepCapture] = None
        self.recaptures = 0
        self.grad_reducer = grad_reducer
        # Kernel routing is a value on the model, set once here.  The
        # process globals a step still consults: the reference-tape flag
        # (entered only through fused.reference_kernels(), part of the
        # capture signature), the active arena and the forward recorder
        # (set and restored by StepCapture inside the step), and
        # the content-keyed geometry/causal-mask caches (value caches, safe
        # to share across tuners and tenants).
        row_tile = int(self.config.attention.streaming_tile)
        for module in model.modules():
            if isinstance(module, MultiHeadAttention):
                module.row_tile = row_tile

    def step_signature(self, input_ids: np.ndarray,
                       labels: Optional[np.ndarray] = None):
        """Everything that shapes the step's graph; it selects the capture.

        The multi-tenant service buckets requests by this key: requests with
        equal signatures replay one compiled plan.
        """
        input_ids = np.asarray(input_ids)
        return (input_ids.shape, str(input_ids.dtype),
                None if labels is None else np.asarray(labels).shape,
                fused.fused_kernels_enabled())

    def _capture_for(self, signature: Hashable) -> StepCapture:
        """The capture ``signature``'s steps run on, made the current one.

        A new signature gets a fresh capture, whose first step records the
        plan; past ``MAX_CAPTURES`` the least recently stepped signature's
        capture is retired (dicts keep insertion order, so a hit re-inserts
        at the tail).
        """
        capture = self.captures.pop(signature, None)
        if capture is None:
            capture = StepCapture()
            if self.capture is not None:
                self.recaptures += 1
        self.captures[signature] = capture
        if len(self.captures) > MAX_CAPTURES:
            self.captures.pop(next(iter(self.captures))).retire()
        self.capture = capture
        return capture

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

        capture = None
        if self.config.capture.enabled:
            # The capture decides whether the step replays, records or runs
            # interpreted (see repro.runtime.capture) from what it observes.
            input_ids = np.asarray(input_ids)
            capture = self._capture_for(self.step_signature(input_ids, labels))
            engine = self.engine
            loss_value, forward_s, backward_s = capture.run(
                lambda ids, lab: self.model.loss(ids, labels=lab)[0],
                input_ids, labels,
                compilable=fused.fused_kernels_enabled(),
                refresh=(engine is not None
                         and engine.refresh_due(input_ids.shape[-1])),
                interval=engine.config.predict_interval if engine else 1,
                layout_state=engine.layout_state if engine else None)
        else:
            start = time.perf_counter()
            loss, _ = self.model.loss(input_ids, labels=labels)
            forward_s = time.perf_counter() - start
            start = time.perf_counter()
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
        self.optimizer.step()
        self.optimizer.zero_grad()
        self.model.zero_grad()
        optimizer_s = time.perf_counter() - start - comm_s

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
            self.profiler.set_gauge("capture_recaptures",
                                    float(self.recaptures))

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
