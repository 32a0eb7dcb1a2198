"""End-to-end LongExposure engine.

The engine is what a user of the library touches: it takes a (PEFT-adapted)
model, prepares the sparsity machinery offline, and then swaps the attention
and MLP execution backends of every decoder block so that fine-tuning runs
through the dynamic-aware sparse operators.

Workflow (mirrors the paper's system diagram, Figure 3)::

    model = build_model("opt-small")
    engine = LongExposure(LongExposureConfig())
    engine.prepare(model, calibration_batches)   # collect data, train and
                                                 # calibrate the predictors
    model, result = get_peft_method("lora")(model)
    engine.install(model)                        # swap in sparse backends
    ... fine-tune as usual ...
    engine.uninstall(model)                      # restore dense kernels

Component switches:

* ``optimize_attention`` — per-head block-sparse attention over the predicted
  block masks, executed as they are (all model families);
* ``optimize_mlp`` — neuron-block-sparse MLP execution (ReLU models only;
  disabled automatically for GeLU models such as GPT-2, cf. Figure 13);
* ``oracle_mode`` — bypass the predictors and use the exposer's raw coverage
  masks (ablations and tests).

The engine records per-step statistics (prediction overhead, achieved block
sparsity) in :attr:`LongExposure.stats` so the benchmark harness can report
the breakdowns of Figures 9, 10 and 12.

Choosing ``predict_interval``
-----------------------------

Mask derivation — the predictor probes (or, in oracle mode, the exposer's
dense softmax) plus layout construction — runs per layer per step and is the
dominant sparse-step cost once the sparse kernels themselves are fast.
Because adjacent fine-tuning steps barely move the activations, their masks
barely move either, so ``LongExposureConfig.predict_interval = K`` lets every
sparse backend reuse its last layout / active-block set for ``K - 1`` steps
and re-derive on the ``K``-th.  The trainer advances the schedule by calling
:meth:`LongExposure.advance_step` once per step.  Guidance:

* ``K = 1`` (default) — masks re-derived every step; bitwise-identical to the
  pre-scheduler engine.  Use for ablations and when inputs change abruptly
  between steps (e.g. wildly varying sequence content).
* ``K = 4``–``8`` — the sweet spot for ordinary fine-tuning: prediction cost
  drops by ~``K`` while the recorded mask drift between refreshes
  (:meth:`EngineStats.mean_attention_drift`) stays in the low percent range.
* Watch ``stats.mean_attention_drift()`` / ``mean_mlp_drift()``: if drift
  between refreshes grows past a few percent of the active blocks, lower
  ``K`` — the reused mask is starving blocks the model now attends to.

A sequence-length change always forces a refresh (the block grid itself
changes), so bucketed-length loaders interact safely with any ``K``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn.attention import DenseAttentionBackend, MultiHeadAttention, causal_mask
from repro.tensor import arena as _tensor_arena
from repro.tensor import fused as _fused
from repro.nn.mlp import DenseMLPBackend, MLPBlock
from repro.peft.lora import LoRALinear
from repro.sparsity.config import LongExposureConfig
from repro.sparsity.exposer import AttentionExposer, MLPExposer
from repro.sparsity.ops.block_sparse import block_sparse_attention
from repro.sparsity.ops.geometry_cache import LayoutGeometryCache
from repro.sparsity.ops.layout import MultiHeadLayout, layout_from_block_masks
from repro.sparsity.ops.neuron_sparse import (
    NeuronSparseWeights,
    expand_block_indices,
    neuron_sparse_linear_pair,
)
from repro.sparsity.predictor import (
    AttentionCalibration,
    AttentionPredictor,
    MLPCalibration,
    MLPPredictor,
    PredictorMetrics,
    PredictorTrainingConfig,
    calibrate_attention_predictor,
    calibrate_mlp_predictor,
    collect_block_mass,
    train_attention_predictor,
    train_mlp_predictor,
)


def _unwrap(module):
    """Unwrap adapter-style wrappers (``_AdaptedSubLayer``) to the real sub-layer."""
    inner = getattr(module, "inner", None)
    while inner is not None:
        module = inner
        inner = getattr(module, "inner", None)
    return module


@dataclass
class LayerScheduleStats:
    """Per-layer prediction-scheduler staleness statistics.

    ``drift`` is the symmetric-difference fraction between the masks of two
    consecutive refreshes (``|old Δ new| / |old ∪ new|`` over active blocks):
    0.0 means the refresh reproduced the reused mask exactly, 1.0 means the
    two masks share nothing.  It is the observable accuracy cost of running
    with ``predict_interval > 1``.
    """

    refreshes: int = 0
    reuses: int = 0
    drift_mean: float = 0.0
    drift_samples: int = 0

    def record_refresh(self, drift: Optional[float] = None) -> None:
        self.refreshes += 1
        if drift is not None:
            self.drift_samples += 1
            self.drift_mean += (float(drift) - self.drift_mean) / self.drift_samples

    def reuse_rate(self) -> float:
        total = self.reuses + self.refreshes
        return self.reuses / total if total else 0.0


@dataclass
class EngineStats:
    """Running statistics collected while the sparse backends execute.

    Sparsity observations are folded into a running mean + sample count at
    record time (O(1) memory) instead of appended to per-call lists — a long
    fine-tuning run makes millions of backend calls, and the seed's
    unbounded lists grew linearly with step count.

    ``prediction_seconds`` counts only mask derivation (probes / oracle
    exposer / layout construction); ``backend_seconds`` counts the whole
    sparse backend call including the kernels, so
    :meth:`prediction_fraction` is the Figure-10 prediction-overhead share.
    Per-layer scheduler staleness (refresh counts, reuse hit rates, mask
    drift between refreshes) lives in :attr:`attention_layers` /
    :attr:`mlp_layers`.
    """

    prediction_seconds: float = 0.0
    backend_seconds: float = 0.0
    attention_calls: int = 0
    mlp_calls: int = 0
    attention_sparsity_mean: float = 0.0
    attention_sparsity_samples: int = 0
    mlp_sparsity_mean: float = 0.0
    mlp_sparsity_samples: int = 0
    attention_layers: Dict[int, LayerScheduleStats] = field(default_factory=dict)
    mlp_layers: Dict[int, LayerScheduleStats] = field(default_factory=dict)

    def reset(self) -> None:
        self.prediction_seconds = 0.0
        self.backend_seconds = 0.0
        self.attention_calls = 0
        self.mlp_calls = 0
        self.attention_sparsity_mean = 0.0
        self.attention_sparsity_samples = 0
        self.mlp_sparsity_mean = 0.0
        self.mlp_sparsity_samples = 0
        self.attention_layers = {}
        self.mlp_layers = {}

    def record_attention_sparsity(self, value: float) -> None:
        self.attention_sparsity_samples += 1
        self.attention_sparsity_mean += (
            (float(value) - self.attention_sparsity_mean) / self.attention_sparsity_samples)

    def record_mlp_sparsity(self, value: float) -> None:
        self.mlp_sparsity_samples += 1
        self.mlp_sparsity_mean += (
            (float(value) - self.mlp_sparsity_mean) / self.mlp_sparsity_samples)

    def mean_attention_sparsity(self) -> float:
        return self.attention_sparsity_mean if self.attention_sparsity_samples else 0.0

    def mean_mlp_sparsity(self) -> float:
        return self.mlp_sparsity_mean if self.mlp_sparsity_samples else 0.0

    # -- prediction scheduler ----------------------------------------------------
    def attention_layer(self, index: int) -> LayerScheduleStats:
        return self.attention_layers.setdefault(index, LayerScheduleStats())

    def mlp_layer(self, index: int) -> LayerScheduleStats:
        return self.mlp_layers.setdefault(index, LayerScheduleStats())

    @staticmethod
    def _aggregate_reuse_rate(layers: Dict[int, LayerScheduleStats]) -> float:
        reuses = sum(s.reuses for s in layers.values())
        total = reuses + sum(s.refreshes for s in layers.values())
        return reuses / total if total else 0.0

    @staticmethod
    def _aggregate_drift(layers: Dict[int, LayerScheduleStats]) -> float:
        samples = sum(s.drift_samples for s in layers.values())
        if not samples:
            return 0.0
        return sum(s.drift_mean * s.drift_samples for s in layers.values()) / samples

    def attention_reuse_rate(self) -> float:
        """Fraction of attention backend calls served from the reused layout."""
        return self._aggregate_reuse_rate(self.attention_layers)

    def mlp_reuse_rate(self) -> float:
        """Fraction of MLP backend calls served from the reused block set."""
        return self._aggregate_reuse_rate(self.mlp_layers)

    def mean_attention_drift(self) -> float:
        """Mean mask drift between consecutive attention refreshes (all layers)."""
        return self._aggregate_drift(self.attention_layers)

    def mean_mlp_drift(self) -> float:
        """Mean active-block drift between consecutive MLP refreshes (all layers)."""
        return self._aggregate_drift(self.mlp_layers)

    def layout_reuse_counts(self) -> Dict[str, int]:
        """Aggregate reuse/refresh counters (JSON-friendly, for the profiler)."""
        return {
            "attention_reuses": sum(s.reuses for s in self.attention_layers.values()),
            "attention_refreshes": sum(s.refreshes for s in self.attention_layers.values()),
            "mlp_reuses": sum(s.reuses for s in self.mlp_layers.values()),
            "mlp_refreshes": sum(s.refreshes for s in self.mlp_layers.values()),
        }

    def prediction_fraction(self) -> float:
        """Prediction seconds over total sparse-backend seconds (Figure 10)."""
        if self.backend_seconds <= 0.0:
            return 0.0
        return self.prediction_seconds / self.backend_seconds


def _layout_block_keys(layout: MultiHeadLayout) -> np.ndarray:
    """Unique sorted int64 key per active block of a layout."""
    nb = np.int64(layout.n_blocks)
    return (layout.heads * nb + layout.rows) * nb + layout.cols


def _layout_drift(old: Optional[MultiHeadLayout],
                  new: MultiHeadLayout) -> Optional[float]:
    """Symmetric-difference fraction between two layouts' active-block sets.

    Returns ``None`` when the layouts are not comparable (no predecessor, or
    the block grid changed) — callers skip the drift sample in that case.
    """
    if old is None or old.n_blocks != new.n_blocks or old.n_heads != new.n_heads:
        return None
    if old is new or old.signature() == new.signature():
        return 0.0
    return _active_block_drift(_layout_block_keys(old), _layout_block_keys(new))


def _active_block_drift(old: Optional[np.ndarray],
                        new: np.ndarray) -> Optional[float]:
    """Symmetric-difference fraction between two sorted active-block index sets."""
    if old is None:
        return None
    if old.shape == new.shape and np.array_equal(old, new):
        return 0.0
    inter = np.intersect1d(old, new, assume_unique=True).size
    union = old.size + new.size - inter
    return float(old.size + new.size - 2 * inter) / max(union, 1)


class SparseAttentionBackend:
    """Block-sparse attention kernel driven by the layer's predictor.

    With ``predict_interval > 1`` the backend keeps the layout of its last
    refresh and reuses it until the engine's step counter reaches the next
    scheduled refresh (or the sequence length changes, which invalidates the
    block grid).  Refresh/reuse counts and the mask drift observed at each
    refresh are recorded per layer in :class:`EngineStats`.
    """

    def __init__(self, engine: "LongExposure", layer_index: int):
        self.engine = engine
        self.layer_index = layer_index
        self.last_layout: Optional[MultiHeadLayout] = None
        self._layout_seq_len: Optional[int] = None
        self._last_refresh_step: int = 0

    def reset_schedule(self) -> None:
        """Forget the reused layout; the next call re-derives the masks."""
        self._replace_layout(None, None)
        self._last_refresh_step = 0

    def _replace_layout(self, layout: Optional[MultiHeadLayout],
                        seq_len: Optional[int]) -> None:
        """Make ``layout`` the live one, dropping the geometry cached for the
        layout it replaces: refreshed masks rarely repeat, so the cache then
        holds about one entry per live layout."""
        old, cache = self.last_layout, self.engine.geometry_cache
        if (old is not None and cache is not None
                and (layout is None or seq_len != self._layout_seq_len
                     or layout.signature() != old.signature())):
            cache.discard(old, self._layout_seq_len)
        self.last_layout = layout
        self._layout_seq_len = seq_len

    def _reusable(self, seq_len: int) -> bool:
        # The deadline is computed from the *current* interval, so lowering
        # (or raising) predict_interval mid-run takes effect immediately.
        engine = self.engine
        return (engine.config.predict_interval > 1
                and self.last_layout is not None
                and self._layout_seq_len == seq_len
                and engine.step_index
                < self._last_refresh_step + engine.config.predict_interval)

    def __call__(self, module: MultiHeadAttention, q, k, v, attn_mask, x=None):
        engine = self.engine
        stats = engine.stats
        call_start = time.perf_counter()
        seq_len = q.shape[2]
        if self._reusable(seq_len):
            layout = self.last_layout
            stats.attention_layer(self.layer_index).reuses += 1
        else:
            start = time.perf_counter()
            if engine.config.oracle_mode or x is None:
                layout = engine.oracle_attention_layout(module, q, k, seq_len)
            else:
                predictor = engine.attention_predictors[self.layer_index]
                layout = layout_from_block_masks(predictor.predict_patterns(x.data),
                                                 engine.config.block_size)
            stats.prediction_seconds += time.perf_counter() - start
            stats.attention_layer(self.layer_index).record_refresh(
                _layout_drift(self.last_layout, layout))
            self._replace_layout(layout, seq_len)
            self._last_refresh_step = engine.step_index
        stats.attention_calls += 1
        stats.record_attention_sparsity(layout.sparsity())
        out = block_sparse_attention(q, k, v, layout,
                                     cache=engine.geometry_cache)
        stats.backend_seconds += time.perf_counter() - call_start
        return out


class SparseMLPBackend:
    """Neuron-block-sparse MLP kernel driven by the layer's predictor.

    Scheduling mirrors :class:`SparseAttentionBackend`: with
    ``predict_interval > 1`` the active-block set of the last refresh is
    reused until the next scheduled step (the set depends only on the hidden
    dimension, so no sequence-length invalidation applies).
    """

    def __init__(self, engine: "LongExposure", layer_index: int):
        self.engine = engine
        self.layer_index = layer_index
        self.weight_cache: Optional[NeuronSparseWeights] = None
        self.last_active_blocks: Optional[np.ndarray] = None
        self._last_refresh_step: int = 0
        # Set on first call when the layer's fc1/fc2 carry LoRA adapters and
        # the backend permanently routes to the dense kernel; the full-step
        # scheduler (refresh_due) skips such backends.
        self._dense_fallback = False

    def reset_schedule(self) -> None:
        """Forget the reused block set; the next call re-derives it."""
        self.last_active_blocks = None
        self._last_refresh_step = 0

    def _reusable(self) -> bool:
        engine = self.engine
        return (engine.config.predict_interval > 1
                and self.last_active_blocks is not None
                and engine.step_index
                < self._last_refresh_step + engine.config.predict_interval)

    def _cache_for(self, mlp: MLPBlock) -> Optional[NeuronSparseWeights]:
        fc1, fc2 = mlp.fc1, mlp.fc2
        if isinstance(fc1, LoRALinear) or isinstance(fc2, LoRALinear):
            return None
        frozen = not fc1.weight.requires_grad and not fc2.weight.requires_grad
        if not frozen:
            return None
        if self.weight_cache is None:
            self.weight_cache = NeuronSparseWeights(fc1.weight.data, fc2.weight.data,
                                                    coalesced=True)
        return self.weight_cache

    def __call__(self, module: MLPBlock, x):
        engine = self.engine
        mlp = _unwrap(module)
        if isinstance(mlp.fc1, LoRALinear) or isinstance(mlp.fc2, LoRALinear):
            # LoRA inside the MLP changes the effective fc1/fc2 weights, so
            # the frozen-weight sparse path does not apply; fall back to the
            # dense kernel for this layer (the default LoRA placement targets
            # the attention projections, so this path is rare).
            self._dense_fallback = True
            return DenseMLPBackend()(mlp, x)

        stats = engine.stats
        call_start = time.perf_counter()
        if self._reusable():
            active_blocks = self.last_active_blocks
            stats.mlp_layer(self.layer_index).reuses += 1
        else:
            start = time.perf_counter()
            if engine.config.oracle_mode:
                active_blocks = engine.oracle_mlp_blocks(mlp, x)
            else:
                predictor = engine.mlp_predictors[self.layer_index]
                active_blocks = predictor.predict_active_blocks(x.data)
            stats.prediction_seconds += time.perf_counter() - start
            stats.mlp_layer(self.layer_index).record_refresh(
                _active_block_drift(self.last_active_blocks, active_blocks))
            self.last_active_blocks = active_blocks
            self._last_refresh_step = engine.step_index
        stats.mlp_calls += 1

        n_blocks = -(-mlp.hidden_dim // engine.config.block_size)
        stats.record_mlp_sparsity(1.0 - active_blocks.size / n_blocks)

        active_neurons = expand_block_indices(active_blocks, engine.config.block_size,
                                              mlp.hidden_dim)
        cache = self._cache_for(mlp)
        out = neuron_sparse_linear_pair(
            x, mlp.fc1.weight, mlp.fc1.bias, mlp.fc2.weight, mlp.fc2.bias,
            active_neurons, activation=mlp.activation_name, cache=cache)
        stats.backend_seconds += time.perf_counter() - call_start
        return out


class LongExposure:
    """The LongExposure system: exposer + predictors + dynamic-aware operators."""

    def __init__(self, config: Optional[LongExposureConfig] = None):
        self.config = config or LongExposureConfig()
        # Derived-geometry memo shared by every sparse attention backend this
        # engine installs; set to None to force per-call recomputation.
        self.geometry_cache: Optional[LayoutGeometryCache] = LayoutGeometryCache()
        self.attention_exposer = AttentionExposer(
            self.config.block_size, coverage=self.config.attention_coverage,
            score_threshold=self.config.attention_threshold)
        self.mlp_exposer = MLPExposer(self.config.block_size,
                                      threshold=self.config.mlp_threshold,
                                      min_active_blocks=self.config.min_active_mlp_blocks)
        self.attention_predictors: List[AttentionPredictor] = []
        self.mlp_predictors: List[MLPPredictor] = []
        self.predictor_metrics: Dict[str, List[PredictorMetrics]] = {
            "attention": [], "mlp": []}
        # Per-layer fitted calibrations (populated by prepare() when
        # config.calibrate_predictors is set; parallel to the predictor lists).
        self.attention_calibrations: List[AttentionCalibration] = []
        self.mlp_calibrations: List[MLPCalibration] = []
        self.stats = EngineStats()
        self._installed_blocks: List = []
        self._sparse_backends: List = []
        self._prepared = False
        # Prediction-scheduler step counter: advanced once per fine-tuning
        # step by the trainer (advance_step); backends compare it against
        # their next scheduled refresh.
        self.step_index = 0

    # -- offline preparation -----------------------------------------------------
    def prepare(self, model: CausalLMModel, calibration_batches: Sequence[np.ndarray],
                training_config: Optional[PredictorTrainingConfig] = None) -> None:
        """Collect data from the frozen model and train the per-layer predictors.

        Must be called on the backbone *before* PEFT wrapping.  Oracle mode
        needs no predictors, so there it only marks the engine prepared.

        One frozen-model pass (:func:`collect_block_mass`) keeps, per layer,
        the sub-layer inputs, the MLP activations and each sample's exposer
        block mass per calibration length — of the ``(heads, seq, seq)``
        probabilities only one sample's exist at a time.  All calibration
        batches must share one sequence length.
        """
        config = self.config
        mlp_enabled = config.optimize_mlp and model.config.activation == "relu"
        self.attention_calibrations = []
        self.mlp_calibrations = []
        if config.oracle_mode:
            self._prepared = True
            return

        training_config = training_config or PredictorTrainingConfig(
            epochs=config.predictor_epochs, lr=config.predictor_lr,
            batch_size=config.predictor_batch, noise_std=config.predictor_noise_std,
            pos_weight=config.predictor_pos_weight, seed=config.seed)

        batch_lengths = {int(np.asarray(b).shape[-1]) for b in calibration_batches}
        grid = sorted(batch_lengths | set(
            config.calibration_lengths if config.calibrate_predictors else ()))
        collected = collect_block_mass(
            model, calibration_batches, self.attention_exposer,
            grid if config.optimize_attention else ())
        self.attention_predictors = []
        self.mlp_predictors = []
        self.predictor_metrics = {"attention": [], "mlp": []}
        for layer_index, data in enumerate(collected):
            merged = data.merged()
            if config.optimize_attention:
                predictor = AttentionPredictor(
                    model.config.dim, model.config.num_heads, config.predictor_rank,
                    config.block_size, threshold=config.attention_threshold,
                    seed=config.seed + layer_index)
                metrics = train_attention_predictor(
                    predictor, merged["attention_inputs"],
                    merged["attention_block_mass"],
                    self.attention_exposer, training_config)
                self.attention_predictors.append(predictor)
                self.predictor_metrics["attention"].append(metrics)
            if mlp_enabled:
                predictor = MLPPredictor(
                    model.config.dim, model.config.hidden_dim, config.block_size,
                    min_active_blocks=config.min_active_mlp_blocks,
                    seed=config.seed + 1000 + layer_index)
                metrics = train_mlp_predictor(
                    predictor, merged["mlp_inputs"], merged["mlp_activations"],
                    self.mlp_exposer, training_config)
                self.mlp_predictors.append(predictor)
                self.predictor_metrics["mlp"].append(metrics)
        if config.calibrate_predictors:
            self._calibrate_predictors(collected, grid, max(batch_lengths))
        self._prepared = True

    def _calibrate_predictors(self, collected, grid: Sequence[int],
                              longest: int) -> None:
        """Fit per-layer block budgets and MLP thresholds against the oracle.

        The whole grid is served from the *one* collection pass ``prepare()``
        already ran: shorter grid lengths are exact prefixes of the recorded
        full-length activations (causal model — see
        :meth:`CollectedLayerData.merged`), so no extra frozen-model pass
        runs per grid length.  Each trained predictor is then calibrated on
        the per-length oracle masks (see
        :mod:`repro.sparsity.predictor.calibration`).

        The grid is anchored on the token lengths of the calibration batches;
        listed lengths no calibration batch reaches are skipped.
        """
        for layer_index, data in enumerate(collected):
            by_length = {length: data.merged(truncate_to=length)
                         for length in grid if length <= longest}

            def per_length(name):
                return {length: merged[name] for length, merged in by_length.items()}

            if self.attention_predictors:
                predictor = self.attention_predictors[layer_index]
                calibration = calibrate_attention_predictor(
                    predictor, self.attention_exposer,
                    per_length("attention_inputs"), per_length("attention_block_mass"))
                predictor.set_calibration(calibration)
                self.attention_calibrations.append(calibration)
            if self.mlp_predictors:
                predictor = self.mlp_predictors[layer_index]
                calibration = calibrate_mlp_predictor(
                    predictor, self.mlp_exposer,
                    per_length("mlp_inputs"), per_length("mlp_activations"))
                predictor.set_calibration(calibration)
                self.mlp_calibrations.append(calibration)

    # -- calibration reporting ---------------------------------------------------
    def calibration_gap(self) -> Dict[str, float]:
        """Mean |predicted − oracle| density gap recorded at calibration time."""
        out: Dict[str, float] = {}
        if self.attention_calibrations:
            out["attention"] = float(np.mean(
                [c.mean_gap() for c in self.attention_calibrations]))
        if self.mlp_calibrations:
            out["mlp"] = float(np.mean(
                [c.mean_gap() for c in self.mlp_calibrations]))
        return out

    # -- oracle (exposer-driven) paths ------------------------------------------------
    def oracle_attention_layout(self, module: MultiHeadAttention, q, k,
                                seq_len: int) -> MultiHeadLayout:
        """Raw coverage-mask layout computed from the current Q/K (ablation mode).

        ``seq_len`` must equal the length of ``q`` and ``k``; the block grid
        follows from them.

        The dense softmax runs every layer of every oracle step (it is what
        the exposer reads), so it reuses the score buffer in place the same
        way the fused kernels do — the masked fill / max-subtract / exp /
        normalise chain allocates no ``(batch, heads, seq, seq)``
        temporaries beyond the matmul output.  Values are identical to the
        previous out-of-place form.
        """
        scale = float(1.0 / np.sqrt(module.head_dim))
        score_shape = q.shape[:-1] + (k.shape[2],)
        scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2),
                           out=_tensor_arena.empty(score_shape, q.data.dtype))
        scores *= scale
        causal = causal_mask(seq_len)
        np.copyto(scores, np.float32(-1e9), where=~causal)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        np.multiply(scores, causal, out=scores)
        denom = scores.sum(axis=-1, keepdims=True)
        # Causal rows always keep their diagonal, so the max-subtracted
        # exp-sum is >= 1 and the shared zero-row guard never fires — the
        # swap from the old ``np.maximum(denom, 1e-12)`` clamp is exact.
        _fused.guard_zero_rows(denom)
        scores /= denom
        masks = self.attention_exposer.raw_block_masks(scores)
        # The dense score buffer is the biggest per-layer temporary of oracle
        # mode; recycling it here lets every layer of the step share one.
        _tensor_arena.release(scores)
        return layout_from_block_masks(masks, self.config.block_size)

    def oracle_mlp_blocks(self, mlp: MLPBlock, x) -> np.ndarray:
        """Exact active neuron blocks computed from the current input (ablation mode)."""
        x2d = x.data.reshape(-1, mlp.dim)
        pre = np.matmul(x2d, mlp.fc1.weight.data.T,
                        out=_tensor_arena.empty((x2d.shape[0], mlp.hidden_dim),
                                                x2d.dtype))
        pre += mlp.fc1.bias.data
        np.maximum(pre, 0.0, out=pre)
        act = pre.reshape(*x.data.shape[:-1], mlp.hidden_dim)
        blocks = self.mlp_exposer.active_blocks(act)
        _tensor_arena.release(pre)
        return blocks

    # -- backend installation --------------------------------------------------------
    def install(self, model: CausalLMModel) -> None:
        """Swap the dense attention/MLP backends of every block for sparse ones."""
        if not self._prepared:
            raise RuntimeError("call prepare() before install()")
        config = self.config
        mlp_enabled = config.optimize_mlp and model.config.activation == "relu"
        if (config.optimize_attention and not config.oracle_mode
                and len(self.attention_predictors) != len(model.blocks)):
            raise RuntimeError("predictors were prepared for a different model depth")
        self._installed_blocks = []
        self._sparse_backends = []
        for layer_index, block in enumerate(model.blocks):
            attention = _unwrap(block.attention)
            mlp = _unwrap(block.mlp)
            entry = {"attention": attention, "mlp": mlp,
                     "attention_backend": attention.backend, "mlp_backend": mlp.backend}
            if config.optimize_attention:
                attention.backend = SparseAttentionBackend(self, layer_index)
                self._sparse_backends.append(attention.backend)
            if mlp_enabled:
                mlp.backend = SparseMLPBackend(self, layer_index)
                self._sparse_backends.append(mlp.backend)
            self._installed_blocks.append(entry)

    def uninstall(self, model: CausalLMModel) -> None:
        """Restore the dense backends recorded at install time."""
        for entry in self._installed_blocks:
            entry["attention"].backend = entry["attention_backend"]
            entry["mlp"].backend = entry["mlp_backend"]
        self._installed_blocks = []
        self._sparse_backends = []

    # -- prediction scheduling -----------------------------------------------------
    def advance_step(self) -> None:
        """Advance the scheduler by one fine-tuning step (trainer calls this)."""
        self.step_index += 1

    def reset_schedule(self) -> None:
        """Zero the step counter and drop every backend's reused masks.

        The next forward pass re-derives all masks regardless of
        ``predict_interval`` — used when switching modes mid-run (benchmarks,
        ablations) or when restarting fine-tuning on new data.
        """
        self.step_index = 0
        for backend in self._sparse_backends:
            backend.reset_schedule()

    def refresh_due(self, seq_len: int) -> bool:
        """Whether any installed backend will re-derive its masks this step.

        The full-step compiler records probes/oracle exposers nowhere — they
        are Python control flow between kernel calls — so a plan cannot
        replay *across* a refresh: the trainer makes a refresh step the
        capture step of the plan that replays until the next one.  MLP
        backends that permanently route to the dense kernel (LoRA inside the
        MLP) never refresh and are skipped.
        """
        for backend in self._sparse_backends:
            if isinstance(backend, SparseAttentionBackend):
                if not backend._reusable(seq_len):
                    return True
            elif isinstance(backend, SparseMLPBackend):
                if backend._dense_fallback:
                    continue
                if not backend._reusable():
                    return True
        return False

    def refresh_due_next(self, seq_len: int) -> bool:
        """Whether :meth:`refresh_due` will hold on the *next* step.

        The data-parallel worker harness decides before calling
        ``FineTuner.step`` (which advances the scheduler itself) whether the
        coming step re-derives masks — on such steps rank 0 refreshes and
        broadcasts its layouts while the other ranks adopt them instead of
        probing their own shards.  Computed by evaluating the schedule one
        step ahead; backend state is untouched.
        """
        self.step_index += 1
        try:
            return self.refresh_due(seq_len)
        finally:
            self.step_index -= 1

    def export_layouts(self) -> list:
        """Picklable snapshot of every backend's current masks.

        Entries mirror the backend order of :meth:`layout_state`; attention
        backends export ``("attn", layout, seq_len)`` and MLP backends
        ``("mlp", active_blocks)``.  The masks are tiny (per-head block
        patterns and block-index vectors), which is what makes broadcasting
        them from rank 0 cheaper than letting every worker probe its own
        shard — and keeps all workers computing with the *same* layouts.
        """
        state = []
        for backend in self._sparse_backends:
            if isinstance(backend, SparseAttentionBackend):
                state.append(("attn", backend.last_layout,
                              backend._layout_seq_len))
            elif isinstance(backend, SparseMLPBackend):
                state.append(("mlp", backend.last_active_blocks))
        return state

    def adopt_layouts(self, state: list, refresh_step: Optional[int] = None) -> None:
        """Install layouts exported by another engine replica (rank 0).

        Marks every backend as freshly refreshed at ``refresh_step`` (default
        the current step index), so the scheduled reuse window restarts
        exactly as if the backend had derived the masks itself; drift against
        the previously reused masks is recorded per layer as usual.
        """
        if len(state) != len(self._sparse_backends):
            raise ValueError(f"layout snapshot covers {len(state)} backends, "
                             f"engine has {len(self._sparse_backends)}")
        step = self.step_index if refresh_step is None else int(refresh_step)
        for backend, entry in zip(self._sparse_backends, state):
            if isinstance(backend, SparseAttentionBackend):
                kind, layout, seq_len = entry
                if kind != "attn":
                    raise ValueError(f"expected attention entry, got {kind!r}")
                if layout is not None:
                    self.stats.attention_layer(backend.layer_index).record_refresh(
                        _layout_drift(backend.last_layout, layout))
                backend._replace_layout(layout, seq_len)
                backend._last_refresh_step = step
            elif isinstance(backend, SparseMLPBackend):
                kind, active_blocks = entry
                if kind != "mlp":
                    raise ValueError(f"expected mlp entry, got {kind!r}")
                if active_blocks is not None:
                    self.stats.mlp_layer(backend.layer_index).record_refresh(
                        _active_block_drift(backend.last_active_blocks,
                                            active_blocks))
                backend.last_active_blocks = active_blocks
                backend._last_refresh_step = step

    def layout_state(self) -> tuple:
        """Hashable snapshot of every backend's reused masks.

        The full-step plan closes over layout geometry (gather indices,
        active-neuron weight slices).  A refresh step records a new plan
        anyway; the snapshot is what tells the capture that the masks moved
        (so the arena's pooled shapes are stale), and that layouts installed
        from outside — :meth:`adopt_layouts` on data-parallel ranks != 0 —
        no longer match the live plan.  Equal signatures mean the closed-over
        geometry is still exactly the one the masks describe.
        """
        state = []
        for backend in self._sparse_backends:
            if isinstance(backend, SparseAttentionBackend):
                layout = backend.last_layout
                state.append(None if layout is None else layout.signature())
            elif isinstance(backend, SparseMLPBackend):
                blocks = backend.last_active_blocks
                state.append(None if blocks is None else blocks.tobytes())
        return tuple(state)

    # -- reporting -----------------------------------------------------------------
    def mean_predictor_recall(self) -> Dict[str, float]:
        """Average recall of the trained predictors (paper quotes 96.35 % for MLP)."""
        out = {}
        for kind, metrics in self.predictor_metrics.items():
            if metrics:
                out[kind] = float(np.mean([m.recall for m in metrics]))
        return out

    def _live_attention(self) -> List[SparseAttentionBackend]:
        """The attention backends holding a live layout."""
        return [backend for backend in self._sparse_backends
                if isinstance(backend, SparseAttentionBackend)
                and backend.last_layout is not None]

    def live_attention_sparsity(self) -> Dict[int, np.ndarray]:
        """Per-head block sparsity of each attention layer's live layout.

        Read from the layouts the backends execute now, not from a running
        mean over calls, so it is a fact about the current step.
        """
        return {backend.layer_index: backend.last_layout.head_sparsity()
                for backend in self._live_attention()}

    def live_panel_efficiency(self) -> Dict[int, float]:
        """Per attention layer, kept over executed panel blocks of its live
        layout's capacity classes — useful over attempted attention work.

        Read from the geometry the kernel ran (peeking at the cache counts no
        lookup); a layer whose geometry is not cached is left out.  A panel
        slot is kept unless it is the inert one, ``heads * n_blocks``.
        """
        cache = self.geometry_cache
        geometries = {} if cache is None else {
            backend.layer_index: cache.peek(backend.last_layout, backend._layout_seq_len)
            for backend in self._live_attention()}
        return {layer: float(np.mean(np.concatenate([t.index for t in g.tiles]) != g.units.size))
                for layer, g in geometries.items() if g is not None}

    def summary(self) -> str:
        lines = [f"LongExposure(block_size={self.config.block_size}, "
                 f"oracle={self.config.oracle_mode})"]
        recalls = self.mean_predictor_recall()
        for kind, value in recalls.items():
            lines.append(f"  {kind} predictor mean recall: {value:.4f}")
        for kind, gap in self.calibration_gap().items():
            lines.append(f"  {kind} calibration density gap: {gap:.4f}")
        if self.attention_calibrations:
            grid = self.attention_calibrations[0].grid_lengths()
            lines.append(f"  calibration grid: {grid}")
        lines.append(f"  mean attention block sparsity: {self.stats.mean_attention_sparsity():.3f}")
        live = self.live_attention_sparsity()
        if live:
            layers = " ".join(f"{s.mean():.3f}" for s in live.values())
            layer, heads = min(live.items(), key=lambda item: item[1].min())
            lines.append(f"  live attention sparsity per layer: {layers} "
                         f"(densest head {heads.min():.3f}, layer {layer})")
            lines.append("  attention panel efficiency per layer (kept / executed "
                         "panel blocks): " + " ".join(
                             f"{value:.3f}" for value in self.live_panel_efficiency().values()))
        lines.append(f"  mean MLP block sparsity: {self.stats.mean_mlp_sparsity():.3f}")
        lines.append(f"  prediction overhead: {self.stats.prediction_seconds * 1000:.2f} ms")
        if self.config.predict_interval > 1:
            lines.append(
                f"  predict_interval={self.config.predict_interval}: "
                f"attention reuse {self.stats.attention_reuse_rate():.2f} "
                f"(drift {self.stats.mean_attention_drift():.4f}), "
                f"mlp reuse {self.stats.mlp_reuse_rate():.2f} "
                f"(drift {self.stats.mean_mlp_drift():.4f})")
        return "\n".join(lines)
