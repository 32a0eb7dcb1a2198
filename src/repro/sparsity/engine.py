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
                                                 # (at the batches' one length)
    model, result = get_peft_method("lora")(model)
    engine.install(model)                        # swap in sparse backends
    ... fine-tune as usual ...
    engine.uninstall(model)                      # restore dense kernels

What runs where:

* attention — per-head block-sparse attention over the predicted block
  masks, executed as they are (all model families);
* MLP — neuron-block-sparse execution on ReLU models only; GeLU models such
  as GPT-2 keep the dense MLP (cf. Figure 13);
* ``oracle_mode`` — bypass the predictors and use the exposer's raw coverage
  masks (ablations and tests).

:meth:`LongExposure.gauges` is the engine's one reporting surface, read
after any step: achieved block sparsity (Figures 9 and 12) from the live
layouts and active-block sets, reuse rates and mask drift from the per-step
refresh record in :attr:`LongExposure.stats`, which also holds the
prediction seconds behind Figure 10's overhead share.

Choosing ``predict_interval``
-----------------------------

Mask derivation — the predictor probes (or, in oracle mode, the exposer's
row-tile probability sweep) plus layout construction — runs per layer per
step and is the dominant sparse-step cost once the sparse kernels themselves
are fast.
Because adjacent fine-tuning steps barely move the activations, their masks
barely move either, so ``LongExposureConfig.predict_interval = K`` lets every
sparse backend reuse its last layout / active-block set for ``K - 1`` steps
and re-derive on the ``K``-th.  The trainer advances the schedule by calling
:meth:`LongExposure.advance_step` once per step.  Guidance:

* ``K = 1`` (default) — masks re-derived every step; bitwise-identical to the
  pre-scheduler engine.  Use for ablations and when inputs change abruptly
  between steps (e.g. wildly varying sequence content).
* ``K = 4``–``8`` — the sweet spot for ordinary fine-tuning: prediction cost
  drops by ~``K`` while the recorded mask drift between refreshes (the
  ``attention_mask_drift`` gauge) stays in the low percent range.
* Watch ``gauges()["attention_mask_drift"]`` / ``["mlp_block_drift"]``: if
  drift between refreshes grows past a few percent of the active blocks,
  lower ``K`` — the reused mask is starving blocks the model now attends to.

A sequence-length change always forces a refresh (the block grid itself
changes), so bucketed-length loaders interact safely with any ``K``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn.attention import DenseAttentionBackend, MultiHeadAttention
from repro.tensor import arena as _tensor_arena
from repro.tensor import fused as _fused
from repro.nn.mlp import DenseMLPBackend, MLPBlock
from repro.peft.lora import LoRALinear
from repro.sparsity.config import LongExposureConfig
from repro.sparsity.exposer import AttentionExposer, MLPExposer
from repro.sparsity.ops.block_sparse import block_sparse_attention
from repro.sparsity.ops.geometry import compute_block_geometry
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
)
from repro.sparsity.predictor.training import attention_probe, mlp_probe, train_predictors

# Rank ``r << d`` of the attention probes' low-rank factors.
PROBE_RANK = 8
# MLP exposer filter: a neuron block stays active while its importance is at
# least this fraction of the peak block's (the paper sweeps 1 %–5 %).
MLP_FILTER = 0.03


def _unwrap(module):
    """Unwrap adapter-style wrappers (``_AdaptedSubLayer``) to the real sub-layer."""
    inner = getattr(module, "inner", None)
    while inner is not None:
        module = inner
        inner = getattr(module, "inner", None)
    return module


@dataclass
class LayerScheduleStats:
    """One layer's refresh record.

    Every refresh is stamped with the :attr:`EngineStats.steps` value it ran
    on; the layer's reuses are then the steps since its first refresh on
    which it did not refresh (:meth:`EngineStats.reuses`).  They are counted
    per step, not per backend call, so a compiled replay — which calls no
    backend — counts as the reuse it is.

    ``drift`` is the symmetric-difference fraction between the masks of two
    consecutive refreshes (``|old Δ new| / |old ∪ new|`` over active blocks):
    0.0 means the refresh reproduced the reused mask exactly, 1.0 means the
    two masks share nothing.  It is the observable accuracy cost of running
    with ``predict_interval > 1``.
    """

    refreshes: int = 0
    refresh_steps: int = 0      # distinct steps with a refresh
    first_step: int = 0
    last_step: int = 0
    drift_mean: float = 0.0
    drift_samples: int = 0

    def record_refresh(self, step: int, drift: Optional[float] = None) -> None:
        if not self.refreshes:
            self.first_step = step
        if not self.refreshes or step != self.last_step:
            self.refresh_steps += 1
        self.last_step = step
        self.refreshes += 1
        if drift is not None:
            self.drift_samples += 1
            self.drift_mean += (float(drift) - self.drift_mean) / self.drift_samples


@dataclass
class EngineStats:
    """The engine's refresh record.

    ``steps`` counts :meth:`LongExposure.advance_step` calls, and every
    refresh in :attr:`attention_layers` / :attr:`mlp_layers` is stamped with
    it, so reuse rates and drift come out per step whichever path (compiled
    replay or interpreted) ran the step.  ``prediction_seconds`` counts mask
    derivation only (probes / oracle exposer / layout construction); the
    trainer sets it against its phase timings for Figure 10's share.
    Achieved sparsity is not recorded: :meth:`LongExposure.gauges` reads it
    from the live layouts.
    """

    prediction_seconds: float = 0.0
    steps: int = 0
    attention_layers: Dict[int, LayerScheduleStats] = field(default_factory=dict)
    mlp_layers: Dict[int, LayerScheduleStats] = field(default_factory=dict)

    def reset(self) -> None:
        self.prediction_seconds = 0.0
        self.steps = 0
        self.attention_layers = {}
        self.mlp_layers = {}

    def attention_layer(self, index: int) -> LayerScheduleStats:
        return self.attention_layers.setdefault(index, LayerScheduleStats())

    def mlp_layer(self, index: int) -> LayerScheduleStats:
        return self.mlp_layers.setdefault(index, LayerScheduleStats())

    def reuses(self, layer: LayerScheduleStats) -> int:
        """Steps since ``layer``'s first refresh on which it did not refresh."""
        if not layer.refreshes:
            return 0
        return max(0, self.steps - layer.first_step + 1 - layer.refresh_steps)

    def _reuse_rate(self, layers: Dict[int, LayerScheduleStats]) -> float:
        reuses = sum(self.reuses(s) for s in layers.values())
        total = reuses + sum(s.refreshes for s in layers.values())
        return reuses / total if total else 0.0

    @staticmethod
    def _aggregate_drift(layers: Dict[int, LayerScheduleStats]) -> float:
        samples = sum(s.drift_samples for s in layers.values())
        if not samples:
            return 0.0
        return sum(s.drift_mean * s.drift_samples for s in layers.values()) / samples

    def attention_reuse_rate(self) -> float:
        """Fraction of attention layer-steps served from the reused layout."""
        return self._reuse_rate(self.attention_layers)

    def mlp_reuse_rate(self) -> float:
        """Fraction of MLP layer-steps served from the reused block set."""
        return self._reuse_rate(self.mlp_layers)

    def mean_attention_drift(self) -> float:
        """Mean mask drift between consecutive attention refreshes (all layers)."""
        return self._aggregate_drift(self.attention_layers)

    def mean_mlp_drift(self) -> float:
        """Mean active-block drift between consecutive MLP refreshes (all layers)."""
        return self._aggregate_drift(self.mlp_layers)

    def layout_reuse_counts(self) -> Dict[str, int]:
        """Aggregate reuse/refresh counters (JSON-friendly)."""
        return {
            "attention_reuses": sum(self.reuses(s) for s in self.attention_layers.values()),
            "attention_refreshes": sum(s.refreshes for s in self.attention_layers.values()),
            "mlp_reuses": sum(self.reuses(s) for s in self.mlp_layers.values()),
            "mlp_refreshes": sum(s.refreshes for s in self.mlp_layers.values()),
        }


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


class _SparseBackend:
    """Schedule state shared by the sparse backends.

    A backend owns its live masks.  With ``predict_interval > 1`` it reuses
    them until the engine's step counter reaches its next scheduled refresh,
    and each refresh, with the mask drift it observed, is stamped into the
    layer's :class:`LayerScheduleStats`.  A subclass says whether it holds
    masks for a sequence length (``_holds``) and, for the engine's schedule
    records, exports (``export``: the :meth:`LongExposure.export_layouts`
    entry), restores (``restore``), keys (``key``) and drift-compares
    (``record_refresh``) its own masks, so the engine treats every backend
    alike.
    """

    def __init__(self, engine: "LongExposure", layer_index: int):
        self.engine = engine
        self.layer_index = layer_index
        self._last_refresh_step: int = 0

    def reset_schedule(self) -> None:
        """Forget the reused masks; the next call re-derives them."""
        self.restore((None, None, None))
        self._last_refresh_step = 0

    def _reusable(self, seq_len: int) -> bool:
        # The deadline is computed from the *current* interval, so lowering
        # (or raising) predict_interval mid-run takes effect immediately.
        interval = self.engine.config.predict_interval
        return (interval > 1 and self._holds(seq_len)
                and self.engine.step_index < self._last_refresh_step + interval)

    def refresh_due(self, seq_len: int) -> bool:
        """Whether a call at the current step re-derives the masks."""
        return not self._reusable(seq_len)

    def _refresh(self, entry: tuple, start: float) -> None:
        """Make masks derived since ``start`` (a ``perf_counter`` reading)
        live, given as an :meth:`export` record."""
        engine = self.engine
        engine.stats.prediction_seconds += time.perf_counter() - start
        self.record_refresh(engine.stats.steps, entry)
        self.restore(entry)
        self._last_refresh_step = engine.step_index


class SparseAttentionBackend(_SparseBackend):
    """Block-sparse attention kernel driven by the layer's predictor.

    The live layout carries its capacity classes: :attr:`geometry` is
    computed once when a layout is installed and kept while a refresh
    reproduces the same layout at the same sequence length.  A sequence
    length change invalidates the block grid, so it always refreshes.
    """

    def __init__(self, engine: "LongExposure", layer_index: int):
        super().__init__(engine, layer_index)
        self.last_layout: Optional[MultiHeadLayout] = None
        self._layout_seq_len: Optional[int] = None
        self.geometry: Optional[_fused.TileLayout] = None

    def _holds(self, seq_len: int) -> bool:
        return self.last_layout is not None and self._layout_seq_len == seq_len

    def export(self) -> tuple:
        return ("attn", self.last_layout, self._layout_seq_len)

    def restore(self, entry: tuple) -> None:
        """Make ``entry``'s layout the live one, with its geometry."""
        layout, seq_len = entry[1], entry[2]
        if layout is None:
            self.geometry = None
        elif (layout.signature(), seq_len) != (self.key(), self._layout_seq_len):
            self.geometry = compute_block_geometry(layout, seq_len)
        self.last_layout, self._layout_seq_len = layout, seq_len

    def key(self):
        return None if self.last_layout is None else self.last_layout.signature()

    def record_refresh(self, stamp: int, entry: tuple) -> None:
        self.engine.stats.attention_layer(self.layer_index).record_refresh(
            stamp, _layout_drift(self.last_layout, entry[1]))

    def __call__(self, module: MultiHeadAttention, q, k, v, attn_mask, x):
        engine = self.engine
        seq_len = q.shape[2]
        if not self._reusable(seq_len):
            start = time.perf_counter()
            if engine.config.oracle_mode:
                layout = engine.oracle_attention_layout(module, q, k, seq_len)
            else:
                predictor = engine.attention_predictors[self.layer_index]
                layout = layout_from_block_masks(predictor.predict_patterns(x.data),
                                                 engine.config.block_size)
            self._refresh(("attn", layout, seq_len), start)
        return block_sparse_attention(q, k, v, self.last_layout, geometry=self.geometry)


class SparseMLPBackend(_SparseBackend):
    """Neuron-block-sparse MLP kernel driven by the layer's predictor.

    The active-block set depends only on the hidden dimension, so no
    sequence-length invalidation applies.  ``n_blocks`` is the layer's
    neuron-block count, the denominator of its block sparsity.
    """

    def __init__(self, engine: "LongExposure", layer_index: int, n_blocks: int):
        super().__init__(engine, layer_index)
        self.n_blocks = n_blocks
        # The layer's capacity and frozen-weight copies (see _cache_for).
        self.weight_cache: Optional[NeuronSparseWeights] = None
        self.last_active_blocks: Optional[np.ndarray] = None
        # Set on first call when the layer's fc1/fc2 carry LoRA adapters and
        # the backend permanently routes to the dense kernel; such a backend
        # is never due a refresh.
        self._dense_fallback = False

    def _holds(self, seq_len: int) -> bool:
        return self.last_active_blocks is not None

    def refresh_due(self, seq_len: int) -> bool:
        return not self._dense_fallback and super().refresh_due(seq_len)

    def export(self) -> tuple:
        return ("mlp", self.last_active_blocks)

    def restore(self, entry: tuple) -> None:
        self.last_active_blocks = entry[1]

    def key(self):
        blocks = self.last_active_blocks
        return None if blocks is None else blocks.tobytes()

    def record_refresh(self, stamp: int, entry: tuple) -> None:
        self.engine.stats.mlp_layer(self.layer_index).record_refresh(
            stamp, _active_block_drift(self.last_active_blocks, entry[1]))

    def _cache_for(self, mlp: MLPBlock) -> NeuronSparseWeights:
        """The layer's :class:`NeuronSparseWeights`: its buffer capacity, and
        the coalesced fc2 copy while both weights are frozen."""
        fc1, fc2 = mlp.fc1, mlp.fc2
        frozen = not fc1.weight.requires_grad and not fc2.weight.requires_grad
        cache = self.weight_cache
        if cache is None or cache.coalesced != frozen:
            self.weight_cache = NeuronSparseWeights(
                fc1.weight.data, fc2.weight.data, coalesced=frozen,
                block=self.engine.config.block_size,
                capacity=0 if cache is None else cache.capacity)
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

        if not self._reusable(x.shape[-2]):
            start = time.perf_counter()
            if engine.config.oracle_mode:
                active_blocks = engine.oracle_mlp_blocks(mlp, x)
            else:
                predictor = engine.mlp_predictors[self.layer_index]
                active_blocks = predictor.predict_active_blocks(x.data)
            self._refresh(("mlp", active_blocks), start)

        active_neurons = expand_block_indices(self.last_active_blocks,
                                              engine.config.block_size, mlp.hidden_dim)
        return neuron_sparse_linear_pair(
            x, mlp.fc1.weight, mlp.fc1.bias, mlp.fc2.weight, mlp.fc2.bias,
            active_neurons, activation=mlp.activation_name, cache=self._cache_for(mlp))


class LongExposure:
    """The LongExposure system: exposer + predictors + dynamic-aware operators."""

    def __init__(self, config: Optional[LongExposureConfig] = None):
        self.config = config or LongExposureConfig()
        self.attention_exposer = AttentionExposer(
            self.config.block_size, coverage=self.config.attention_coverage)
        self.mlp_exposer = MLPExposer(self.config.block_size, threshold=MLP_FILTER)
        self.attention_predictors: List[AttentionPredictor] = []
        self.mlp_predictors: List[MLPPredictor] = []
        self.predictor_metrics: Dict[str, List[PredictorMetrics]] = {
            "attention": [], "mlp": []}
        # Per-layer fitted calibrations (populated by prepare(); parallel to
        # the predictor lists).
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
    def prepare(self, model: CausalLMModel, calibration_batches: Sequence[np.ndarray]) -> None:
        """Collect data from the frozen model, then train and calibrate the
        per-layer predictors.

        Must be called on the backbone *before* PEFT wrapping.  Oracle mode
        needs no predictors, so there it only marks the engine prepared.

        One frozen-model pass (:func:`collect_block_mass`) keeps, per layer,
        the sub-layer inputs, each sample's exposer block mass, reduced from
        the exposer's row-tile probability sweep as its tiles come, and the
        MLP activations' per-token block mass and per-neuron masses, reduced
        batch by batch (no ``(…, hidden)`` activation is kept).  Every layer's probes then train in one lockstep loop
        on one shared noise stream (:func:`train_predictors`) on the schedule
        ``PredictorTrainingConfig(epochs=config.predictor_epochs,
        seed=config.seed)``, and each trained predictor is calibrated on the
        same recordings against the oracle: one per-head block budget and
        one MLP threshold, at the calibration length (see
        :mod:`repro.sparsity.predictor.calibration`).  MLP probes train on
        ReLU models only.  The calibration batches must be at least one and
        share one sequence length (checked before the pass: ``ValueError``).
        """
        config = self.config
        self.attention_calibrations = []
        self.mlp_calibrations = []
        if config.oracle_mode:
            self._prepared = True
            return

        batch_lengths = {int(np.asarray(b).shape[-1]) for b in calibration_batches}
        if not batch_lengths:
            raise ValueError("prepare needs at least one calibration batch")
        if len(batch_lengths) > 1:
            raise ValueError("calibration batches must share one sequence length, "
                             f"got lengths {sorted(batch_lengths)}")
        layers = [data.merged() for data in collect_block_mass(
            model, calibration_batches, self.attention_exposer)]
        self.attention_predictors = []
        self.mlp_predictors = []
        self.predictor_metrics = {"attention": [], "mlp": []}
        probes, kinds = [], []
        for layer_index, merged in enumerate(layers):
            predictor = AttentionPredictor(
                model.config.dim, model.config.num_heads, PROBE_RANK,
                config.block_size, seed=config.seed + layer_index)
            self.attention_predictors.append(predictor)
            probes.append(attention_probe(
                predictor, merged["attention_inputs"],
                merged["attention_block_mass"], self.attention_exposer))
            kinds.append("attention")
            if model.config.activation == "relu":
                predictor = MLPPredictor(
                    model.config.dim, model.config.hidden_dim, config.block_size,
                    seed=config.seed + 1000 + layer_index)
                self.mlp_predictors.append(predictor)
                probes.append(mlp_probe(predictor, merged["mlp_inputs"],
                                        merged["mlp_token_block_mass"],
                                        merged["mlp_neuron_mass"], self.mlp_exposer))
                kinds.append("mlp")
        training_config = PredictorTrainingConfig(epochs=config.predictor_epochs,
                                                  seed=config.seed)
        for kind, metrics in zip(kinds, train_predictors(probes, training_config)):
            self.predictor_metrics[kind].append(metrics)
        del probes      # their labels; calibration reads only the recordings
        for layer_index, merged in enumerate(layers):
            predictor = self.attention_predictors[layer_index]
            calibration = calibrate_attention_predictor(
                predictor, self.attention_exposer,
                merged["attention_inputs"], merged["attention_block_mass"])
            predictor.set_calibration(calibration)
            self.attention_calibrations.append(calibration)
            if self.mlp_predictors:
                predictor = self.mlp_predictors[layer_index]
                calibration = calibrate_mlp_predictor(
                    predictor, self.mlp_exposer,
                    merged["mlp_inputs"], merged["mlp_total_mass"])
                predictor.set_calibration(calibration)
                self.mlp_calibrations.append(calibration)
        self._prepared = True

    # -- calibration reporting ---------------------------------------------------
    def calibration_gap(self) -> Dict[str, float]:
        """Mean |predicted − oracle| density gap recorded at calibration time."""
        out: Dict[str, float] = {}
        if self.attention_calibrations:
            out["attention"] = float(np.mean(
                [c.entry.gap for c in self.attention_calibrations]))
        if self.mlp_calibrations:
            out["mlp"] = float(np.mean(
                [c.entry.gap for c in self.mlp_calibrations]))
        return out

    # -- oracle (exposer-driven) paths ------------------------------------------------
    def oracle_attention_layout(self, module: MultiHeadAttention, q, k,
                                seq_len: int) -> MultiHeadLayout:
        """Raw coverage-mask layout computed from the current Q/K (ablation mode).

        ``seq_len`` is the length of ``q`` and ``k``; the block grid follows
        from them.  The exposer reduces the causal probabilities row
        tile by row tile (:meth:`AttentionExposer.sweep_block_mass`), so no
        ``(batch, heads, seq, seq)`` buffer exists.
        """
        mass = self.attention_exposer.sweep_block_mass(
            q.data, k.data, float(1.0 / np.sqrt(module.head_dim)))
        return layout_from_block_masks(
            self.attention_exposer.raw_masks_from_block_mass(mass),
            self.config.block_size)

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
        mlp_enabled = model.config.activation == "relu"
        depth = len(model.blocks)
        if not config.oracle_mode and (
                len(self.attention_predictors) != depth
                or mlp_enabled and len(self.mlp_predictors) != depth):
            raise RuntimeError("predictors were prepared for a different model")
        self._installed_blocks = []
        self._sparse_backends = []
        for layer_index, block in enumerate(model.blocks):
            attention = _unwrap(block.attention)
            mlp = _unwrap(block.mlp)
            entry = {"attention": attention, "mlp": mlp,
                     "attention_backend": attention.backend, "mlp_backend": mlp.backend}
            attention.backend = SparseAttentionBackend(self, layer_index)
            self._sparse_backends.append(attention.backend)
            if mlp_enabled:
                mlp.backend = SparseMLPBackend(
                    self, layer_index, -(-mlp.hidden_dim // config.block_size))
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
        self.stats.steps += 1

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
        MLP) are never due.
        """
        return any(backend.refresh_due(seq_len) for backend in self._sparse_backends)

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
        return [backend.export() for backend in self._sparse_backends]

    def adopt_layouts(self, state: list, refresh_step: Optional[int] = None) -> None:
        """Install layouts exported by another engine replica (rank 0).

        Marks every backend as freshly refreshed at ``refresh_step`` (default
        the current step index), so the scheduled reuse window restarts
        exactly as if the backend had derived the masks itself; the refresh
        and its drift against the previously reused masks are recorded per
        layer, stamped with the step they apply to.
        """
        step = self.step_index if refresh_step is None else int(refresh_step)
        stamp = self.stats.steps + step - self.step_index
        for backend, entry in zip(self._sparse_backends, state):
            if entry[1] is not None:
                backend.record_refresh(stamp, entry)
        self.restore_schedule({"step_index": self.step_index, "layouts": state,
                               "refresh_steps": [step] * len(state)})

    def schedule_state(self) -> dict:
        """Picklable record of the schedule: the step counter and, per
        backend, its :meth:`export_layouts` entry and last refresh step.

        :meth:`restore_schedule` puts it back, here (a rollback) or in a
        fresh replica, whose refresh cadence then matches step for step.
        """
        return {"step_index": int(self.step_index),
                "layouts": self.export_layouts(),
                "refresh_steps": [int(backend._last_refresh_step)
                                  for backend in self._sparse_backends]}

    def restore_schedule(self, state: dict) -> None:
        """Reinstate a :meth:`schedule_state` record.  A replaced layout
        brings its own geometry; no drift sample is recorded."""
        layouts = state["layouts"]
        if len(layouts) != len(self._sparse_backends):
            raise ValueError(f"schedule record covers {len(layouts)} backends, "
                             f"engine has {len(self._sparse_backends)}")
        self.step_index = int(state["step_index"])
        for backend, entry, refresh in zip(self._sparse_backends, layouts,
                                           state["refresh_steps"]):
            backend.restore(entry)
            backend._last_refresh_step = int(refresh)

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
        return tuple(backend.key() for backend in self._sparse_backends)

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

        Read from the geometry each backend holds for its live layout and
        runs.  A panel slot is kept unless it is the inert one,
        ``heads * n_blocks``.
        """
        return {backend.layer_index: float(np.mean(np.concatenate(
                    [t.index for t in backend.geometry.tiles]) != backend.geometry.units.size))
                for backend in self._live_attention()}

    @property
    def geometry_cache(self) -> SimpleNamespace:
        """Read-only view of the held geometry, in the shape the e2e
        benchmark's geometry and block-sparse probes read
        (``benchmarks/e2e/e2ebench/probes.py``) and kept only for them;
        delete it once they read the backends.  ``hits`` / ``misses`` are
        the attention reuses / refreshes of the refresh record, so their
        ratio is the attention layout reuse rate; ``lookup(layout,
        seq_len)`` returns the geometry a backend holds for ``layout``
        while it is live, else computes it."""
        counts = self.stats.layout_reuse_counts()

        def lookup(layout: MultiHeadLayout, seq_len: int) -> _fused.TileLayout:
            for backend in self._live_attention():
                if backend.last_layout is layout and backend._layout_seq_len == seq_len:
                    return backend.geometry
            return compute_block_geometry(layout, seq_len)

        return SimpleNamespace(hits=counts["attention_reuses"],
                               misses=counts["attention_refreshes"], lookup=lookup)

    def gauges(self) -> Dict[str, float]:
        """Point-in-time engine facts, keyed by the trainer's gauge names.

        Sparsity and panel efficiency are read from the layouts and
        active-block sets the backends execute now; reuse rates and drift
        from the per-step refresh record in :attr:`stats`; the calibration
        gaps from :meth:`calibration_gap`.  The two sparsity gauges read 0.0
        while no mask is live; the densest-head and panel gauges are then
        left out.
        """
        stats = self.stats
        live = self.live_attention_sparsity()
        mlp = [1.0 - backend.last_active_blocks.size / backend.n_blocks
               for backend in self._sparse_backends
               if isinstance(backend, SparseMLPBackend)
               and backend.last_active_blocks is not None]
        gauges = {
            "attention_sparsity": float(np.mean([heads.mean() for heads in live.values()]))
            if live else 0.0,
            "mlp_sparsity": float(np.mean(mlp)) if mlp else 0.0,
            "attention_reuse_rate": stats.attention_reuse_rate(),
            "mlp_reuse_rate": stats.mlp_reuse_rate(),
            "attention_mask_drift": stats.mean_attention_drift(),
            "mlp_block_drift": stats.mean_mlp_drift(),
        }
        if live:
            gauges["attention_min_head_sparsity"] = float(
                min(heads.min() for heads in live.values()))
        efficiency = self.live_panel_efficiency()
        if efficiency:
            gauges["attention_panel_efficiency"] = float(np.mean(list(efficiency.values())))
        for kind, gap in self.calibration_gap().items():
            gauges[f"{kind}_calibration_gap"] = gap
        return gauges

    def summary(self) -> str:
        gauges = self.gauges()
        lines = [f"LongExposure(block_size={self.config.block_size}, "
                 f"oracle={self.config.oracle_mode})"]
        for kind, value in self.mean_predictor_recall().items():
            lines.append(f"  {kind} predictor mean recall: {value:.4f}")
        for kind, gap in self.calibration_gap().items():
            lines.append(f"  {kind} calibration density gap: {gap:.4f}")
        if self.attention_calibrations:
            length = self.attention_calibrations[0].entry.seq_len
            lines.append(f"  calibration length: {length}")
        lines.append(f"  attention block sparsity: {gauges['attention_sparsity']:.3f}")
        live = self.live_attention_sparsity()
        if live:
            layers = " ".join(f"{s.mean():.3f}" for s in live.values())
            layer, heads = min(live.items(), key=lambda item: item[1].min())
            lines.append(f"  live attention sparsity per layer: {layers} "
                         f"(densest head {heads.min():.3f}, layer {layer})")
            lines.append("  attention panel efficiency per layer (kept / executed "
                         "panel blocks): " + " ".join(
                             f"{value:.3f}" for value in self.live_panel_efficiency().values()))
        lines.append(f"  MLP block sparsity: {gauges['mlp_sparsity']:.3f}")
        lines.append(f"  prediction overhead: {self.stats.prediction_seconds * 1000:.2f} ms")
        if self.config.predict_interval > 1:
            lines.append(
                f"  predict_interval={self.config.predict_interval}: "
                f"attention reuse {gauges['attention_reuse_rate']:.2f} "
                f"(drift {gauges['attention_mask_drift']:.4f}), "
                f"mlp reuse {gauges['mlp_reuse_rate']:.2f} "
                f"(drift {gauges['mlp_block_drift']:.4f})")
        return "\n".join(lines)
