"""End-to-end perf-regression benchmark for the fused-kernel + geometry-cache pass.

Measures the full fine-tuning step (forward + backward + Adam step) of a
GPT-2-small-style dense model and of a sparse (LongExposure oracle) OPT
model, in two execution modes each:

* **fused** — the default path: single-node hand-backward kernels
  (:mod:`repro.tensor.fused`) and the block-sparse geometry cache;
* **baseline** — the deep-tape execution: primitive-composition kernels
  (:mod:`repro.tensor.reference`) and per-call geometry recomputation —
  the cost model the paper's fused-operator argument is made against.

Also micro-benchmarks the individual fused ops against their taped
compositions, plus (since the sparse-chain pass):

* **sparse_chain** — block-sparse attention (the row-tiled kernel behind
  :func:`repro.sparsity.ops.block_sparse_attention`) against its
  primitive-composition twin, forward + backward, through the public entry
  points only;
* **crossover** — dense fused attention vs. block-sparse attention at seq 512
  under a realistic predicted-pattern layout (the regime where block
  sparsity must beat the fused dense kernel);
* **optimizer_step** — flattened single-buffer Adam vs. the per-parameter
  Python loop;
* **embedding_scatter** — the sort/``np.add.reduceat`` embedding-backward
  scatter vs. ``np.add.at`` at GPT-2 vocabulary scale;
* **predicted_step** (since the predictor-scheduling pass) — the end-to-end
  *predicted* sparse fine-tune step (low-rank probes instead of the oracle's
  exact scores), against the oracle step and against itself with
  ``predict_interval > 1`` (masks refreshed every K steps and reused in
  between), with the mask drift the reuse incurs reported alongside;
* **prediction_overhead** — the mask-derivation path in isolation: the
  batched single-GEMM, logit-threshold probe vs. the per-head einsum probe
  with a materialised sigmoid, the two-stage
  ``block_reduce`` vs. the 6-D reshape-sum at seq 512, and the vectorised
  pattern matcher vs. the scalar per-head/per-pattern loop;
* **predicted_quality** (since the calibration pass) — the predicted-vs-
  oracle *block-sparsity gap* on fresh evaluation batches across the
  calibration length grid: the exposer's raw coverage layouts, calibrated
  predicted layouts (per-head block budgets) and the uncalibrated
  fixed-threshold layouts, with the fraction of oracle-active blocks the
  predicted layouts retain; the acceptance bar is ``gap <= 0.05`` at the
  long-sequence end of the grid;
* **optimizer_regimes** — the flat vs. loop Adam update swept per
  parameter-size regime (fixed total elements, growing per-parameter size),
  validating :data:`repro.optim.adam.FLAT_MEAN_SIZE_THRESHOLD`: flat must
  win below the threshold and the loop at or above it (measured crossover
  ~4k elements under NumPy 2.4, matching the threshold);
* **step_capture** (since the step-capture pass) — captured vs. uncaptured
  training steps for the dense, oracle-sparse and predicted configurations:
  the buffer arena recycles every op's output/temporary buffers across steps
  (allocations/step must read ~0 at steady state) and the backward replays
  the recorded tape schedule instead of re-sorting the graph, with a
  shape-change probe asserting exactly one re-capture.  Acceptance bars:
  ``step_capture.predicted.pre_pr_speedup >= 1.15`` (captured vs the
  PR-4-form uncaptured path) with ``captured_allocs_per_step == 0``, and
  ``sparse_step.speedup >= 0.97``
  (the PR-4 ``cached_s > uncached_s`` anomaly diagnosed: at block 32 /
  seq 128 the whole geometry recompute is ~0.7 ms of a ~90 ms step — below
  the noise floor, so the end-to-end ratio is noise around ~1.01; the
  section now reports ``geometry_fraction`` as evidence and the real cache
  win stays locked by the per-call ``geometry`` section).

Re-measured under NumPy 2.4 (the PR-2 leftover): ``np.add.at`` remains ~2x
slower than the sort + ``np.add.reduceat`` ``scatter_add_rows`` on both
Zipf-duplicated and uniform token streams, so the segmented-reduce scatter
stays the embedding-backward path with no NumPy-version gate.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py --json BENCH_perf.json

``--quick`` runs every section at miniature shapes with single repeats — a
structural smoke of the whole harness (CI runs it on every push) whose
timings and ratios are meaningless; never compare a ``--quick`` JSON against
acceptance bars.

The emitted JSON records all raw timings plus the speedup ratios; the
acceptance bars for the perf passes are ``dense_step.speedup >= 1.5``,
``predicted_quality`` gap ``<= 0.05``,
``sparse_step.speedup >= 0.97`` (cache within noise — see the diagnosis in
:func:`bench_sparse_step`), ``step_capture.predicted.pre_pr_speedup >=
1.15`` with zero captured allocations per step.  The ``full_step`` section
sets the compiled steady-state step (flat forward plan + retained backward
schedule + flat optimizer tail, zero Python graph builds) against the
interpreted step and records the capture counters; it has no bar.
Since the streaming-attention pass the ``long_context`` section sweeps
seq 512..4096 three ways (materializing, streaming, block-sparse — the
last two are the same row-tiled kernel) and reports ms/token plus the
tracemalloc step peak; the bar is ``long_context.wall_peak_ratio >= 4`` — the streaming step must
peak at under a quarter of the materializing step at seq 4096 (the
O(seq^2) memory wall).
Since the data-parallel pass the ``scaling`` section drives the real
shared-memory backend (:class:`repro.runtime.DataParallelTrainer`) at
worker counts 1/2/4 and records steps/sec with per-step communication
time broken out; there is no speedup bar — on a single-core worker the
ranks time-slice one CPU, so the section records ``cpu_count`` and the
``single_core`` flag and the numbers are read against them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.models import build_model
from repro.optim import Adam
from repro.runtime.profiler import PhaseProfiler
from repro.sparsity import LongExposure, LongExposureConfig
from repro.sparsity.ops import (LayoutGeometryCache, block_sparse_attention,
                                compute_block_geometry)
from repro.sparsity.ops.layout import LayoutPool, layout_from_block_masks
from repro.sparsity.patterns import block_count, build_default_pool, causal_block_mask
from repro.sparsity.predictor import AttentionPredictor
from repro.tensor import Tensor, fused, reference
from repro.tensor.tensor import scatter_add_rows

DENSE_MODEL = "gpt2-small-repro"     # GPT-2-small-style executable config
SPARSE_MODEL = "opt-small"
BATCH = 4
SEQ = 128
BLOCK_SIZE = 32
PREDICT_INTERVAL = 4                 # K used by the predicted_step bench
PREDICTED_SEQ = 512                  # long-sequence regime of predicted_step
CHAIN_HEADS = 8
CHAIN_DIM = 64
CHAIN_PATTERNS = ["local2", "dense", "local4", "local4+global2",
                  "local2", "dense", "local8+global2", "strided2+local2"]


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _train_step_fn(model, ids: np.ndarray, optimizer) -> Callable[[], None]:
    def step() -> None:
        loss, _ = model.loss(ids)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        model.zero_grad()
    return step


def bench_dense_step(repeats: int = 5, batch: int = BATCH, seq: int = SEQ,
                     model_name: str = DENSE_MODEL) -> Dict[str, float]:
    """Fused vs. reference-tape wall clock of a dense fine-tune step."""
    result: Dict[str, float] = {}
    profiler = PhaseProfiler()
    for mode in ("fused", "reference"):
        with (fused.reference_kernels() if mode == "reference"
              else contextlib.nullcontext()):
            model = build_model(model_name, seed=0)
            ids = np.random.default_rng(0).integers(
                0, model.config.vocab_size, size=(batch, seq))
            optimizer = Adam(model.trainable_parameters(), lr=1e-4)
            step = _train_step_fn(model, ids, optimizer)
            step()  # warm-up (also amortises one-time caches)
            profiler.start(mode)
            result[f"{mode}_s"] = _best_of(step, repeats)
            profiler.stop(mode)
    result["speedup"] = result["reference_s"] / result["fused_s"]
    return result


def _pre_pr_oracle_attention_layout(engine, module, q, k, seq_len):
    """The PR-1 oracle softmax (out-of-place temporaries), for the baseline."""
    from repro.nn.attention import causal_mask

    scale = 1.0 / np.sqrt(module.head_dim)
    scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * scale
    causal = causal_mask(seq_len)
    scores = np.where(causal, scores, -1e9)
    scores = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores) * causal
    probs = probs / np.maximum(probs.sum(axis=-1, keepdims=True), 1e-12)
    return layout_from_block_masks(engine.attention_exposer.raw_block_masks(probs),
                                   engine.config.block_size)


def _pre_pr_oracle_mlp_blocks(engine, mlp, x):
    """The PR-1 oracle MLP activation probe (out-of-place), for the baseline."""
    pre = x.data.reshape(-1, mlp.dim) @ mlp.fc1.weight.data.T + mlp.fc1.bias.data
    act = np.maximum(pre, 0.0).reshape(*x.data.shape[:-1], mlp.hidden_dim)
    return engine.mlp_exposer.active_blocks(act)


def _pre_pr_scatter_add_rows(out, indices, updates):
    """The PR-1 embedding-backward scatter (``np.add.at``), for the baseline."""
    indices = np.asarray(indices).reshape(-1)
    np.add.at(out, indices, np.asarray(updates).reshape(indices.shape[0],
                                                        *out.shape[1:]))


@contextlib.contextmanager
def _pre_pr_sparse_path(engine):
    """Swap the sparse step's exposer and scatter back to their PR-1 forms:
    the out-of-place oracle attention softmax and MLP probe and the
    ``np.add.at`` embedding scatter.  (The attention kernel has no frozen
    copy here — git history is its baseline; the optimizer needs no rollback:
    full fine-tuning routes Adam onto the same per-parameter loop PR 1 ran.)
    """
    import types

    import repro.tensor.tensor as tensor_module

    saved_oracle = engine.oracle_attention_layout
    saved_mlp_oracle = engine.oracle_mlp_blocks
    saved_scatter = tensor_module.scatter_add_rows
    engine.oracle_attention_layout = types.MethodType(
        _pre_pr_oracle_attention_layout, engine)
    engine.oracle_mlp_blocks = types.MethodType(
        _pre_pr_oracle_mlp_blocks, engine)
    tensor_module.scatter_add_rows = _pre_pr_scatter_add_rows
    try:
        yield
    finally:
        engine.oracle_attention_layout = saved_oracle
        engine.oracle_mlp_blocks = saved_mlp_oracle
        tensor_module.scatter_add_rows = saved_scatter


def bench_sparse_step(repeats: int = 5, batch: int = BATCH, seq: int = SEQ,
                      model_name: str = SPARSE_MODEL) -> Dict[str, float]:
    """Sparse fine-tune step: geometry cache and the exposer/scatter deltas.

    All runs use the fused dense tensor kernels.  Three interleaved modes:

    * ``cached`` — the default sparse step;
    * ``uncached`` — geometry memo disabled (index reconstruction per call);
    * ``pre_pr_full`` — oracle softmax, MLP probe and embedding scatter
      rolled back to their PR-1 forms (``pre_pr_speedup``).
    """
    result: Dict[str, float] = {}
    model = build_model(model_name, seed=0)
    ids = np.random.default_rng(0).integers(
        0, model.config.vocab_size, size=(batch, seq))
    config = LongExposureConfig(block_size=BLOCK_SIZE, oracle_mode=True, seed=0)
    engine = LongExposure(config)
    engine.prepare(model, [ids])
    engine.install(model)
    try:
        optimizer = Adam(model.trainable_parameters(), lr=1e-4)
        step = _train_step_fn(model, ids, optimizer)
        saved_cache = engine.geometry_cache
        modes = ("cached", "uncached", "pre_pr_full")
        best = {mode: float("inf") for mode in modes}
        # Diagnosis of the PR-4 ``cached_s > uncached_s`` anomaly (0.97x):
        # at this configuration (block 32 -> a 4x4 block grid) recomputing
        # the geometry costs ~0.17 ms per layer, ~0.7 ms per step — under
        # 1 % of the ~90 ms step, i.e. *below the run-to-run noise floor*.
        # No lookup overhead crept in; the end-to-end ratio is simply
        # noise around ~1.01.  ``geometry_fraction`` below reports the
        # measured share so the JSON carries the explanation, samples are
        # two-step windows to cut timer jitter, and the acceptance bar is
        # ``speedup >= 0.97`` end-to-end (the real cache win is locked by
        # the per-call ``geometry`` section: lookup ~10³x cheaper).
        inner = 2
        geometry_s = 0.0
        step()  # warm-up
        # Interleave the modes so machine-load drift hits all equally.
        for _ in range(max(1, repeats)):
            for mode in modes:
                engine.geometry_cache = None if mode == "uncached" else saved_cache
                rollback = (_pre_pr_sparse_path(engine) if mode == "pre_pr_full"
                            else contextlib.nullcontext())
                with rollback:
                    start = time.perf_counter()
                    for _ in range(inner):
                        step()
                    best[mode] = min(best[mode],
                                     (time.perf_counter() - start) / inner)
        engine.geometry_cache = saved_cache
        for mode in modes:
            result[f"{mode}_s"] = best[mode]
        layouts = [backend.last_layout for backend in engine._sparse_backends
                   if getattr(backend, "last_layout", None) is not None]
        for layout in layouts:
            geometry_s += _best_of(
                lambda lay=layout: compute_block_geometry(lay, seq), 10)
    finally:
        engine.uninstall(model)
    result["geometry_s_per_step"] = geometry_s
    result["geometry_fraction"] = geometry_s / max(result["cached_s"], 1e-12)
    result["speedup"] = result["uncached_s"] / result["cached_s"]
    result["pre_pr_speedup"] = result["pre_pr_full_s"] / result["cached_s"]
    return result


def bench_geometry(repeats: int = 50, seq: int = 512,
                   block_size: int = 16) -> Dict[str, float]:
    """Per-call cost of deriving vs. looking up the block-sparse geometry.

    Uses a long-sequence, fine-grained block grid (the regime the paper's
    larger configurations run in) where the ``nnz * block²`` element-mask
    construction is no longer trivial.  This isolates exactly the work
    :class:`LayoutGeometryCache` removes from every sparse attention call —
    the end-to-end sparse step above is dominated by the oracle exposer at
    benchmark scale, so the cache's contribution is reported separately.
    """
    from repro.sparsity.ops import LayoutGeometryCache, compute_block_geometry
    from repro.sparsity.patterns import build_default_pool
    from repro.sparsity.ops.layout import LayoutPool

    pool = LayoutPool(build_default_pool(), block_size)
    names = ["local2", "dense", "local4", "local4+global2", "local2", "dense",
             "local8+global2", "strided2+local2"]
    layout = pool.combine(names, seq)

    compute_s = _best_of(lambda: compute_block_geometry(layout, seq), repeats)
    cache = LayoutGeometryCache()
    cache.lookup(layout, seq)
    lookup_s = _best_of(lambda: cache.lookup(layout, seq), repeats)
    return {
        "seq": float(seq),
        "block_size": float(block_size),
        "layout_nnz": float(layout.nnz),
        "compute_s": compute_s,
        "lookup_s": lookup_s,
        "speedup": compute_s / max(lookup_s, 1e-12),
    }


def _chain_layout(seq: int, block_size: int = BLOCK_SIZE, patterns=None,
                  heads: Optional[int] = None):
    """Mixed predicted-pattern layout used by the chain/crossover benches.

    ``heads`` cycles/truncates the pattern list to the requested head count
    (the smoke tests run miniature configurations).
    """
    patterns = list(patterns or CHAIN_PATTERNS)
    if heads is not None:
        patterns = [patterns[i % len(patterns)] for i in range(heads)]
    pool = LayoutPool(build_default_pool(), block_size)
    return pool.combine(patterns, seq)


def bench_sparse_chain(repeats: int = 20, batch: int = BATCH, seq: int = SEQ,
                       heads: int = CHAIN_HEADS, dim: int = CHAIN_DIM,
                       block_size: int = BLOCK_SIZE) -> Dict[str, float]:
    """Block-sparse attention vs. its taped reference twin, forward + backward.

    The kernel runs with warm cached geometry; the twin is dense attention
    under the layout's expanded element mask
    (:func:`repro.tensor.reference.block_sparse_attention`).
    """
    layout = _chain_layout(seq, block_size, heads=heads)
    rng = np.random.default_rng(0)
    q, k, v = [rng.normal(size=(batch, heads, seq, dim)).astype(np.float32)
               for _ in range(3)]
    cache = LayoutGeometryCache()
    cache.lookup(layout, seq)

    def run(op) -> Callable[[], None]:
        def once() -> None:
            qt, kt, vt = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = op(qt, kt, vt)
            out.backward(np.ones_like(out.data))
        once()  # warm-up
        return once

    fused_s = _best_of(run(lambda a, b, c: block_sparse_attention(
        a, b, c, layout, cache=cache)), repeats)
    reference_s = _best_of(run(lambda a, b, c: reference.block_sparse_attention(
        a, b, c, layout)), repeats)
    return {
        "layout_nnz": float(layout.nnz),
        "fused_s": fused_s,
        "reference_s": reference_s,
        "speedup": reference_s / fused_s,
    }


CROSSOVER_PATTERNS = ["local2", "local2+global1", "local4", "local2",
                      "local4+global1", "local2", "local2+global1", "local4"]


def bench_crossover(repeats: int = 10, batch: int = 1, seq: int = 512,
                    heads: int = CHAIN_HEADS, dim: int = CHAIN_DIM,
                    block_size: int = BLOCK_SIZE) -> Dict[str, float]:
    """Sparse-vs-dense attention crossover at long sequence length.

    Compares the fused dense core (causal mask) against block-sparse
    attention, forward + backward, at seq 512 under a local-window-heavy
    layout
    — the pattern mix long sequences actually predict (bounded local
    windows plus attention-sink globals; the block count per query row stays
    constant as the sequence grows, unlike the ``dense``-head mix the
    short-sequence chain bench uses).  ``sparse_vs_dense > 1`` means block
    sparsity beats the fused dense kernel — the crossover the paper's
    headline mechanism depends on, re-established after PR 1 halved the
    dense step.
    """
    from repro.nn.attention import causal_mask

    layout = _chain_layout(seq, block_size, CROSSOVER_PATTERNS, heads=heads)
    rng = np.random.default_rng(0)
    q, k, v = [rng.normal(size=(batch, heads, seq, dim)).astype(np.float32)
               for _ in range(3)]
    cache = LayoutGeometryCache()
    cache.lookup(layout, seq)
    mask = causal_mask(seq)

    def sparse_once() -> None:
        qt, kt, vt = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = block_sparse_attention(qt, kt, vt, layout, cache=cache)
        out.backward(np.ones_like(out.data))

    def dense_once() -> None:
        qt, kt, vt = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = fused.scaled_dot_product_attention(qt, kt, vt, mask)
        out.backward(np.ones_like(out.data))

    sparse_once(); dense_once()  # warm-up
    sparse_s = _best_of(sparse_once, repeats)
    dense_s = _best_of(dense_once, repeats)
    return {
        "seq": float(seq),
        "layout_sparsity": float(layout.sparsity()),
        "dense_s": dense_s,
        "sparse_s": sparse_s,
        "sparse_vs_dense": dense_s / sparse_s,
    }


def bench_optimizer_step(repeats: int = 20, n_params: int = 200,
                         param_shape=(768,)) -> Dict[str, float]:
    """Flattened single-buffer Adam vs. the per-parameter Python loop.

    The population mirrors the PEFT regime the optimizer routing targets —
    many small trainable tensors (BitFit biases / prompt rows at GPT-2-small
    width) — where the per-parameter NumPy call overhead dominates the loop.
    """
    from repro.nn.module import Parameter

    rng = np.random.default_rng(0)

    def make_params():
        return [Parameter(rng.normal(size=param_shape).astype(np.float32))
                for _ in range(n_params)]

    def loop_step(optimizer) -> None:
        """Force the per-parameter fallback path (the pre-flattening cost)."""
        optimizer.step_count += 1
        t = optimizer.step_count
        bias1 = 1.0 - optimizer.beta1 ** t
        bias2 = 1.0 - optimizer.beta2 ** t
        for index, param in enumerate(optimizer.params):
            optimizer._step_param(index, param, bias1, bias2)

    results: Dict[str, float] = {}
    for mode in ("flat", "loop"):
        params = make_params()
        optimizer = Adam(params, lr=1e-4, weight_decay=0.01)
        for p in params:
            p.grad = rng.normal(size=param_shape).astype(np.float32)
        step = (optimizer.step if mode == "flat"
                else lambda: loop_step(optimizer))
        step()  # warm-up
        results[f"{mode}_s"] = _best_of(step, repeats)
    results["n_elements"] = float(n_params * int(np.prod(param_shape)))
    results["speedup"] = results["loop_s"] / results["flat_s"]
    return results


def bench_optimizer_regimes(repeats: int = 10,
                            sizes=(256, 1024, 4096, 16384, 65536),
                            total_elements: int = 2_000_000) -> Dict:
    """Flat vs. loop Adam per parameter-size regime (threshold validation).

    Every regime holds the total element count fixed and varies the
    per-parameter size, so the sweep isolates the call-overhead-vs-memory-
    bandwidth trade :data:`FLAT_MEAN_SIZE_THRESHOLD` encodes.  Both paths
    are forced via the module constant (restored afterwards); the reported
    ``threshold_validated`` is True when flat wins strictly below the
    threshold and does not win above it.
    """
    import repro.optim.adam as adam_module
    from repro.nn.module import Parameter

    rng = np.random.default_rng(0)
    saved = adam_module.FLAT_MEAN_SIZE_THRESHOLD
    regimes = []
    try:
        for size in sizes:
            n_params = max(2, total_elements // int(size))
            timings: Dict[str, float] = {}
            for mode in ("flat", "loop"):
                adam_module.FLAT_MEAN_SIZE_THRESHOLD = (
                    float("inf") if mode == "flat" else -1.0)
                params = [Parameter(rng.normal(size=(int(size),)).astype(np.float32))
                          for _ in range(n_params)]
                optimizer = Adam(params, lr=1e-4, weight_decay=0.01)
                for p in params:
                    p.grad = rng.normal(size=(int(size),)).astype(np.float32)
                optimizer.step()  # warm-up
                timings[f"{mode}_s"] = _best_of(optimizer.step, repeats)
            regimes.append({"param_size": float(size), "n_params": float(n_params),
                            **timings,
                            "flat_speedup": timings["loop_s"] / timings["flat_s"]})
    finally:
        adam_module.FLAT_MEAN_SIZE_THRESHOLD = saved
    threshold = float(saved)
    below = [r for r in regimes if r["param_size"] <= threshold]
    above = [r for r in regimes if r["param_size"] > threshold]
    validated = (all(r["flat_speedup"] >= 1.0 for r in below)
                 and all(r["flat_speedup"] <= 1.15 for r in above))
    return {"threshold_elements": threshold, "regimes": regimes,
            "threshold_validated": bool(validated)}


def _eval_layout_stats(engine, model, ids):
    """Oracle / calibrated / uncalibrated layout sparsity on one fresh batch."""
    from repro.sparsity.predictor import collect_layer_data

    block = engine.config.block_size
    layers = collect_layer_data(model, [ids])
    oracle_sp, cal_sp, uncal_sp, recall = [], [], [], []
    for layer_index, predictor in enumerate(engine.attention_predictors):
        merged = layers[layer_index].merged()
        oracle_masks = engine.attention_exposer.raw_block_masks(
            merged["attention_probs"])
        oracle_sp.append(layout_from_block_masks(oracle_masks, block).sparsity())
        cal_masks = predictor.predict_patterns(merged["attention_inputs"])
        cal_sp.append(layout_from_block_masks(cal_masks, block).sparsity())
        recall.append(float((oracle_masks & cal_masks).sum() / oracle_masks.sum()))

        saved_calibration = predictor.calibration
        predictor.calibration = None
        try:
            uncal_masks = predictor.predict_patterns(merged["attention_inputs"])
        finally:
            predictor.calibration = saved_calibration
        uncal_sp.append(layout_from_block_masks(uncal_masks, block).sparsity())
    return (float(np.mean(oracle_sp)), float(np.mean(cal_sp)),
            float(np.mean(uncal_sp)), float(np.mean(recall)))


def bench_predicted_quality(batch: int = BATCH, seq: int = PREDICTED_SEQ,
                            model_name: str = SPARSE_MODEL,
                            predictor_epochs: int = 30,
                            lengths=(128, 256, 512),
                            eval_batches: int = 3) -> Dict:
    """Predicted-vs-oracle block-sparsity gap across the calibration grid.

    Probes are trained on the calibration batches and then calibrated on the
    length grid (per-head block budgets, the default engine path).
    Evaluation uses *fresh* random batches at every grid length: per layer,
    the exposer's raw coverage layouts are compared against the calibrated
    predicted layouts and against the uncalibrated fixed-threshold layouts.  ``recall`` is the fraction of oracle-active blocks
    the calibrated layout retains (the accuracy side of the trade — density
    matching must not be bought by dropping the blocks the oracle keeps).

    The acceptance bar is ``gap <= 0.05`` at the longest grid length
    (ISSUE 4; the uncalibrated gap at the same point was ~0.10-0.12).
    """
    lengths = tuple(int(l) for l in lengths)
    result: Dict = {"lengths": [float(l) for l in lengths]}
    model = build_model(model_name, seed=0)
    rng = np.random.default_rng(0)
    calib = rng.integers(0, model.config.vocab_size, size=(2, seq))
    config = LongExposureConfig(block_size=BLOCK_SIZE, seed=0,
                                predictor_epochs=predictor_epochs,
                                calibration_lengths=lengths)
    engine = LongExposure(config)
    engine.prepare(model, [calib])
    result["calibration_gap"] = engine.calibration_gap().get("attention", 0.0)

    per_length: Dict[str, Dict[str, float]] = {}
    for eval_seq in lengths:
        stats = np.array([
            _eval_layout_stats(
                engine, model,
                rng.integers(0, model.config.vocab_size, size=(batch, eval_seq)))
            for _ in range(max(1, eval_batches))])
        oracle_sp, cal_sp, uncal_sp, recall = stats.mean(axis=0)
        per_length[str(eval_seq)] = {
            "oracle_sparsity": oracle_sp,
            "calibrated_sparsity": cal_sp,
            "calibrated_gap": abs(oracle_sp - cal_sp),
            "uncalibrated_sparsity": uncal_sp,
            "uncalibrated_gap": abs(oracle_sp - uncal_sp),
            "oracle_recall": recall,
        }
    result["per_length"] = per_length
    longest = per_length[str(max(lengths))]
    result["gap"] = longest["calibrated_gap"]
    result["uncalibrated_gap"] = longest["uncalibrated_gap"]
    result["gap_reduction"] = (longest["uncalibrated_gap"]
                               / max(longest["calibrated_gap"], 1e-9))
    return result


def bench_embedding_scatter(repeats: int = 20, vocab: int = 50257,
                            dim: int = 64, n_tokens: int = 8192
                            ) -> Dict[str, float]:
    """Sort/``np.add.reduceat`` embedding-backward scatter vs. ``np.add.at``.

    Uses a Zipf-distributed token stream (the duplicate structure of real
    text) at GPT-2 vocabulary scale.
    """
    rng = np.random.default_rng(0)
    idx = np.minimum(rng.zipf(1.3, size=n_tokens) - 1, vocab - 1).astype(np.int64)
    upd = rng.normal(size=(n_tokens, dim)).astype(np.float32)
    buf = np.zeros((vocab, dim), np.float32)

    add_at_s = _best_of(lambda: np.add.at(buf, idx, upd), repeats)
    scatter_s = _best_of(lambda: scatter_add_rows(buf, idx, upd), repeats)
    return {
        "vocab": float(vocab),
        "n_tokens": float(n_tokens),
        "add_at_s": add_at_s,
        "scatter_s": scatter_s,
        "speedup": add_at_s / scatter_s,
    }


def pre_pr_block_reduce(exposer, probs: np.ndarray) -> np.ndarray:
    """The PR-2 6-D reshape-sum block reduction, kept verbatim as the baseline.

    The current :meth:`AttentionExposer.block_reduce` runs two per-axis
    ``np.add.reduceat`` stages instead; ``prediction_overhead.block_reduce``
    measures the gap and the parity tests lock exact agreement.
    """
    probs = np.asarray(probs)
    if probs.ndim == 3:
        probs = probs[None]
    batch, heads, seq, _ = probs.shape
    bs = exposer.block_size
    n_blocks = block_count(seq, bs)
    padded = n_blocks * bs
    if padded != seq:
        pad = padded - seq
        probs = np.pad(probs, ((0, 0), (0, 0), (0, pad), (0, pad)))
    reduced = probs.reshape(batch, heads, n_blocks, bs, n_blocks, bs).sum(axis=(0, 3, 5))
    reduced = reduced * causal_block_mask(n_blocks)[None]
    return reduced


def pre_pr_probe_scores(predictor, x: np.ndarray) -> np.ndarray:
    """The PR-2 probe scores, kept verbatim as the baseline: per-head einsum
    pairs for Q̂/K̂ instead of one stacked GEMM."""
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[None]
    batch, seq, dim = x.shape
    n_blocks = block_count(seq, predictor.block_size)
    centers = np.arange(n_blocks) * predictor.block_size + predictor.block_size // 2
    idx = np.minimum(centers, seq - 1)
    x_ds = x[:, idx, :]
    q_hat = np.einsum("bnd,hdr->bhnr", x_ds, predictor.w_q.data, optimize=True)
    k_hat = np.einsum("bnd,hdr->bhnr", x_ds, predictor.w_k.data, optimize=True)
    return np.matmul(q_hat, np.swapaxes(k_hat, -1, -2)) / np.sqrt(predictor.rank)


def pre_pr_predict_patterns(predictor, x: np.ndarray) -> np.ndarray:
    """The PR-2 uncalibrated probe: einsum scores and a materialised sigmoid
    thresholded at ``0.5 + threshold`` (the current path compares logits)."""
    probs = 1.0 / (1.0 + np.exp(-pre_pr_probe_scores(predictor, x)))
    keep = (probs > 0.5 + predictor.threshold).any(axis=0)
    n_blocks = keep.shape[-1]
    return (keep & causal_block_mask(n_blocks)[None]) | np.eye(n_blocks,
                                                             dtype=bool)[None]


def bench_predicted_step(repeats: int = 3, batch: int = BATCH,
                         seq: int = PREDICTED_SEQ,
                         model_name: str = SPARSE_MODEL,
                         interval: int = PREDICT_INTERVAL,
                         predictor_epochs: int = 30,
                         drift_windows: int = 3) -> Dict[str, float]:
    """End-to-end *predicted* sparse fine-tune step vs. oracle and vs. interval.

    The configuration is the paper's production regime — LoRA fine-tuning at
    long sequence length — where the oracle's per-step mask derivation (a
    dense ``(batch, heads, seq, seq)`` QK^T plus block reduction per layer)
    dominates the step and the low-rank probes are the designed replacement.
    Predictors are trained at the same sequence length (the probes are grid-
    sensitive: training at a shorter length predicts near-dense patterns).

    Four interleaved modes, all on the same prepared engine, each timed as a
    window of ``interval`` consecutive steps so a scheduled mode's refresh +
    reuse mix is averaged fairly (reported seconds are per *step*):

    * ``oracle`` — exact exposer masks re-derived every step (the PR-2
      measured path);
    * ``oracle_intervalK`` — exact masks re-derived every ``interval`` steps
      and reused in between (scheduler applied to the oracle);
    * ``interval1`` — low-rank probes every step (``predict_interval=1``);
    * ``intervalK`` — probes every ``interval`` steps, layouts reused.

    Acceptance bars: ``speedup_vs_oracle >= 1.3`` and both
    ``interval_speedup`` values > 1.  After timing, a short run over *fresh
    random batches* under ``intervalK`` reports the mask drift the reuse
    incurs (``attention_mask_drift`` / ``mlp_block_drift``).
    """
    from repro.peft import apply_lora

    result: Dict[str, float] = {}
    model = build_model(model_name, seed=0)
    rng = np.random.default_rng(0)
    calib = rng.integers(0, model.config.vocab_size, size=(2, seq))
    ids = rng.integers(0, model.config.vocab_size, size=(batch, seq))
    config = LongExposureConfig(block_size=BLOCK_SIZE, seed=0,
                                predictor_epochs=predictor_epochs)
    engine = LongExposure(config)
    engine.prepare(model, [calib])
    apply_lora(model)
    engine.install(model)
    saved_interval = engine.config.predict_interval
    try:
        optimizer = Adam(model.trainable_parameters(), lr=1e-4)
        base_step = _train_step_fn(model, ids, optimizer)
        steps_per_window = max(1, interval)

        def window() -> None:
            for _ in range(steps_per_window):
                engine.advance_step()
                base_step()

        modes = ("oracle", "oracle_intervalK", "interval1", "intervalK")

        def enter(mode: str) -> None:
            engine.config.oracle_mode = mode.startswith("oracle")
            engine.config.predict_interval = (
                interval if mode.endswith("intervalK") else 1)
            engine.reset_schedule()

        best = {mode: float("inf") for mode in modes}
        for mode in modes:   # warm-up (predictor caches, geometry, layouts)
            enter(mode)
            window()
        # Interleave the modes so machine-load drift hits all equally.
        for _ in range(max(1, repeats)):
            for mode in modes:
                enter(mode)
                start = time.perf_counter()
                window()
                best[mode] = min(best[mode], time.perf_counter() - start)
        for mode in modes:
            result[f"{mode}_s"] = best[mode] / steps_per_window

        # Prediction overhead per step under each probe schedule (the wall
        # clock above is dominated by the kernels, so the ~K-fold drop in
        # mask-derivation cost is reported directly from the engine stats).
        for mode in ("interval1", "intervalK"):
            enter(mode)
            engine.stats.reset()
            window()
            result[f"{mode}_prediction_s"] = (
                engine.stats.prediction_seconds / steps_per_window)
        result["prediction_overhead_reduction"] = (
            result["interval1_prediction_s"]
            / max(result["intervalK_prediction_s"], 1e-12))

        # Mask drift under reuse, on genuinely drifting inputs: alternate the
        # uniform-random stream with a low-entropy repeated-token stream so
        # the attention landscape actually moves between refreshes (adjacent
        # uniform batches are statistically identical and well-trained probes
        # rightly predict the same patterns for them).
        enter("intervalK")
        engine.stats.reset()
        degenerate = np.tile(
            rng.integers(0, model.config.vocab_size, size=(batch, 8)),
            (1, seq // 8 + 1))[:, :seq]
        for step in range(max(1, drift_windows) * steps_per_window):
            engine.advance_step()
            if (step // steps_per_window) % 2 == 1:
                fresh = degenerate
            else:
                fresh = rng.integers(0, model.config.vocab_size, size=(batch, seq))
            _train_step_fn(model, fresh, optimizer)()
        result["attention_mask_drift"] = engine.stats.mean_attention_drift()
        result["mlp_block_drift"] = engine.stats.mean_mlp_drift()
        result["attention_reuse_rate"] = engine.stats.attention_reuse_rate()
        result["prediction_fraction"] = engine.stats.prediction_fraction()
    finally:
        engine.config.oracle_mode = False
        engine.config.predict_interval = saved_interval
        engine.uninstall(model)
    result["interval"] = float(interval)
    result["speedup_vs_oracle"] = result["oracle_s"] / result["interval1_s"]
    result["interval_speedup"] = result["interval1_s"] / result["intervalK_s"]
    result["oracle_interval_speedup"] = (
        result["oracle_s"] / result["oracle_intervalK_s"])
    return result


def _pre_pr_gelu_forward(pre):
    """The PR-4 GELU forward (tanh approximation), frozen with its caller."""
    inner = pre * pre
    inner *= np.float32(0.044715)
    inner += 1.0
    inner *= pre
    inner *= np.float32(np.sqrt(2.0 / np.pi))
    tanh_inner = np.tanh(inner, out=inner)
    out = tanh_inner + 1.0
    out *= pre
    out *= 0.5
    return out, tanh_inner


def pre_pr_linear(x, weight, bias=None, activation=None):
    """The PR-4 fused linear, kept verbatim as the step-capture baseline.

    Identical math to the current op, but every buffer is freshly allocated
    (no arena seam) and the weight/bias gradients are computed even for
    frozen parameters — the dead work the PEFT-aware backward now skips.
    """
    from repro.tensor.fused import _gelu_local_grad
    from repro.tensor.tensor import custom_op

    x_data = x.data
    in_features = weight.data.shape[1]
    out_features = weight.data.shape[0]
    x2d = x_data.reshape(-1, in_features)
    out = np.matmul(x2d, weight.data.T)
    if bias is not None:
        out += bias.data
    relu_mask = gelu_pre = gelu_tanh = act_out = None
    if activation is None or activation == "none":
        pass
    elif activation == "relu":
        relu_mask = out > 0
        np.multiply(out, relu_mask, out=out)
    elif activation == "gelu":
        gelu_pre = out
        out, gelu_tanh = _pre_pr_gelu_forward(gelu_pre)
    elif activation == "tanh":
        out = np.tanh(out, out=out)
        act_out = out
    elif activation == "sigmoid":
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
        act_out = out
    else:
        raise ValueError(f"unsupported fused activation {activation!r}")
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad2d = grad.reshape(-1, out_features)
        if relu_mask is not None:
            grad2d = grad2d * relu_mask
        elif gelu_pre is not None:
            grad2d = grad2d * _gelu_local_grad(gelu_pre, gelu_tanh)
        elif act_out is not None:
            if activation == "tanh":
                grad2d = grad2d * (1.0 - act_out * act_out)
            else:
                grad2d = grad2d * (act_out * (1.0 - act_out))
        grad_x = np.matmul(grad2d, weight.data).reshape(x_data.shape)
        grad_w = np.matmul(grad2d.T, x2d)
        if bias is None:
            return grad_x, grad_w
        return grad_x, grad_w, grad2d.sum(axis=0)

    return custom_op(out.reshape(*x_data.shape[:-1], out_features),
                     parents, backward)


def pre_pr_layer_norm(x, weight, bias, eps: float = 1e-5):
    """The PR-4 fused layer norm (unconditional affine grads), verbatim."""
    from repro.tensor.tensor import custom_op

    mean = x.data.mean(axis=-1, keepdims=True)
    normalized = x.data - mean
    var = np.square(normalized).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps, out=var)
    normalized *= inv_std
    out = normalized * weight.data
    out += bias.data
    dim = x.data.shape[-1]

    def backward(grad):
        grad_weight = (grad * normalized).reshape(-1, dim).sum(axis=0)
        grad_bias = grad.reshape(-1, dim).sum(axis=0)
        grad_norm = grad * weight.data
        grad_x = grad_norm - grad_norm.mean(axis=-1, keepdims=True)
        grad_x -= normalized * (grad_norm * normalized).mean(axis=-1, keepdims=True)
        grad_x *= inv_std
        return grad_x, grad_weight, grad_bias

    return custom_op(out, (x, weight, bias), backward)


def pre_pr_neuron_sparse_linear_pair(x, fc1_weight, fc1_bias, fc2_weight,
                                     fc2_bias, active_neurons,
                                     activation="relu", cache=None):
    """The PR-4 neuron-sparse MLP op (full frozen-weight grads), verbatim."""
    from repro.tensor.tensor import custom_op

    active = np.asarray(active_neurons, dtype=np.int64)
    x_data = x.data
    batch_shape = x_data.shape[:-1]
    d_model = x_data.shape[-1]
    if cache is not None:
        fc1_active, fc2_active_t = cache.gather(active)
    else:
        fc1_active = fc1_weight.data[active]
        fc2_active_t = fc2_weight.data[:, active].T
    b1_active = fc1_bias.data[active]
    x2d = x_data.reshape(-1, d_model)
    pre = x2d @ fc1_active.T + b1_active
    act_mask = pre > 0
    hidden = pre * act_mask
    out2d = hidden @ fc2_active_t + fc2_bias.data
    out = out2d.reshape(*batch_shape, d_model)

    def backward(grad_out):
        grad2d = grad_out.reshape(-1, d_model)
        grad_fc2_bias = grad2d.sum(axis=0)
        grad_fc2_active = hidden.T @ grad2d
        grad_fc2 = np.zeros_like(fc2_weight.data)
        grad_fc2[:, active] = grad_fc2_active.T
        grad_hidden = (grad2d @ fc2_active_t.T) * act_mask
        grad_fc1_active = grad_hidden.T @ x2d
        grad_fc1 = np.zeros_like(fc1_weight.data)
        grad_fc1[active] = grad_fc1_active
        grad_b1 = np.zeros_like(fc1_bias.data)
        grad_b1[active] = grad_hidden.sum(axis=0)
        grad_x = (grad_hidden @ fc1_active).reshape(x_data.shape)
        return grad_x, grad_fc1, grad_b1, grad_fc2, grad_fc2_bias

    return custom_op(out, (x, fc1_weight, fc1_bias, fc2_weight, fc2_bias),
                     backward)


@contextlib.contextmanager
def _pre_pr_peft_backward():
    """Roll the PEFT-regime backward optimisations back to their PR-4 forms.

    Restores (verbatim) the unconditional-gradient fused linear and layer
    norm and the full-gradient neuron-sparse MLP op.  The block-sparse chain
    is *not* rolled back (its PR-5 deltas — ``np.take`` gathers, uncovered-
    slot zeroing — are small), so the measured ``pre_pr`` step is a
    conservative stand-in for the PR-4 path: the reported speedup against it
    is a lower bound.
    """
    import repro.sparsity.engine as engine_module

    saved = (fused.linear, fused.layer_norm,
             engine_module.neuron_sparse_linear_pair)
    fused.linear = pre_pr_linear
    fused.layer_norm = pre_pr_layer_norm
    engine_module.neuron_sparse_linear_pair = pre_pr_neuron_sparse_linear_pair
    try:
        yield
    finally:
        (fused.linear, fused.layer_norm,
         engine_module.neuron_sparse_linear_pair) = saved


def bench_step_capture(repeats: int = 4, batch: int = BATCH, seq: int = SEQ,
                       predicted_seq: int = PREDICTED_SEQ,
                       predictor_epochs: int = 30,
                       interval: int = PREDICT_INTERVAL,
                       dense_model: str = DENSE_MODEL,
                       sparse_model: str = SPARSE_MODEL) -> Dict:
    """Captured vs. uncaptured training steps (buffer arena + planned replay).

    Three configurations, each driven through :class:`FineTuner` so both
    modes share the trainer/profiler overhead and differ only in capture:

    * ``dense`` — full fine-tuning of the dense model (batch x seq);
    * ``oracle`` — the oracle-sparse step (exact exposer masks per step);
    * ``predicted`` — the production path: LoRA + trained probes at
      ``predicted_seq`` with ``predict_interval=interval``.

    Reported per mode: best-of per-step seconds, the speedup, the captured
    steady-state allocations per step (arena misses — must be ~0) and the
    arena footprint.  The predicted configuration additionally measures a
    ``pre_pr`` mode — the uncaptured step with the PEFT-regime backward
    rolled back to its PR-4 form (see :func:`_pre_pr_peft_backward`) — since
    this PR sped the *uncaptured* path up as well (frozen-parameter gradient
    skips), which the in-run ``speedup`` alone would hide.  A ``recapture``
    probe then feeds the captured dense tuner one batch at half the sequence
    length: exactly one re-capture must occur and allocations must return to
    zero on the following steps.

    Acceptance bars: ``predicted.pre_pr_speedup >= 1.15`` (captured step vs
    the PR-4-form path — the ISSUE 5 criterion; conservative, since the
    rollback keeps this PR's block-sparse-chain deltas), ``predicted.speedup
    > 1`` in-run, and ``predicted.captured_allocs_per_step == 0``.
    """
    from repro.peft import apply_lora
    from repro.runtime import (AttentionConfig, CaptureConfig, FineTuner,
                               StepCapture, TrainingConfig)

    def dense_factory(captured: bool):
        model = build_model(dense_model, seed=0)
        ids = np.random.default_rng(0).integers(
            0, model.config.vocab_size, size=(batch, seq))
        optimizer = Adam(model.trainable_parameters(), lr=1e-4)
        tuner = FineTuner(model, TrainingConfig(), optimizer=optimizer,
                          capture=StepCapture() if captured else None)
        return tuner, ids

    def oracle_factory(captured: bool):
        model = build_model(sparse_model, seed=0)
        ids = np.random.default_rng(0).integers(
            0, model.config.vocab_size, size=(batch, seq))
        engine = LongExposure(LongExposureConfig(
            block_size=BLOCK_SIZE, oracle_mode=True, seed=0))
        engine.prepare(model, [ids])
        engine.install(model)
        optimizer = Adam(model.trainable_parameters(), lr=1e-4)
        tuner = FineTuner(model, TrainingConfig(), optimizer=optimizer,
                          engine=engine,
                          capture=StepCapture() if captured else None)
        return tuner, ids

    def predicted_factory(captured: bool):
        model = build_model(sparse_model, seed=0)
        rng = np.random.default_rng(0)
        calib = rng.integers(0, model.config.vocab_size, size=(2, predicted_seq))
        ids = rng.integers(0, model.config.vocab_size,
                           size=(batch, predicted_seq))
        engine = LongExposure(LongExposureConfig(
            block_size=BLOCK_SIZE, seed=0, predictor_epochs=predictor_epochs,
            predict_interval=interval))
        engine.prepare(model, [calib])
        apply_lora(model)
        engine.install(model)
        optimizer = Adam(model.trainable_parameters(), lr=1e-4)
        tuner = FineTuner(model, TrainingConfig(), optimizer=optimizer,
                          engine=engine,
                          capture=StepCapture() if captured else None)
        return tuner, ids

    def measure(factory, window: int, include_pre_pr: bool = False
                ) -> Dict[str, float]:
        pairs = {captured: factory(captured) for captured in (False, True)}
        if include_pre_pr:
            with _pre_pr_peft_backward():
                pairs["pre_pr"] = factory(False)
        # Warm-up covers the capture lifecycle (warm-up + capture steps) and
        # one-time caches; then interleaved best-of windows.  ``window + 2``
        # steps put every window's last step one past a mask refresh, so the
        # allocation count read below is a replay step's, not a re-capture's.
        contexts = {mode: (_pre_pr_peft_backward if mode == "pre_pr"
                           else contextlib.nullcontext)
                    for mode in pairs}
        for mode, (tuner, ids) in pairs.items():
            with contexts[mode]():
                for _ in range(window + 2):
                    tuner.step(ids)
        best = {mode: float("inf") for mode in pairs}
        for _ in range(max(1, repeats)):
            for mode, (tuner, ids) in pairs.items():
                with contexts[mode]():
                    start = time.perf_counter()
                    for _ in range(window):
                        tuner.step(ids)
                best[mode] = min(best[mode],
                                 (time.perf_counter() - start) / window)
        capture = pairs[True][0].capture
        row = {
            "uncaptured_s": best[False],
            "captured_s": best[True],
            "speedup": best[False] / best[True],
            "captured_allocs_per_step": float(capture.last_step_allocations),
            "arena_mb": capture.arena.bytes_held / 1024 ** 2,
            "replay_steps": float(capture.replay_steps),
            "fallbacks": float(capture.fallbacks),
        }
        if include_pre_pr:
            row["pre_pr_s"] = best["pre_pr"]
            row["pre_pr_speedup"] = best["pre_pr"] / best[True]
        for tuner, _ in pairs.values():
            if tuner.engine is not None:
                tuner.engine.uninstall(tuner.model)
        return row

    report: Dict = {
        "dense": measure(dense_factory, window=2),
        "oracle": measure(oracle_factory, window=2),
        "predicted": measure(predicted_factory, window=max(1, interval),
                             include_pre_pr=True),
    }

    # Shape-change invalidation: one batch at half the length must trigger
    # exactly one re-capture, after which allocations return to zero.
    tuner, ids = dense_factory(True)
    for _ in range(4):
        tuner.step(ids)
    capture = tuner.capture
    recaptures_before = capture.recaptures
    short = ids[:, :max(2, seq // 2)]
    tuner.step(short)                      # re-capture at the new shape
    tuner.step(short)                      # first replay at the new shape
    tuner.step(short)
    report["recapture"] = {
        "recaptures": float(capture.recaptures - recaptures_before),
        "post_change_allocs_per_step": float(capture.last_step_allocations),
        "state_replay": float(capture.state == capture.REPLAY),
    }
    return report


def bench_full_step(repeats: int = 4, batch: int = BATCH,
                    predicted_seq: int = PREDICTED_SEQ,
                    predictor_epochs: int = 30,
                    interval: int = PREDICT_INTERVAL,
                    sparse_model: str = SPARSE_MODEL) -> Dict:
    """Compiled full step vs. interpreted, with the capture counters.

    The configuration is the production predicted regime of
    :func:`bench_step_capture` — LoRA on the sparse model at
    ``batch x predicted_seq`` with trained probes and
    ``predict_interval=interval`` — on a fixed batch (the steady state the
    compiler targets).  Two modes, each its own tuner:

    * ``interpreted`` — no capture: graph built and re-sorted every step;
    * ``compiled`` — a :class:`StepCapture`: steady-state steps replay
      forward + backward + optimizer tail as one flat plan of kernel calls,
      zero graph builds.

    Both are timed as windows of ``interval`` consecutive steps so the
    scheduled refresh (the step that drops the compiled plan and records
    the next one) is averaged into the per-step figure fairly.
    """
    from repro.peft import apply_lora
    from repro.runtime import FineTuner, StepCapture, TrainingConfig

    def factory(capture: bool):
        model = build_model(sparse_model, seed=0)
        rng = np.random.default_rng(0)
        calib = rng.integers(0, model.config.vocab_size,
                             size=(2, predicted_seq))
        ids = rng.integers(0, model.config.vocab_size,
                           size=(batch, predicted_seq))
        engine = LongExposure(LongExposureConfig(
            block_size=BLOCK_SIZE, seed=0, predictor_epochs=predictor_epochs,
            predict_interval=interval))
        engine.prepare(model, [calib])
        apply_lora(model)
        engine.install(model)
        optimizer = Adam(model.trainable_parameters(), lr=1e-4)
        tuner = FineTuner(model, TrainingConfig(), optimizer=optimizer,
                          engine=engine,
                          capture=StepCapture() if capture else None)
        return tuner, ids

    modes = {"interpreted": factory(False), "compiled": factory(True)}

    window = max(1, interval)
    # Warm-up spans the whole lifecycle twice over: warm-up step, capture +
    # compile, replays, one scheduled refresh.
    for tuner, ids in modes.values():
        for _ in range(2 * window + 2):
            tuner.step(ids)
    best = {mode: float("inf") for mode in modes}
    for _ in range(max(1, repeats)):
        # Interleave so machine-load drift hits both modes equally.
        for mode, (tuner, ids) in modes.items():
            start = time.perf_counter()
            for _ in range(window):
                tuner.step(ids)
            best[mode] = min(best[mode],
                             (time.perf_counter() - start) / window)

    capture = modes["compiled"][0].capture
    result: Dict = {
        "interpreted_s": best["interpreted"],
        "compiled_s": best["compiled"],
        "interval": float(interval),
        "speedup_vs_interpreted": best["interpreted"] / best["compiled"],
        "full_captures": float(capture.full_captures),
        "full_replays": float(capture.full_replays),
        "full_fallbacks": float(capture.full_fallbacks),
        "captured_allocs_per_step": float(capture.last_step_allocations),
    }
    for tuner, _ in modes.values():
        if tuner.engine is not None:
            tuner.engine.uninstall(tuner.model)
    return result


SCALING_WORKER_COUNTS = (1, 2, 4)


def _scaling_tuner(model_name: str, seed: int = 0):
    """Module-level tuner factory (picklable under the spawn start method)."""
    from repro.peft import apply_lora
    from repro.runtime import CaptureConfig, FineTuner, TrainingConfig

    model = build_model(model_name, seed=seed)
    apply_lora(model)
    return FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=True)))


def bench_scaling(worker_counts=SCALING_WORKER_COUNTS, steps: int = 6,
                  batch: int = 4, seq: int = 128,
                  model_name: str = "gpt2-tiny",
                  step_timeout_s: float = 300.0) -> Dict:
    """Data-parallel strong scaling over the shared-memory backend.

    For each worker count, a :class:`repro.runtime.DataParallelTrainer`
    trains the LoRA model over the *same* global batches (each worker steps
    its ``batch / world`` shard; gradients meet in the flat-buffer chunked
    all-reduce), and the section records steps/sec with the per-step
    communication time broken out of the phase breakdown.

    There is deliberately no speedup acceptance bar: on a single-core CI
    worker the ranks time-slice one CPU and strong scaling is physically
    impossible, so the section records ``cpu_count`` and the ``single_core``
    flag instead and leaves the speedup/efficiency columns as evidence to be
    read against them.  What the section *does* lock structurally is the
    backend itself — every worker count must complete all steps, agree on
    the cross-rank parameter digest, and unlink its segments.
    """
    from repro.runtime import DataParallelTrainer

    rng = np.random.default_rng(0)
    data = [rng.integers(0, 64, size=(batch, seq)).astype(np.int64)
            for _ in range(steps)]
    result: Dict = {
        "cpu_count": float(os.cpu_count() or 1),
        "single_core": bool((os.cpu_count() or 1) <= 1),
        "global_batch": float(batch),
        "seq": float(seq),
        "steps": float(steps),
        "model": model_name,
        "workers": {},
    }
    base_steps_per_s = None
    for world in worker_counts:
        if batch % world:
            continue                      # shard must divide the global batch
        factory = functools.partial(_scaling_tuner, model_name)
        with DataParallelTrainer(factory, workers=world,
                                 step_timeout_s=step_timeout_s) as trainer:
            report = trainer.train(data)
        steps_per_s = report.steps_per_second()
        mean = report.mean_timings()
        entry = {
            "steps_per_s": steps_per_s,
            "step_wall_ms": (1000.0 / steps_per_s
                             if steps_per_s > 0 else float("inf")),
            "comm_ms_per_step": report.mean_comm_ms(),
            "forward_ms": mean.forward * 1000.0,
            "backward_ms": mean.backward * 1000.0,
            "optimizer_ms": mean.optimizer * 1000.0,
            "param_digest": report.param_digest,
        }
        if base_steps_per_s is None:
            base_steps_per_s = steps_per_s
        entry["speedup_vs_1"] = steps_per_s / base_steps_per_s
        entry["efficiency"] = entry["speedup_vs_1"] / world
        result["workers"][str(world)] = entry
    return result


LONG_CONTEXT_LENGTHS = (512, 1024, 2048, 4096)
LONG_CONTEXT_TILE = 128
LONG_CONTEXT_PATTERNS = ["local4+global2", "local2+global1"]


def bench_long_context(lengths=LONG_CONTEXT_LENGTHS, batch: int = 1,
                       tile: int = LONG_CONTEXT_TILE,
                       repeats: int = 1) -> Dict:
    """Long-context LoRA step: ms/token and the O(seq^2) memory wall.

    For each sequence length, a one-layer nano model (dim 32, 2 heads — at
    these lengths the attention buffers dwarf weights and activations)
    takes LoRA steps three ways:

    * ``materializing`` — dense SDPA holding the full ``(batch, heads,
      seq, seq)`` probability matrix for the backward;
    * ``streaming`` — the row-tiled kernel: ``O(tile * seq)`` scratch,
      logsumexp-recompute backward;
    * ``block_sparse_streaming`` — kernel-level forward+backward of
      block-sparse attention (the same kernel over gathered panels) on a
      local+global layout (the sparse engine's long-context configuration).

    Wall-clock (best of ``repeats``) is measured untraced; the heap peak
    is a separate tracemalloc-instrumented step, because tracing itself
    slows NumPy dispatch.  ``peak_ratio`` (materializing / streaming) is
    the headline figure: it grows with ``seq`` — the memory wall falling —
    and at short lengths (``seq <= tile``) sits near 1, where the single
    row tile degenerates to the materializing shape.
    """
    import tracemalloc

    from repro.models import ModelConfig
    from repro.peft import apply_lora
    from repro.runtime import AttentionConfig, FineTuner, TrainingConfig

    heads = 2
    results: Dict = {"tile": float(tile), "lengths": {}}
    for seq in lengths:
        cfg = ModelConfig(name=f"longctx-nano-{seq}", family="gpt2",
                          vocab_size=128, max_seq_len=seq, dim=32,
                          num_layers=1, num_heads=heads,
                          activation="gelu", sparsify_init=False)
        ids = np.random.default_rng(11).integers(0, cfg.vocab_size,
                                                 size=(batch, seq))
        entry: Dict = {}
        for label, streaming in (("materializing", False),
                                 ("streaming", True)):
            model = build_model(cfg, seed=0)
            apply_lora(model)
            tuner = FineTuner(model,
                              TrainingConfig(
                                  attention=AttentionConfig(
                                      streaming=streaming,
                                      streaming_tile=tile)))
            tuner.step(ids)                        # warm-up
            step_s = _best_of(lambda: tuner.step(ids), repeats)
            tracemalloc.start()
            tuner.step(ids)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            entry[f"{label}_ms_per_token"] = (step_s * 1000.0
                                              / (batch * seq))
            entry[f"{label}_peak_bytes"] = float(peak)

        layout = _chain_layout(seq, BLOCK_SIZE, heads=heads,
                               patterns=LONG_CONTEXT_PATTERNS)
        rng = np.random.default_rng(7)
        q, k, v = [rng.normal(size=(batch, heads, seq, 16))
                   .astype(np.float32) for _ in range(3)]
        cache = LayoutGeometryCache()
        cache.lookup(layout, seq)

        def once(q=q, k=k, v=v, layout=layout, cache=cache):
            qt, kt, vt = [Tensor(a, requires_grad=True)
                          for a in (q, k, v)]
            out = block_sparse_attention(qt, kt, vt, layout,
                                         cache=cache, streaming=True)
            out.backward(np.ones_like(out.data))

        once()                                      # warm-up
        kernel_s = _best_of(once, repeats)
        tracemalloc.start()
        once()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        entry["block_sparse_streaming_ms_per_token"] = (
            kernel_s * 1000.0 / (batch * seq))
        entry["block_sparse_streaming_peak_bytes"] = float(peak)
        entry["peak_ratio"] = (entry["materializing_peak_bytes"]
                               / entry["streaming_peak_bytes"])
        results["lengths"][str(seq)] = entry
    results["wall_seq"] = float(max(lengths))
    results["wall_peak_ratio"] = (
        results["lengths"][str(max(lengths))]["peak_ratio"])
    return results


def bench_prediction_overhead(repeats: int = 20, batch: int = BATCH,
                              seq: int = SEQ, dim: int = 128, heads: int = 8,
                              rank: int = 8, block_size: int = BLOCK_SIZE,
                              reduce_seq: int = 512,
                              reduce_batch: int = 4) -> Dict[str, Dict[str, float]]:
    """Mask-derivation micro-benchmarks: probe, block reduction, matcher.

    * ``probe`` — :meth:`AttentionPredictor.predict_patterns` (stacked
      single-GEMM Q̂/K̂, logit-space threshold) vs. the PR-2 per-head einsum
      probe with a materialised sigmoid;
    * ``block_reduce`` — the two-stage ``np.add.reduceat`` reduction vs. the
      6-D reshape-sum at seq ``reduce_seq`` (the oracle-mode hot spot; the
      acceptance bar is ``speedup > 1``);
    * ``match_many`` — the vectorised one-GEMM pattern matcher vs. the
      scalar per-head/per-pattern loop (``PatternPool.match``).
    """
    from repro.sparsity.exposer import AttentionExposer

    rng = np.random.default_rng(0)
    pool = build_default_pool()
    predictor = AttentionPredictor(dim, heads, rank, block_size, seed=0)
    x = rng.normal(size=(batch, seq, dim)).astype(np.float32)

    optimised_s = _best_of(lambda: predictor.predict_patterns(x), repeats)
    pre_pr_s = _best_of(lambda: pre_pr_predict_patterns(predictor, x), repeats)
    probe = {"optimised_s": optimised_s, "pre_pr_s": pre_pr_s,
             "speedup": pre_pr_s / optimised_s}

    exposer = AttentionExposer(pool, block_size)
    probs = rng.random((reduce_batch, heads, reduce_seq, reduce_seq)).astype(np.float32)
    probs *= np.tril(np.ones((reduce_seq, reduce_seq), dtype=np.float32))
    two_stage_s = _best_of(lambda: exposer.block_reduce(probs), repeats)
    reshape_sum_s = _best_of(lambda: pre_pr_block_reduce(exposer, probs), repeats)
    block_reduce = {"seq": float(reduce_seq), "two_stage_s": two_stage_s,
                    "reshape_sum_s": reshape_sum_s,
                    "speedup": reshape_sum_s / two_stage_s}

    n_blocks = block_count(seq, block_size)
    mass = rng.random((heads, n_blocks, n_blocks)) * causal_block_mask(n_blocks)[None]
    vectorised_s = _best_of(lambda: pool.match_many(mass, coverage=0.9), repeats)
    loop_s = _best_of(
        lambda: [pool.match(mass[h], 0.9) for h in range(heads)], repeats)
    match_many = {"vectorised_s": vectorised_s, "loop_s": loop_s,
                  "speedup": loop_s / vectorised_s}

    return {"probe": probe, "block_reduce": block_reduce,
            "match_many": match_many}


def bench_fused_ops(repeats: int = 20) -> Dict[str, Dict[str, float]]:
    """Per-op forward+backward micro-benchmarks, fused vs. taped composition."""
    rng = np.random.default_rng(0)
    batch, heads, seq, dim, vocab = 4, 8, 128, 64, 1024

    def run(make_loss: Callable[[], Tensor]) -> float:
        def once() -> None:
            make_loss().backward()
        once()
        return _best_of(once, repeats)

    x_attn = [Tensor(rng.normal(size=(batch, heads, seq, dim)).astype(np.float32),
                     requires_grad=True) for _ in range(3)]
    scores = Tensor(rng.normal(size=(batch, heads, seq, seq)).astype(np.float32),
                    requires_grad=True)
    from repro.nn.attention import causal_mask
    mask = causal_mask(seq)

    x_ln = Tensor(rng.normal(size=(batch, seq, 8 * dim)).astype(np.float32),
                  requires_grad=True)
    w_ln = Tensor(np.ones(8 * dim, dtype=np.float32), requires_grad=True)
    b_ln = Tensor(np.zeros(8 * dim, dtype=np.float32), requires_grad=True)

    logits = Tensor(rng.normal(size=(batch, seq, vocab)).astype(np.float32),
                    requires_grad=True)
    targets = rng.integers(0, vocab, size=(batch, seq))

    x_lin = Tensor(rng.normal(size=(batch, seq, 8 * dim)).astype(np.float32),
                   requires_grad=True)
    w_lin = Tensor(rng.normal(0, 0.02, size=(4 * 8 * dim, 8 * dim)).astype(np.float32),
                   requires_grad=True)
    b_lin = Tensor(np.zeros(4 * 8 * dim, dtype=np.float32), requires_grad=True)

    cases: Dict[str, Dict[str, Callable[[], Tensor]]] = {
        "masked_softmax": {
            "fused": lambda: fused.masked_softmax(scores, mask).sum(),
            "reference": lambda: reference.masked_softmax(scores, mask).sum(),
        },
        "attention_core": {
            "fused": lambda: fused.scaled_dot_product_attention(
                x_attn[0], x_attn[1], x_attn[2], mask).sum(),
            "reference": lambda: reference.scaled_dot_product_attention(x_attn[0], x_attn[1], x_attn[2], mask).sum(),
        },
        "layer_norm": {
            "fused": lambda: fused.layer_norm(x_ln, w_ln, b_ln).sum(),
            "reference": lambda: reference.layer_norm(x_ln, w_ln, b_ln).sum(),
        },
        "cross_entropy": {
            "fused": lambda: fused.cross_entropy_logits(logits, targets)[0],
            "reference": lambda: reference.cross_entropy_logits(logits, targets)[0],
        },
        "linear_gelu": {
            "fused": lambda: fused.linear(x_lin, w_lin, b_lin, activation="gelu").sum(),
            "reference": lambda: reference.linear(x_lin, w_lin, b_lin, activation="gelu").sum(),
        },
    }

    results: Dict[str, Dict[str, float]] = {}
    for name, impls in cases.items():
        fused_s = run(impls["fused"])
        reference_s = run(impls["reference"])
        results[name] = {"fused_s": fused_s, "reference_s": reference_s,
                         "speedup": reference_s / fused_s}
    return results


def bench_serve(quick: bool = False) -> Dict:
    """Multi-tenant serving traffic (delegates to bench_serve_traffic.py)."""
    import sys
    from pathlib import Path

    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from bench_serve_traffic import bench_serve_traffic

    if quick:
        return bench_serve_traffic(tenants=4, requests=16, seq_buckets=(16,),
                                   max_resident=2)
    return bench_serve_traffic()


def bench_fault(quick: bool = False, model_name: str = "gpt2-tiny",
                step_timeout_s: float = 300.0) -> Dict:
    """Fault-tolerance cost: recovery wall-time, checkpoint MB/s, CRC tax.

    Three measurements, each against the machinery the ``fault`` test tier
    locks for correctness (this section prices it):

    * ``recovery`` — a 2-worker elastic run with one injected rank crash
      (``worker_crash_before_barrier`` on rank 1's second step).  Records
      the wall-clock of the quiesce -> respawn -> restore -> replay cycle
      and asserts-by-record that exactly one restart happened and the
      final parameter digest still matches an uninterrupted run — bitwise
      recovery, timed.
    * ``checksum`` — the CRC32 tax from the clean run's worker stats.
      Per step the stats give seconds spent checksumming and seconds in
      the comm phase, summed over ranks (summing cancels the rank wait
      asymmetry — one rank's barrier wait is the other's work).  The
      checksum work is deterministic (CRC32 over a fixed number of grad
      bytes), so its *minimum* over steps is the honest steady-state
      cost — any larger sample just caught a preemption inside the
      timed window; comm is wait-dominated and noisy, so its *median*
      over steps is the representative denominator.  Overhead =
      min-checksum / median-comm: integrity verification must stay a
      sliver (<2% on quiet hardware) of the reduction it protects.
    * ``checkpoint`` — :class:`repro.serve.TenantStateStore` save/load
      throughput for one tenant slab (params + m + v), best-of-N over a
      tempdir: the price of the durable tier per MB.
    """
    import tempfile

    from repro.runtime import DataParallelTrainer, FaultInjector, FaultRule
    from repro.runtime.comms import STAT_NAMES
    from repro.serve import TenantStateStore

    # The clean run keeps real (non-quick) shapes even in quick mode: the
    # checksum-overhead ratio needs a comm phase big enough to measure
    # against, and these shapes cost single-digit seconds anyway.
    steps = 6 if quick else 8
    batch, seq = 4, 64
    rng = np.random.default_rng(0)
    data = [rng.integers(0, 64, size=(batch, seq)).astype(np.int64)
            for _ in range(steps)]
    factory = functools.partial(_scaling_tuner, model_name)

    # Clean elastic run: baseline digest/losses + the checksum tax,
    # accumulated across every rank and every step (the per-step stats
    # slots hold that step's values, so the parent can read them after
    # each step() returns).
    chk_idx = STAT_NAMES.index("checksum_s")
    comm_idx = STAT_NAMES.index("comm_s")
    checksum_steps, comm_steps = [], []
    clean_losses = []
    with DataParallelTrainer(factory, workers=2,
                             step_timeout_s=step_timeout_s) as trainer:
        for batch in data:
            loss, _ = trainer.step(batch)
            clean_losses.append(loss)
            stats = trainer._last_stats
            checksum_steps.append(float(stats[:, chk_idx].sum()))
            comm_steps.append(float(stats[:, comm_idx].sum()))
        clean_failures = trainer.profiler.gauges()["comm_checksum_failures"]
        _, clean_digest = trainer.fetch_params()
    checksum_ms = min(checksum_steps) * 1000.0
    comm_ms = float(np.median(comm_steps)) * 1000.0

    # Faulted run: rank 1 dies on its second step; elastic recovery must
    # respawn it and replay to the same digest.  The step timeout is the
    # crash-detection latency (the survivor discovers the death when the
    # grads barrier times out), so it is deliberately short here — it
    # bounds the faulted run's wall clock, and recovery_wall_s measures
    # only the quiesce -> respawn -> restore cycle after detection.
    injector = FaultInjector(
        rules=[FaultRule(site="worker_crash_before_barrier", rank=1,
                         occurrence=2)])
    recovery_start = time.perf_counter()
    with DataParallelTrainer(factory, workers=2, step_timeout_s=15.0,
                             fault_injector=injector) as trainer:
        faulted = trainer.train(data)
    faulted_wall_s = time.perf_counter() - recovery_start
    recovery_wall_s = (faulted.recovery_events[0]["wall_s"]
                       if faulted.recovery_events else 0.0)

    # Durable checkpoint throughput: one tenant slab through the atomic
    # write path (temp + fsync + rename + SHA-256) and back.
    elems = (1 << 17) if quick else (1 << 20)
    slab_rng = np.random.default_rng(7)
    params = slab_rng.standard_normal(elems).astype(np.float32)
    m = slab_rng.standard_normal(elems).astype(np.float32)
    v = np.abs(slab_rng.standard_normal(elems)).astype(np.float32)
    slab_mb = 3 * params.nbytes / 1e6
    ckpt_repeats = 2 if quick else 5
    with tempfile.TemporaryDirectory(prefix="bench-fault-") as tmp:
        store = TenantStateStore(tmp)
        write_s = _best_of(lambda: store.save("bench", 1, params, m, v),
                           ckpt_repeats)
        read_s = _best_of(lambda: store.load("bench"), ckpt_repeats)
        _, r_params, r_m, r_v = store.load("bench")
        roundtrip_ok = (np.array_equal(params, r_params)
                        and np.array_equal(m, r_m) and np.array_equal(v, r_v))

    return {
        "model": model_name,
        "steps": float(steps),
        "recovery": {
            "worker_restarts": float(faulted.worker_restarts),
            "recovery_wall_s": recovery_wall_s,
            "faulted_run_wall_s": faulted_wall_s,
            "digest_match": bool(faulted.param_digest == clean_digest),
            "losses_match": bool(np.array_equal(faulted.losses, clean_losses)),
        },
        "checksum": {
            "checksum_ms_per_step": checksum_ms,
            "comm_ms_per_step": comm_ms,
            "checksum_overhead_pct": (100.0 * checksum_ms / comm_ms
                                      if comm_ms > 0 else 0.0),
            "checksum_failures": clean_failures,
        },
        "checkpoint": {
            "slab_mb": slab_mb,
            "write_s": write_s,
            "read_s": read_s,
            "write_mb_per_s": slab_mb / write_s if write_s > 0 else 0.0,
            "read_mb_per_s": slab_mb / read_s if read_s > 0 else 0.0,
            "roundtrip_bitwise": bool(roundtrip_ok),
        },
    }


def run_benchmark(repeats: int = 5, op_repeats: int = 20,
                  batch: int = BATCH, seq: int = SEQ,
                  predicted_seq: int = PREDICTED_SEQ,
                  predictor_epochs: int = 30,
                  predicted_repeats: int = 3,
                  long_context_max: int = LONG_CONTEXT_LENGTHS[-1],
                  quick: bool = False) -> Dict:
    if quick:
        # Structural smoke: every section runs, at shapes small enough for a
        # CI worker, with single-digit repeats.  The numbers mean nothing;
        # the point is that the harness itself cannot silently rot.
        repeats, op_repeats, predicted_repeats = 1, 2, 1
        batch, seq, predicted_seq, predictor_epochs = 2, 64, 128, 2
    # Calibration grid of the quality section: quarter / half / full of the
    # predicted-step sequence length (128/256/512 at the default config),
    # floored at one block.
    quality_lengths = tuple(sorted({max(BLOCK_SIZE, predicted_seq // 4),
                                    max(BLOCK_SIZE, predicted_seq // 2),
                                    predicted_seq}))
    report = {
        "meta": {
            "dense_model": DENSE_MODEL,
            "sparse_model": SPARSE_MODEL,
            "batch": batch,
            "seq": seq,
            "predicted_seq": predicted_seq,
            "predict_interval": PREDICT_INTERVAL,
            "repeats": repeats,
            "quick": quick,
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "dense_step": bench_dense_step(repeats, batch=batch, seq=seq),
        "sparse_step": bench_sparse_step(repeats, batch=batch, seq=seq),
        "step_capture": bench_step_capture(
            repeats=1 if quick else 4, batch=batch, seq=seq,
            predicted_seq=predicted_seq, predictor_epochs=predictor_epochs,
            dense_model="gpt2-tiny" if quick else DENSE_MODEL,
            sparse_model="opt-tiny" if quick else SPARSE_MODEL),
        "full_step": bench_full_step(
            repeats=1 if quick else 4, batch=batch,
            predicted_seq=predicted_seq, predictor_epochs=predictor_epochs,
            sparse_model="opt-tiny" if quick else SPARSE_MODEL),
        "predicted_step": bench_predicted_step(predicted_repeats, batch=batch,
                                               seq=predicted_seq,
                                               predictor_epochs=predictor_epochs),
        "predicted_quality": bench_predicted_quality(
            batch=batch, seq=predicted_seq, predictor_epochs=predictor_epochs,
            lengths=quality_lengths, eval_batches=1 if quick else 3),
        "prediction_overhead": bench_prediction_overhead(op_repeats,
                                                         batch=batch, seq=seq),
        "geometry": bench_geometry(repeats=5 if quick else 50,
                                   seq=128 if quick else 512),
        "sparse_chain": bench_sparse_chain(op_repeats, batch=batch, seq=seq),
        "crossover": bench_crossover(repeats=2 if quick else 10,
                                     seq=128 if quick else 512),
        "optimizer_step": bench_optimizer_step(op_repeats,
                                               n_params=20 if quick else 200),
        "optimizer_regimes": bench_optimizer_regimes(
            repeats=2 if quick else 10,
            sizes=(256, 4096, 16384) if quick else (256, 1024, 4096, 16384, 65536),
            total_elements=200_000 if quick else 2_000_000),
        "embedding_scatter": bench_embedding_scatter(
            op_repeats, vocab=2048 if quick else 50257,
            n_tokens=512 if quick else 8192),
        "long_context": bench_long_context(
            lengths=(64, 128) if quick else
            (tuple(l for l in LONG_CONTEXT_LENGTHS if l <= long_context_max)
             or (max(BLOCK_SIZE * 2,
                     long_context_max // BLOCK_SIZE * BLOCK_SIZE),)),
            repeats=1 if quick else 2),
        "scaling": bench_scaling(steps=3 if quick else 6,
                                 seq=32 if quick else 128),
        "serve": bench_serve(quick=quick),
        "fault": bench_fault(quick=quick),
        "ops": bench_fused_ops(op_repeats),
    }
    return report


def _print_report(report: Dict) -> None:
    dense = report["dense_step"]
    sparse = report["sparse_step"]
    print(f"dense fine-tune step ({report['meta']['dense_model']}, "
          f"batch {report['meta']['batch']} x seq {report['meta']['seq']}):")
    print(f"  fused     {dense['fused_s'] * 1000:8.1f} ms")
    print(f"  reference {dense['reference_s'] * 1000:8.1f} ms")
    print(f"  speedup   {dense['speedup']:8.2f}x")
    print(f"sparse fine-tune step ({report['meta']['sparse_model']}, oracle):")
    print(f"  cached       {sparse['cached_s'] * 1000:8.1f} ms")
    print(f"  uncached     {sparse['uncached_s'] * 1000:8.1f} ms")
    print(f"  pre-PR full  {sparse['pre_pr_full_s'] * 1000:8.1f} ms")
    print(f"  cache {sparse['speedup']:.2f}x"
          f"   vs PR-1 exposer/scatter {sparse['pre_pr_speedup']:.2f}x   "
          f"(geometry share {sparse['geometry_fraction']:.1%} of step)")
    capture = report["step_capture"]
    print("step capture (buffer arena + planned tape replay):")
    for mode in ("dense", "oracle", "predicted"):
        row = capture[mode]
        print(f"  {mode:<9} {row['uncaptured_s'] * 1000:8.1f} -> "
              f"{row['captured_s'] * 1000:8.1f} ms/step  "
              f"({row['speedup']:.2f}x)   allocs/step "
              f"{row['captured_allocs_per_step']:.0f}   arena "
              f"{row['arena_mb']:.0f} MiB")
    predicted_row = capture["predicted"]
    print(f"  predicted vs PR-4-form path: "
          f"{predicted_row['pre_pr_s'] * 1000:8.1f} -> "
          f"{predicted_row['captured_s'] * 1000:8.1f} ms/step  "
          f"({predicted_row['pre_pr_speedup']:.2f}x)")
    recap = capture["recapture"]
    print(f"  shape change: {recap['recaptures']:.0f} re-capture, "
          f"{recap['post_change_allocs_per_step']:.0f} allocs/step after")
    full = report["full_step"]
    print(f"full-step compiler (predicted regime, fixed batch, "
          f"interval {int(full['interval'])}):")
    print(f"  interpreted  {full['interpreted_s'] * 1000:8.1f} ms/step")
    print(f"  compiled     {full['compiled_s'] * 1000:8.1f} ms/step")
    print(f"  vs interpreted {full['speedup_vs_interpreted']:.2f}x   "
          f"replays {full['full_replays']:.0f}   "
          f"fallbacks {full['full_fallbacks']:.0f}   allocs/step "
          f"{full['captured_allocs_per_step']:.0f}")
    predicted = report["predicted_step"]
    interval = int(predicted["interval"])
    print(f"predicted sparse step ({report['meta']['sparse_model']}, LoRA, "
          f"seq {report['meta']['predicted_seq']}, trained probes):")
    print(f"  oracle             {predicted['oracle_s'] * 1000:8.1f} ms/step")
    print(f"  oracle interval {interval}  "
          f"{predicted['oracle_intervalK_s'] * 1000:8.1f} ms/step")
    print(f"  probes interval 1  {predicted['interval1_s'] * 1000:8.1f} ms/step")
    print(f"  probes interval {interval}  "
          f"{predicted['intervalK_s'] * 1000:8.1f} ms/step")
    print(f"  predicted vs oracle {predicted['speedup_vs_oracle']:.2f}x   "
          f"interval win {predicted['interval_speedup']:.2f}x (probes) / "
          f"{predicted['oracle_interval_speedup']:.2f}x (oracle)")
    print(f"  probe overhead {predicted['interval1_prediction_s'] * 1000:.2f} -> "
          f"{predicted['intervalK_prediction_s'] * 1000:.2f} ms/step "
          f"({predicted['prediction_overhead_reduction']:.2f}x less)   "
          f"mask drift {predicted['attention_mask_drift']:.4f}")
    quality = report["predicted_quality"]
    print(f"predicted quality (calibrated probes, grid "
          f"{[int(l) for l in quality['lengths']]}):")
    for length, row in quality["per_length"].items():
        print(f"  seq {length:>4}: oracle {row['oracle_sparsity']:.3f}  "
              f"calibrated {row['calibrated_sparsity']:.3f} "
              f"(gap {row['calibrated_gap']:.3f}, recall {row['oracle_recall']:.3f})  "
              f"uncalibrated {row['uncalibrated_sparsity']:.3f} "
              f"(gap {row['uncalibrated_gap']:.3f})")
    print(f"  gap at seq {int(max(quality['lengths']))}: "
          f"{quality['gap']:.3f} calibrated vs {quality['uncalibrated_gap']:.3f} "
          f"uncalibrated ({quality['gap_reduction']:.1f}x tighter)")
    overhead = report["prediction_overhead"]
    probe = overhead["probe"]
    print("prediction overhead (mask derivation in isolation):")
    print(f"  probe      {probe['optimised_s'] * 1e3:8.3f} ms vs "
          f"{probe['pre_pr_s'] * 1e3:8.3f} ms  ({probe['speedup']:.2f}x)")
    reduce = overhead["block_reduce"]
    print(f"  block_reduce@seq{int(reduce['seq'])} "
          f"{reduce['two_stage_s'] * 1e3:8.3f} ms vs "
          f"{reduce['reshape_sum_s'] * 1e3:8.3f} ms  ({reduce['speedup']:.2f}x)")
    matcher = overhead["match_many"]
    print(f"  match_many {matcher['vectorised_s'] * 1e3:8.3f} ms vs "
          f"{matcher['loop_s'] * 1e3:8.3f} ms  ({matcher['speedup']:.2f}x)")
    geom = report["geometry"]
    print(f"sparse geometry per call (seq {int(geom['seq'])}, "
          f"block {int(geom['block_size'])}, nnz {int(geom['layout_nnz'])}):")
    print(f"  compute   {geom['compute_s'] * 1e3:8.3f} ms")
    print(f"  lookup    {geom['lookup_s'] * 1e3:8.3f} ms")
    print(f"  speedup   {geom['speedup']:8.1f}x")
    chain = report["sparse_chain"]
    print(f"block-sparse attention (fwd+bwd, nnz {int(chain['layout_nnz'])}):")
    print(f"  fused     {chain['fused_s'] * 1e3:8.2f} ms")
    print(f"  reference {chain['reference_s'] * 1e3:8.2f} ms")
    print(f"  speedup   {chain['speedup']:8.2f}x")
    cross = report["crossover"]
    print(f"crossover at seq {int(cross['seq'])} "
          f"(layout sparsity {cross['layout_sparsity']:.2f}):")
    print(f"  dense     {cross['dense_s'] * 1e3:8.2f} ms")
    print(f"  sparse    {cross['sparse_s'] * 1e3:8.2f} ms")
    print(f"  sparse wins by {cross['sparse_vs_dense']:5.2f}x")
    opt = report["optimizer_step"]
    print(f"optimizer step ({int(opt['n_elements'])} elements):")
    print(f"  flat      {opt['flat_s'] * 1e3:8.2f} ms")
    print(f"  loop      {opt['loop_s'] * 1e3:8.2f} ms")
    print(f"  speedup   {opt['speedup']:8.2f}x")
    regimes = report["optimizer_regimes"]
    print(f"optimizer regimes (threshold {int(regimes['threshold_elements'])} "
          f"elements, validated={regimes['threshold_validated']}):")
    for row in regimes["regimes"]:
        print(f"  size {int(row['param_size']):>7} x {int(row['n_params']):>6}: "
              f"flat {row['flat_s'] * 1e3:8.2f} ms  loop {row['loop_s'] * 1e3:8.2f} ms  "
              f"flat wins {row['flat_speedup']:.2f}x")
    scatter = report["embedding_scatter"]
    print(f"embedding scatter (vocab {int(scatter['vocab'])}, "
          f"{int(scatter['n_tokens'])} tokens):")
    print(f"  add.at    {scatter['add_at_s'] * 1e3:8.2f} ms")
    print(f"  scatter   {scatter['scatter_s'] * 1e3:8.2f} ms")
    print(f"  speedup   {scatter['speedup']:8.2f}x")
    long_ctx = report["long_context"]
    print(f"long-context LoRA step (1-layer nano, tile "
          f"{int(long_ctx['tile'])}; peak = tracemalloc bytes):")
    for seq_key, row in long_ctx["lengths"].items():
        print(f"  seq {seq_key:>5}: "
              f"mat {row['materializing_ms_per_token']:6.3f} ms/tok "
              f"{row['materializing_peak_bytes'] / 1e6:8.1f} MB | "
              f"stream {row['streaming_ms_per_token']:6.3f} ms/tok "
              f"{row['streaming_peak_bytes'] / 1e6:8.1f} MB | "
              f"peak ratio {row['peak_ratio']:5.1f}x | "
              f"bs-stream {row['block_sparse_streaming_peak_bytes'] / 1e6:6.1f} MB")
    scaling = report["scaling"]
    print(f"data-parallel scaling ({scaling['model']}, global batch "
          f"{int(scaling['global_batch'])} x seq {int(scaling['seq'])}, "
          f"{int(scaling['cpu_count'])} CPU"
          f"{' — single core: ranks time-slice, speedup not expected' if scaling['single_core'] else ''}):")
    for world, row in scaling["workers"].items():
        print(f"  workers {world}: {row['steps_per_s']:6.2f} steps/s  "
              f"wall {row['step_wall_ms']:7.1f} ms  "
              f"comm {row['comm_ms_per_step']:6.1f} ms  "
              f"speedup {row['speedup_vs_1']:.2f}x  "
              f"eff {row['efficiency']:.2f}")
    serve = report["serve"]
    print(f"multi-tenant serving ({serve['model']}, "
          f"{int(serve['tenants'])} Zipf tenants, "
          f"{int(serve['requests'])} requests):")
    print(f"  {serve['steps_per_s']:8.2f} steps/s  "
          f"p50 {serve['p50_latency_ms']:6.1f} ms  "
          f"p99 {serve['p99_latency_ms']:6.1f} ms  "
          f"warm hit rate {serve['warm_capture_hit_rate']:.3f}  "
          f"evictions {int(serve['tenant_evictions'])}")
    fault = report["fault"]
    recovery = fault["recovery"]
    checksum = fault["checksum"]
    ckpt = fault["checkpoint"]
    print(f"fault tolerance ({fault['model']}, 2 workers):")
    print(f"  recovery   {recovery['recovery_wall_s'] * 1e3:8.1f} ms for "
          f"{int(recovery['worker_restarts'])} rank restart  "
          f"digest match {recovery['digest_match']}  "
          f"losses match {recovery['losses_match']}")
    print(f"  checksum   {checksum['checksum_ms_per_step']:8.3f} ms/step vs "
          f"comm {checksum['comm_ms_per_step']:8.1f} ms/step  "
          f"({checksum['checksum_overhead_pct']:.2f}% overhead)")
    print(f"  checkpoint {ckpt['slab_mb']:6.1f} MB slab: "
          f"write {ckpt['write_mb_per_s']:7.1f} MB/s  "
          f"read {ckpt['read_mb_per_s']:7.1f} MB/s  "
          f"bitwise {ckpt['roundtrip_bitwise']}")
    print("fused ops (forward + backward, best-of-N):")
    for name, row in report["ops"].items():
        print(f"  {name:<16} {row['fused_s'] * 1e3:7.2f} ms vs "
              f"{row['reference_s'] * 1e3:7.2f} ms  ({row['speedup']:.2f}x)")


def main(argv=None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full report as JSON (e.g. BENCH_perf.json)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N repeats for the step benchmarks")
    parser.add_argument("--op-repeats", type=int, default=20,
                        help="best-of-N repeats for the op micro-benchmarks")
    parser.add_argument("--batch", type=int, default=BATCH)
    parser.add_argument("--seq", type=int, default=SEQ)
    parser.add_argument("--predicted-seq", type=int, default=PREDICTED_SEQ,
                        help="sequence length of the predicted_step section")
    parser.add_argument("--predictor-epochs", type=int, default=30,
                        help="offline probe-training epochs for predicted_step")
    parser.add_argument("--predicted-repeats", type=int, default=3,
                        help="best-of-N repeats for the predicted_step windows")
    parser.add_argument("--long-context-max", type=int,
                        default=LONG_CONTEXT_LENGTHS[-1],
                        help="cap on the long_context sequence-length sweep "
                             "(lengths above this are skipped)")
    parser.add_argument("--quick", action="store_true",
                        help="structural smoke: run every section at tiny "
                             "shapes with single repeats (timings are "
                             "meaningless; CI uses this to catch harness "
                             "breakage without flaky timing asserts)")
    args = parser.parse_args(argv)

    if args.json:
        # Fail on an unwritable path *before* spending minutes benchmarking.
        with open(args.json, "a"):
            pass

    report = run_benchmark(repeats=args.repeats, op_repeats=args.op_repeats,
                           batch=args.batch, seq=args.seq,
                           predicted_seq=args.predicted_seq,
                           predictor_epochs=args.predictor_epochs,
                           predicted_repeats=args.predicted_repeats,
                           long_context_max=args.long_context_max,
                           quick=args.quick)
    _print_report(report)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return report


if __name__ == "__main__":
    main()
