"""Kernel probes: layer-level timings on the workload's own shapes.

A probe times >= ``CALLS`` forward+backward calls of one layer's public
function and reports the median.  Targets are resolved lazily, by dotted
name, inside each probe: a symbol a later refactor removes (or whose
signature it changes) makes that probe's metrics ``None`` and lists them
under ``probes_missing`` instead of crashing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import stats

CALLS = 20


def resolve(dotted: str):
    """``"pkg.module:attr"`` -> the object (ImportError / AttributeError if gone)."""
    module_name, _, attr = dotted.partition(":")
    target = importlib.import_module(module_name)
    for part in filter(None, attr.split(".")):
        target = getattr(target, part)
    return target


def host_rates() -> Dict[str, float]:
    """Single-thread sgemm GFLOP/s and memcpy GB/s, best of 5: the roofline."""
    n = 768
    a = np.ones((n, n), dtype=np.float32)
    b = np.ones((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    src = np.ones(16 << 20, dtype=np.float32)   # 64 MiB, well past any cache
    dst = np.empty_like(src)
    gemm, copy = [], []
    for _ in range(5):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        gemm.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.copyto(dst, src)
        copy.append(time.perf_counter() - start)
    return {"sgemm_gflops": 2.0 * n ** 3 / min(gemm) / 1e9,
            # A copy reads and writes every byte once.
            "memcpy_gbs": 2.0 * src.nbytes / min(copy) / 1e9}


def host_facts() -> dict:
    """What the numbers were measured on (the summary's ``meta``)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # NumPy < 1.25 has no dict mode
        vendor = "unknown"
    return dict(host_rates(), cpu_count=os.cpu_count(), numpy=np.__version__,
                blas=vendor,
                blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "unset"))


@dataclasses.dataclass
class Context:
    """What the probes need to know about the workload that just ran."""

    batch: int
    seq: int
    dim: int
    heads: int
    hidden: int
    vocab: int
    layers: int
    activation: str
    seed: int
    step_ms: Optional[float]
    attention: str               # which attention probe the workload's steps use
    host: Dict[str, float]
    model: object = None
    engine: object = None
    tuner: object = None
    service: object = None
    workdir: str = ""
    calls: int = CALLS

    def median_ms(self, call: Callable[[], None]) -> float:
        call()   # the first call pays one-off allocation and cache fills
        seconds = []
        for _ in range(self.calls):
            start = time.perf_counter()
            call()
            seconds.append(time.perf_counter() - start)
        return stats.median(seconds) * 1000.0

    @classmethod
    def _shapes(cls, model_name: str) -> dict:
        config = resolve("repro:get_config")(model_name)
        return dict(dim=config.dim, heads=config.num_heads,
                    hidden=config.hidden_dim, vocab=config.vocab_size,
                    layers=config.num_layers, activation=config.activation)

    @classmethod
    def for_training(cls, spec, model, engine, tuner, seed, step_ms):
        attention = ("ops.block_sparse_attention_ms" if spec.sparse
                     else "tensor.streaming_attention_ms" if spec.streaming
                     else "tensor.sdpa_ms")
        return cls(batch=spec.batch, seq=spec.seq, seed=seed, step_ms=step_ms,
                   attention=attention, host=host_rates(), model=model,
                   engine=engine, tuner=tuner, calls=spec.probe_calls,
                   **cls._shapes(spec.model))

    @classmethod
    def for_serve(cls, spec, service, seed, step_ms, workdir):
        # Probed at the largest bucket: an upper bound on a served step's kernels.
        return cls(batch=spec.batch, seq=max(spec.seq_buckets), seed=seed,
                   step_ms=step_ms, attention="tensor.sdpa_ms",
                   host=host_rates(), service=service, workdir=workdir,
                   calls=spec.probe_calls, **cls._shapes(spec.model))

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def randn(self, *shape) -> np.ndarray:
        return self.rng().standard_normal(shape).astype(np.float32)

    def qkv(self):
        tensor = resolve("repro.tensor:Tensor")
        shape = (self.batch, self.heads, self.seq, self.head_dim)
        rng = self.rng()
        return [tensor(rng.standard_normal(shape).astype(np.float32),
                       requires_grad=True) for _ in range(3)]

    def attention_flops(self) -> float:
        # QK^T and PV forward, dV / dP / dQ / dK backward: 6 matmuls of
        # 2 * B * H * S^2 * d each (causality not exploited).
        return 12.0 * self.batch * self.heads * self.seq ** 2 * self.head_dim


def _forward_backward(forward: Callable, leaves: list, grad: np.ndarray) -> Callable:
    def call():
        for leaf in leaves:
            leaf.grad = None
        forward().backward(grad)
    return call


# -- tensor ------------------------------------------------------------------

def probe_linear(ctx: Context) -> dict:
    linear = resolve("repro.tensor.functional:linear")
    tensor = resolve("repro.tensor:Tensor")
    x = tensor(ctx.randn(ctx.batch, ctx.seq, ctx.dim), requires_grad=True)
    weight = tensor(ctx.randn(ctx.hidden, ctx.dim) * 0.05)   # frozen, as under LoRA
    bias = tensor(np.zeros(ctx.hidden, dtype=np.float32))
    grad = np.ones((ctx.batch, ctx.seq, ctx.hidden), dtype=np.float32)
    ms = ctx.median_ms(_forward_backward(
        lambda: linear(x, weight, bias, activation=ctx.activation), [x], grad))
    flops = 4.0 * ctx.batch * ctx.seq * ctx.dim * ctx.hidden   # forward + dX
    return {"tensor.linear_ms": ms,
            "tensor.linear_roofline_frac":
                flops / (ms * 1e-3) / (ctx.host["sgemm_gflops"] * 1e9)}


def probe_layer_norm(ctx: Context) -> dict:
    layer_norm = resolve("repro.tensor.functional:layer_norm")
    tensor = resolve("repro.tensor:Tensor")
    x = tensor(ctx.randn(ctx.batch, ctx.seq, ctx.dim), requires_grad=True)
    weight = tensor(np.ones(ctx.dim, dtype=np.float32))
    bias = tensor(np.zeros(ctx.dim, dtype=np.float32))
    grad = np.ones(x.shape, dtype=np.float32)
    return {"tensor.layer_norm_ms": ctx.median_ms(_forward_backward(
        lambda: layer_norm(x, weight, bias), [x], grad))}


def probe_cross_entropy(ctx: Context) -> dict:
    cross_entropy = resolve("repro.tensor.functional:cross_entropy")
    tensor = resolve("repro.tensor:Tensor")
    logits = tensor(ctx.randn(ctx.batch, ctx.seq, ctx.vocab), requires_grad=True)
    targets = ctx.rng().integers(0, ctx.vocab, size=(ctx.batch, ctx.seq))
    return {"tensor.cross_entropy_ms": ctx.median_ms(_forward_backward(
        lambda: cross_entropy(logits, targets, shift=True)[0], [logits],
        np.float32(1.0)))}


def _attention_probe(ctx: Context, name: str, forward: Callable) -> dict:
    q, k, v = ctx.qkv()
    grad = np.ones(q.shape, dtype=np.float32)
    ms = ctx.median_ms(_forward_backward(lambda: forward(q, k, v), [q, k, v], grad))
    return {f"tensor.{name}_ms": ms,
            f"tensor.{name}_roofline_frac":
                ctx.attention_flops() / (ms * 1e-3) / (ctx.host["sgemm_gflops"] * 1e9)}


def probe_sdpa(ctx: Context) -> dict:
    sdpa = resolve("repro.tensor.functional:scaled_dot_product_attention")
    mask = resolve("repro.nn.attention:causal_mask")(ctx.seq)
    scale = 1.0 / np.sqrt(ctx.head_dim)
    return _attention_probe(ctx, "sdpa", lambda q, k, v: sdpa(
        q, k, v, attn_mask=mask, scale=scale))


def probe_streaming_attention(ctx: Context) -> dict:
    streaming = resolve("repro.tensor.functional:streaming_attention")
    mask = resolve("repro.nn.attention:causal_mask")(ctx.seq)
    scale = 1.0 / np.sqrt(ctx.head_dim)
    return _attention_probe(ctx, "streaming_attention", lambda q, k, v: streaming(
        q, k, v, attn_mask=mask, scale=scale, tile=128))


# -- optim -------------------------------------------------------------------

def probe_adam(ctx: Context) -> dict:
    adam = resolve("repro.optim:Adam")
    parameter = resolve("repro.nn.module:Parameter")
    if ctx.tuner is not None:
        shapes = [p.data.shape for p in ctx.tuner.optimizer.params]
    else:   # serve: one lane's adapter, rebuilt through the facade
        model = resolve("repro:create_model")(ctx.service.config.model, seed=0)
        resolve("repro:apply_lora")(model)
        shapes = [p.data.shape for p in model.trainable_parameters()]
    rng = ctx.rng()
    params = [parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]
    grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    optimizer = adam(params, lr=1e-3)

    def call():
        for param, grad in zip(params, grads):
            param.grad = grad
        optimizer.step()
    return {"optim.adam_step_ms": ctx.median_ms(call),
            "optim.trainable_elements": float(sum(p.data.size for p in params))}


# -- sparsity ----------------------------------------------------------------

def _live_layouts(ctx: Context):
    exported = ctx.engine.export_layouts()
    layout = next(e[1] for e in exported if e[0] == "attn" and e[1] is not None)
    blocks = next(e[1] for e in exported if e[0] == "mlp" and e[1] is not None)
    return layout, blocks


def probe_geometry(ctx: Context) -> dict:
    compute = resolve("repro.sparsity.ops:compute_block_geometry")
    cache = ctx.engine.geometry_cache
    # Read the live hit rate before the probes below add their own lookups.
    lookups = cache.hits + cache.misses
    hit_rate = cache.hits / lookups if lookups else None
    layout, _ = _live_layouts(ctx)
    return {"ops.geometry_hit_rate": hit_rate,
            "ops.geometry_lookup_us":
                ctx.median_ms(lambda: cache.lookup(layout, ctx.seq)) * 1000.0,
            "ops.geometry_compute_ms": ctx.median_ms(lambda: compute(layout, ctx.seq))}


def probe_block_sparse(ctx: Context) -> dict:
    block_sparse = resolve("repro.sparsity.ops:block_sparse_attention")
    layout, _ = _live_layouts(ctx)
    q, k, v = ctx.qkv()
    grad = np.ones(q.shape, dtype=np.float32)
    out = {}
    for name, streaming in (("ops.block_sparse_attention_ms", False),
                            ("ops.streaming_block_sparse_ms", True)):
        out[name] = ctx.median_ms(_forward_backward(
            lambda: block_sparse(q, k, v, layout, cache=ctx.engine.geometry_cache,
                                 streaming=streaming), [q, k, v], grad))
    return out


def probe_neuron_sparse(ctx: Context) -> dict:
    pair = resolve("repro.sparsity.ops:neuron_sparse_linear_pair")
    weights = resolve("repro.sparsity.ops:NeuronSparseWeights")
    expand = resolve("repro.sparsity.ops.neuron_sparse:expand_block_indices")
    linear = resolve("repro.tensor.functional:linear")
    tensor = resolve("repro.tensor:Tensor")
    _, blocks = _live_layouts(ctx)
    active = expand(blocks, ctx.engine.config.block_size, ctx.hidden)
    x = tensor(ctx.randn(ctx.batch, ctx.seq, ctx.dim), requires_grad=True)
    fc1 = tensor(ctx.randn(ctx.hidden, ctx.dim) * 0.05)
    fc1_bias = tensor(np.zeros(ctx.hidden, dtype=np.float32))
    fc2 = tensor(ctx.randn(ctx.dim, ctx.hidden) * 0.05)
    fc2_bias = tensor(np.zeros(ctx.dim, dtype=np.float32))
    cache = weights(fc1.data, fc2.data, coalesced=True)
    grad = np.ones(x.shape, dtype=np.float32)
    sparse = ctx.median_ms(_forward_backward(
        lambda: pair(x, fc1, fc1_bias, fc2, fc2_bias, active,
                     activation="relu", cache=cache), [x], grad))
    dense = ctx.median_ms(_forward_backward(
        lambda: linear(linear(x, fc1, fc1_bias, activation="relu"), fc2, fc2_bias),
        [x], grad))
    return {"ops.neuron_sparse_mlp_ms": sparse,
            "ops.mlp_sparse_over_dense": sparse / dense}


def probe_predictors(ctx: Context) -> dict:
    x = ctx.randn(ctx.batch, ctx.seq, ctx.dim)
    attention = ctx.engine.attention_predictors[0]
    mlp = ctx.engine.mlp_predictors[0]
    recall = ctx.engine.mean_predictor_recall()
    gaps = list(ctx.engine.calibration_gap().values())
    return {
        "predictor.attention_predict_ms":
            ctx.median_ms(lambda: attention.predict_patterns(x)),
        "predictor.mlp_predict_ms":
            ctx.median_ms(lambda: mlp.predict_active_blocks(x)),
        # Useful / attempted: the share of truly active blocks the trained
        # predictors recovered on their calibration data.
        "predictor.attention_recall": recall.get("attention"),
        "predictor.mlp_recall": recall.get("mlp"),
        "predictor.density_gap": float(np.mean(gaps)) if gaps else None,
    }


def probe_exposer(ctx: Context) -> dict:
    tensor = resolve("repro.tensor:Tensor")
    block = ctx.model.blocks[0]
    q, k, _ = ctx.qkv()
    x = tensor(ctx.randn(ctx.batch, ctx.seq, ctx.dim))
    return {
        "exposer.attention_oracle_ms": ctx.median_ms(
            lambda: ctx.engine.oracle_attention_layout(block.attention, q, k, ctx.seq)),
        "exposer.mlp_oracle_ms": ctx.median_ms(
            lambda: ctx.engine.oracle_mlp_blocks(block.mlp, x)),
    }


# -- serve -------------------------------------------------------------------

def probe_queue(ctx: Context) -> dict:
    service = ctx.service
    ids = np.zeros((ctx.batch, min(service.config.seq_buckets)), dtype=np.int64)
    for index in range(8):   # the closed loop's depth, spread over both lanes
        adapter = service.config.adapters[index % len(service.config.adapters)]
        service.submit(f"probe-{index}", ids, adapter=adapter)
    try:
        return {"queue.select_us": ctx.median_ms(
            lambda: service.queue.select(None, service.steps)) * 1000.0}
    finally:
        service.flush()


def probe_registry_and_store(ctx: Context) -> dict:
    """A registry and store of the live lane's slab size, driven standalone:
    the service keeps its own behind private attributes."""
    registry_cls = resolve("repro:AdapterRegistry")
    store_cls = resolve("repro:TenantStateStore")
    adam = resolve("repro.optim:Adam")
    model = resolve("repro:create_model")(ctx.service.config.model, seed=0)
    resolve("repro:apply_lora")(model)
    named = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    directory = os.path.join(ctx.workdir, f"probe-store-{os.getpid()}")
    try:
        store = store_cls(directory)
        registry = registry_cls(adam([p for _, p in named], lr=1e-3), named,
                                max_resident=2, store=store)
        for tenant in ("a", "b", "c"):
            registry.attach(tenant)          # "a" is demoted to the store

        def swap_resident():
            registry.attach("b")
            registry.attach("c")

        def page_in():
            registry.attach("a")             # cold: verified load, demotes "b"
            registry.attach("b")             # cold again: demotes "c"
            registry.attach("c")             # cold again: demotes "a"

        attach_us = ctx.median_ms(swap_resident) * 1000.0 / 2
        pagein_us = ctx.median_ms(page_in) * 1000.0 / 3
        slab = np.zeros(registry.total, dtype=registry.dtype)
        save_ms = ctx.median_ms(lambda: store.save("probe", 1, slab, slab, slab))
        load_ms = ctx.median_ms(lambda: store.load("probe"))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"registry.attach_us": attach_us,
            # Includes the checkpoint-on-evict write of the tenant displaced.
            "registry.pagein_us": pagein_us,
            "store.save_ms": save_ms, "store.load_ms": load_ms}


def probe_checkpoint_all(ctx: Context) -> dict:
    return {"store.checkpoint_all_ms": ctx.median_ms(ctx.service.checkpoint)}


def derived(ctx: Context, measured: dict) -> dict:
    """Ratios between probes.  ``tensor.attention_step_share`` is layers x the
    workload's own attention probe / its step time: the ceiling on what a
    change to attention alone can save."""
    attention_ms = measured.get(ctx.attention)
    sparse_ms = measured.get("ops.block_sparse_attention_ms")
    dense_ms = measured.get("tensor.sdpa_ms")
    out = {"tensor.attention_step_share":
           ctx.layers * attention_ms / ctx.step_ms
           if attention_ms and ctx.step_ms else None}
    if ctx.engine is not None:
        out["ops.attention_sparse_over_dense"] = (
            sparse_ms / dense_ms if sparse_ms and dense_ms else None)
    return out


Probe = Tuple[Tuple[str, ...], Callable[[Context], dict]]

COMMON_PROBES: List[Probe] = [
    (("tensor.linear_ms", "tensor.linear_roofline_frac"), probe_linear),
    (("tensor.layer_norm_ms",), probe_layer_norm),
    (("tensor.cross_entropy_ms",), probe_cross_entropy),
    (("tensor.sdpa_ms", "tensor.sdpa_roofline_frac"), probe_sdpa),
    (("tensor.streaming_attention_ms", "tensor.streaming_attention_roofline_frac"),
     probe_streaming_attention),
    (("optim.adam_step_ms", "optim.trainable_elements"), probe_adam),
]

# Need an installed engine: sparse_s1024 only.
ENGINE_PROBES: List[Probe] = [
    (("ops.geometry_hit_rate", "ops.geometry_lookup_us", "ops.geometry_compute_ms"),
     probe_geometry),
    (("ops.block_sparse_attention_ms", "ops.streaming_block_sparse_ms"),
     probe_block_sparse),
    (("ops.neuron_sparse_mlp_ms", "ops.mlp_sparse_over_dense"), probe_neuron_sparse),
    (("predictor.attention_predict_ms", "predictor.mlp_predict_ms",
      "predictor.attention_recall", "predictor.mlp_recall",
      "predictor.density_gap"), probe_predictors),
    (("exposer.attention_oracle_ms", "exposer.mlp_oracle_ms"), probe_exposer),
]

SERVE_PROBES: List[Probe] = COMMON_PROBES + [
    (("queue.select_us",), probe_queue),
    (("registry.attach_us", "registry.pagein_us", "store.save_ms", "store.load_ms"),
     probe_registry_and_store),
    (("store.checkpoint_all_ms",), probe_checkpoint_all),
]


def run(probe_list: List[Probe], ctx: Context, tracer) -> Tuple[dict, List[str]]:
    """Run ``probe_list``; returns (metrics, names of the metrics gone missing)."""
    measured: Dict[str, Optional[float]] = {}
    missing: List[str] = []
    for names, probe in probe_list:
        start = time.perf_counter()
        try:
            measured.update(probe(ctx))
        except (ImportError, AttributeError, TypeError) as error:
            print(f"probe {probe.__name__} unavailable: {error!r}", flush=True)
            measured.update(dict.fromkeys(names))
            missing.extend(names)
        tracer.add(f"probe.{probe.__name__}", start, time.perf_counter())
    measured.update(derived(ctx, measured))
    return measured, missing
