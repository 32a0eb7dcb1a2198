"""Workload specs, seeded input generators and the child-process runners.

Everything here runs inside one workload's child process (``run.py --child``)
and drives the system only through the ``repro`` facade.  Layers are measured
from outside: by timing the calls made here and reading the public return
values and gauges those calls hand back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import resource
import shutil
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

import repro
from repro.data import E2EDatasetGenerator

from . import probes, stats
from .tracing import Tracer

# Steps are run in blocks of this many; it equals the sparse workload's
# predict_interval so every block holds exactly one mask-refresh step, and the
# traced run alternates untraced / traced blocks of identical composition.
BLOCK = 4


@dataclasses.dataclass(frozen=True)
class TrainSpec:
    """One fine-tuning workload: ``opt-small`` + default LoRA at 1 x 1024."""

    name: str
    why: str
    sparse: bool = False
    streaming: bool = False
    model: str = "opt-small"
    batch: int = 1
    seq: int = 1024
    pool: int = 24            # training batches, cycled in order
    calibration: int = 2      # held-out batches for engine.prepare (sparse only)
    warmup: int = BLOCK       # interpreted step, capture step, first replays
    min_steps: int = 2 * BLOCK
    predictor_epochs: int = 30
    probe_calls: int = probes.CALLS

    def smoke(self) -> "TrainSpec":
        return dataclasses.replace(self, model="opt-tiny", seq=128, pool=4,
                                   calibration=1, min_steps=BLOCK,
                                   predictor_epochs=2, probe_calls=3)


@dataclasses.dataclass(frozen=True)
class ServeSpec:
    """The multi-tenant service under Zipf-popular tenants on two lanes."""

    name: str
    why: str
    model: str = "opt-tiny"
    adapters: tuple = ("lora", "bitfit")
    seq_buckets: tuple = (32, 64, 128)
    max_resident_tenants: int = 8
    max_plan_cache: int = 4
    tenants: int = 32
    zipf_a: float = 1.2
    batch: int = 2
    min_len: int = 8
    max_len: int = 128
    pending: int = 8              # closed loop: requests kept in flight
    warmup_requests: int = 48     # captures every (lane, bucket) plan
    block: int = 100              # closed-loop requests per untraced / traced block
    min_requests: int = 200
    probe_calls: int = probes.CALLS
    # Open loop (traced run only).  Rates are ~0.3 / 0.5 / 0.75 of the
    # closed-loop capacity measured on the defining host (~185 req/s); the
    # latency limit is ~10x the closed-loop step_ms_p50 (~5.5 ms).  Frozen as
    # absolute values so later runs compare against the same load.
    rates: tuple = (60, 100, 140)
    main_rate: int = 100          # runs the full window, so its p99 is valid
    latency_limit_ms: float = 50.0
    limit_percentile: float = 95.0

    def smoke(self) -> "ServeSpec":
        return dataclasses.replace(self, warmup_requests=24, block=20,
                                   min_requests=40, probe_calls=3)


WORKLOADS = {spec.name: spec for spec in (
    TrainSpec("dense_s1024",
              "PEFT baseline: no engine, materialising attention; bypasses every "
              "sparsity and streaming mechanism, so their optimisations must show no change"),
    TrainSpec("sparse_s1024",
              "The paper's system: predictor, exposer, block-sparse attention, "
              "neuron-sparse MLP, layout refresh every 4th step and plan re-capture",
              sparse=True),
    TrainSpec("stream_dense_s1024",
              "Same as dense_s1024 except streaming attention (tile 128): isolates "
              "the streaming kernel and its memory/time trade against materialising",
              streaming=True),
    ServeSpec("serve_zipf",
              "32 Zipf(1.2) tenants on lora+bitfit lanes of opt-tiny: ~5 ms steps, so "
              "queueing, tenant swap, checkpoint-on-evict and dispatch dominate, not attention"),
)}


# -- seeded inputs -----------------------------------------------------------

def training_inputs(spec: TrainSpec, seed: int) -> Dict[str, List[np.ndarray]]:
    """The training pool and held-out calibration batches for ``seed``."""
    vocab = repro.get_config(spec.model).vocab_size
    calibration = spec.calibration if spec.sparse else 0
    batches = E2EDatasetGenerator(seed=seed).token_batches(
        spec.pool + calibration, spec.batch, spec.seq, vocab_size=vocab)
    return {"batches": batches[:spec.pool], "calibration": batches[spec.pool:]}


class ServeTraffic:
    """Seeded request stream: Zipf tenants, uniform lengths, E2E-like tokens."""

    _CYCLE = 1 << 14

    def __init__(self, spec: ServeSpec, seed: int):
        self.spec = spec
        self.seed = seed
        rng = np.random.default_rng(seed)
        vocab = repro.get_config(spec.model).vocab_size
        self.rows = E2EDatasetGenerator(seed=seed).token_batches(
            16, spec.batch, spec.max_len, vocab_size=vocab)
        weights = 1.0 / np.arange(1, spec.tenants + 1, dtype=np.float64) ** spec.zipf_a
        self.tenant = rng.choice(spec.tenants, size=self._CYCLE,
                                 p=weights / weights.sum())
        self.length = rng.integers(spec.min_len, spec.max_len + 1, size=self._CYCLE)
        self.row = rng.integers(0, len(self.rows), size=self._CYCLE)

    def request(self, index: int):
        """``(tenant, input_ids, adapter)`` of the ``index``-th request."""
        index %= self._CYCLE
        tenant = int(self.tenant[index])
        ids = self.rows[int(self.row[index])][:, :int(self.length[index])]
        adapter = self.spec.adapters[tenant % len(self.spec.adapters)]
        return f"tenant-{tenant:02d}", ids, adapter

    def arrivals(self, rate: float, duration: float) -> np.ndarray:
        """Poisson arrival offsets (seconds) of one open-loop phase."""
        rng = np.random.default_rng([self.seed, int(rate)])
        count = max(1, int(rate * duration))
        return np.cumsum(rng.exponential(1.0 / rate, size=count))


# -- helpers -----------------------------------------------------------------

def build_config(cls, **wanted):
    """``cls(**wanted)`` keeping only the kwargs that are fields of ``cls``
    today, so a field a later refactor deletes is dropped, not a crash."""
    names = {field.name for field in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in wanted.items() if key in names})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: List[float]) -> Optional[float]:
    return stats.median(seconds) * 1000.0 if seconds else None


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- training workloads ------------------------------------------------------

def run_training(spec: TrainSpec, args) -> dict:
    tracer = Tracer(f"{spec.name}-seed{args.seed}") if args.trace else None
    layer: Dict[str, Optional[float]] = {}
    begin = time.perf_counter()

    inputs = training_inputs(spec, args.seed)
    batches = inputs["batches"]
    model = repro.create_model(spec.model, seed=0)
    engine = None
    engine_config = None
    if spec.sparse:
        engine_config = build_config(
            repro.LongExposureConfig, block_size=16, predict_interval=BLOCK,
            predictor_epochs=spec.predictor_epochs, seed=args.seed)
        engine = repro.LongExposure(engine_config)
        start = time.perf_counter()
        engine.prepare(model, inputs["calibration"])
        layer["engine.prepare_s"] = time.perf_counter() - start
        layer["engine.prepare_peak_rss_mb"] = peak_rss_mb()
    repro.apply_lora(model)
    if engine is not None:
        start = time.perf_counter()
        engine.install(model)
        layer["engine.install_ms"] = (time.perf_counter() - start) * 1000.0
    attention = ({"streaming": True, "streaming_tile": 128} if spec.streaming else {})
    config = build_config(
        repro.TrainingConfig,
        capture=build_config(repro.CaptureConfig, enabled=True,
                             compile_full_step=True, executor_threads=1),
        attention=build_config(repro.AttentionConfig, **attention))
    tuner = repro.FineTuner(model, config, engine=engine)

    losses: List[float] = []
    walls: List[float] = []            # seconds per timed step, tracing included
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    traced_steps: List[dict] = []      # the tuner.step call alone, with its timings
    block_rates: List[float] = []      # tokens/s of each untraced block
    failed = 0

    def step(parent: Optional[int]) -> bool:
        """One fine-tuning step; ``parent`` is the enclosing span when traced."""
        nonlocal failed
        batch = batches[len(losses) % len(batches)]
        due = (engine.refresh_due_next(spec.seq)
               if parent is not None and engine is not None else False)
        start = time.perf_counter()
        try:
            loss, timing = tuner.step(batch)
        except Exception:
            traceback.print_exc()
            failed += 1
            return False
        end = time.perf_counter()
        losses.append(float(loss))
        if parent is None:
            return True
        span = tracer.add("trainer.step", start, end, parent,
                          step=len(losses), refresh_due=bool(due))
        cursor = start
        for phase in ("forward", "backward", "optimizer"):
            seconds = getattr(timing, phase)
            child = tracer.add(f"trainer.{phase}", cursor, cursor + seconds,
                               span, derived_from="PhaseTimings")
            if phase == "forward" and timing.prediction > 0.0:
                tracer.add("engine.prediction", cursor,
                           cursor + timing.prediction, child,
                           derived_from="PhaseTimings")
            cursor += seconds
        traced_steps.append({"wall": end - start, "due": bool(due),
                             "timing": timing})
        return True

    ok = all(step(None) for _ in range(spec.warmup))
    setup_s = time.monotonic() - args.spawned_at
    if tracer is not None:
        tracer.add("setup", begin, time.perf_counter())

    window_start = time.perf_counter()
    blocks = 0
    while ok:
        traced = tracer is not None and blocks % 2 == 1
        block_start = time.perf_counter()
        parent = tracer.begin("block", block_start) if traced else None
        for _ in range(BLOCK):
            start = time.perf_counter()
            ok = step(parent)
            if not ok:
                break
            walls.append(time.perf_counter() - start)
            (traced_walls if traced else untraced_walls).append(walls[-1])
        if traced:
            tracer.end(parent, time.perf_counter())
        elif ok:
            block_rates.append(BLOCK * spec.batch * spec.seq
                               / (time.perf_counter() - block_start))
        blocks += 1
        paired = tracer is None or blocks % 2 == 0
        if (paired and len(walls) >= spec.min_steps
                and time.perf_counter() - window_start >= args.seconds):
            break

    gauges = tuner.profiler.summary_dict().get("gauges", {})
    head = min(8, len(losses) // 2)
    digest_steps = spec.warmup + spec.min_steps
    result = {
        "setup_s": setup_s,
        "block_tokens_per_s": block_rates,
        "step_walls_ms": [wall * 1000.0 for wall in untraced_walls],
        "samples": {"timed_steps": len(walls)},
        "ops_attempted": len(losses) + failed,
        "ops_failed": failed,
        "checks": {
            "no_step_raised": failed == 0,
            "losses_finite": _finite(losses),
            "loss_not_rising": bool(
                head and np.mean(losses[-head:]) <= np.mean(losses[:head])),
        },
        # Over a fixed prefix of the loss trace, so runs whose timed windows
        # held different step counts still compare bit for bit.
        "loss_digest": hashlib.sha256(np.asarray(
            losses[:digest_steps], dtype=np.float32).tobytes()).hexdigest(),
        "loss_digest_steps": min(digest_steps, len(losses)),
        "effective_config": {
            "training": dataclasses.asdict(config),
            "engine": (dataclasses.asdict(engine_config)
                       if engine_config is not None else None),
            "model": spec.model, "peft": "lora (apply_lora defaults)",
            "batch": spec.batch, "seq": spec.seq, "pool": spec.pool,
            "warmup_steps": spec.warmup,
        },
    }

    if tracer is not None and ok:
        layer.update(_trainer_layer_metrics(tracer, traced_steps, traced_walls,
                                            untraced_walls, gauges, len(losses),
                                            engine))
        context = probes.Context.for_training(spec, model, engine, tuner,
                                              args.seed, _ms(untraced_walls))
        probed, missing = probes.run(
            probes.COMMON_PROBES + (probes.ENGINE_PROBES if engine else []),
            context, tracer)
        layer.update(probed)
        result["probes_missing"] = missing
        result["host"] = context.host
        layer["trace.spans"] = float(len(tracer))
        result["per_layer"] = layer
        result["samples"]["traced_steps"] = len(traced_steps)

    # Teardown: release the capture's arena and restore the dense backends.
    if getattr(tuner, "capture", None) is not None:
        tuner.capture.retire()
    if engine is not None:
        engine.uninstall(model)
    if tracer is not None:
        result["trace_file"] = _write_trace(tracer, spec.name, args)
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def _trainer_layer_metrics(tracer, traced_steps, traced_walls, untraced_walls,
                           gauges, steps_run, engine) -> dict:
    """runtime.trainer / runtime.arena / sparsity.engine numbers read from the
    values ``FineTuner.step`` and its profiler hand back."""
    timings = [s["timing"] for s in traced_steps]
    predicted = [t.prediction for t in timings if t.prediction > 0.0]
    traced_ms = _ms(traced_walls)
    untraced_ms = _ms(untraced_walls)
    layer = {
        "trainer.forward_ms": _ms([t.forward for t in timings]),
        "trainer.backward_ms": _ms([t.backward for t in timings]),
        "trainer.optimizer_ms": _ms([t.optimizer for t in timings]),
        # Median over the steps on which a prediction ran (refresh steps).
        "trainer.prediction_ms": _ms(predicted),
        # Self time of the step span: its wall minus the three phases.
        "trainer.overhead_ms": _ms(tracer.self_seconds("trainer.step")),
        "trainer.refresh_step_ms": _ms([s["wall"] for s in traced_steps if s["due"]]),
        "trainer.replay_step_ms": _ms([s["wall"] for s in traced_steps if not s["due"]]),
        "trace.overhead_frac": (traced_ms / untraced_ms - 1.0
                                if traced_ms and untraced_ms else None),
        "arena.full_replay_share":
            gauges.get("capture_full_replays", 0.0) / max(1, steps_run),
        "arena.full_captures": gauges.get("capture_full_captures"),
        "arena.full_fallbacks": gauges.get("capture_full_fallbacks"),
        "arena.recaptures": gauges.get("capture_recaptures"),
        "arena.allocations_per_step": gauges.get("arena_allocations_step"),
        "arena.bytes_mb": (gauges["arena_bytes"] / 2 ** 20
                           if "arena_bytes" in gauges else None),
    }
    if engine is not None:
        layers = max(1, len(engine.stats.attention_layers))
        layer.update({
            "engine.attention_sparsity": gauges.get("attention_sparsity"),
            "engine.mlp_sparsity": gauges.get("mlp_sparsity"),
            "engine.attention_reuse_rate": gauges.get("attention_reuse_rate"),
            "engine.mask_drift": gauges.get("attention_mask_drift"),
            "engine.prediction_fraction": gauges.get("prediction_fraction"),
            "engine.refreshes":
                engine.stats.layout_reuse_counts()["attention_refreshes"] / layers,
        })
    return layer


# -- serve workload ----------------------------------------------------------

class _ServeDriver:
    """Submits and steps requests, keeping the books the checks need."""

    def __init__(self, service, traffic: ServeTraffic, tracer: Optional[Tracer],
                 part: int = 0):
        self.service = service
        self.traffic = traffic
        self.tracer = tracer
        # Each process of a run serves its own stretch of the request stream.
        self.cursor = part * (ServeTraffic._CYCLE // 4)
        self.inflight: Dict[int, tuple] = {}   # request id -> (due clock, token ids)
        self.submitted = 0
        self.refused = 0
        self.step_errors = 0
        self.depth_max = 0
        self.results: List[dict] = []
        self.block_rates: List[float] = []   # tokens/s of each untraced closed block

    def submit(self, due_clock: float) -> None:
        tenant, ids, adapter = self.traffic.request(self.cursor)
        self.cursor += 1
        self.submitted += 1
        try:
            request_id = self.service.submit(tenant, ids, adapter=adapter)
        except Exception:
            traceback.print_exc()
            self.refused += 1
            return
        self.inflight[request_id] = (due_clock, ids)
        self.depth_max = max(self.depth_max, len(self.inflight))

    def step(self, phase: str, parent: Optional[int] = None) -> bool:
        start = time.perf_counter()
        try:
            result = self.service.step()
        except Exception:
            traceback.print_exc()
            self.step_errors += 1
            return False
        end = time.perf_counter()
        if result is None:
            return False
        due_clock, ids = self.inflight.pop(result.request_id)
        wall = end - start
        if parent is not None:
            span = self.tracer.add("service.step", start, end, parent,
                                   request=result.request_id, tenant=result.tenant)
            self.tracer.add("trainer.step", end - result.step_seconds, end, span,
                            derived_from="StepResult.step_seconds")
            wall = time.perf_counter() - start   # the tracer's own cost included
        self.results.append({
            "phase": phase, "traced": parent is not None, "wall": wall,
            "latency": end - due_clock, "tokens": int(ids.size),
            "length": int(ids.shape[-1]), "tenant": result.tenant,
            "bucket": result.bucket, "loss": result.loss,
            "step_seconds": result.step_seconds,
            "queue_wait": result.latency_seconds - result.step_seconds,
        })
        return True

    def drain(self, phase: str) -> None:
        while self.inflight and self.step(phase):
            pass

    def closed(self, seconds: float, min_requests: int) -> None:
        """Closed loop: ``pending`` requests in flight, for ``seconds``."""
        spec = self.traffic.spec
        begin = time.perf_counter()
        done = 0
        while True:
            traced = self.tracer is not None and (done // spec.block) % 2 == 1
            block_start = time.perf_counter()
            parent = self.tracer.begin("block", block_start) if traced else None
            first = len(self.results)
            for _ in range(spec.block):
                while len(self.inflight) < spec.pending:
                    self.submit(time.perf_counter())
                if not self.step("closed", parent):
                    return
            block_end = time.perf_counter()
            done += spec.block
            if traced:
                self.tracer.end(parent, block_end)
            else:
                self.block_rates.append(
                    sum(r["tokens"] for r in self.results[first:])
                    / (block_end - block_start))
            paired = self.tracer is None or (done // spec.block) % 2 == 0
            if paired and done >= min_requests and block_end - begin >= seconds:
                return

    def open(self, rate: float, duration: float) -> dict:
        """Open loop: Poisson arrivals at ``rate``; latency from the due time."""
        due = self.traffic.arrivals(rate, duration)
        phase = f"open{int(rate)}"
        first = len(self.results)
        errors_before = self.refused + self.step_errors
        begin = time.perf_counter()
        parent = self.tracer.begin(phase, begin, rate=rate)
        lateness: List[float] = []
        backlog_mid = backlog_end = None
        sent = 0
        while len(self.results) - first < len(due):
            now = time.perf_counter() - begin
            while sent < len(due) and due[sent] <= now:
                self.submit(begin + due[sent])
                lateness.append(now - due[sent])
                sent += 1
            if backlog_mid is None and now >= duration / 2:
                backlog_mid = len(self.inflight)
            if backlog_end is None and sent == len(due):
                backlog_end = len(self.inflight)
            if not self.inflight:
                if sent == len(due):
                    break   # a request was refused or lost; nothing left to wait for
                time.sleep(max(0.0, due[sent] - (time.perf_counter() - begin)))
                continue
            if not self.step(phase, parent):
                break
        self.tracer.end(parent, time.perf_counter())
        latencies = [r["latency"] * 1000.0 for r in self.results[first:]]
        failures = (self.refused + self.step_errors - errors_before
                    + len(due) - len(latencies))
        spec = self.traffic.spec
        limit = stats.tail(latencies, spec.limit_percentile)
        return {
            "rate": rate, "requests": len(due), "completed": len(latencies),
            "failed": failures,
            "latency_ms_p50": stats.median(latencies) if latencies else None,
            "limit_percentile": spec.limit_percentile,
            "latency_ms_limit_percentile": limit,
            "latency_ms_p99": stats.tail(latencies, 99.0),
            "lateness_ms_p99": stats.tail([s * 1000.0 for s in lateness], 99.0),
            "backlog_mid": backlog_mid, "backlog_end": backlog_end,
            # A backlog no deeper than the closed loop's own in-flight count
            # is not a growing queue, whatever it was at the midpoint.
            "ok": bool(failures == 0 and limit is not None
                       and limit <= spec.latency_limit_ms
                       and (backlog_end or 0) <= max(backlog_mid or 0, spec.pending)),
        }


def run_serve(spec: ServeSpec, args) -> dict:
    tracer = Tracer(f"{spec.name}-seed{args.seed}") if args.trace else None
    begin = time.perf_counter()
    traffic = ServeTraffic(spec, args.seed)
    state_dir = os.path.join(args.workdir, f"state-{os.getpid()}")
    config = build_config(
        repro.ServiceConfig, model=spec.model, adapters=spec.adapters,
        seq_buckets=spec.seq_buckets,
        max_resident_tenants=spec.max_resident_tenants,
        max_plan_cache=spec.max_plan_cache, state_dir=state_dir,
        executor_threads=1)
    try:
        service = repro.FineTuningService(config)
        base_digest = service.base_digest()
        driver = _ServeDriver(service, traffic, tracer, args.part)
        for _ in range(spec.warmup_requests):
            driver.submit(time.perf_counter())
        driver.drain("warmup")
        driver.depth_max = 0   # the warm-up burst is not traffic
        result = {
            "setup_s": time.monotonic() - args.spawned_at,
            "effective_config": {"service": dataclasses.asdict(config),
                                 "tenants": spec.tenants, "zipf_a": spec.zipf_a,
                                 "batch": spec.batch, "pending": spec.pending,
                                 "lengths": [spec.min_len, spec.max_len]},
        }
        if tracer is not None:
            tracer.add("setup", begin, time.perf_counter())
        _serve_measure(spec, args, service, driver, tracer, base_digest, result)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if tracer is not None:
        result["trace_file"] = _write_trace(tracer, spec.name, args)
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def _serve_measure(spec, args, service, driver, tracer, base_digest, result) -> None:
    driver.closed(args.seconds, spec.min_requests)
    closed = [r for r in driver.results if r["phase"] == "closed"]
    closed_gauges = service.gauges()
    driver.drain("drain")
    # The step-time sample is the largest bucket's steps only: step cost is
    # one mode per sequence bucket, and the median over all three falls in
    # the gap between two modes, where it flips with the request mix.
    top = sorted(spec.seq_buckets)[-2]
    result["samples"] = {"closed_requests": len(closed)}
    result["block_tokens_per_s"] = driver.block_rates
    result["step_walls_ms"] = [r["wall"] * 1000.0 for r in closed
                               if not r["traced"] and r["length"] > top]

    phases = []
    if tracer is not None:
        for rate in spec.rates:
            duration = args.seconds if rate == spec.main_rate else args.seconds / 2
            phases.append(driver.open(rate, duration))
            driver.drain("drain")
        result["open_phases"] = phases

    served = sorted({r["tenant"] for r in driver.results})
    digests = [service.tenant_digest(tenant) for tenant in served]
    lost = len(driver.inflight)
    failed = driver.refused + lost
    losses = [r["loss"] for r in driver.results]
    result["checks"] = {
        "no_step_raised": driver.step_errors == 0,
        "losses_finite": _finite(losses),
        "base_digest_unchanged": service.base_digest() == base_digest,
        "tenant_digests_distinct": len(set(digests)) == len(digests),
        "completed_plus_failed_is_submitted":
            len(driver.results) + failed == driver.submitted,
    }
    result["ops_attempted"] = driver.submitted
    result["ops_failed"] = failed + sum(not math.isfinite(v) for v in losses)

    if tracer is None:
        return
    layer = _serve_layer_metrics(spec, tracer, closed, closed_gauges, phases, driver)
    context = probes.Context.for_serve(
        spec, service, args.seed,
        _ms([r["wall"] for r in closed if not r["traced"]]), args.workdir)
    probed, missing = probes.run(probes.SERVE_PROBES, context, tracer)
    layer.update(probed)
    layer["store.writes"] = service.gauges().get("tenant_checkpoint_writes")
    layer["trace.spans"] = float(len(tracer))
    result["probes_missing"] = missing
    result["host"] = context.host
    result["per_layer"] = layer


def _serve_layer_metrics(spec, tracer, closed, gauges, phases, driver) -> dict:
    """serve.queue / serve.registry / serve.service numbers from the closed
    phase's StepResults and gauges, and the open phases' latencies."""
    waits = [r["queue_wait"] * 1000.0 for r in closed]
    traced = [r["wall"] for r in closed if r["traced"]]
    untraced = [r["wall"] for r in closed if not r["traced"]]
    switches = sum(a["bucket"] != b["bucket"] for a, b in zip(closed, closed[1:]))
    attaches = gauges.get("tenant_attaches", 0.0)
    main = next((p for p in phases if p["rate"] == spec.main_rate), {})
    passing = [p["rate"] for p in phases if p["ok"]]
    return {
        "queue.wait_ms_p50": stats.median(waits) if waits else None,
        "queue.wait_ms_p99": stats.tail(waits, 99.0),
        "queue.depth_max": float(driver.depth_max),
        "queue.bucket_switch_rate": switches / max(1, len(closed) - 1),
        "registry.evictions": gauges.get("tenant_evictions"),
        "registry.pageins": gauges.get("tenant_pageins"),
        "registry.resident_hit_rate":
            1.0 - gauges.get("tenant_pageins", 0.0) / attaches if attaches else None,
        "service.step_ms_p50": _ms([r["step_seconds"] for r in closed]),
        # Self time of service.step(): its wall minus the tuner step inside.
        "service.overhead_ms": _ms(tracer.self_seconds("service.step")),
        "service.capture_hit_rate": gauges.get("capture_hit_rate"),
        "service.lateness_ms_p99": main.get("lateness_ms_p99"),
        "service.request_ms_p50": main.get("latency_ms_p50"),
        "service.request_ms_p99": main.get("latency_ms_p99"),
        "service.max_rate_ok": float(max(passing)) if passing else 0.0,
        "trace.overhead_frac": (stats.median(traced) / stats.median(untraced) - 1.0
                                if traced and untraced else None),
    }


def _write_trace(tracer: Tracer, name: str, args) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"trace_{name}_seed{args.seed}.json")
    tracer.write(path)
    return path


def run(spec, args) -> dict:
    runner = run_serve if isinstance(spec, ServeSpec) else run_training
    return runner(spec, args)
