"""Multi-tenant fine-tuning service: one frozen base, many adapters.

:class:`FineTuningService` is the public serving facade over the training
stack: tenants submit per-step fine-tuning requests against a shared frozen
base model, and the service drives them through signature-bucketed continuous
batching so steady-state steps replay compiled plans instead of rebuilding
graphs.

Architecture (one instance, N tenants, K adapter kinds)::

    submit(tenant, batch) ── pad to seq bucket ── signature key
           │                                          │
           ▼                                          ▼
    SignatureBucketQueue ──select──▶ lane[kind]: FineTuner + Adam
           │                            │  StepCapture per signature (tuner LRU)
           │                            │  AdapterRegistry.attach(tenant)
           ▼                            ▼
        StepResult ◀── compiled replay over the SAME live buffers

* **One resident base.**  Every lane (one per adapter kind) is a model whose
  frozen parameters *alias* the shared base model's ndarrays — K lanes cost
  one backbone plus K adapter sets, which is the economics the PEFT paper's
  frozen-base regime promises at fleet scale.
* **Values-only tenant switches.**  The :class:`AdapterRegistry` pages tenant
  state in and out with ``np.copyto`` so the buffers compiled plans are bound
  to never change identity; switching tenants inside one bucket costs two
  flat copies, never a recapture.
* **Per-bucket captures.**  A bucket is a step signature, and a lane's
  :class:`FineTuner` keeps one :class:`~repro.runtime.capture.StepCapture`
  per signature (a bounded LRU whose evictions call
  ``StepCapture.retire``), so alternating buckets never thrash one capture —
  every bucket captures, then replays.  Only one step runs at a time, so
  the bucket plans of every lane bind their rewritable memory to the
  process's one plan pool (:mod:`repro.tensor.plan`): a plan that outgrows
  the pool's blocks makes the captures holding them record once more, and
  after warm-up the lanes hold about one largest bucket's plan memory
  (``plan_resident_bytes``), not one per bucket.

The tenant-isolation contract is *bitwise*: adapters trained interleaved
through the service are bit-identical to the same tenants trained
back-to-back on dedicated tuners.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.models import build_model
from repro.nn import Module
from repro.optim import Adam
from repro.peft import PEFTResult, get_peft_method
from repro.runtime.fault import FaultInjector
from repro.runtime.capture import StepCapture
from repro.runtime.profiler import PhaseProfiler
from repro.runtime.trainer import CaptureConfig, FineTuner, TrainingConfig
from repro.serve.queue import SignatureBucketQueue, StepRequest
from repro.serve.registry import AdapterRegistry, AdapterSnapshot
from repro.serve.store import TenantStateStore

# The token id that right-pads a batch up to its sequence bucket.
PAD_TOKEN_ID = 0


@dataclass
class ServiceConfig:
    """Configuration of a :class:`FineTuningService`."""

    model: str = "opt-tiny"
    seed: int = 0
    adapters: Sequence[str] = ("lora",)
    learning_rate: float = 1e-3
    # Paging / batching knobs.  The resident bound applies with a state_dir
    # only: without a store nothing frees an evicted tenant, so every
    # tenant stays resident.
    max_resident_tenants: int = 8
    max_wait_steps: int = 8
    seq_buckets: Sequence[int] = (16, 32, 64, 128)
    # Durability: when set, each lane's registry pages tenants past
    # max_resident_tenants to atomic checkpoint files under
    # <state_dir>/<kind>/ and rehydrates them at construction (see
    # repro.serve.store).
    state_dir: Optional[str] = None
    # PEFT-economics guard: a lane whose *trainable* state exceeds this
    # byte budget is rejected at construction.  The service's whole design
    # (values-only tenant swaps, per-tenant flat slabs, N tenants per box)
    # assumes adapter-sized trainable state; a `full` fine-tuning lane on a
    # real model breaks that arithmetic by 3-4 orders of magnitude and is a
    # documented anti-goal (README "Scope and anti-goals").  None disables
    # the guard.
    max_lane_trainable_bytes: Optional[int] = 1 << 20


@dataclass
class StepResult:
    """Outcome of one served step."""

    request_id: int
    tenant: str
    adapter: str
    bucket: Hashable
    loss: float
    step_seconds: float
    latency_seconds: float
    replayed: bool


class _Lane:
    """One adapter kind's execution lane: adapted model + tuner + registry."""

    __slots__ = ("kind", "model", "peft_result", "optimizer", "tuner",
                 "registry")

    def __init__(self, kind: str, model: Module, peft_result: PEFTResult,
                 optimizer: Adam, tuner: FineTuner,
                 registry: AdapterRegistry):
        self.kind = kind
        self.model = model
        self.peft_result = peft_result
        self.optimizer = optimizer
        self.tuner = tuner
        self.registry = registry


class FineTuningService:
    """Serve many tenants' PEFT fine-tuning over one shared frozen base."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 fault_injector: Optional[FaultInjector] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        if not cfg.adapters:
            raise ValueError("at least one adapter kind is required")
        self.fault_injector = fault_injector
        self.profiler = PhaseProfiler()
        self.base_model = build_model(cfg.model, seed=cfg.seed)
        base_params = dict(self.base_model.named_parameters())
        base_ids = {id(p.data) for p in base_params.values()}
        self._lanes: Dict[str, _Lane] = {}
        self._tenant_lanes: Dict[str, str] = {}
        for kind in cfg.adapters:
            self._lanes[kind] = self._build_lane(kind, base_params, base_ids)
        self.queue = SignatureBucketQueue(max_wait_steps=cfg.max_wait_steps)
        self._current_key: Optional[Hashable] = None
        self._next_request_id = 1
        self.steps = 0
        self.capture_hits = 0
        self._keys_served: set = set()

    def _build_lane(self, kind: str, base_params, base_ids) -> _Lane:
        cfg = self.config
        # A second instance built from the same seed is value-identical to
        # the base, so aliasing every parameter onto the base's ndarrays
        # changes nothing numerically — it just makes the backbone's storage
        # shared.  PEFT then freezes the backbone and adds adapter state;
        # any parameter the method leaves trainable while still aliased
        # (BitFit's biases, full FT) gets a private copy, because tenants
        # write trainable parameters and the base must never see that.
        model = build_model(cfg.model, seed=cfg.seed)
        for name, param in model.named_parameters():
            param.data = base_params[name].data
        model, result = get_peft_method(kind)(model)
        for _, param in model.named_parameters():
            if param.requires_grad and id(param.data) in base_ids:
                param.data = param.data.copy()
        training = TrainingConfig(learning_rate=cfg.learning_rate,
                                  capture=CaptureConfig(enabled=True))
        named_trainable = [(n, p) for n, p in model.named_parameters()
                           if p.requires_grad]
        trainable_bytes = sum(int(p.data.nbytes) for _, p in named_trainable)
        budget = cfg.max_lane_trainable_bytes
        if budget is not None and trainable_bytes > budget:
            raise ValueError(
                f"lane {kind!r} has {trainable_bytes} trainable bytes, over "
                f"the {budget}-byte per-lane budget "
                f"(max_lane_trainable_bytes).  The service's per-tenant "
                f"paging economics assume adapter-sized trainable state; "
                f"full fine-tuning at scale is a documented anti-goal "
                f"(README: Scope and anti-goals).  Raise the budget or set "
                f"it to None to opt in anyway.")
        optimizer = Adam([p for _, p in named_trainable], lr=cfg.learning_rate)
        tuner = FineTuner(model, training, optimizer=optimizer)
        store = None
        if cfg.state_dir is not None:
            store = TenantStateStore(os.path.join(cfg.state_dir, kind),
                                     fault_injector=self.fault_injector)
        registry = AdapterRegistry(optimizer, named_trainable,
                                   max_resident=cfg.max_resident_tenants,
                                   store=store)
        # Rehydrated tenants must be routable before their first submit.
        for tenant in registry.tenants():
            self._tenant_lanes.setdefault(tenant, kind)
        return _Lane(kind, model, result, optimizer, tuner, registry)

    # -- request intake ------------------------------------------------------
    def pad_to_bucket(self, input_ids: np.ndarray,
                      labels: Optional[np.ndarray] = None):
        """Right-pad the batch to the smallest configured sequence bucket.

        Padding uses ``PAD_TOKEN_ID`` for both inputs and (when provided)
        labels — the padded positions train like real tokens, which is the
        price of bucketed batching without a masked loss; callers who care
        submit bucket-sized batches.
        """
        input_ids = np.asarray(input_ids)
        seq = int(input_ids.shape[-1])
        buckets = sorted(int(b) for b in self.config.seq_buckets)
        target = next((b for b in buckets if b >= seq), None)
        if target is None:
            raise ValueError(f"sequence length {seq} exceeds the largest "
                             f"configured bucket ({buckets[-1]})")
        if target == seq:
            return input_ids, None if labels is None else np.asarray(labels)
        pad = [(0, 0)] * (input_ids.ndim - 1) + [(0, target - seq)]
        padded = np.pad(input_ids, pad, constant_values=PAD_TOKEN_ID)
        padded_labels = None
        if labels is not None:
            padded_labels = np.pad(np.asarray(labels), pad,
                                   constant_values=PAD_TOKEN_ID)
        return padded, padded_labels

    def bucket_key(self, adapter: str, input_ids: np.ndarray,
                   labels: Optional[np.ndarray] = None) -> Hashable:
        """The signature bucket a batch lands in (adapter × signature)."""
        lane = self._lane(adapter)
        return (adapter, lane.tuner.step_signature(input_ids, labels))

    def submit(self, tenant: str, input_ids: np.ndarray,
               labels: Optional[np.ndarray] = None,
               adapter: Optional[str] = None) -> int:
        """Queue one fine-tuning step for ``tenant``; returns the request id."""
        adapter = adapter or next(iter(self._lanes))
        self._lane(adapter)  # validates the kind
        self._tenant_lanes.setdefault(tenant, adapter)
        input_ids, labels = self.pad_to_bucket(input_ids, labels)
        key = self.bucket_key(adapter, input_ids, labels)
        request = StepRequest(request_id=self._next_request_id, tenant=tenant,
                              adapter=adapter, input_ids=input_ids,
                              labels=labels, submit_step=self.steps)
        self._next_request_id += 1
        self.queue.submit(key, request)
        return request.request_id

    # -- serving -------------------------------------------------------------
    def step(self) -> Optional[StepResult]:
        """Serve the next request per the scheduling policy (None when idle)."""
        key = self.queue.select(self._current_key, self.steps)
        if key is None:
            return None
        request = self.queue.pop(key)
        lane = self._lane(request.adapter)
        lane.registry.attach(request.tenant)
        # The bucket's signature selects the tuner's capture: the step
        # replayed when that capture ran it and its replay count moved.
        capture = lane.tuner.captures.get(key[1])
        hits_before = capture.full_replays if capture is not None else 0
        start = time.perf_counter()
        loss, timing = lane.tuner.step(request.input_ids, request.labels)
        step_seconds = time.perf_counter() - start
        replayed = (lane.tuner.capture is capture
                    and capture.full_replays > hits_before)
        self._current_key = key
        self._keys_served.add(key)
        self.steps += 1
        self.capture_hits += int(replayed)
        return StepResult(request_id=request.request_id, tenant=request.tenant,
                          adapter=request.adapter, bucket=key,
                          loss=float(loss), step_seconds=step_seconds,
                          latency_seconds=time.perf_counter() - request.submit_time,
                          replayed=replayed)

    def flush(self) -> List[StepResult]:
        """Drain the queue; returns every step's result in service order."""
        results: List[StepResult] = []
        while self.queue:
            result = self.step()
            if result is None:
                break
            results.append(result)
        return results

    # -- tenant state --------------------------------------------------------
    def _lane(self, adapter: str) -> _Lane:
        try:
            return self._lanes[adapter]
        except KeyError:
            raise KeyError(f"no lane for adapter kind {adapter!r}; "
                           f"configured: {sorted(self._lanes)}") from None

    def _tenant_lane(self, tenant: str, adapter: Optional[str]) -> _Lane:
        if adapter is None:
            adapter = self._tenant_lanes.get(tenant)
            if adapter is None:
                raise KeyError(f"unknown tenant {tenant!r}")
        return self._lane(adapter)

    def fetch_adapter(self, tenant: str,
                      adapter: Optional[str] = None) -> AdapterSnapshot:
        """Copy a tenant's trained adapter out of the service."""
        return self._tenant_lane(tenant, adapter).registry.fetch(tenant)

    def tenant_digest(self, tenant: str, adapter: Optional[str] = None) -> str:
        """SHA-256 of the tenant's flat adapter parameters."""
        return self._tenant_lane(tenant, adapter).registry.digest(tenant)

    def base_digest(self) -> str:
        """SHA-256 over the shared frozen base parameters (leakage check)."""
        digest = hashlib.sha256()
        for name, param in sorted(self.base_model.named_parameters()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(param.data).tobytes())
        return digest.hexdigest()

    def checkpoint(self) -> int:
        """Persist every tenant in every lane through the durable store.

        Returns the number of checkpoint files written.  Requires
        ``config.state_dir``; a service constructed over the same directory
        rehydrates all tenants bit-exact (same ``tenant_digest``) — the
        crash-restart contract locked by the fault test tier.
        """
        if self.config.state_dir is None:
            raise RuntimeError("ServiceConfig.state_dir is not set; the "
                               "service has no durable store to checkpoint to")
        with self.profiler.phase("checkpoint"):
            written = sum(lane.registry.checkpoint_all()
                          for lane in self._lanes.values())
        self.gauges()  # refresh the durability gauges on the profiler
        return written

    # -- reporting -----------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        gauges = {
            "serve_steps": float(self.steps),
            "capture_hits": float(self.capture_hits),
            "capture_hit_rate": (self.capture_hits / self.steps
                                 if self.steps else 0.0),
            # Hit rate after warm-up: each bucket's first step is its one
            # unavoidable capture.
            "warm_capture_hit_rate": (
                self.capture_hits / max(1, self.steps - len(self._keys_served))
                if self.steps > len(self._keys_served) else 0.0),
            "pending_requests": float(self.queue.pending()),
            "buckets_live": float(len(self.queue.keys())),
            "plan_caches": float(sum(len(l.tuner.captures)
                                     for l in self._lanes.values())),
            # What every lane's bucket plans hold together: they share the
            # process's plan pool.
            "plan_resident_bytes": float(StepCapture.plan_resident_bytes()),
            # Their backward tapes' share of it.
            "backward_bytes": float(StepCapture.tape_resident_bytes(
                capture for lane in self._lanes.values()
                for capture in lane.tuner.captures.values())),
        }
        for name in ("tenants", "resident_tenants", "tenant_evictions",
                     "tenant_pageins", "tenant_attaches", "tenant_state_bytes",
                     "tenant_checkpoint_writes", "tenant_restores",
                     "tenant_quarantined"):
            gauges[name] = float(sum(l.registry.gauges()[name]
                                     for l in self._lanes.values()))
        # Mirror onto the service profiler so durability/traffic counters
        # travel with phase timings in PhaseProfiler.summary_dict().
        for name, value in gauges.items():
            self.profiler.set_gauge(name, value)
        return gauges
