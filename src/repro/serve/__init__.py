"""Multi-tenant fine-tuning service over one shared frozen base model.

Public surface:

* :class:`FineTuningService` / :class:`ServiceConfig` — the serving facade:
  ``submit`` per-tenant step requests, ``step``/``flush`` to serve them
  through signature-bucketed continuous batching, ``fetch_adapter`` to copy
  a tenant's trained adapter out.
* :class:`AdapterRegistry` — per-tenant adapter + optimizer state: resident
  flat arrays, paged LRU through the store when one is given.
* :class:`SignatureBucketQueue` / :class:`StepRequest` — the request queue
  with the max-wait anti-starvation policy.
* :class:`TenantStateStore` — atomic, SHA-256-verified checkpoint files:
  where evicted tenants live (service crash-restart safe).
"""

from repro.serve.queue import SignatureBucketQueue, StepRequest
from repro.serve.registry import AdapterRegistry, AdapterSnapshot, TenantState
from repro.serve.service import FineTuningService, ServiceConfig, StepResult
from repro.serve.store import CheckpointCorruptError, TenantStateStore

__all__ = [
    "AdapterRegistry",
    "AdapterSnapshot",
    "CheckpointCorruptError",
    "FineTuningService",
    "ServiceConfig",
    "SignatureBucketQueue",
    "StepRequest",
    "StepResult",
    "TenantState",
    "TenantStateStore",
]
