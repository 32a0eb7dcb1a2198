"""Signature-bucketed request queue with continuous batching.

Incoming per-tenant step requests are bucketed by their *capture signature*
(sequence-length bucket × adapter kind — the exact key
:meth:`repro.runtime.FineTuner.step_signature` computes from the batch and
the lane's own tuner, prefixed with the lane): every request in one
bucket replays the same compiled plan, so
the scheduler's job is to keep the service on one bucket for as long as
possible (each bucket switch is free — the per-bucket captures persist — but
cross-bucket churn during *capture* would thrash).

The policy is deliberately simple and starvation-free:

1. **Overdue first** — a bucket whose head request has waited at least
   ``max_wait_steps`` service steps is served before anything else (oldest
   head wins).  This is the max-wait deadline: low-traffic tenants in small
   buckets are bounded-latency even while a hot bucket streams.
2. Otherwise **stay on the current bucket** while it has work — signature
   locality is what keeps the capture-hit rate high.
3. Otherwise the **largest bucket** (tie-break: oldest head), so a drained
   queue restarts on the run with the most amortisation ahead of it.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Hashable, List, Optional

import numpy as np


@dataclass
class StepRequest:
    """One tenant's queued fine-tuning step."""

    request_id: int
    tenant: str
    adapter: str
    input_ids: np.ndarray
    labels: Optional[np.ndarray] = None
    submit_step: int = 0
    submit_time: float = field(default_factory=time.perf_counter)


class SignatureBucket:
    """FIFO of requests sharing one capture signature."""

    __slots__ = ("key", "requests")

    def __init__(self, key: Hashable):
        self.key = key
        self.requests: Deque[StepRequest] = deque()

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def head(self) -> StepRequest:
        return self.requests[0]


class SignatureBucketQueue:
    """Buckets requests by signature; picks the next bucket to serve."""

    def __init__(self, max_wait_steps: int = 8):
        if max_wait_steps < 1:
            raise ValueError("max_wait_steps must be >= 1")
        self.max_wait_steps = int(max_wait_steps)
        self._buckets: "OrderedDict[Hashable, SignatureBucket]" = OrderedDict()
        self.submitted = 0

    def submit(self, key: Hashable, request: StepRequest) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = SignatureBucket(key)
        bucket.requests.append(request)
        self.submitted += 1

    def select(self, current_key: Optional[Hashable],
               now_step: int) -> Optional[Hashable]:
        """The bucket key to serve next (None when the queue is empty)."""
        if not self._buckets:
            return None
        overdue = [b for b in self._buckets.values()
                   if now_step - b.head.submit_step >= self.max_wait_steps]
        if overdue:
            return min(overdue, key=lambda b: b.head.submit_step).key
        if current_key is not None and current_key in self._buckets:
            return current_key
        return max(self._buckets.values(),
                   key=lambda b: (len(b), -b.head.submit_step)).key

    def pop(self, key: Hashable) -> StepRequest:
        bucket = self._buckets[key]
        request = bucket.requests.popleft()
        if not bucket.requests:
            del self._buckets[key]
        return request

    def pending(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def keys(self) -> List[Hashable]:
        return list(self._buckets)

    def __bool__(self) -> bool:
        return bool(self._buckets)
