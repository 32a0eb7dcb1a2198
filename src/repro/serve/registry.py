"""Per-tenant adapter + optimizer state paging over one shared frozen base.

The PEFT regime leaves each tenant with a tiny trainable state — adapter
parameters plus their Adam ``m``/``v`` moments and step count — while the
frozen backbone is identical for everyone.  :class:`AdapterRegistry` owns
that per-tenant state for one serving lane: it pages flat state slabs in and
out of the *live* parameter/moment buffers the lane's compiled plans were
recorded against.

The whole design hangs on one invariant: **tenant switches are values-only**.
Attaching a tenant copies (``np.copyto``) its slabs into the existing
parameter and moment arrays — never rebinds them — so the StepCapture /
ForwardPlan machinery, whose replay thunks are bound to those exact ndarray
objects, stays valid across arbitrary tenant interleavings.  This is
what lets thousands of adapters share one compiled step.

A tenant's state is in one of two places.  *Resident*, it is three plain
flat arrays (``params``, ``m``, ``v``) the registry owns.  Otherwise it is a
checkpoint in the registry's :class:`~repro.serve.store.TenantStateStore`:
an atomic, SHA-256-verified file.  Only a store frees a tenant's memory, so
only a registry with one evicts: beyond ``max_resident`` tenants the
least-recently-attached non-active tenant is written to the store and its
arrays dropped, and re-attaching pages it back in (``tenant_evictions``
counts the demotions, ``tenant_pageins`` the page-ins).  A registry without
a store keeps every tenant resident.  A registry built over the same store
*rehydrates* every saved tenant at construction — a restarted service pages
tenants back in bit-exact (same digest as before the crash).
``checkpoint_all()`` persists every resident tenant on demand, independent
of eviction pressure.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.optim.adam import Adam
from repro.serve.store import TenantStateStore


@dataclass
class TenantState:
    """One tenant's pageable training state: resident flat slabs, or (all
    three ``None``) a checkpoint in the registry's store."""

    tenant: str
    step_count: int = 0
    params: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    last_used: int = 0

    @property
    def resident(self) -> bool:
        return self.params is not None


@dataclass
class AdapterSnapshot:
    """A fetched copy of one tenant's adapter (detached from the service)."""

    tenant: str
    step_count: int
    state: Dict[str, np.ndarray] = field(default_factory=dict)
    digest: str = ""


class AdapterRegistry:
    """LRU-paged per-tenant adapter/optimizer state for one serving lane.

    Parameters
    ----------
    optimizer:
        The lane's :class:`~repro.optim.adam.Adam` over the trainable
        (adapter) parameters.  Its flat offset layout is the slab format.
    named_params:
        ``(name, Parameter)`` pairs in the optimizer's parameter order —
        used to render slabs back into name-keyed snapshots.
    max_resident:
        Resident-tenant bound with a ``store``; beyond it the LRU
        non-attached tenant is written to the store.  Without a store every
        tenant stays resident.
    store:
        Optional :class:`TenantStateStore`: where evicted tenants go, and
        every tenant it holds a verified checkpoint for is registered
        (non-resident) at construction — the durable-restart path.
    """

    def __init__(self, optimizer: Adam,
                 named_params: List[Tuple[str, Parameter]],
                 max_resident: int = 8,
                 store: Optional[TenantStateStore] = None):
        if [p for _, p in named_params] != list(optimizer.params):
            raise ValueError("named_params must list the optimizer's "
                             "parameters in order")
        self.optimizer = optimizer
        self.named_params = list(named_params)
        self.max_resident = int(max_resident)
        if self.max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.total, self.dtype = optimizer.grad_layout()
        # Pristine adapter init: every new tenant starts from the lane's
        # freshly-applied PEFT state, exactly as a dedicated FineTuner would.
        self._init_params = np.empty(self.total, dtype=self.dtype)
        optimizer.gather_flat_params(self._init_params)
        self._tenants: Dict[str, TenantState] = {}
        self._attached: Optional[str] = None
        self._clock = itertools.count(1)
        self.tenant_evictions = 0
        self.attaches = 0
        self.pageins = 0
        self.store = store
        if store is not None:
            # Rehydrate: every verified checkpoint becomes a known tenant
            # whose state pages in lazily on first attach.  Corrupt files
            # were quarantined by scan() — the registry still comes up.
            for tenant, step_count in store.scan().items():
                self._tenants[tenant] = TenantState(tenant=tenant,
                                                    step_count=step_count)

    # -- lifecycle -----------------------------------------------------------
    def attach(self, tenant: str) -> None:
        """Make ``tenant`` the live adapter (values-only swap; see module doc)."""
        if tenant == self._attached:
            self._tenants[tenant].last_used = next(self._clock)
            return
        self.sync()
        state = self._ensure_resident(tenant)
        self.optimizer.scatter_flat_params(state.params)
        self.optimizer.scatter_flat_state(state.m, state.v)
        self.optimizer.step_count = state.step_count
        self._attached = tenant
        state.last_used = next(self._clock)
        self.attaches += 1
        if self.store is not None:
            self._evict_overflow()

    def sync(self) -> None:
        """Write the live parameter/moment values back into the attached
        tenant's slabs (no-op when nothing is attached)."""
        if self._attached is None:
            return
        state = self._tenants[self._attached]
        self.optimizer.gather_flat_params(state.params)
        self.optimizer.gather_flat_state(state.m, state.v)
        state.step_count = int(self.optimizer.step_count)

    def _ensure_resident(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = TenantState(tenant=tenant, params=self._init_params.copy(),
                                m=np.zeros(self.total, self.dtype),
                                v=np.zeros(self.total, self.dtype))
            self._tenants[tenant] = state
        elif not state.resident:
            # Verified read through the store; its arrays are fresh copies.
            state.step_count, state.params, state.m, state.v = \
                self.store.load(tenant)
            self.pageins += 1
        return state

    def _evict_overflow(self) -> None:
        while True:
            resident = [s for s in self._tenants.values()
                        if s.resident and s.tenant != self._attached]
            if len(resident) + 1 <= self.max_resident:
                return
            victim = min(resident, key=lambda s: s.last_used)
            # The slabs go to an atomic, checksummed file; a restart pages
            # them back bit-exact.
            self.store.save(victim.tenant, victim.step_count,
                            victim.params, victim.m, victim.v)
            victim.params = victim.m = victim.v = None
            self.tenant_evictions += 1

    # -- inspection ----------------------------------------------------------
    @property
    def attached(self) -> Optional[str]:
        return self._attached

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def resident_tenants(self) -> List[str]:
        return sorted(t for t, s in self._tenants.items() if s.resident)

    def _flat_params(self, tenant: str) -> np.ndarray:
        state = self._tenants[tenant]
        if tenant == self._attached:
            self.sync()
        if state.resident:
            return state.params
        # A verified read of the params slab: the tenant stays paged out.
        return self.store.load_params(tenant)

    def checkpoint_all(self) -> int:
        """Persist every resident tenant's current state through the store.

        Returns the number of checkpoints written.  Resident tenants (the
        attached one synced first) are written from their live slabs; the
        others are only in the store, already durable.
        """
        if self.store is None:
            raise RuntimeError("registry has no TenantStateStore; pass "
                               "state_dir= / store= to enable durability")
        self.sync()
        resident = [s for s in self._tenants.values() if s.resident]
        for state in resident:
            self.store.save(state.tenant, state.step_count,
                            state.params, state.m, state.v)
        return len(resident)

    def digest(self, tenant: str) -> str:
        """SHA-256 over the tenant's flat adapter parameters (leakage checks)."""
        return hashlib.sha256(self._flat_params(tenant).tobytes()).hexdigest()

    def fetch(self, tenant: str) -> AdapterSnapshot:
        """Copy the tenant's adapter out as a name-keyed snapshot."""
        if tenant not in self._tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        flat = self._flat_params(tenant)
        state = {name: view.copy() for (name, _), view
                 in zip(self.named_params, self.optimizer.views(flat))}
        return AdapterSnapshot(
            tenant=tenant,
            step_count=self._tenants[tenant].step_count
            if tenant != self._attached else int(self.optimizer.step_count),
            state=state,
            digest=hashlib.sha256(np.ascontiguousarray(flat).tobytes())
            .hexdigest())

    def gauges(self) -> Dict[str, float]:
        gauges = {
            "tenants": float(len(self._tenants)),
            "resident_tenants": float(len(self.resident_tenants())),
            "tenant_evictions": float(self.tenant_evictions),
            "tenant_pageins": float(self.pageins),
            "tenant_attaches": float(self.attaches),
            "tenant_state_bytes": float(sum(
                s.params.nbytes + s.m.nbytes + s.v.nbytes
                for s in self._tenants.values() if s.resident)),
            "tenant_checkpoint_writes": 0.0,
            "tenant_restores": 0.0,
            "tenant_quarantined": 0.0,
        }
        if self.store is not None:
            gauges.update(self.store.gauges())
        return gauges
