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
ForwardPlan machinery (PR 5/6), whose replay thunks are bound to those exact
ndarray objects, stays valid across arbitrary tenant interleavings.  This is
what lets thousands of adapters share one compiled step.

Resident slabs live in a private :class:`~repro.tensor.arena.BufferArena`
(take/release only, no generations — tenant state is persistent, not
per-step).  Beyond ``max_resident`` tenants, the least-recently-attached
non-active tenant is demoted to cold storage and its arena buffers are
released; re-attaching pages it back in.  ``tenant_evictions`` counts the
demotions.

Cold storage comes in two tiers.  Without a store, demotion keeps
``tobytes`` snapshots in process memory (bit-exact round-trip, verified by
the serve test tier) — fast, but lost on restart.  With a
:class:`~repro.serve.store.TenantStateStore`, demotion writes the slabs as
an atomic, SHA-256-verified checkpoint file instead, and a registry built
over the same store *rehydrates* every saved tenant at construction — a
restarted service pages tenants back in bit-exact (same digest as before
the crash).  ``checkpoint_all()`` additionally persists every tenant on
demand, independent of eviction pressure.
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
from repro.tensor.arena import BufferArena


@dataclass
class TenantState:
    """One tenant's pageable training state (resident, cold bytes, or disk)."""

    tenant: str
    step_count: int = 0
    # Resident form: flat slabs owned by the registry arena.
    params: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    # Cold form: bit-exact byte snapshots (params, m, v).
    cold: Optional[Tuple[bytes, bytes, bytes]] = None
    # Durable form: the registry's store holds a verified checkpoint file.
    on_disk: bool = False
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
        Resident-tenant bound; beyond it the LRU non-attached tenant is
        demoted to cold storage.
    store:
        Optional :class:`TenantStateStore`.  When given, demotions persist
        to disk instead of process memory, and every tenant the store holds
        a verified checkpoint for is registered (non-resident) at
        construction — the durable-restart path.
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
        # Persistent slabs: the registry never starts a generation, so the
        # arena's idle-key eviction never runs here; every take is matched
        # by a release when its tenant is demoted.
        self.arena = BufferArena()
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
                self._tenants[tenant] = TenantState(
                    tenant=tenant, step_count=step_count, on_disk=True)

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
            state = TenantState(tenant=tenant)
            state.params = self.arena.take((self.total,), self.dtype)
            state.m = self.arena.take((self.total,), self.dtype, zero=True)
            state.v = self.arena.take((self.total,), self.dtype, zero=True)
            np.copyto(state.params, self._init_params)
            self._tenants[tenant] = state
        elif not state.resident:
            if state.cold is not None:
                params_b, m_b, v_b = state.cold
                params = np.frombuffer(params_b, dtype=self.dtype)
                m = np.frombuffer(m_b, dtype=self.dtype)
                v = np.frombuffer(v_b, dtype=self.dtype)
            else:
                # Durable tier: verified read through the store.
                step_count, params, m, v = self.store.load(state.tenant)
                state.step_count = step_count
            state.params = self.arena.take((self.total,), self.dtype)
            state.m = self.arena.take((self.total,), self.dtype)
            state.v = self.arena.take((self.total,), self.dtype)
            np.copyto(state.params, params)
            np.copyto(state.m, m)
            np.copyto(state.v, v)
            state.cold = None
            self.pageins += 1
        return state

    def _evict_overflow(self) -> None:
        while True:
            resident = [s for s in self._tenants.values()
                        if s.resident and s.tenant != self._attached]
            if len(resident) + 1 <= self.max_resident:
                return
            victim = min(resident, key=lambda s: s.last_used)
            if self.store is not None:
                # Durable demotion: the slab goes to an atomic, checksummed
                # file; a restart pages it back bit-exact.
                self.store.save(victim.tenant, victim.step_count,
                                victim.params, victim.m, victim.v)
                victim.on_disk = True
            else:
                victim.cold = (victim.params.tobytes(), victim.m.tobytes(),
                               victim.v.tobytes())
            self.arena.release(victim.params)
            self.arena.release(victim.m)
            self.arena.release(victim.v)
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
        if state.cold is not None:
            return np.frombuffer(state.cold[0], dtype=self.dtype)
        _, params, _, _ = self.store.load(tenant)
        return params

    def checkpoint_all(self) -> int:
        """Persist every tenant's current state through the store.

        Returns the number of checkpoints written.  Resident tenants (the
        attached one synced first) are written from their live slabs;
        memory-cold tenants from their byte snapshots; disk-only tenants are
        already durable and skipped.
        """
        if self.store is None:
            raise RuntimeError("registry has no TenantStateStore; pass "
                               "state_dir= / store= to enable durability")
        self.sync()
        written = 0
        for state in self._tenants.values():
            if state.resident:
                self.store.save(state.tenant, state.step_count,
                                state.params, state.m, state.v)
            elif state.cold is not None:
                params_b, m_b, v_b = state.cold
                self.store.save(state.tenant, state.step_count,
                                np.frombuffer(params_b, dtype=self.dtype),
                                np.frombuffer(m_b, dtype=self.dtype),
                                np.frombuffer(v_b, dtype=self.dtype))
                state.cold = None
            else:
                continue  # on_disk only: already durable
            state.on_disk = True
            written += 1
        return written

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
            "tenant_state_bytes": float(self.arena.bytes_held),
            "tenant_checkpoint_writes": 0.0,
            "tenant_restores": 0.0,
            "tenant_quarantined": 0.0,
        }
        if self.store is not None:
            gauges.update(self.store.gauges())
        return gauges
