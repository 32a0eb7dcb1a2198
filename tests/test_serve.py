"""Multi-tenant serving tests (`-m serve`): tenant isolation, state paging,
signature-bucket scheduling.

The contract under test is the service's whole reason to exist: tenants
time-sharing one frozen base through compiled-plan replay must be
*indistinguishable* — bitwise — from tenants that each owned a dedicated
trainer, no matter how their steps interleave, how often their state is
evicted to the durable store, or which signature buckets their batches land
in.
"""

import numpy as np
import pytest

from repro.models import build_model
from repro.peft import get_peft_method
from repro.runtime import CaptureConfig, FineTuner, TrainingConfig
from repro.runtime.trainer import MAX_CAPTURES
from repro.serve import (FineTuningService, ServiceConfig,
                         SignatureBucketQueue, StepRequest)

pytestmark = pytest.mark.serve

MODEL = "opt-tiny"
SEQ = 16


def make_service(**overrides) -> FineTuningService:
    defaults = dict(model=MODEL, adapters=("lora",), seq_buckets=(SEQ, 2 * SEQ),
                    max_wait_steps=4)
    defaults.update(overrides)
    return FineTuningService(ServiceConfig(**defaults))


def tenant_batches(tenants, steps, seq=SEQ, seed=11):
    rng = np.random.default_rng(seed)
    return {t: [rng.integers(0, 100, size=(2, seq)) for _ in range(steps)]
            for t in tenants}


def dedicated_adapter(kind, batch_list):
    """The adapter a dedicated capture-enabled FineTuner trains to."""
    model = build_model(MODEL, seed=0)
    model, _ = get_peft_method(kind)(model)
    tuner = FineTuner(model, TrainingConfig(
        capture=CaptureConfig(enabled=True)))
    for batch in batch_list:
        tuner.step(batch)
    return {name: param.data.copy()
            for name, param in model.named_parameters() if param.requires_grad}


class TestTenantIsolation:
    def test_interleaved_matches_dedicated_bitwise(self):
        """Round-robin interleaving through the service == dedicated tuners."""
        tenants = ("alice", "bob", "carol")
        data = tenant_batches(tenants, steps=3)
        service = make_service()
        for step in range(3):
            for tenant in tenants:
                service.submit(tenant, data[tenant][step])
        results = service.flush()
        assert len(results) == 9
        for tenant in tenants:
            served = service.fetch_adapter(tenant).state
            dedicated = dedicated_adapter("lora", data[tenant])
            assert served.keys() == dedicated.keys()
            for name in dedicated:
                assert np.array_equal(served[name], dedicated[name]), (
                    f"{tenant}:{name} diverged from the dedicated trainer")

    def test_frozen_base_never_mutates(self):
        service = make_service()
        before = service.base_digest()
        data = tenant_batches(("a", "b"), steps=4)
        for step in range(4):
            for tenant in ("a", "b"):
                service.submit(tenant, data[tenant][step])
        service.flush()
        assert service.base_digest() == before

    def test_tenants_diverge_from_each_other(self):
        """Different data must produce different adapters (no state bleed)."""
        service = make_service()
        data = tenant_batches(("a", "b"), steps=2)
        for step in range(2):
            for tenant in ("a", "b"):
                service.submit(tenant, data[tenant][step])
        service.flush()
        assert service.tenant_digest("a") != service.tenant_digest("b")

    def test_bitfit_lane_does_not_leak_into_base(self):
        """BitFit trains *backbone-named* biases: they must be private copies,
        not aliases of the shared base arrays."""
        service = make_service(adapters=("bitfit",))
        before = service.base_digest()
        data = tenant_batches(("t",), steps=2)
        for batch in data["t"]:
            service.submit("t", batch, adapter="bitfit")
        service.flush()
        assert service.base_digest() == before
        dedicated = dedicated_adapter("bitfit", data["t"])
        served = service.fetch_adapter("t").state
        for name in dedicated:
            assert np.array_equal(served[name], dedicated[name])


class TestStatePaging:
    def test_eviction_round_trip_preserves_bits(self, tmp_path):
        """Training through evict/re-page cycles == training fully resident.

        The second round's Adam updates consume the restored m/v moments, so
        digest equality after round two proves the whole optimizer state —
        not just the parameters — survives the store bit-exactly.
        """
        tenants = [f"t{i}" for i in range(6)]
        data = tenant_batches(tenants, steps=2)

        def run(max_resident):
            service = make_service(max_resident_tenants=max_resident,
                                   state_dir=str(tmp_path / str(max_resident)))
            for step in range(2):
                for tenant in tenants:
                    service.submit(tenant, data[tenant][step])
                service.flush()
            return service

        resident = run(8)       # everyone stays resident
        churning = run(2)       # constant evict/re-page churn
        assert resident.gauges()["tenant_evictions"] == 0
        assert churning.gauges()["tenant_evictions"] > 0
        assert churning.gauges()["tenant_pageins"] > 0
        for tenant in tenants:
            assert (resident.fetch_adapter(tenant).digest
                    == churning.fetch_adapter(tenant).digest), tenant

    def test_zipf_traffic_under_paging_keeps_replaying_and_isolated(self, tmp_path):
        """Skewed bursty traffic over more tenants than resident slots: paging
        churns, yet pages land in the live buffers (plans keep replaying),
        the base never moves and no two tenants share state."""
        tenants = 4
        ranks = np.arange(1, tenants + 1, dtype=np.float64)
        zipf = (1.0 / ranks ** 1.2) / np.sum(1.0 / ranks ** 1.2)
        service = make_service(max_resident_tenants=2, seq_buckets=(SEQ,),
                               state_dir=str(tmp_path))
        base = service.base_digest()
        rng = np.random.default_rng(0)
        served = []
        for _ in range(4):                       # bursts of 4, then drain
            for _ in range(4):
                tenant = f"tenant-{int(rng.choice(tenants, p=zipf))}"
                service.submit(tenant, rng.integers(0, 100, size=(2, SEQ)))
            served.extend(service.flush())
        assert len(served) == 16
        gauges = service.gauges()
        assert gauges["tenant_evictions"] > 0
        assert gauges["warm_capture_hit_rate"] >= 0.9
        assert service.base_digest() == base
        digests = {service.tenant_digest(t) for t in {r.tenant for r in served}}
        assert len(digests) == len({r.tenant for r in served})

    def test_reading_an_evicted_tenant_restores_nothing(self, tmp_path):
        """An evicted tenant's digest and adapter come from its verified
        checkpoint without paging it in or counting a restore, and read as
        before the eviction."""
        tenants = ["a", "b", "c"]
        data = tenant_batches(tenants, steps=1)
        service = make_service(max_resident_tenants=2, state_dir=str(tmp_path))
        service.submit("a", data["a"][0])
        service.flush()
        digest = service.tenant_digest("a")
        for tenant in tenants[1:]:
            service.submit(tenant, data[tenant][0])
            service.flush()
        registry = service._lane("lora").registry
        assert "a" not in registry.resident_tenants()
        gauges = service.gauges()
        assert gauges["tenant_evictions"] == 1
        counters = (gauges["tenant_restores"], gauges["tenant_pageins"])
        assert service.tenant_digest("a") == digest
        assert service.fetch_adapter("a").digest == digest
        gauges = service.gauges()
        assert (gauges["tenant_restores"], gauges["tenant_pageins"]) == counters
        assert "a" not in registry.resident_tenants()

    def test_without_a_store_every_tenant_stays_resident(self):
        """Past the resident bound with no store nothing is evicted: the
        gauge counts every tenant's three slabs, and each adapter is still
        its dedicated trainer's, bit for bit."""
        tenants = [f"t{i}" for i in range(6)]
        data = tenant_batches(tenants, steps=2)
        service = make_service(max_resident_tenants=2)
        for step in range(2):
            for tenant in tenants:
                service.submit(tenant, data[tenant][step])
            service.flush()
        gauges = service.gauges()
        assert gauges["tenant_evictions"] == 0
        assert gauges["resident_tenants"] == len(tenants)
        slabs = 3 * sum(p.data.nbytes
                        for p in service._lane("lora").optimizer.params)
        assert gauges["tenant_state_bytes"] == len(tenants) * slabs
        for tenant in tenants:
            served = service.fetch_adapter(tenant).state
            dedicated = dedicated_adapter("lora", data[tenant])
            for name in dedicated:
                assert np.array_equal(served[name], dedicated[name]), (
                    f"{tenant}:{name}")

    def test_fetch_adapter_snapshot_is_detached(self):
        service = make_service()
        batch = tenant_batches(("t",), steps=1)["t"][0]
        service.submit("t", batch)
        service.flush()
        snapshot = service.fetch_adapter("t")
        digest = service.tenant_digest("t")
        for array in snapshot.state.values():
            array += 1.0        # mutating the copy must not touch the service
        assert service.tenant_digest("t") == digest
        assert snapshot.step_count == 1

    def test_new_tenant_starts_from_pristine_init(self):
        service = make_service()
        batch = tenant_batches(("old",), steps=1)["old"][0]
        service.submit("old", batch)
        service.flush()
        service.submit("new", batch)   # attaching after "old" trained
        service.flush()
        # Both saw the same single batch from the same init => identical.
        assert (service.tenant_digest("new")
                == dedicated_digest_of_one_step(batch))


def dedicated_digest_of_one_step(batch):
    import hashlib
    state = dedicated_adapter("lora", [batch])
    digest = hashlib.sha256()
    flat = np.concatenate([state[name].ravel() for name in
                           sorted_trainable_names(state)])
    digest.update(np.ascontiguousarray(flat).tobytes())
    return digest.hexdigest()


def sorted_trainable_names(state):
    # The registry's digest runs over the optimizer's parameter order —
    # recover it from a lane-identical model rather than sorting.
    model = build_model(MODEL, seed=0)
    model, _ = get_peft_method("lora")(model)
    return [name for name, param in model.named_parameters()
            if param.requires_grad and name in state]


class TestSchedulingAndCaptures:
    def test_signature_buckets_replay_after_first_step(self):
        service = make_service()
        data = tenant_batches(("a", "b", "c"), steps=4)
        for step in range(4):
            for tenant in ("a", "b", "c"):
                service.submit(tenant, data[tenant][step])
        results = service.flush()
        # One bucket: exactly the first step captures, everything else
        # replays the compiled plan.
        assert [r.replayed for r in results] == [False] + [True] * 11
        gauges = service.gauges()
        assert gauges["warm_capture_hit_rate"] == 1.0
        assert gauges["capture_hit_rate"] >= 0.9

    def test_mixed_lengths_bucket_separately_and_both_replay(self):
        service = make_service()
        rng = np.random.default_rng(5)
        for step in range(3):
            service.submit("short", rng.integers(0, 100, size=(2, SEQ)))
            service.submit("long", rng.integers(0, 100, size=(2, 2 * SEQ)))
        results = service.flush()
        buckets = {r.bucket for r in results}
        assert len(buckets) == 2
        captures = [r for r in results if not r.replayed]
        assert len(captures) == 2  # one per bucket, never more

    @pytest.mark.parametrize("growing", [True, False])
    def test_bucket_plans_share_one_largest_buckets_memory(self, growing):
        # Two lanes, three buckets each, fed small to large (each larger
        # bucket's capture outgrows the pool, and the smaller buckets record
        # once more) or large to small (a lane's smaller buckets fit its
        # largest plan's blocks).  After that warm-up every bucket replays,
        # the plan pool holds about the largest plan's memory, not six
        # plans', and every tenant trains the bits a dedicated uncaptured
        # tuner trains on the same batches.
        import gc

        gc.collect()                   # earlier tests' plans leave the pool
        buckets = (SEQ, 2 * SEQ, 4 * SEQ)
        service = make_service(adapters=("lora", "bitfit"), seq_buckets=buckets)
        rng = np.random.default_rng(17)
        fed = {"lora": [], "bitfit": []}
        results = []
        for _ in range(3):
            for kind in fed:
                for seq in (buckets if growing else buckets[::-1]):
                    batch = rng.integers(0, 100, size=(2, seq))
                    service.submit(kind, batch, adapter=kind)
                    results.append(service.step())
                    fed[kind].append(batch)
        assert all(r.replayed for r in results[-6:])
        captures = [capture for lane in service._lanes.values()
                    for capture in lane.tuner.captures.values()]
        assert len(captures) == 6
        for capture in captures:
            assert capture.full_captures == 1 + capture.rebinds <= 2
            assert capture.full_fallbacks == capture.slab_misses == 0
        assert any(c.rebinds for c in captures) or not growing
        resident = service.gauges()["plan_resident_bytes"]
        assert resident == captures[0].gauges()["plan_resident_bytes"]
        assert resident <= 1.1 * max(c.plan_bytes() for c in captures), resident
        # The backward tapes are pool memory too, shared like the rest.
        tapes = service.gauges()["backward_bytes"]
        assert max(c.backward_bytes() for c in captures) <= tapes <= resident
        for kind, batches in fed.items():
            model, _ = get_peft_method(kind)(build_model(MODEL, seed=0))
            plain = FineTuner(model, TrainingConfig())
            for batch in batches:
                plain.step(batch)
            trained = service.fetch_adapter(kind).state
            for name, param in model.named_parameters():
                if param.requires_grad:
                    assert np.array_equal(trained[name], param.data), (kind, name)

    def test_padding_routes_to_bucket(self):
        service = make_service()
        rng = np.random.default_rng(6)
        ragged = rng.integers(0, 100, size=(2, SEQ - 3))
        exact = rng.integers(0, 100, size=(2, SEQ))
        key_ragged = service.bucket_key("lora", *service.pad_to_bucket(ragged))
        key_exact = service.bucket_key("lora", *service.pad_to_bucket(exact))
        assert key_ragged == key_exact
        with pytest.raises(ValueError):
            service.pad_to_bucket(rng.integers(0, 100, size=(2, 5 * SEQ)))

    def test_bucket_key_is_the_adapter_and_step_signature(self):
        service = make_service()
        ids = np.random.default_rng(7).integers(0, 100, size=(2, SEQ))
        tuner = service._lane("lora").tuner
        assert service.bucket_key("lora", ids) == ("lora", tuner.step_signature(ids, None))

    def test_max_wait_deadline_prevents_starvation(self):
        queue = SignatureBucketQueue(max_wait_steps=3)
        hot, cold = ("hot",), ("cold",)
        queue.submit(cold, StepRequest(request_id=0, tenant="c", adapter="lora",
                                       input_ids=np.zeros(1), submit_step=0))
        for i in range(1, 10):
            queue.submit(hot, StepRequest(request_id=i, tenant="h",
                                          adapter="lora",
                                          input_ids=np.zeros(1),
                                          submit_step=i))
        # Serving from the hot bucket: once the cold head has waited
        # max_wait_steps service steps, it preempts the hot run.
        served = []
        current, now = hot, 1
        while queue:
            key = queue.select(current, now)
            served.append(queue.pop(key).tenant)
            current, now = key, now + 1
        assert "c" in served[:4], served  # bounded, not starved to the end

    def test_plan_cache_eviction_recaptures_cleanly(self):
        # One bucket more than a tuner keeps captures for, visited round-robin
        # twice: every step evicts the least recently used bucket's capture,
        # so each step re-captures — and still trains the bits a plain tuner
        # trains on the same batches.
        lengths = [8 * (i + 1) for i in range(MAX_CAPTURES + 1)]
        service = make_service(seq_buckets=lengths)
        rng = np.random.default_rng(9)
        batches = [rng.integers(0, 100, size=(2, seq))
                   for _ in range(2) for seq in lengths]
        results = []
        for batch in batches:
            service.submit("t", batch)
            results.extend(service.flush())
        assert not any(r.replayed for r in results)
        gauges = service.gauges()
        assert gauges["serve_steps"] == len(batches)
        assert gauges["plan_caches"] == MAX_CAPTURES
        model, _ = get_peft_method("lora")(build_model(MODEL, seed=0))
        plain = FineTuner(model, TrainingConfig())
        for batch in batches:
            plain.step(batch)
        trained = service.fetch_adapter("t").state
        for name, param in model.named_parameters():
            if param.requires_grad:
                assert np.array_equal(trained[name], param.data), name


class TestServiceSurface:
    def test_public_facade_exports(self):
        import repro
        for name in ("create_model", "build_model", "apply_lora",
                     "get_peft_method", "FineTuner", "TrainingConfig",
                     "CaptureConfig", "AttentionConfig",
                     "train_data_parallel", "FineTuningService",
                     "ServiceConfig"):
            assert name in repro.__all__ and hasattr(repro, name), name
        assert repro.create_model is repro.build_model

    def test_lane_optimizer_is_plain_adam_at_the_configured_rate(self):
        from repro.optim import Adam
        with pytest.raises(TypeError):
            ServiceConfig(weight_decay=0.01)
        service = make_service(learning_rate=2e-3)
        lane = service._lanes["lora"]
        assert type(lane.optimizer) is Adam
        assert lane.optimizer.lr == 2e-3
        assert lane.tuner.optimizer is lane.optimizer

    def test_unknown_adapter_and_tenant_raise(self):
        service = make_service()
        with pytest.raises(KeyError):
            service.submit("t", np.zeros((1, SEQ), dtype=np.int64),
                           adapter="nope")
        with pytest.raises(KeyError):
            service.fetch_adapter("ghost")

    def test_idle_step_returns_none(self):
        service = make_service()
        assert service.step() is None
        assert service.flush() == []
