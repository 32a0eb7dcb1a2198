"""Fast smoke coverage of the perf-regression harness (``-m perf_smoke``).

These tests exercise the same code paths as
``benchmarks/bench_perf_regression.py`` — the fused/reference kernel switch
on a full model, the geometry-cache on/off sparse step and each section's
result — at miniature scale so the tier-1 suite always runs them in a couple
of seconds.  They verify *behaviour* (both modes agree numerically, each
section has the expected structure); the whole ``main()`` and its JSON report
run in CI's ``bench-quick`` job, and the real speedup numbers come from
running the benchmark script itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.models import build_model
from repro.optim import Adam
from repro.tensor import fused

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_perf_regression as bench  # noqa: E402

pytestmark = pytest.mark.perf_smoke


def _one_step_grads(model_name: str, seed: int = 0):
    """Loss value and a couple of parameter gradients after one step."""
    model = build_model(model_name, seed=seed)
    ids = np.random.default_rng(5).integers(0, model.config.vocab_size,
                                            size=(2, 32))
    loss, _ = model.loss(ids)
    loss.backward()
    params = model.trainable_parameters()
    return float(loss.data), [p.grad.copy() for p in params[:4]]


@pytest.mark.parametrize("model_name", ["gpt2-tiny", "opt-tiny"])
def test_fused_and_reference_modes_agree_end_to_end(model_name):
    loss_fused, grads_fused = _one_step_grads(model_name)
    with fused.reference_kernels():
        loss_ref, grads_ref = _one_step_grads(model_name)
    np.testing.assert_allclose(loss_fused, loss_ref, rtol=2e-4)
    for gf, gr in zip(grads_fused, grads_ref):
        np.testing.assert_allclose(gf, gr, rtol=5e-3, atol=1e-5)
    assert fused.fused_kernels_enabled()  # switch restored


def test_fused_training_step_reduces_loss():
    model = build_model("gpt2-tiny", seed=0)
    ids = np.random.default_rng(9).integers(0, model.config.vocab_size,
                                            size=(2, 32))
    optimizer = Adam(model.trainable_parameters(), lr=5e-3)
    first = None
    for _ in range(5):
        loss, _ = model.loss(ids)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        model.zero_grad()
        first = first if first is not None else float(loss.data)
    assert float(loss.data) < first


def test_bench_dense_step_structure():
    result = bench.bench_dense_step(repeats=1, batch=1, seq=32,
                                    model_name="gpt2-tiny")
    assert result["fused_s"] > 0 and result["reference_s"] > 0
    assert result["speedup"] == pytest.approx(
        result["reference_s"] / result["fused_s"])
    assert fused.fused_kernels_enabled()


def test_bench_sparse_step_structure():
    result = bench.bench_sparse_step(repeats=1, batch=1, seq=64,
                                     model_name="opt-tiny")
    for key in ("cached_s", "uncached_s", "pre_pr_full_s"):
        assert result[key] > 0
    for key in ("speedup", "pre_pr_speedup"):
        assert key in result
    # The cached-vs-uncached diagnosis rides along: the measured per-step
    # geometry recompute share must be reported (it is what bounds how much
    # end-to-end speedup the cache can possibly show).
    assert result["geometry_s_per_step"] > 0
    assert 0.0 < result["geometry_fraction"] < 1.0
    # The baseline swaps must have been undone afterwards.
    import repro.tensor.tensor as tensor_module
    assert tensor_module.scatter_add_rows is not bench._pre_pr_scatter_add_rows


def test_bench_sparse_chain_structure():
    result = bench.bench_sparse_chain(repeats=1, batch=1, seq=32, heads=2,
                                      dim=8, block_size=16)
    assert result["fused_s"] > 0 and result["reference_s"] > 0
    assert result["layout_nnz"] > 0
    assert result["speedup"] == pytest.approx(
        result["reference_s"] / result["fused_s"])


def test_bench_crossover_structure():
    result = bench.bench_crossover(repeats=1, batch=1, seq=64, heads=2,
                                   dim=8, block_size=16)
    assert result["dense_s"] > 0 and result["sparse_s"] > 0
    assert 0.0 < result["layout_sparsity"] < 1.0
    assert result["sparse_vs_dense"] == pytest.approx(
        result["dense_s"] / result["sparse_s"])


def test_bench_predicted_step_structure():
    result = bench.bench_predicted_step(repeats=1, batch=1, seq=64,
                                        model_name="opt-tiny", interval=2,
                                        predictor_epochs=1, drift_windows=1)
    for key in ("oracle_s", "oracle_intervalK_s", "interval1_s", "intervalK_s"):
        assert result[key] > 0
    assert result["interval"] == 2.0
    assert result["speedup_vs_oracle"] == pytest.approx(
        result["oracle_s"] / result["interval1_s"])
    assert result["interval_speedup"] == pytest.approx(
        result["interval1_s"] / result["intervalK_s"])
    assert result["oracle_interval_speedup"] == pytest.approx(
        result["oracle_s"] / result["oracle_intervalK_s"])
    # Reuse happened during the scheduled windows and drift was measured.
    assert 0.0 < result["attention_reuse_rate"] < 1.0
    assert result["attention_mask_drift"] >= 0.0
    assert result["mlp_block_drift"] >= 0.0
    assert 0.0 < result["prediction_fraction"] < 1.0
    # Per-schedule prediction overhead is measured and the reduction field is
    # consistent (the actual >1 reduction claim belongs to the benchmark run,
    # not this structure test — single-window timings can flake under load).
    assert result["interval1_prediction_s"] > 0
    assert result["intervalK_prediction_s"] > 0
    assert result["prediction_overhead_reduction"] == pytest.approx(
        result["interval1_prediction_s"] / result["intervalK_prediction_s"])


def test_bench_step_capture_structure():
    result = bench.bench_step_capture(repeats=1, batch=1, seq=32,
                                      predicted_seq=64, predictor_epochs=1,
                                      interval=2, dense_model="gpt2-tiny",
                                      sparse_model="opt-tiny")
    for mode in ("dense", "oracle", "predicted"):
        row = result[mode]
        assert row["uncaptured_s"] > 0 and row["captured_s"] > 0
        assert row["speedup"] == pytest.approx(
            row["uncaptured_s"] / row["captured_s"])
        # Fixed-batch windows: the captured steady state must be allocation-free
        # and actually replayed (no silent fallback to the uncaptured path).
        assert row["captured_allocs_per_step"] == 0.0
        assert row["replay_steps"] >= 1.0
        assert row["fallbacks"] == 0.0
        assert row["arena_mb"] > 0.0
    # The PR-4-form rollback baseline rides along on the predicted config
    # (and the monkeypatched ops must have been restored afterwards).
    predicted = result["predicted"]
    assert predicted["pre_pr_s"] > 0
    assert predicted["pre_pr_speedup"] == pytest.approx(
        predicted["pre_pr_s"] / predicted["captured_s"])
    from repro.tensor import fused as fused_module
    assert fused_module.linear is not bench.pre_pr_linear
    assert fused_module.layer_norm is not bench.pre_pr_layer_norm
    import repro.sparsity.engine as engine_module
    assert (engine_module.neuron_sparse_linear_pair
            is not bench.pre_pr_neuron_sparse_linear_pair)
    recap = result["recapture"]
    assert recap["recaptures"] == 1.0
    assert recap["post_change_allocs_per_step"] == 0.0
    assert recap["state_replay"] == 1.0
    # Capture state must not leak out of the benchmark.
    from repro.tensor import arena as tensor_arena
    from repro.tensor.tensor import current_tape
    assert tensor_arena.active() is None and current_tape() is None


def test_bench_prediction_overhead_structure():
    result = bench.bench_prediction_overhead(repeats=2, batch=1, seq=64,
                                             dim=32, heads=2, rank=4,
                                             block_size=16, reduce_seq=128,
                                             reduce_batch=1)
    assert set(result) == {"probe", "block_reduce", "match_many"}
    probe = result["probe"]
    assert probe["optimised_s"] > 0 and probe["pre_pr_s"] > 0
    assert probe["speedup"] == pytest.approx(
        probe["pre_pr_s"] / probe["optimised_s"])
    reduce = result["block_reduce"]
    assert reduce["seq"] == 128.0
    assert reduce["two_stage_s"] > 0 and reduce["reshape_sum_s"] > 0
    matcher = result["match_many"]
    assert matcher["vectorised_s"] > 0 and matcher["loop_s"] > 0


def test_bench_optimizer_step_structure():
    result = bench.bench_optimizer_step(repeats=2, n_params=8, param_shape=(32,))
    assert result["flat_s"] > 0 and result["loop_s"] > 0
    assert result["n_elements"] == 8 * 32
    assert result["speedup"] == pytest.approx(result["loop_s"] / result["flat_s"])


def test_bench_optimizer_regimes_structure():
    import repro.optim.adam as adam_module

    saved = adam_module.FLAT_MEAN_SIZE_THRESHOLD
    result = bench.bench_optimizer_regimes(repeats=1, sizes=(64, 256),
                                           total_elements=4096)
    # The forced-path sweep must restore the routing constant.
    assert adam_module.FLAT_MEAN_SIZE_THRESHOLD == saved
    assert result["threshold_elements"] == saved
    assert len(result["regimes"]) == 2
    for row in result["regimes"]:
        assert row["flat_s"] > 0 and row["loop_s"] > 0
        assert row["flat_speedup"] == pytest.approx(
            row["loop_s"] / row["flat_s"])
    assert isinstance(result["threshold_validated"], bool)


def test_bench_predicted_quality_structure():
    result = bench.bench_predicted_quality(batch=1, seq=64,
                                           model_name="opt-tiny",
                                           predictor_epochs=1,
                                           lengths=(32, 64), eval_batches=1)
    assert result["lengths"] == [32.0, 64.0]
    for length in ("32", "64"):
        row = result["per_length"][length]
        for key in ("oracle_sparsity", "calibrated_sparsity",
                    "uncalibrated_sparsity", "oracle_recall"):
            assert 0.0 <= row[key] <= 1.0
        assert row["calibrated_gap"] == pytest.approx(
            abs(row["oracle_sparsity"] - row["calibrated_sparsity"]))
    assert result["gap"] == result["per_length"]["64"]["calibrated_gap"]
    assert result["gap_reduction"] > 0


def test_bench_embedding_scatter_structure():
    result = bench.bench_embedding_scatter(repeats=2, vocab=512, dim=8,
                                           n_tokens=256)
    assert result["add_at_s"] > 0 and result["scatter_s"] > 0
    assert result["speedup"] == pytest.approx(
        result["add_at_s"] / result["scatter_s"])


def test_bench_geometry_lookup_beats_compute():
    result = bench.bench_geometry(repeats=5, seq=128, block_size=16)
    assert result["layout_nnz"] > 0
    # The memoized lookup must be strictly cheaper than recomputation; the
    # real margin (measured at ~1000x at seq 512) is reported by the script.
    assert result["lookup_s"] < result["compute_s"]


def test_bench_long_context_structure():
    # Miniature lengths keep this structural (64 fits one streaming tile, so
    # peak_ratio ~ 1 is expected there); the real wall figures come from the
    # full sweep and the seq-4096 gate in test_step_capture.
    result = bench.bench_long_context(lengths=(64, 128), repeats=1)
    assert result["tile"] > 0
    assert set(result["lengths"]) == {"64", "128"}
    for row in result["lengths"].values():
        for key in ("materializing_ms_per_token", "streaming_ms_per_token",
                    "block_sparse_streaming_ms_per_token",
                    "materializing_peak_bytes", "streaming_peak_bytes",
                    "block_sparse_streaming_peak_bytes", "peak_ratio"):
            assert row[key] > 0, key
    assert result["wall_seq"] == 128.0


def test_bench_scaling_structure():
    # Tiny shapes keep this structural; on a single-core CI worker ranks
    # time-slice one CPU, so no speedup is asserted — the section records
    # cpu_count and the single_core flag instead and the backend contract
    # (all worker counts complete, digests agree cross-rank, comm time is
    # broken out) is what this locks.
    result = bench.bench_scaling(worker_counts=(1, 2), steps=3, seq=32)
    assert result["cpu_count"] >= 1
    assert isinstance(result["single_core"], bool)
    assert set(result["workers"]) == {"1", "2"}
    for row in result["workers"].values():
        assert row["steps_per_s"] > 0
        assert row["comm_ms_per_step"] >= 0
        assert len(row["param_digest"]) == 64
    # Two ranks must pay a real (nonzero) gradient exchange.
    assert result["workers"]["2"]["comm_ms_per_step"] > 0


def test_bench_serve_structure():
    # Miniature Zipf traffic run; locks the serving contract the acceptance
    # criteria name — warm capture-hit rate >= 0.9 and the isolation
    # self-checks — not the throughput numbers.
    result = bench.bench_serve(quick=True)
    assert result["requests"] == 16
    assert result["steps_per_s"] > 0
    assert result["p99_latency_ms"] >= result["p50_latency_ms"] > 0
    assert result["warm_capture_hit_rate"] >= 0.9
    assert result["tenant_evictions"] > 0  # resident cap below tenant count
    assert result["base_digest_stable"] == 1.0
    assert result["distinct_tenant_digests"] == 1.0


def test_bench_fault_structure():
    # Structural: one injected rank crash must recover bitwise (digest and
    # losses equal to the uninterrupted run) with exactly one restart, the
    # CRC32 tax must be measured, and the durable store must round-trip its
    # slab bit-exact.  No tight ratio bar here or in CI — single-core
    # runners make μs-scale wall-clock ratios flaky; the 1–2% figure is
    # the quiet-hardware full-bench number (see README) — this locks the
    # shape and the invariants that make the numbers meaningful.
    result = bench.bench_fault(quick=True)
    recovery = result["recovery"]
    assert recovery["worker_restarts"] == 1.0
    assert recovery["recovery_wall_s"] > 0
    assert recovery["digest_match"] is True
    assert recovery["losses_match"] is True
    checksum = result["checksum"]
    assert checksum["checksum_ms_per_step"] >= 0
    assert checksum["comm_ms_per_step"] > 0
    assert checksum["checksum_overhead_pct"] >= 0
    assert checksum["checksum_failures"] == 0.0
    ckpt = result["checkpoint"]
    assert ckpt["write_mb_per_s"] > 0
    assert ckpt["read_mb_per_s"] > 0
    assert ckpt["roundtrip_bitwise"] is True

