"""What the e2e benchmark leaves out: the long-context memory wall and the price of recovery.

``benchmarks/e2e/run.py`` measures the fine-tune step end to end and layer by
layer at seq 1024 on one process.  Two measurements fall outside its
workloads on purpose and live here:

* ``long_context`` — a one-layer LoRA step at seq 512..4096, one row tile
  over the whole sequence (the materializing shape) against row tiles of
  128, plus block-sparse attention on a local+global layout: ms/token and
  the tracemalloc step peak (the O(seq^2) memory wall);
* ``fault`` — one injected rank crash under the two-worker data-parallel
  trainer, recovered bitwise; the CRC32 tax on the all-reduce; and the
  durable checkpoint store's write/read MB/s.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_extra.py --json BENCH_extra.json

``--quick`` runs both sections at miniature shapes with single repeats and a
4 s crash-detection timeout: a structural check in seconds whose timings mean
nothing.  The report records the host (``cpu_count``, NumPy, BLAS), the
output checks, ``ops_failed`` (checks that failed) and ``leaked_processes``
(worker processes alive after the run); the exit status is non-zero unless
every check passed and nothing leaked.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import time
import tracemalloc
from typing import Callable, Dict

import numpy as np

from repro.models import ModelConfig, build_model
from repro.peft import apply_lora
from repro.runtime import (AttentionConfig, CaptureConfig, DataParallelTrainer,
                           FaultInjector, FaultRule, FineTuner, TrainingConfig)
from repro.runtime.comms import STAT_NAMES
from repro.serve import TenantStateStore
from repro.sparsity.ops import block_sparse_attention, compute_block_geometry
from repro.sparsity.ops.layout import layout_from_block_masks
from repro.sparsity.patterns import block_count, pattern_mask
from repro.tensor import Tensor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))

from e2ebench.probes import host_facts  # noqa: E402

LONG_CONTEXT_LENGTHS = (512, 1024, 2048, 4096)
LONG_CONTEXT_TILE = 128
LONG_CONTEXT_BATCH = 1
BLOCK_SIZE = 32
# One pattern per head of the nano model: the sparse engine's long-context
# shape, a local window plus a few global (attention-sink) columns.
LAYOUT_PATTERNS = ("local4+global2", "local2+global1")
FAULT_MODEL = "gpt2-tiny"


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _traced_peak(fn: Callable[[], None]) -> float:
    """Heap peak of one call under tracemalloc, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return float(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def bench_long_context(lengths=LONG_CONTEXT_LENGTHS, repeats: int = 2) -> Dict:
    """Long-context LoRA step: ms/token and the O(seq^2) memory wall.

    For each sequence length a one-layer nano model (dim 32, two heads: at
    these lengths the attention buffers dwarf weights and activations) takes
    LoRA steps through the one tiled attention kernel twice: ``materializing``
    is one row tile ``seq`` rows high, whose ``(batch, heads, seq, seq)``
    score and dS scratch is the materializing footprint, and ``streaming``
    is row tiles of 128 (both recompute probabilities from the logsumexp in
    the backward).
    ``block_sparse_streaming`` is forward+backward of block-sparse attention
    alone on a local+global layout.  Wall clock is the best of ``repeats``
    untraced calls after a warm-up; the heap peak is one more call under
    tracemalloc, which slows NumPy dispatch.  ``peak_ratio`` (materializing
    over streaming) grows with ``seq`` and sits near 1 while
    ``seq <= 128``, where one row tile is the materializing shape.
    """
    batch, tile, heads = LONG_CONTEXT_BATCH, LONG_CONTEXT_TILE, len(LAYOUT_PATTERNS)
    results: Dict = {"tile": float(tile), "lengths": {}}
    for seq in lengths:
        cfg = ModelConfig(name=f"longctx-nano-{seq}", family="gpt2",
                          vocab_size=128, max_seq_len=seq, dim=32,
                          num_layers=1, num_heads=heads,
                          activation="gelu", sparsify_init=False)
        ids = np.random.default_rng(11).integers(0, cfg.vocab_size,
                                                 size=(batch, seq))
        entry: Dict = {}
        for label, row_tile in (("materializing", seq), ("streaming", tile)):
            model = build_model(cfg, seed=0)
            apply_lora(model)
            tuner = FineTuner(model, TrainingConfig(attention=AttentionConfig(
                streaming_tile=row_tile)))
            tuner.step(ids)                                     # warm-up
            step_s = _best_of(lambda: tuner.step(ids), repeats)
            entry[f"{label}_ms_per_token"] = step_s * 1000.0 / (batch * seq)
            entry[f"{label}_peak_bytes"] = _traced_peak(lambda: tuner.step(ids))

        n_blocks = block_count(seq, BLOCK_SIZE)
        layout = layout_from_block_masks(
            np.stack([pattern_mask(name, n_blocks) for name in LAYOUT_PATTERNS]),
            BLOCK_SIZE)
        rng = np.random.default_rng(7)
        q, k, v = [rng.normal(size=(batch, heads, seq, 16)).astype(np.float32)
                   for _ in range(3)]
        geometry = compute_block_geometry(layout, seq)

        def once(q=q, k=k, v=v, layout=layout, geometry=geometry):
            qt, kt, vt = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = block_sparse_attention(qt, kt, vt, layout, geometry=geometry)
            out.backward(np.ones_like(out.data))

        once()                                                  # warm-up
        kernel_s = _best_of(once, repeats)
        entry["block_sparse_streaming_ms_per_token"] = (
            kernel_s * 1000.0 / (batch * seq))
        entry["block_sparse_streaming_peak_bytes"] = _traced_peak(once)
        entry["peak_ratio"] = (entry["materializing_peak_bytes"]
                               / entry["streaming_peak_bytes"])
        results["lengths"][str(seq)] = entry
    results["wall_seq"] = float(max(lengths))
    results["wall_peak_ratio"] = results["lengths"][str(max(lengths))]["peak_ratio"]
    return results


def _lora_tuner() -> FineTuner:
    """Module-level tuner factory, so worker processes can be handed it."""
    model = build_model(FAULT_MODEL, seed=0)
    apply_lora(model)
    return FineTuner(model, TrainingConfig(capture=CaptureConfig(enabled=True)))


def bench_fault(quick: bool = False) -> Dict:
    """Fault-tolerance cost: recovery wall time, CRC tax, checkpoint MB/s.

    This section prices the machinery the ``fault`` test tier holds correct:

    * ``recovery`` — a two-worker run with one injected rank crash
      (``worker_crash_before_barrier`` on rank 1's second step): one
      restart, the wall time of the quiesce -> respawn -> restore -> replay
      cycle, and whether the final parameter digest and the losses match an
      uninterrupted run bit for bit.  The step timeout is the crash-detection
      latency (the survivor learns of the death when the barrier times out),
      so it bounds the faulted run's wall time; ``recovery_wall_s`` counts
      only the cycle after detection.
    * ``checksum`` — the CRC32 tax, from the clean run's per-step worker
      stats summed over ranks (summing cancels the barrier-wait asymmetry:
      one rank's wait is the other's work).  Checksumming is deterministic
      work, so its minimum over steps is the steady-state cost and any
      larger sample caught a preemption; comm is wait-dominated, so its
      median is the denominator.
    * ``checkpoint`` — :class:`repro.serve.TenantStateStore` save/load of
      one tenant slab (params + m + v) through the atomic write path, best
      of N over a temporary directory.
    """
    # The clean run keeps its real shapes in quick mode too: the checksum
    # ratio needs a comm phase big enough to measure against.
    steps = 6 if quick else 8
    batch, seq = 4, 64
    rng = np.random.default_rng(0)
    data = [rng.integers(0, 64, size=(batch, seq)).astype(np.int64)
            for _ in range(steps)]

    chk_idx = STAT_NAMES.index("checksum_s")
    comm_idx = STAT_NAMES.index("comm_s")
    checksum_steps, comm_steps, clean_losses = [], [], []
    with DataParallelTrainer(_lora_tuner, workers=2, step_timeout_s=300.0) as trainer:
        for ids in data:
            loss, _ = trainer.step(ids)
            clean_losses.append(loss)
            # Each step overwrites the stats slots with that step's values.
            stats = trainer._last_stats
            checksum_steps.append(float(stats[:, chk_idx].sum()))
            comm_steps.append(float(stats[:, comm_idx].sum()))
        clean_failures = trainer.profiler.gauges()["comm_checksum_failures"]
        _, clean_digest = trainer.fetch_params()
    checksum_ms = min(checksum_steps) * 1000.0
    comm_ms = float(np.median(comm_steps)) * 1000.0

    injector = FaultInjector(rules=[FaultRule(
        site="worker_crash_before_barrier", rank=1, occurrence=2)])
    start = time.perf_counter()
    with DataParallelTrainer(_lora_tuner, workers=2,
                             step_timeout_s=4.0 if quick else 15.0,
                             fault_injector=injector) as trainer:
        faulted = trainer.train(data)
    faulted_wall_s = time.perf_counter() - start
    recovery_wall_s = (faulted.recovery_events[0]["wall_s"]
                       if faulted.recovery_events else 0.0)

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
        "model": FAULT_MODEL,
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


def _checks(report: Dict) -> Dict[str, bool]:
    """The output checks: what makes the section's numbers mean anything."""
    recovery = report["fault"]["recovery"]
    return {
        "streaming_peak_positive": all(
            row["streaming_peak_bytes"] > 0
            for row in report["long_context"]["lengths"].values()),
        "one_worker_restart": recovery["worker_restarts"] == 1.0,
        "recovered_digest_match": recovery["digest_match"],
        "recovered_losses_match": recovery["losses_match"],
        "no_checksum_failures": report["fault"]["checksum"]["checksum_failures"] == 0,
        "checkpoint_roundtrip_bitwise": report["fault"]["checkpoint"]["roundtrip_bitwise"],
    }


def run(quick: bool = False) -> Dict:
    report = {
        "meta": dict(host_facts(), quick=quick),
        "long_context": bench_long_context(
            lengths=(64, 128) if quick else LONG_CONTEXT_LENGTHS,
            repeats=1 if quick else 2),
        "fault": bench_fault(quick=quick),
    }
    report["checks"] = _checks(report)
    report["ops_failed"] = sum(not ok for ok in report["checks"].values())
    report["leaked_processes"] = len(multiprocessing.active_children())
    return report


def _print_report(report: Dict) -> None:
    long_ctx = report["long_context"]
    print(f"long-context LoRA step (1-layer nano, tile {int(long_ctx['tile'])}; "
          f"peak = tracemalloc bytes):")
    for seq, row in long_ctx["lengths"].items():
        print(f"  seq {seq:>5}: "
              f"mat {row['materializing_ms_per_token']:6.3f} ms/tok "
              f"{row['materializing_peak_bytes'] / 1e6:8.1f} MB | "
              f"stream {row['streaming_ms_per_token']:6.3f} ms/tok "
              f"{row['streaming_peak_bytes'] / 1e6:8.1f} MB | "
              f"peak ratio {row['peak_ratio']:5.1f}x | "
              f"block-sparse {row['block_sparse_streaming_ms_per_token']:6.3f} ms/tok "
              f"{row['block_sparse_streaming_peak_bytes'] / 1e6:6.1f} MB")
    fault = report["fault"]
    recovery, checksum, ckpt = fault["recovery"], fault["checksum"], fault["checkpoint"]
    print(f"fault tolerance ({fault['model']}, 2 workers):")
    print(f"  recovery   {recovery['recovery_wall_s'] * 1e3:8.1f} ms for "
          f"{int(recovery['worker_restarts'])} rank restart")
    print(f"  checksum   {checksum['checksum_ms_per_step']:8.3f} ms/step vs "
          f"comm {checksum['comm_ms_per_step']:8.1f} ms/step "
          f"({checksum['checksum_overhead_pct']:.2f}% overhead)")
    print(f"  checkpoint {ckpt['slab_mb']:6.1f} MB slab: "
          f"write {ckpt['write_mb_per_s']:7.1f} MB/s  "
          f"read {ckpt['read_mb_per_s']:7.1f} MB/s")
    for check, passed in report["checks"].items():
        print(f"  check {check:<32} {'ok' if passed else 'FAILED'}")
    print(f"ops_failed {report['ops_failed']}   "
          f"leaked_processes {report['leaked_processes']}")


def main(argv=None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="miniature shapes, single repeats, 4 s crash "
                             "detection: a structural check in seconds")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report here (e.g. BENCH_extra.json)")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    _print_report(report)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return report


if __name__ == "__main__":
    outcome = main()
    sys.exit(0 if outcome["ops_failed"] == 0 and not outcome["leaked_processes"] else 1)
