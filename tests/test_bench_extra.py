"""Structure of ``benchmarks/bench_extra.py`` at ``--quick`` (``-m perf_smoke``).

Runs the whole module once, the way its command line does, and checks what
makes its two sections meaningful, not their timings: the long-context sweep
measured every kernel at every length, and the faulted data-parallel run
restarted exactly one rank and landed bitwise on the uninterrupted run's
digest and losses, with the CRC tax measured and the checkpoint slab
round-tripping bit-exact.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_extra  # noqa: E402

pytestmark = pytest.mark.perf_smoke


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-extra") / "extra.json"
    bench_extra.main(["--quick", "--json", str(path)])
    return json.loads(path.read_text())


def test_bench_extra_quick_structure(report):
    assert report["meta"]["quick"] is True
    assert report["meta"]["cpu_count"] >= 1
    for key in ("numpy", "blas"):
        assert report["meta"][key]
    assert all(report["checks"].values()), report["checks"]
    assert report["ops_failed"] == 0
    assert report["leaked_processes"] == 0


def test_bench_long_context_structure(report):
    # Miniature lengths keep this structural (64 fits one streaming tile, so
    # peak_ratio ~ 1 is expected there); the real wall figures come from the
    # full sweep and the seq-4096 gate in test_step_capture.
    result = report["long_context"]
    assert result["tile"] > 0
    assert set(result["lengths"]) == {"64", "128"}
    for row in result["lengths"].values():
        for key in ("materializing_ms_per_token", "streaming_ms_per_token",
                    "block_sparse_streaming_ms_per_token",
                    "materializing_peak_bytes", "streaming_peak_bytes",
                    "block_sparse_streaming_peak_bytes", "peak_ratio"):
            assert row[key] > 0, key
    assert result["wall_seq"] == 128.0


def test_bench_fault_structure(report):
    # One injected rank crash must recover bitwise (digest and losses equal
    # to the uninterrupted run) with exactly one restart, the CRC32 tax must
    # be measured, and the durable store must round-trip its slab bit-exact.
    # No ratio bar: single-core runners make us-scale wall-clock ratios flaky.
    result = report["fault"]
    recovery = result["recovery"]
    assert recovery["worker_restarts"] == 1
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
