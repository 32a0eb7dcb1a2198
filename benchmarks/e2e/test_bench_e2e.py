"""Self-tests of the end-to-end benchmark (collected by tier-1).

They check the benchmark's own plumbing -- the BENCHMARK.json contract, the
seeded generators, the guarded percentile, the comparison rule, the
no-process-left-behind discipline -- on ``--smoke`` shapes, not performance.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from e2ebench import probes, stats, workloads  # noqa: E402
from e2ebench.tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*argv, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke --traced`` run of all four workloads, shared by the tests."""
    out = tmp_path_factory.mktemp("e2e")
    summary_path = out / "summary.json"
    done = _run("--smoke", "--traced", "--json", str(summary_path), "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(summary_path) as handle:
        return json.load(handle)


def test_benchmark_json_meets_the_contract(benchmark_json):
    assert set(benchmark_json) == {"command", "paths", "run_seconds", "workloads",
                                   "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert benchmark_json["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(benchmark_json["run_seconds"], int)
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    names = []
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s").items()
    assert set(workloads.WORKLOADS) == {w["name"] for w in benchmark_json["workloads"]}


def test_smoke_emits_exactly_the_declared_names(smoke, benchmark_json):
    declared_workloads = [w["name"] for w in benchmark_json["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    (run,) = smoke["runs"]
    assert list(run["workloads"]) == declared_workloads
    for report in run["workloads"].values():
        assert {k: v["unit"] for k, v in report["end_to_end"].items()} == end_to_end
        assert {k: v["unit"] for k, v in report["per_layer"].items()} == per_layer
        assert all(v["value"] > 0 for v in report["end_to_end"].values())


def test_smoke_passes_its_checks_and_leaves_no_process(smoke):
    assert smoke["leaked_processes"] == 0
    assert smoke["ops_failed"] == 0
    assert smoke["claim"] is None
    assert smoke["meta"]["cpu_count"] >= 1 and smoke["meta"]["sgemm_gflops"] > 0
    for name, report in smoke["runs"][0]["workloads"].items():
        assert report["checks"] and all(report["checks"].values()), (name, report["checks"])
        assert report["ops_attempted"] >= 1
        assert report["probes_missing"] == [], name
        with open(report["trace_file"]) as handle:
            events = json.load(handle)["traceEvents"]
        assert events and {"name", "ts", "dur", "args"} <= set(events[0])
        assert {"id", "parent", "run"} <= set(events[0]["args"])
    sparse = smoke["runs"][0]["workloads"]["sparse_s1024"]
    assert sparse["per_layer"]["engine.prepare_s"]["value"] > 0
    assert re.fullmatch(r"[0-9a-f]{64}", sparse["loss_digest"])
    # No stray children: nothing else belongs to this test process.
    me = str(os.getpid())
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, parent = handle.read().rpartition(")")[2].split()[:2]
        except OSError:
            continue
        assert not (parent == me and state != "Z"), f"child {entry} still running"


def test_contract_line_for_one_workload(benchmark_json):
    done = _run("--smoke", "--workload", "serve_zipf", "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in benchmark_json["end_to_end"]}
    assert all(isinstance(m["value"], float) and m["value"] > 0
               for m in line["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "dense_s1024",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_generators_are_deterministic_per_seed():
    spec = workloads.WORKLOADS["sparse_s1024"].smoke()
    first, again, other = (workloads.training_inputs(spec, seed) for seed in (0, 0, 1))
    assert len(first["batches"]) == spec.pool and len(first["calibration"]) == 1
    for key in ("batches", "calibration"):
        assert all(np.array_equal(a, b) for a, b in zip(first[key], again[key]))
        assert any(not np.array_equal(a, b) for a, b in zip(first[key], other[key]))

    serve = workloads.WORKLOADS["serve_zipf"]
    a, b, c = (workloads.ServeTraffic(serve, seed) for seed in (0, 0, 1))
    for index in (0, 17, 5000):
        tenant, ids, adapter = a.request(index)
        tenant_b, ids_b, adapter_b = b.request(index)
        assert (tenant, adapter) == (tenant_b, adapter_b) and np.array_equal(ids, ids_b)
        assert serve.min_len <= ids.shape[1] <= serve.max_len and ids.shape[0] == serve.batch
    assert np.array_equal(a.arrivals(100, 2.0), b.arrivals(100, 2.0))
    assert not np.array_equal(a.tenant, c.tenant)
    assert not np.array_equal(a.arrivals(100, 2.0), c.arrivals(100, 2.0))
    assert not np.array_equal(a.arrivals(100, 2.0), a.arrivals(60, 2.0)[:200])


def test_percentile_refuses_a_thin_tail():
    thousand = list(range(1000))
    assert stats.percentile(thousand, 99) == pytest.approx(989.01)
    assert stats.percentile(thousand, 50) == stats.median(thousand)
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    assert stats.tail(list(range(200)), 99) is None
    assert stats.tail(list(range(200)), 95) == pytest.approx(189.05)
    assert stats.percentile([4.0], 50) == 4.0


def _summary(values_by_metric):
    return {"runs": [{"workloads": {"w": {"end_to_end": {
        name: {"value": values[i], "unit": "u"} for name, values in values_by_metric.items()}}}}
        for i in range(len(next(iter(values_by_metric.values()))))]}


def test_compare_verdicts(tmp_path):
    declared = [{"name": "ms", "unit": "ms", "better": "lower", "bound": 0.10},
                {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
                {"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.10}]
    a = _summary({"ms": [100, 101, 102], "rate": [50, 50, 51], "noisy": [100, 150, 200]})
    b = _summary({"ms": [104, 105, 106], "rate": [40, 41, 40], "noisy": [100, 150, 200]})
    rows = {row["metric"]: row for row in stats.compare_run_sets(a, b, declared)}
    assert rows["ms"]["verdict"] == "within"
    assert rows["ms"]["change"] == pytest.approx(4 / 101)
    assert rows["rate"]["verdict"] == "worse"       # a lower rate is worse
    assert rows["noisy"]["verdict"] == "unresolved"  # its own spread hides any change
    assert stats.compare_metric([100] * 3, [80] * 3, "lower", 0.1)["verdict"] == "within"

    # The CLI exits non-zero on a regression of a declared metric.
    def summary_file(name, step_ms):
        report = {"end_to_end": {
            "setup_s": {"value": 1.0}, "tokens_per_s": {"value": 1000.0},
            "step_ms_p50": {"value": step_ms}, "peak_rss_mb": {"value": 100.0}}}
        path = tmp_path / name
        path.write_text(json.dumps({"runs": [{"workloads": {"dense_s1024": report}}] * 3}))
        return str(path)

    base, same, slow = (summary_file(n, v) for n, v in
                        (("a.json", 100.0), ("b.json", 101.0), ("c.json", 150.0)))
    assert _run("--compare", base, same).returncode == 0
    worse = _run("--compare", base, slow)
    assert worse.returncode == 1 and "worse" in worse.stdout


def test_a_missing_probe_target_reports_null_not_a_crash():
    def gone(ctx):
        return {"x.ms": probes.resolve("repro.tensor.functional:no_such_kernel")}

    def present(ctx):
        return {"y.ms": 1.5}

    context = probes.Context(batch=1, seq=8, dim=8, heads=2, hidden=16, vocab=32,
                             layers=1, activation="relu", seed=0, step_ms=None,
                             attention="tensor.sdpa_ms", host={})
    measured, missing = probes.run([(("x.ms",), gone), (("y.ms",), present)],
                                   context, Tracer("t"))
    assert measured["x.ms"] is None and measured["y.ms"] == 1.5
    assert missing == ["x.ms"]


def test_self_time_is_duration_minus_children():
    tracer = Tracer("t")
    parent = tracer.begin("outer", 0.0)
    tracer.add("inner", 1.0, 3.0, parent)
    tracer.add("inner", 4.0, 5.0, parent)
    tracer.end(parent, 10.0)
    assert tracer.self_seconds("outer") == [7.0]
    assert tracer.self_seconds("inner") == [2.0, 1.0]
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [None, 0, 0]
    assert events[0]["dur"] == pytest.approx(10e6)


def test_config_builder_drops_fields_that_no_longer_exist():
    import repro
    config = workloads.build_config(repro.CaptureConfig, enabled=True,
                                    executor_threads=1, knob_deleted_by_a_refactor=7)
    assert config.enabled is True and config.executor_threads == 1
    assert not hasattr(config, "knob_deleted_by_a_refactor")
