#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py                      # every workload, untraced
    python3 benchmarks/e2e/run.py --traced --json OUT  # + the per-layer table
    python3 benchmarks/e2e/run.py --workload sparse_s1024 --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --smoke --traced     # seconds, tiny shapes
    python3 benchmarks/e2e/run.py --compare A.json B.json

This process only orchestrates: every workload runs in fresh child processes
(one per set-up sample, one to measure), sequentially, each in its own session
with BLAS pinned to one thread.  The children's process groups are killed in a
``finally`` and ``/proc`` is scanned for survivors before exit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from e2ebench import stats  # noqa: E402  (NumPy-free; the parent never loads BLAS)

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# An untraced run is split over this many fresh processes, one after another,
# each setting up and then measuring its share of the window: three set-up
# samples (median reported) and three repeats of the loss trace (digests must
# agree) for the price of one run.
PROCESSES_PER_RUN = 3
# One workload, set-up samples included, must end inside the contract's 180 s.
WORKLOAD_BUDGET_S = 170.0
SMOKE_SECONDS = 0.2


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- child processes ---------------------------------------------------------

class Children:
    """Starts workload children and guarantees none outlives this process."""

    def __init__(self, workdir: str, out: str):
        self.workdir = workdir
        self.out = out
        self.sessions: List[int] = []   # each child leads its own session

    def run(self, workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, timeout: float, part: int = 0) -> dict:
        """Run one child to completion; returns the result it wrote."""
        result_path = os.path.join(
            self.workdir, f"result-{len(self.sessions)}.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        for name in THREAD_PINS:   # must be set before the child imports NumPy
            env[name] = "1"
        command = [sys.executable, os.path.abspath(__file__), "--child",
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(int(trace)),
                   "--part", str(part), "--workdir", self.workdir, "--out", self.out,
                   "--result", result_path,
                   "--spawned-at", repr(time.monotonic())]
        if smoke:
            command.append("--smoke")
        # The child's prints go to stderr: stdout carries only the report.
        child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr,
                                 start_new_session=True)
        self.sessions.append(child.pid)
        try:
            code = child.wait(timeout=max(1.0, timeout))
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if code != 0 or not os.path.exists(result_path):
            raise RuntimeError(f"{workload} child exited with code {code}")
        with open(result_path) as handle:
            return json.load(handle)

    def leaked(self) -> List[int]:
        """Live processes descended from this one or from a child's session."""
        me = os.getpid()
        survivors = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) == me:
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rpartition(")")[2].split()
            except OSError:
                continue   # ended while we were looking
            state, parent, group, session = fields[0], *map(int, fields[1:4])
            if state != "Z" and (parent == me or group in self.sessions
                                 or session in self.sessions):
                survivors.append(int(entry))
        return survivors


def child_main(args) -> int:
    """``--child``: run one workload in this process and write its result."""
    if args.workload == "_host":
        from e2ebench import probes
        result = probes.host_facts()
    else:
        from e2ebench import workloads
        spec = workloads.WORKLOADS[args.workload]
        result = workloads.run(spec.smoke() if args.smoke else spec, args)
    with open(args.result, "w") as handle:
        json.dump(result, handle, default=str)
    return 0


# -- one workload ------------------------------------------------------------

def measure_workload(children: Children, name: str, seed: int, seconds: float,
                     trace: bool, smoke: bool, benchmark: dict) -> dict:
    """All children of one (workload, trace) run, folded into one report."""
    begin = time.monotonic()
    deadline = begin + WORKLOAD_BUDGET_S
    processes = 1 if trace or smoke else PROCESSES_PER_RUN
    parts = [children.run(name, seed, seconds / processes, trace, smoke,
                          deadline - time.monotonic(), part)
             for part in range(processes)]

    last = parts[-1]
    units = {m["name"]: m["unit"] for m in
             benchmark["end_to_end"] + benchmark["per_layer"]}
    report = {key: last.get(key) for key in (
        "loss_digest", "loss_digest_steps", "effective_config", "open_phases",
        "probes_missing", "trace_file", "host")}
    report["checks"] = {check: all(part["checks"][check] for part in parts)
                        for check in last["checks"]}
    if last.get("loss_digest"):
        report["checks"]["loss_digest_repeats"] = (
            len({part["loss_digest"] for part in parts}) == 1)
    report["ops_attempted"] = sum(part["ops_attempted"] for part in parts)
    report["ops_failed"] = (sum(part["ops_failed"] for part in parts)
                            + sum(not passed for passed in report["checks"].values()))
    report["samples"] = {key: sum(part["samples"][key] for part in parts)
                         for key in last["samples"]}
    report["samples"]["processes"] = processes
    walls = [wall for part in parts for wall in part["step_walls_ms"]]
    rates = [rate for part in parts for rate in part["block_tokens_per_s"]]
    report["end_to_end"] = {key: {"value": value, "unit": units[key]} for key, value in (
        ("setup_s", stats.median([part["setup_s"] for part in parts])),
        ("tokens_per_s", stats.median(rates) if rates else None),
        ("step_ms_p50", stats.median(walls) if walls else None),
        ("peak_rss_mb", max(part["peak_rss_mb"] for part in parts)))}
    if trace:
        layer = last.get("per_layer") or {}   # absent when the child's steps failed
        undeclared = sorted(set(layer) - set(units))
        if undeclared:
            raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
        report["per_layer"] = {
            key: {"value": layer.get(key), "unit": units[key]}
            for key in units if key not in report["end_to_end"]}
    report["wall_s"] = time.monotonic() - begin
    return report


def print_report(name: str, report: dict) -> None:
    print(f"== {name}  (wall {report['wall_s']:.1f} s, "
          f"ops {report['ops_attempted']} attempted / {report['ops_failed']} failed, "
          f"samples {report['samples']})")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in (report.get(section) or {}).items():
            value = entry["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<42} {shown:>14} {entry['unit']}")
    for check, passed in report["checks"].items():
        print(f"  check {check:<36} {'ok' if passed else 'FAILED'}")
    if report.get("loss_digest"):
        print(f"  loss_digest (first {report['loss_digest_steps']} steps) "
              f"{report['loss_digest']}")
    for phase in report.get("open_phases") or []:
        print(f"  open {phase['rate']:>4} req/s: {phase['completed']}/{phase['requests']} "
              f"done, p50 {phase['latency_ms_p50']:.2f} ms, "
              f"p{phase['limit_percentile']:g} {phase['latency_ms_limit_percentile']}, "
              f"backlog mid/end {phase['backlog_mid']}/{phase['backlog_end']}, "
              f"{'ok' if phase['ok'] else 'over limit'}")
    if report.get("probes_missing"):
        print(f"  probes_missing {report['probes_missing']}")
    if report.get("trace_file"):
        print(f"  trace {report['trace_file']}")


def contract_line(report: dict, trace: bool, leaked: int) -> dict:
    """The one JSON object the benchmark contract wants as the last line."""
    section = report["per_layer"] if trace else report["end_to_end"]
    return {
        "correct": bool(report["ops_failed"] == 0 and leaked == 0),
        "attempted": max(1, int(report["ops_attempted"])),
        "failed": int(report["ops_failed"]),
        # The contract wants a number for every metric: one that does not
        # apply to this workload (or whose probe is missing) reads 0.
        "metrics": {key: {"value": entry["value"] if entry["value"] is not None else 0.0,
                          "unit": entry["unit"]} for key, entry in section.items()},
    }


# -- comparison --------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows = stats.compare_run_sets(a, b, load_benchmark()["end_to_end"])
    print(f"{'workload':<20}{'metric':<14}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<20}{row['metric']:<14}{row['median_a']:>12.5g}"
              f"{row['median_b']:>12.5g}{row['change']:>+10.1%}{row['spread']:>9.1%}"
              f"{row['bound']:>7.0%}  {row['verdict']}"
              f"  ({row['runs_a']} vs {row['runs_b']} runs, {row['unit']})")
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(worse)} worse, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved, "
          f"{sum(r['verdict'] == 'within' for r in rows)} within")
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only and end with "
                        "the contract's one-line JSON")
    parser.add_argument("--seed", type=int, default=0, help="workload generator seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs traced and reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all-workload mode: add a traced run of each workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and windows: a structural check in seconds")
    parser.add_argument("--repeats", type=int, default=1,
                        help="all-workload mode: run the whole set this many times")
    parser.add_argument("--json", metavar="PATH", help="write the summary here")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for Chrome-trace files")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --json summaries and exit")
    for hidden in ("--workdir", "--result"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        return compare(*args.compare)
    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: {SRC}/repro is missing; the benchmark drives the repro "
              f"package and cannot run without it", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    declared = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in declared:
        print(f"error: unknown workload {args.workload!r}; declared: {declared}",
              file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else (
        args.seconds if args.seconds is not None else benchmark["run_seconds"])

    begin = time.monotonic()
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    children = Children(workdir, os.path.abspath(args.out))
    runs: List[Dict[str, dict]] = []
    meta = None
    try:
        if args.workload is not None:
            report = measure_workload(children, args.workload, args.seed, seconds,
                                      bool(args.trace), args.smoke, benchmark)
            print_report(args.workload, report)
        else:
            meta = children.run("_host", args.seed, 0.0, False, False, 60.0)
            for repeat in range(args.repeats):
                runs.append({})
                for name in declared:
                    report = measure_workload(children, name, args.seed, seconds,
                                              False, args.smoke, benchmark)
                    if args.traced:
                        traced = measure_workload(children, name, args.seed, seconds,
                                                  True, args.smoke, benchmark)
                        for key in ("per_layer", "open_phases", "probes_missing",
                                    "trace_file", "host"):
                            report[key] = traced[key]
                        report["ops_failed"] += traced["ops_failed"]
                        report["wall_s"] += traced["wall_s"]
                    runs[-1][name] = report
                    print_report(f"{name} [run {repeat + 1}/{args.repeats}]", report)
    finally:
        leaked = children.leaked()
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass   # another run is using it
    print(f"leaked_processes {len(leaked)}")

    if args.workload is not None:
        line = contract_line(report, bool(args.trace), len(leaked))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    failed = sum(r["ops_failed"] for run in runs for r in run.values())
    meta.update(git_commit=git_commit(), seed=args.seed, seconds=seconds,
                smoke=args.smoke, repeats=args.repeats,
                total_wall_s=time.monotonic() - begin,
                workload_wall_s={name: [run[name]["wall_s"] for run in runs]
                                 for name in declared})
    summary = {"meta": meta, "benchmark": benchmark,
               "runs": [{"workloads": run} for run in runs],
               "ops_failed": failed, "leaked_processes": len(leaked),
               "claim": None}
    print(f"ops_failed {failed}   total wall {meta['total_wall_s']:.1f} s")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
        print(f"wrote {args.json}")
    return 0 if failed == 0 and not leaked else 1


if __name__ == "__main__":
    sys.exit(main())
