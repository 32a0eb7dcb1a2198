"""Medians, guarded tail percentiles and the run-set comparison rule."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it (choosing-metrics guide, section 1).
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100).

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES` samples lie
    beyond the percentile on its tail side, so a p99 over 200 samples is
    refused instead of silently reporting the maximum.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    n = len(values)
    tail_share = (100.0 - q if q > 50.0 else q) / 100.0
    if q != 50.0 and n * tail_share < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n * tail_share:.1f} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are required")
    if n == 0:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (n - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, n - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or ``None`` where the sample cannot support it."""
    try:
        return percentile(values, q)
    except ValueError:
        return None


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else float("inf")


def compare_metric(a: Sequence[float], b: Sequence[float], better: str,
                   bound: float) -> Dict[str, float]:
    """Verdict for one (workload, metric) pairing of two run sets.

    ``change`` is B's median relative to A's, signed so that positive means
    *worse*.  ``unresolved`` when either side's own spread exceeds the bound
    (the runs cannot tell a regression from noise); else ``worse`` when the
    change exceeds the bound; else ``within``.
    """
    med_a, med_b = median(a), median(b)
    relative = (med_b - med_a) / abs(med_a) if med_a else float("inf")
    change = relative if better == "lower" else -relative
    widest = max(spread(a), spread(b))
    if widest > bound:
        verdict = "unresolved"
    elif change > bound:
        verdict = "worse"
    else:
        verdict = "within"
    return {"median_a": med_a, "median_b": med_b, "change": change,
            "spread": widest, "bound": bound, "verdict": verdict}


def compare_run_sets(a: dict, b: dict, declared: List[dict]) -> List[dict]:
    """Rows of :func:`compare_metric` for every workload x end-to-end metric.

    ``a`` / ``b`` are ``run.py --json`` summaries; ``declared`` is the
    ``end_to_end`` list of BENCHMARK.json (name, better, bound).
    """
    rows = []
    workloads = [w for w in a["runs"][0]["workloads"]
                 if w in b["runs"][0]["workloads"]]
    for workload in workloads:
        for metric in declared:
            name = metric["name"]
            side = []
            for summary in (a, b):
                side.append([run["workloads"][workload]["end_to_end"][name]["value"]
                             for run in summary["runs"]])
            row = compare_metric(side[0], side[1], metric["better"],
                                 metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       runs_a=len(side[0]), runs_b=len(side[1]))
            rows.append(row)
    return rows
