"""Lightweight phase profiler used by the trainer and the benchmarks."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator


class PhaseProfiler:
    """Accumulates wall-clock time per named phase.

    Usage::

        profiler = PhaseProfiler()
        with profiler.phase("forward"):
            ...
        profiler.totals()["forward"]   # seconds
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, int] = defaultdict(int)
        self._gauges: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._totals[name] += elapsed
            self._counts[name] += 1

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time metric (latest value wins, not accumulated).

        Used for derived ratios the phases cannot express — e.g. the sparse
        engine's prediction fraction or layout-reuse rate — so they travel
        with the phase timings in :meth:`summary_dict`.
        """
        self._gauges[name] = float(value)

    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def summary_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly {phase: {total_s, calls, mean_s}} (benchmark output).

        When gauges were recorded, an extra ``"gauges"`` entry maps each
        gauge name to its latest value.
        """
        out: Dict[str, Dict[str, float]] = {
            name: {
                "total_s": seconds,
                "calls": self._counts[name],
                "mean_s": seconds / self._counts[name] if self._counts[name] else 0.0,
            }
            for name, seconds in self._totals.items()
        }
        if self._gauges:
            out["gauges"] = dict(self._gauges)
        return out

    def add(self, name: str, seconds: float) -> None:
        """Record externally-measured time (e.g. the engine's predictor overhead)."""
        self._totals[name] += seconds
        self._counts[name] += 1

    def totals(self) -> Dict[str, float]:
        return dict(self._totals)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()
        self._gauges.clear()

    def report(self) -> str:
        """Human-readable table of phase totals and shares."""
        total = sum(self._totals.values()) or 1.0
        lines = [f"{'phase':<18}{'total (ms)':>12}{'share':>9}{'calls':>8}"]
        for name, seconds in sorted(self._totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<18}{seconds * 1000:>12.1f}{seconds / total:>8.1%}"
                         f"{self._counts[name]:>8}")
        return "\n".join(lines)
