"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from typing import Dict, List

from grid import GridStats
from metrics import KNN_COUNTERS, PER_LAYER, mean, median, percentile
from system import INDEX_KINDS, METHODS, ORACLES, SIZED_KINDS


class Outcome:
    def __init__(self) -> None:
        #: Host-speed factor applied to each phase's times (see hostspeed).
        self.host_factors: Dict[str, float] = {}
        self.end_to_end: Dict[str, float] = {}
        self.layers: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
        #: Operation accounting: attempted/failed per kind of operation.
        self.accounting: Dict[str, Dict[str, int]] = {}
        self.problems: List[str] = []

    def account(self, kind: str, attempted: int, **failed: int) -> None:
        self.accounting[kind] = {"attempted": int(attempted),
                                 **{k: int(v) for k, v in failed.items()}}

    @property
    def attempted(self) -> int:
        return sum(a["attempted"] for a in self.accounting.values())

    @property
    def failed(self) -> int:
        return sum(v for a in self.accounting.values()
                   for k, v in a.items() if k != "attempted")

    # ------------------------------------------------------------------
    def setup(self, seconds: List[float], index_bytes: Dict[str, int],
              tracer) -> None:
        self.end_to_end["setup_s"] = median(seconds)
        self.end_to_end["index_mb"] = sum(index_bytes.values()) / 1e6
        for kind in INDEX_KINDS:
            self.layers[f"index.build_s.{kind}"] = tracer.mean(f"index.build.{kind}")
        for kind in SIZED_KINDS:
            self.layers[f"index.mb.{kind}"] = index_bytes.get(kind, 0) / 1e6
        for m in METHODS:
            self.layers[f"objects.build_ms.{m}"] = tracer.mean(
                f"objects.build.{m}", 1e3)

    def grid(self, stats: GridStats, tracer, wrong: List[str],
             factor: float) -> None:
        """Per-method figures of a grid run, and its accounting."""
        for m in METHODS:
            self.end_to_end[f"knn_us.{m}"] = mean(stats.seconds[m]) * 1e6 * factor
            search = tracer.mean(f"knn.search.{m}", 1e6)
            self.layers[f"knn.search_us.{m}"] = search
            if tracer.calls.get(f"engine.query.{m}"):
                self.layers[f"engine.overhead_us.{m}"] = (
                    tracer.mean(f"engine.query.{m}", 1e6) - search)
        for counter, m in KNN_COUNTERS:
            if stats.calls(m):
                self.layers[f"knn.count.{counter}.{m}"] = (
                    stats.counters[m][counter] / stats.calls(m))
        for m, oracle in ORACLES.items():
            name = f"pathfinding.distance.{oracle}"
            self.layers[f"pathfinding.distance_us.{oracle}"] = tracer.mean(name, 1e6)
            if stats.calls(m):
                self.layers[f"pathfinding.distance_calls.{m}"] = (
                    tracer.calls.get(name, 0) / stats.calls(m))
        self.account("queries", stats.queries, errors=len(stats.errors),
                     wrong=len(wrong), degraded=stats.degraded)
        self.problems += stats.errors[:5] + wrong[:5]

    def latency(self, seconds: List[float], factor: float) -> None:
        """Single-thread figures: queries per second and percentiles of
        the per-query times."""
        self.end_to_end["throughput_qps"] = len(seconds) / sum(seconds) / factor
        self.end_to_end["p50_ms"] = percentile(seconds, 50) * 1e3 * factor
        self.end_to_end["p99_ms"] = percentile(seconds, 99) * 1e3 * factor

    def windowed(self, seconds: List[float], done_at: List[float],
                 start: float, window: int, factor: float) -> None:
        """Serving figures as medians over consecutive windows of
        ``window`` responses: a burst of noise from other tenants of the
        host spoils a window or two, not the run's figure."""
        rates, p50, p99 = [], [], []
        previous = start
        for lo in range(0, len(seconds) - window + 1, window):
            end = done_at[lo + window - 1]
            rates.append(window / (end - previous))
            previous = end
            p50.append(percentile(seconds[lo:lo + window], 50))
            p99.append(percentile(seconds[lo:lo + window], 99))
        self.end_to_end["throughput_qps"] = median(rates) / factor
        self.end_to_end["p50_ms"] = median(p50) * 1e3 * factor
        self.end_to_end["p99_ms"] = median(p99) * 1e3 * factor

    def updates(self, seconds: List[float], factor: float) -> None:
        self.end_to_end["update_ms"] = median(seconds) * 1e3 * factor
