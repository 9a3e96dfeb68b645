"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``test_benchmark.py`` keeps the
two in step.  Every workload prints every end-to-end metric (tracing
off) or every per-layer metric (tracing on).  A per-layer metric whose
layer a workload does not exercise reads 0 there: a count or time of
work that did not happen.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from system import INDEX_KINDS, METHODS, ORACLES, SIZED_KINDS

#: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("index_mb", "MB", "lower"),
    *[(f"knn_us.{m}", "us", "lower") for m in METHODS],
    ("throughput_qps", "req/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("update_ms", "ms", "lower"),
]

#: (counter, method) pairs reported as ``knn.count.<counter>.<method>``:
#: the canonical ``<phase>_<what>`` counters that carry each method's work.
KNN_COUNTERS = [
    ("expand_settled", "ine"),
    ("expand_settled", "road"),
    ("expand_bypassed", "road"),
    ("leaf_settled", "gtree"),
    ("matrix_ops", "gtree"),
    ("verify_network_computations", "ier-gt"),
    ("verify_false_hits", "ier-gt"),
    ("verify_network_computations", "ier-phl"),
    ("verify_false_hits", "ier-phl"),
    ("interval_lookups", "disbrw"),
    ("browse_refinements", "disbrw"),
]

PER_LAYER = [
    *[(f"index.build_s.{k}", "s", "lower") for k in INDEX_KINDS],
    *[(f"index.mb.{k}", "MB", "lower") for k in SIZED_KINDS],
    *[(f"objects.build_ms.{m}", "ms", "lower") for m in METHODS],
    *[(f"knn.search_us.{m}", "us", "lower") for m in METHODS],
    *[(f"knn.count.{c}.{m}", "count", "lower") for c, m in KNN_COUNTERS],
    *[(f"pathfinding.distance_us.{o}", "us", "lower") for o in ORACLES.values()],
    *[(f"pathfinding.distance_calls.{m}", "count", "lower") for m in ORACLES],
    *[(f"engine.overhead_us.{m}", "us", "lower") for m in METHODS],
    ("server.service_ms", "ms", "lower"),
    ("server.handoff_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.read_hold_ms", "ms", "lower"),
    ("server.batch_size", "count", "higher"),
    ("server.cache_hit_ratio", "ratio", "higher"),
    ("server.coalesced_ratio", "ratio", "higher"),
    ("server.engine_query_us", "us", "lower"),
    ("updates.hold_ms", "ms", "lower"),
    ("updates.lock_wait_ms", "ms", "lower"),
    ("updates.repair_ms", "ms", "lower"),
    ("updates.repaired.gtree", "count", "lower"),
    ("updates.dropped", "count", "lower"),
    ("updates.invalidated", "count", "lower"),
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def labelled(values: Dict[str, float], names: List[tuple]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly ``names``, in order."""
    missing = [n for n, _, _ in names if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": u} for n, u, _ in names}
