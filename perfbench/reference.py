"""Independent answer check for the benchmark.

Reference distances come from ``scipy.sparse.csgraph.dijkstra`` over a
CSR matrix assembled here from the graph's raw edge arrays
(``vertex_start``, ``edge_target``, ``edge_weight``).  Nothing in this
module calls ``repro.kernels`` or ``repro.pathfinding``, so a fault in
the program's own shortest-path code cannot hide in the reference.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Two distances agree when they differ by at most this much, relative or
#: absolute: the program and scipy add the same edge weights in
#: different orders.
RTOL = 1e-9
ATOL = 1e-9


def adjacency(vertex_start, edge_target, edge_weight) -> csr_matrix:
    """CSR adjacency with parallel edges reduced to their lightest copy."""
    starts = np.asarray(vertex_start, dtype=np.int64)
    n = len(starts) - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(starts))
    cols = np.asarray(edge_target, dtype=np.int64)
    weights = np.asarray(edge_weight, dtype=np.float64)
    order = np.lexsort((weights, cols, rows))
    rows, cols, weights = rows[order], cols[order], weights[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return csr_matrix(
        (weights[first], (rows[first], cols[first])), shape=(n, n)
    )


class Reference:
    """Exact distances from query vertices over one fixed weighting."""

    def __init__(self, vertex_start, edge_target, edge_weight) -> None:
        self.matrix = adjacency(vertex_start, edge_target, edge_weight)
        self._rows: Dict[int, np.ndarray] = {}

    def prepare(self, sources: Iterable[int]) -> None:
        """Compute (and keep) the distance rows of every new source."""
        todo = sorted({int(s) for s in sources} - self._rows.keys())
        for lo in range(0, len(todo), 256):
            chunk = todo[lo:lo + 256]
            rows = dijkstra(self.matrix, directed=True, indices=chunk)
            for s, row in zip(chunk, rows):
                self._rows[s] = row

    def row(self, source: int) -> np.ndarray:
        source = int(source)
        if source not in self._rows:
            self.prepare([source])
        return self._rows[source]


class ObjectSet:
    """An object set in the two forms the check needs."""

    def __init__(self, objects: Sequence[int]) -> None:
        self.array = np.asarray(sorted(int(o) for o in objects), dtype=np.int64)
        self.members = frozenset(self.array.tolist())


def check_answer(
    row: np.ndarray,
    objects: ObjectSet,
    k: int,
    answer: Sequence[Tuple[float, int]],
) -> Optional[str]:
    """Why ``answer`` is not an exact kNN answer, or None when it is.

    ``row`` holds the reference distances from the query vertex.  The
    answer must hold min(k, reachable objects) distinct object vertices,
    each at its reference distance, and its sorted distances must equal
    the k smallest reference distances (which makes ties safe).
    """
    reachable = row[objects.array]
    reachable = np.sort(reachable[np.isfinite(reachable)])
    expected = min(int(k), len(reachable))
    if len(answer) != expected:
        return f"{len(answer)} neighbours, expected {expected}"
    seen = set()
    for d, v in answer:
        v = int(v)
        if v not in objects.members:
            return f"vertex {v} is not an object"
        if v in seen:
            return f"vertex {v} returned twice"
        seen.add(v)
        if not math.isclose(float(d), float(row[v]), rel_tol=RTOL, abs_tol=ATOL):
            return f"vertex {v} at {d!r}, reference {float(row[v])!r}"
    got = np.sort(np.asarray([float(d) for d, _ in answer]))
    if not np.allclose(got, reachable[:expected], rtol=RTOL, atol=ATOL):
        return "distances are not the k smallest"
    return None
