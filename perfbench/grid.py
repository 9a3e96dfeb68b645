"""The per-method query grid: the paper's main comparison (Figs 10/11).

A round is a fixed list of query tuples ``(engine, k, vertex)``, each
with its own vertex, cycling through every (object set, k) pair; every
tuple is answered by every method in turn, single-threaded through
``QueryEngine.query``.  A run repeats whole rounds until its time is up;
every answer is kept and checked against the independent reference
afterwards.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, List, Optional, Sequence, Tuple

from reference import Reference, check_answer
from system import METHODS, ORACLES, Cell


class GridStats:
    def __init__(self) -> None:
        #: Per method: seconds of each call.
        self.seconds = defaultdict(list)
        self.answers: List[tuple] = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.errors: List[str] = []
        self.degraded = 0
        self.rounds = 0

    def calls(self, method: str) -> int:
        return len(self.seconds[method])

    @property
    def queries(self) -> int:
        return sum(map(len, self.seconds.values())) + len(self.errors)


def instrument(cells: Sequence[Cell], tracer) -> None:
    """Traced run: time ``alg.knn`` and the IER oracles' ``distance``."""
    for cell in cells:
        for method in METHODS:
            alg = cell.engine.algorithm(method)
            tracer.patch(alg, "knn", f"knn.search.{method}")
            if method in ORACLES:
                tracer.patch(alg.oracle, "distance",
                             f"pathfinding.distance.{ORACLES[method]}")


def run_grid(
    cells: Sequence[Cell],
    round_tuples: Callable[[int], Sequence[Tuple[int, int, int]]],
    seconds: float,
    tracer,
    speed,
    stats: GridStats,
    between_rounds: Optional[Callable[[int], None]] = None,
) -> float:
    """Run whole rounds for ``seconds``; return the host-speed factor.

    ``round_tuples(r)`` gives round ``r``'s ``(cell index, k, vertex)``.
    The host speed is sampled between tuples, outside any timed call.
    """
    queries = {
        (i, m): tracer.wrap(f"engine.query.{m}", cell.engine.query)
        for i, cell in enumerate(cells) for m in METHODS
    }
    clock = time.perf_counter
    mark = speed.mark()
    speed.sample()
    deadline = clock() + seconds
    while True:
        for i, k, v in round_tuples(stats.rounds):
            version = len(cells[i].versions) - 1
            for m in METHODS:
                query = queries[i, m]
                start = clock()
                try:
                    result = query(v, k, method=m)
                except Exception as exc:  # counted, run goes on
                    stats.errors.append(f"{m} v={v} k={k}: {exc!r}")
                    continue
                stats.seconds[m].append(clock() - start)
                stats.answers.append((i, version, v, k, m, [
                    (n.distance, n.vertex) for n in result.neighbors
                ]))
                if result.degraded:
                    stats.degraded += 1
                if tracer.enabled:
                    mine = stats.counters[m]
                    for name, value in result.counters.as_dict().items():
                        mine[name] += value
            speed.maybe_sample()
        stats.rounds += 1
        if between_rounds is not None:
            between_rounds(stats.rounds)
        if clock() >= deadline:
            speed.sample()
            return speed.factor(mark)


def check_grid(cells: Sequence[Cell], stats: GridStats,
               reference: Reference) -> List[str]:
    """Check every kept answer; return one message per wrong answer."""
    reference.prepare(a[2] for a in stats.answers)
    wrong = []
    for i, version, v, k, m, answer in stats.answers:
        why = check_answer(reference.row(v), cells[i].versions[version], k, answer)
        if why is not None:
            wrong.append(f"{m} {cells[i].label} v={v} k={k}: {why}")
    return wrong


def stratified_tuples(cells: int, ks: Sequence[int], vertices: Sequence[int]):
    """One tuple per vertex, cycling through every (cell, k) pair."""
    pairs = [(i, k) for i in range(cells) for k in ks]
    return [(*pairs[j % len(pairs)], int(v)) for j, v in enumerate(vertices)]
