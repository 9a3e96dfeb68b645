"""Workload ``paper-grid``: six methods, two densities, several k.

Set-up is the paper's preprocessing (Fig 8): every index the six methods
need, then each method's object indexes for both object sets.  The
measured loop is the grid of :mod:`grid`; between rounds each engine
moves a few POIs away and back (``QueryEngine.apply_updates``, one batch
per move), which patches the object indexes of all six methods in place
and gives ``update_ms``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.updates import move_object

from grid import (
    GridStats, check_grid, instrument, run_grid, stratified_tuples,
)
from hostspeed import HostSpeed
from metrics import mean
from outcome import Outcome
from reference import ObjectSet, Reference
from system import (
    INDEX_KINDS, METHODS, NETWORK_VERTICES, build_indexes, cells_for,
    dataset_rng, draw_objects, index_bytes, network, timed_setups,
)

#: Object densities |O|/|V|: sparse favours IER and G-tree, dense INE.
DENSITIES = {"sparse": 0.008, "dense": 0.08}
KS = (1, 5, 10, 25)
#: Query tuples per grid round (about 0.6 s).
ROUND_TUPLES = 96
#: POI moves out and back per engine between rounds, each move its own
#: update batch.
MOVE_PAIRS_PER_ROUND = 16


class PaperSystem:
    def __init__(self, graph, object_sets, tracer) -> None:
        self.graph = graph
        self.cache = build_indexes(graph, INDEX_KINDS, tracer)
        self.cells = cells_for(self.cache, object_sets, tracer)

    def close(self) -> None:
        self.cells = self.cache = None


def run(seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    n = NETWORK_VERTICES
    objects_rng = dataset_rng(1)
    object_sets = {label: draw_objects(objects_rng, n, d)
                   for label, d in DENSITIES.items()}
    speed = HostSpeed(network())
    system, setup_times = timed_setups(
        lambda graph: PaperSystem(graph, object_sets, tracer), speed)
    out.setup(setup_times, {k: index_bytes(system.cache, [k])
                            for k in INDEX_KINDS}, tracer)
    cells = system.cells
    if tracer.enabled:
        instrument(cells, tracer)

    query_rng = np.random.default_rng([seed, 2])
    move_rng = np.random.default_rng([seed, 3])
    update_times = []
    update_errors = []
    dropped = []

    def round_tuples(_r):
        return stratified_tuples(len(cells), KS,
                                 query_rng.integers(0, n, ROUND_TUPLES))

    def move(cell, gone, new):
        start = time.perf_counter()
        try:
            report = cell.engine.apply_updates([move_object(gone, new)])
        except Exception as exc:  # counted, run goes on
            update_errors.append(f"{cell.label} move {gone}->{new}: {exc!r}")
            return
        update_times.append(time.perf_counter() - start)
        dropped.append(len(report.dropped))
        cell.versions.append(ObjectSet(
            (cell.objects.members - {gone}) | {new}))

    def move_pois(_r):
        # Out and back, so every round queries the same object sets.
        for cell in cells * MOVE_PAIRS_PER_ROUND:
            present = cell.objects.array
            gone = int(present[move_rng.integers(0, len(present))])
            new = int(move_rng.integers(0, n))
            while new in cell.objects.members:
                new = int(move_rng.integers(0, n))
            move(cell, gone, new)
            move(cell, new, gone)

    stats = GridStats()
    factor = run_grid(cells, round_tuples, seconds, tracer, speed, stats,
                      between_rounds=move_pois)
    out.host_factors["grid"] = factor

    g = system.graph
    wrong = check_grid(cells, stats, Reference(
        g.vertex_start, g.edge_target, g.edge_weight))
    out.grid(stats, tracer, wrong, factor)
    out.latency([t for m in METHODS for t in stats.seconds[m]], factor)
    out.updates(update_times, factor)
    out.layers["updates.dropped"] = mean(dropped)
    out.account("updates", len(update_times) + len(update_errors),
                errors=len(update_errors))
    out.problems += update_errors[:5]
    return out
