"""The system under test: one road network, its indexes, its engines.

Every workload runs on the same synthetic network and builds every index
from scratch with default settings (no store, default kernel, default
``IndexCache``/``QueryEngine``/``KNNServer`` parameters apart from the
server's worker count).  The network and the POI sets are a fixed data
set; the inputs that vary with ``--seed`` -- query vertices, request
streams, update batches -- are drawn with the benchmark's own generators,
so a change to the program's workload helpers cannot change what is
measured.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Sequence

import numpy as np

from repro import IndexCache, QueryEngine, road_network

from reference import ObjectSet

#: The road network every workload runs on (fixed, like a dataset).
NETWORK_VERTICES = 1200
NETWORK_SEED = 42

#: The paper's main comparison lineup (Figs 10/11).
METHODS = ("ine", "road", "gtree", "ier-gt", "ier-phl", "disbrw")
#: Oracle behind each IER method, as named in the per-layer metrics.
ORACLES = {"ier-gt": "gt", "ier-phl": "phl"}

#: Indexes the six methods need, in build order (hub labels need CH).
INDEX_KINDS = ("gtree", "road", "silc", "ch", "hub_labels")
#: Indexes whose size counts towards ``index_mb``.
SIZED_KINDS = ("gtree", "road", "silc", "hub_labels")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def network():
    return road_network(NETWORK_VERTICES, seed=NETWORK_SEED)


def dataset_rng(tag: int) -> np.random.Generator:
    """Random stream of the fixed data set (network and POI sets), which
    does not vary with ``--seed``; the seed draws only the traffic."""
    return np.random.default_rng([NETWORK_SEED, tag])


def draw_objects(rng: np.random.Generator, n: int, density: float) -> List[int]:
    size = max(1, int(round(density * n)))
    return sorted(int(v) for v in rng.choice(n, size=size, replace=False))


def build_indexes(graph, kinds: Sequence[str], tracer) -> IndexCache:
    """A fresh ``IndexCache`` with ``kinds`` built, each build traced."""
    cache = IndexCache(graph)
    for kind in kinds:
        tracer.wrap(f"index.build.{kind}", getattr)(cache, kind)
    return cache


def build_algorithms(engine: QueryEngine, methods: Sequence[str], tracer) -> None:
    """Construct each method's object indexes (first ``algorithm`` call)."""
    for method in methods:
        tracer.wrap(f"objects.build.{method}", engine.algorithm)(method)


def index_bytes(cache: IndexCache, kinds: Sequence[str]) -> int:
    return sum(getattr(cache, k).size_bytes() for k in kinds if k in SIZED_KINDS)


def timed_setups(build, speed):
    """Run ``build(network)`` ``SETUP_REPEATS`` times; return (last system,
    seconds of each build at reference host speed).

    Each build gets a freshly generated network (generation is not
    timed) so that no lazily cached graph state carries over, and the
    earlier system is released (``close``) before the next is built.
    The host speed is sampled before and after each build.
    """
    times: List[float] = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            system.close()
            system = None
            gc.collect()
        graph = network()
        mark = speed.mark()
        speed.sample()
        start = time.perf_counter()
        system = build(graph)
        seconds = time.perf_counter() - start
        speed.sample()
        times.append(seconds * speed.factor(mark))
    return system, times


class Cell:
    """One engine of the method grid with the object set it answers for."""

    def __init__(self, label: str, engine: QueryEngine) -> None:
        self.label = label
        self.engine = engine
        self.versions: List[ObjectSet] = [ObjectSet(engine.objects)]

    @property
    def objects(self) -> ObjectSet:
        return self.versions[-1]


def cells_for(cache: IndexCache, object_sets: Dict[str, Sequence[int]],
              tracer) -> List[Cell]:
    cells = []
    for label, objects in object_sets.items():
        engine = QueryEngine(cache, objects)
        build_algorithms(engine, METHODS, tracer)
        cells.append(Cell(label, engine))
    return cells
