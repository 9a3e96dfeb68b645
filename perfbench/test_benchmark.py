"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The answer check must accept exact answers and refuse perturbed ones,
the churn shadow must follow the program's own weight updates, a churn
read must be exact at a state inside its window, and the metric names
printed must be the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro import QueryEngine, road_network  # noqa: E402
from repro.updates import add_object, remove_object, set_weight  # noqa: E402

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from reference import ObjectSet, Reference, check_answer  # noqa: E402
from serving import _Shadow  # noqa: E402
from system import METHODS  # noqa: E402

K = 5


@pytest.fixture(scope="module")
def world():
    graph = road_network(300, seed=3)
    rng = np.random.default_rng(0)
    objects = sorted(int(v) for v in rng.choice(300, 20, replace=False))
    engine = QueryEngine(graph, objects)
    reference = Reference(graph.vertex_start, graph.edge_target, graph.edge_weight)
    return graph, ObjectSet(objects), engine, reference


def answer(engine, vertex, method="ine"):
    return [(n.distance, n.vertex)
            for n in engine.query(vertex, K, method=method).neighbors]


@pytest.mark.parametrize("method", METHODS)
def test_exact_answers_pass(world, method):
    _, objects, engine, reference = world
    for vertex in (0, 17, 150, 299):
        got = answer(engine, vertex, method)
        assert check_answer(reference.row(vertex), objects, K, got) is None


def test_wrong_distance_fails(world):
    _, objects, engine, reference = world
    got = answer(engine, 17)
    got[2] = (got[2][0] * 1.001, got[2][1])
    assert "reference" in check_answer(reference.row(17), objects, K, got)


def test_dropped_neighbour_fails(world):
    _, objects, engine, reference = world
    got = answer(engine, 17)[:-1]
    assert "expected 5" in check_answer(reference.row(17), objects, K, got)


def test_non_object_vertex_fails(world):
    _, objects, engine, reference = world
    got = answer(engine, 17)
    outsider = next(v for v in range(300) if v not in objects.members)
    got[-1] = (float(reference.row(17)[outsider]), outsider)
    assert "not an object" in check_answer(reference.row(17), objects, K, got)


def test_farther_object_fails(world):
    _, objects, engine, reference = world
    row = reference.row(17)
    got = answer(engine, 17)
    used = {v for _, v in got}
    farther = max((v for v in objects.array if v not in used), key=lambda v: row[v])
    got[-1] = (float(row[farther]), int(farther))
    assert "k smallest" in check_answer(row, objects, K, got)


def test_shadow_follows_program_weights():
    graph = road_network(300, seed=3)
    shadow = _Shadow(graph, [1, 2, 3])
    e = 40
    u, v = int(shadow.rows[e]), int(graph.edge_target[e])
    deltas = [set_weight(u, v, float(graph.edge_weight[e]) * 3.0)]
    graph.apply_weight_deltas(deltas)
    shadow.apply(deltas)
    assert np.array_equal(shadow.weights[1], graph.edge_weight)
    assert not np.array_equal(shadow.weights[0], graph.edge_weight)


def test_churn_window_bounds():
    graph = road_network(300, seed=3)
    objects = list(range(0, 300, 15))
    shadow = _Shadow(graph, objects)
    v = 7

    def exact(epoch):
        row = shadow.reference(epoch).row(v)
        return sorted((float(row[o]), int(o)) for o in shadow.objects[epoch].array)[:K]

    # State 1 loses the nearest object, state 2 gains one at v itself, so
    # the exact answers of states 0, 1 and 2 all differ.
    shadow.apply([remove_object(exact(0)[0][1])])
    shadow.apply([add_object(v)])
    stale, middle, latest = exact(0), exact(1), exact(2)
    assert len({tuple(a) for a in (stale, middle, latest)}) == 3
    assert shadow.check_window(v, K, 1, 2, stale) is not None
    assert shadow.check_window(v, K, 1, 2, middle) is None
    assert shadow.check_window(v, K, 1, 2, latest) is None
    assert shadow.check_window(v, K, 1, 1, latest) is not None
    assert shadow.check_window(v, K, 0, 0, stale) is None


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert listed == END_TO_END
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == PER_LAYER
