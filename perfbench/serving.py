"""Workloads ``serve-hotspot`` and ``serve-churn``: ``KNNServer`` under load.

Both run on the same network as ``paper-grid``.  Each run builds two
things from scratch: the probe engines (every index, all six methods,
over this workload's object sets), once and untimed, and the server (its
own network copy and ``IndexCache``, default settings, ``method="auto"``,
its G-tree, start and warm-up), whose build is the timed set-up
(``setup_s``).  The measured time is split: first the probe runs the grid
of :mod:`grid` over this workload's object sets (giving ``knn_us.*``),
then the server takes the load.

* ``serve-hotspot``: one client thread keeps ``OUTSTANDING`` requests in
  flight; query vertices are Zipf-skewed over a hot pool, spread over
  four POI categories, so most answers come from the result cache.
  Each round of requests ends with one live POI move in the least
  requested category.
* ``serve-churn``: one reader thread (one request in flight, uniform
  vertices that defeat the cache) races one writer thread applying
  mixed batches -- travel-weight drift plus POI churn -- through
  ``KNNServer.apply_updates``.  A read passes if it matches the
  reference at some update epoch between its submit and its response.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Dict, List, Sequence

import numpy as np

from repro import QueryEngine, obs
from repro.server import KNNServer
from repro.updates import add_object, move_object, remove_object, set_weight

from grid import (
    GridStats, check_grid, instrument, run_grid, stratified_tuples,
)
from hostspeed import HostSpeed
from metrics import mean
from outcome import Outcome
from reference import ObjectSet, Reference, check_answer
from system import (
    INDEX_KINDS, NETWORK_VERTICES, build_indexes, cells_for, dataset_rng,
    draw_objects, index_bytes, network, timed_setups,
)

#: Server worker threads.  With two, the interpreter-lock hand-offs
#: between two busy workers and the client made hot-spot throughput swing
#: between 2.2k and 5.5k req/s from run to run on the 2-core reference
#: host; one worker repeats.
WORKERS = 1
#: Requests the hot-spot client keeps in flight: the host's core count.
OUTSTANDING = 2
#: Share of the measured time given to the per-method probe.
PROBE_SHARE = 0.4
PROBE_ROUND_TUPLES = 48
#: Longest a client waits for one response before counting it failed.
RESPONSE_TIMEOUT_S = 60.0

HOTSPOT_CATEGORIES = {"fuel": 0.004, "parking": 0.008, "cafe": 0.02,
                      "restaurant": 0.08}
CATEGORY_SHARES = (0.4, 0.3, 0.2, 0.1)
HOTSPOT_KS = (1, 5, 10)
HOT_VERTICES = 256
ZIPF_SKEW = 1.1
HOTSPOT_ROUND = 500
#: The category whose POIs move between rounds: the least requested.
EDITED_CATEGORY = "restaurant"
HOTSPOT_WARMUP = 8000
#: Responses per window of the serving figures (p99 then has 20 beyond).
HOTSPOT_WINDOW = 2000

CHURN_DENSITY = 0.008
CHURN_KS = (1, 5, 10)
CHURN_ROUND_READS = 50
CHURN_WARMUP = 2000
#: Reads per window of the serving figures (p99 then has 10 beyond).
CHURN_WINDOW = 1000
WEIGHT_DELTAS_PER_BATCH = 2
WEIGHT_SCALE = (0.5, 2.0)


class Probe:
    """Every index and all six methods over the workload's object sets,
    on a network of its own, so the server's updates never touch it."""

    def __init__(self, object_sets: Dict, tracer) -> None:
        self.graph = network()
        self.cache = build_indexes(self.graph, INDEX_KINDS, tracer)
        self.cells = cells_for(self.cache, object_sets, tracer)


class ServeSystem:
    """A started, warmed-up server on its own network."""

    def __init__(self, graph, default_objects, categories, tracer,
                 warmup) -> None:
        self.graph = graph
        engine = QueryEngine(graph, default_objects)
        self.server = KNNServer(engine, workers=WORKERS, categories=categories)
        tracer.wrap("index.build.gtree", getattr)(engine.workbench, "gtree")
        self.server.start(warmup_methods=("auto",))
        warmup(self.server)

    def close(self) -> None:
        self.server.stop()


def _setup(out: Outcome, tracer, speed, object_sets, default_objects,
           categories, warmup):
    """Build the probe (untimed), then time the server's set-ups."""
    probe = Probe(object_sets, tracer)
    system, seconds = timed_setups(lambda graph: ServeSystem(
        graph, default_objects, categories, tracer, warmup), speed)
    sizes = {k: index_bytes(probe.cache, [k]) for k in INDEX_KINDS}
    sizes["gtree"] += index_bytes(system.server.engine_for(None).workbench,
                                  ["gtree"])
    out.setup(seconds, sizes, tracer)
    return probe, system


def _probe(out: Outcome, probe: Probe, ks, rng, seconds: float,
           tracer, speed) -> None:
    """The grid of :mod:`grid` over this workload's object sets and k
    values, with uniform random query vertices from ``rng``."""
    cells = probe.cells
    if tracer.enabled:
        instrument(cells, tracer)
    stats = GridStats()
    n = probe.graph.num_vertices
    factor = run_grid(
        cells, lambda r: stratified_tuples(
            len(cells), ks, rng.integers(0, n, PROBE_ROUND_TUPLES)),
        seconds, tracer, speed, stats)
    out.host_factors["probe"] = factor
    g = probe.graph
    wrong = check_grid(cells, stats, Reference(
        g.vertex_start, g.edge_target, g.edge_weight))
    out.grid(stats, tracer, wrong, factor)
    out.accounting["probe_queries"] = out.accounting.pop("queries")


def _closed_loop(server, requests, outstanding, on_done) -> None:
    """Submit ``(vertex, k, category, tag)`` with at most ``outstanding``
    in flight; ``on_done(tag, response, client_seconds)`` per response."""
    pending = deque()
    clock = time.perf_counter

    def finish():
        handle, start, tag = pending.popleft()
        try:
            response = handle.result(RESPONSE_TIMEOUT_S)
        except TimeoutError:
            response = None
        on_done(tag, response, clock() - start)

    for vertex, k, category, tag in requests:
        if len(pending) >= outstanding:
            finish()
        start = clock()
        pending.append((server.submit(vertex, k, category=category), start, tag))
    while pending:
        finish()


class LoadStats:
    """Client-side record of one load phase, summarised over windows of
    ``window`` responses.  Its clock stops while the host speed is sampled
    (only ever with no request in flight)."""

    def __init__(self, window: int, speed) -> None:
        self.window = window
        self.speed = speed
        self.paused = 0.0
        self.mark = 0
        self.start = 0.0
        self.done_at: List[float] = []
        self.latencies: List[float] = []
        self.service: List[float] = []
        self.status: Dict[str, int] = {}
        self.cache_hits = 0
        self.coalesced = 0
        self.degraded = 0
        self.answers: List[tuple] = []
        self.update_seconds: List[float] = []
        self.update_errors: List[str] = []
        self.reports: List = []
        self.invalidated = 0

    def response(self, tag, response, seconds: float) -> None:
        status = "timeout" if response is None else response.status
        self.status[status] = self.status.get(status, 0) + 1
        if status != "ok":
            return
        self.done_at.append(time.perf_counter() - self.paused)
        self.latencies.append(seconds)
        self.service.append(response.latency_s)
        self.cache_hits += response.cache_hit
        self.coalesced += response.coalesced
        self.degraded += response.degraded
        self.answers.append((tag, [(n.distance, n.vertex)
                                   for n in response.result.neighbors]))

    def begin(self) -> None:
        self.mark = self.speed.mark()
        self.speed.sample()
        self.start = time.perf_counter()

    def pause(self) -> None:
        start = time.perf_counter()
        self.speed.maybe_sample()
        self.paused += time.perf_counter() - start

    def end(self) -> float:
        """Stop the load clock; return the phase's host-speed factor."""
        self.speed.sample()
        return self.speed.factor(self.mark)

    @property
    def requests(self) -> int:
        return sum(self.status.values())


def _traced_server(system: ServeSystem, load: LoadStats, tracer) -> None:
    """Traced run: time the server engines' ``query`` and the index
    repair, and count result-cache invalidations."""
    if not tracer.enabled:
        return
    server = system.server
    for category in server.categories():
        tracer.patch(server.engine_for(category), "query", "server.engine_query")
    tracer.patch(server.engine_for(None).workbench, "apply_weight_deltas",
                 "updates.repair")
    invalidate = server.cache.invalidate

    def counted(*args, **kwargs):
        removed = invalidate(*args, **kwargs)
        load.invalidated += removed
        return removed

    server.cache.invalidate = counted


def _histogram_mean(delta: Dict, name: str) -> float:
    series = delta.get(name, {}).get("series", {}).values()
    count = sum(s["count"] for s in series)
    return sum(s["sum"] for s in series) / count if count else 0.0


def _load_results(out: Outcome, load: LoadStats, wrong: List[str],
                  registry_delta: Dict, tracer, factor: float) -> None:
    ok = load.status.get("ok", 0)
    out.host_factors["load"] = factor
    out.windowed(load.latencies, load.done_at, load.start, load.window, factor)
    out.updates(load.update_seconds, factor)
    failed = {s: c for s, c in load.status.items() if s != "ok"}
    out.account("requests", load.requests, wrong=len(wrong),
                degraded=load.degraded, **failed)
    out.account("updates", len(load.update_seconds) + len(load.update_errors),
                errors=len(load.update_errors))
    out.problems += wrong[:5] + load.update_errors[:5]
    if not tracer.enabled:
        return
    layers = out.layers
    layers["server.service_ms"] = mean(load.service) * 1e3
    layers["server.handoff_ms"] = (
        mean(load.latencies) - mean(load.service)) * 1e3
    layers["server.queue_wait_ms"] = _histogram_mean(
        registry_delta, "server_queue_wait_seconds") * 1e3
    layers["server.read_hold_ms"] = _histogram_mean(
        registry_delta, "server_read_hold_seconds") * 1e3
    layers["server.batch_size"] = _histogram_mean(
        registry_delta, "server_batch_size")
    layers["server.cache_hit_ratio"] = load.cache_hits / ok if ok else 0.0
    layers["server.coalesced_ratio"] = load.coalesced / ok if ok else 0.0
    layers["server.engine_query_us"] = tracer.mean("server.engine_query", 1e6)
    batches = len(load.update_seconds)
    hold = _histogram_mean(registry_delta, "server_write_hold_seconds")
    layers["updates.hold_ms"] = hold * 1e3
    layers["updates.lock_wait_ms"] = (mean(load.update_seconds) - hold) * 1e3
    layers["updates.repair_ms"] = tracer.mean("updates.repair", 1e3)
    layers["updates.repaired.gtree"] = mean([
        r.repaired.get("gtree", {}).get("nodes_affected", 0)
        for r in load.reports])
    layers["updates.dropped"] = mean([len(r.dropped) for r in load.reports])
    layers["updates.invalidated"] = load.invalidated / batches if batches else 0.0


# ----------------------------------------------------------------------
# serve-hotspot
# ----------------------------------------------------------------------
def run_hotspot(seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    n = NETWORK_VERTICES
    names = list(HOTSPOT_CATEGORIES)
    objects_rng = dataset_rng(11)
    categories = {c: draw_objects(objects_rng, n, d)
                  for c, d in HOTSPOT_CATEGORIES.items()}
    # The hot pool is part of the fixed data set, like the POIs: a pool
    # drawn per seed changes which requests miss the cache and what they
    # cost, which spread p99 from seed to seed.
    pool = [int(v) for v in objects_rng.choice(n, HOT_VERTICES, replace=False)]
    zipf = np.arange(1, HOT_VERTICES + 1, dtype=float) ** -ZIPF_SKEW
    zipf /= zipf.sum()

    def stream(rng, size):
        cats = rng.choice(len(names), size=size, p=CATEGORY_SHARES)
        ranks = rng.choice(HOT_VERTICES, size=size, p=zipf)
        ks = rng.choice(HOTSPOT_KS, size=size)
        return [(pool[r], int(k), names[c]) for c, r, k in zip(cats, ranks, ks)]

    def warmup(server):
        requests = [(v, k, c, None) for v, k, c in
                    stream(np.random.default_rng([seed, 13]), HOTSPOT_WARMUP)]
        _closed_loop(server, requests, OUTSTANDING, lambda *a: None)

    speed = HostSpeed(network())
    probe, system = _setup(out, tracer, speed, categories,
                           categories[names[0]], categories, warmup)
    server = system.server

    _probe(out, probe, HOTSPOT_KS, np.random.default_rng([seed, 16]),
           seconds * PROBE_SHARE, tracer, speed)

    load = LoadStats(HOTSPOT_WINDOW, speed)
    _traced_server(system, load, tracer)
    versions = {c: [ObjectSet(objs)] for c, objs in categories.items()}
    request_rng = np.random.default_rng([seed, 14])
    move_rng = np.random.default_rng([seed, 15])
    before = obs.REGISTRY.snapshot()
    load.begin()
    deadline = load.start + seconds * (1 - PROBE_SHARE)
    while True:
        requests = [(v, k, c, (v, k, c, len(versions[c]) - 1))
                    for v, k, c in stream(request_rng, HOTSPOT_ROUND)]
        _closed_loop(server, requests, OUTSTANDING, load.response)
        category = EDITED_CATEGORY
        current = versions[category][-1]
        gone = int(current.array[move_rng.integers(0, len(current.array))])
        new = int(move_rng.integers(0, n))
        while new in current.members:
            new = int(move_rng.integers(0, n))
        t0 = time.perf_counter()
        try:
            report = server.apply_updates([move_object(gone, new)],
                                          category=category)
        except Exception as exc:  # counted, run goes on
            load.update_errors.append(f"{category} move: {exc!r}")
        else:
            load.update_seconds.append(time.perf_counter() - t0)
            load.reports.append(report)
            versions[category].append(
                ObjectSet((current.members - {gone}) | {new}))
        load.pause()
        if time.perf_counter() >= deadline:
            break
    factor = load.end()
    registry_delta = obs.REGISTRY.delta(before)
    system.close()

    g = system.graph
    reference = Reference(g.vertex_start, g.edge_target, g.edge_weight)
    reference.prepare(pool)
    wrong = []
    for (v, k, c, version), answer in load.answers:
        why = check_answer(reference.row(v), versions[c][version], k, answer)
        if why is not None:
            wrong.append(f"{c} v={v} k={k}: {why}")
    _load_results(out, load, wrong, registry_delta, tracer, factor)
    return out


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------
class _Shadow:
    """The benchmark's own copy of weights and objects, one state per
    acknowledged update batch (state ``i`` follows ``i`` batches)."""

    def __init__(self, graph, objects: Sequence[int]) -> None:
        self.vertex_start = graph.vertex_start.copy()
        self.edge_target = graph.edge_target.copy()
        self.rows = np.repeat(np.arange(graph.num_vertices),
                              np.diff(self.vertex_start))
        self.weights = [graph.edge_weight.copy()]
        self.objects = [ObjectSet(objects)]
        self._references: Dict[int, Reference] = {}

    def apply(self, deltas) -> None:
        weights = self.weights[-1].copy()
        members = set(self.objects[-1].members)
        for d in deltas:
            if hasattr(d, "new_weight"):
                both = (((self.rows == d.u) & (self.edge_target == d.v))
                        | ((self.rows == d.v) & (self.edge_target == d.u)))
                weights[both] = d.new_weight
            elif d.kind == "add":
                members.add(d.vertex)
            else:
                members.discard(d.vertex)
        self.weights.append(weights)
        self.objects.append(ObjectSet(members))

    def reference(self, epoch: int) -> Reference:
        ref = self._references.get(epoch)
        if ref is None:
            ref = self._references[epoch] = Reference(
                self.vertex_start, self.edge_target, self.weights[epoch])
        return ref

    def check_window(self, v: int, k: int, lo: int, hi: int, answer):
        """None if ``answer`` is exact at some state ``lo..hi`` (both
        included), else why it is wrong at each of them."""
        whys = []
        for e in range(lo, hi + 1):
            why = check_answer(self.reference(e).row(v), self.objects[e], k,
                               answer)
            if why is None:
                return None
            whys.append(f"epoch {e}: {why}")
        return "; ".join(whys)


def run_churn(seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    n = NETWORK_VERTICES
    objects = draw_objects(dataset_rng(21), n, CHURN_DENSITY)

    def reads(rng, size):
        vertices = rng.integers(0, n, size)
        ks = rng.choice(CHURN_KS, size=size)
        return [(int(v), int(k)) for v, k in zip(vertices, ks)]

    def warmup(server):
        requests = [(v, k, None, None) for v, k in
                    reads(np.random.default_rng([seed, 22]), CHURN_WARMUP)]
        _closed_loop(server, requests, 1, lambda *a: None)

    speed = HostSpeed(network())
    probe, system = _setup(out, tracer, speed, {"churn": objects}, objects,
                           None, warmup)
    server = system.server
    _probe(out, probe, CHURN_KS, np.random.default_rng([seed, 23]),
           seconds * PROBE_SHARE, tracer, speed)

    graph = system.graph
    shadow = _Shadow(graph, objects)
    base_weight = graph.edge_weight.copy()
    update_rng = np.random.default_rng([seed, 24])
    planned = set(objects)

    def next_batch():
        deltas = []
        for _ in range(WEIGHT_DELTAS_PER_BATCH):
            e = int(update_rng.integers(0, len(base_weight)))
            u, v = int(shadow.rows[e]), int(graph.edge_target[e])
            scale = float(update_rng.uniform(*WEIGHT_SCALE))
            deltas.append(set_weight(u, v, float(base_weight[e]) * scale))
        present = sorted(planned)
        gone = present[int(update_rng.integers(0, len(present)))]
        new = int(update_rng.integers(0, n))
        while new in planned:
            new = int(update_rng.integers(0, n))
        planned.discard(gone)
        planned.add(new)
        return deltas + [remove_object(gone), add_object(new)]

    load = LoadStats(CHURN_WINDOW, speed)
    _traced_server(system, load, tracer)
    epoch = {"started": 0, "acked": 0}
    jobs: queue.Queue = queue.Queue()

    def writer():
        while True:
            job = jobs.get()
            if job is None:
                return
            deltas, go, done = job
            go.wait()
            epoch["started"] += 1
            t0 = time.perf_counter()
            try:
                report = server.apply_updates(deltas)
            except Exception as exc:  # counted, run goes on
                load.update_errors.append(f"batch {epoch['started']}: {exc!r}")
            else:
                load.update_seconds.append(time.perf_counter() - t0)
                load.reports.append(report)
            shadow.apply(deltas)
            epoch["acked"] += 1
            done.set()

    writer_thread = threading.Thread(target=writer, name="bench-writer")
    writer_thread.start()
    read_rng = np.random.default_rng([seed, 25])
    windows: List[tuple] = []

    def on_read(tag, response, client_seconds):
        load.response(tag, response, client_seconds)
        if response is not None and response.ok:
            windows.append((tag[0], tag[1], tag[2], epoch["started"]))

    before = obs.REGISTRY.snapshot()
    load.begin()
    deadline = load.start + seconds * (1 - PROBE_SHARE)
    go = threading.Event()
    try:
        while True:
            go, done = threading.Event(), threading.Event()
            jobs.put((next_batch(), go, done))
            batch = reads(read_rng, CHURN_ROUND_READS)
            half = CHURN_ROUND_READS // 2
            for i, (v, k) in enumerate(batch):
                if i == half:
                    go.set()
                _closed_loop(server, [(v, k, None, (v, k, epoch["acked"]))],
                             1, on_read)
            done.wait()
            load.pause()
            if time.perf_counter() >= deadline:
                break
    finally:
        go.set()  # a writer still waiting for its cue must not hang the join
        jobs.put(None)
        writer_thread.join()
    factor = load.end()
    registry_delta = obs.REGISTRY.delta(before)
    system.close()

    wrong = []
    for (v, k, lo, hi), (_, answer) in zip(windows, load.answers):
        why = shadow.check_window(v, k, lo, hi, answer)
        if why is not None:
            wrong.append(f"v={v} k={k}: {why}")
    _load_results(out, load, wrong, registry_delta, tracer, factor)
    return out
