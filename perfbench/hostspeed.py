"""How fast the host runs right now, from fixed work of the benchmark's own.

The reference host shares its cores with other tenants: the same queries
take up to 1.6x longer for seconds at a time, and a 20-second run can
land in a slow or a fast stretch.  Raw wall times then spread by a
quarter or more from run to run, which hides any change smaller than
that.  So every phase of a run samples a calibration task every
``INTERVAL_S`` and its times are scaled by ``REFERENCE_S / (mean
calibration time of the phase)``: they read what the run would have
measured had the host run at its reference speed throughout.  Over
3-second stretches this cut the quartile spread of a fixed query mix
from 0.15 to 0.06 on the reference host.

The calibration is a pure-Python loop plus a heap-and-array Dijkstra over
the network's own arrays -- the kind of work the program does -- written
here, so no change to the program can change it.  It is timed in the
calling thread's CPU time (``time.thread_time``), not wall time: on the
serve workloads the server's worker and supervisor threads share the
run's one core, and CPU they take during a sample must not read as a
slow host.  On the reference host the shared cores' slowdown shows in
CPU time as it does in wall time (the process's CPU time tracked its
wall time), so a slow stretch is still seen.
"""

from __future__ import annotations

import heapq
import time
from typing import List

import numpy as np

#: Median calibration CPU time on the reference host (2-core Xeon VM,
#: 2.1 GHz).
REFERENCE_S = 0.026
#: Least time between two samples of one phase.
INTERVAL_S = 1.0
CALIBRATION_SOURCES = (0, 600)
CALIBRATION_LOOP = 150_000


class HostSpeed:
    def __init__(self, graph) -> None:
        self.starts = np.asarray(graph.vertex_start).copy()
        self.targets = np.asarray(graph.edge_target).copy()
        self.weights = np.asarray(graph.edge_weight).copy()
        self.samples: List[float] = []
        self._last = 0.0

    def _calibrate(self) -> None:
        x = 0
        for i in range(CALIBRATION_LOOP):
            x += i
        n = len(self.starts) - 1
        for source in CALIBRATION_SOURCES:
            dist = np.full(n, np.inf)
            dist[source] = 0.0
            done = np.zeros(n, dtype=bool)
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                lo, hi = self.starts[u], self.starts[u + 1]
                targets = self.targets[lo:hi]
                reach = d + self.weights[lo:hi]
                better = reach < dist[targets]
                for v, w in zip(targets[better].tolist(), reach[better].tolist()):
                    dist[v] = w
                    heapq.heappush(heap, (w, v))

    def sample(self) -> None:
        start = time.thread_time()
        self._calibrate()
        self.samples.append(time.thread_time() - start)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample if the last sample is older than ``INTERVAL_S``."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """``REFERENCE_S`` over the mean calibration time since ``since``."""
        taken = self.samples[since:]
        return REFERENCE_S * len(taken) / sum(taken)
