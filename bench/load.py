"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same work runs 20-70% slower in some minutes than in
others, and the process's CPU time slows as much as its wall time. Timing
the program alone then measures the neighbours as much as the program. The
probe runs a fixed kernel (BFS from every vertex of a 48-vertex tree in pure
Python, then ``numpy.linalg.eigvalsh`` of its adjacency matrix: the mix of
the program's hot paths) between units of the program's work, once every
INTERVAL_S of it, so that its calls sample the machine evenly over the time
the program is measured.

``correct()`` turns a unit's measured time into its load-corrected time: the
time x REFERENCE_S / the probe's mean call over the unit and the WINDOW_S
before it. That is the time the unit takes on a machine where the kernel
runs in REFERENCE_S. The window follows the machine's speed as it changes
within a run; one factor for the whole run would leave a unit timed in a
slow minute slower than one timed in a fast minute. The kernel never
changes, so a change to the program moves a corrected time as it moves the
raw one. The fastest call of a run is not used in place of the constant: it
moved by 5-20% between runs.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

ORDER = 48
# The probe costs about 0.5 ms a call, 2-3% of the time it samples.
INTERVAL_S = 0.02
WINDOW_S = 1.0
# The kernel's fastest calls on the 2-core Xeon VM of the baseline
# (bench/README.md), where the mean call read 0.55-0.85 ms.
REFERENCE_S = 0.0004


class LoadProbe:
    def __init__(self):
        rng = random.Random(0)
        self._adj = [[] for _ in range(ORDER)]
        for v in range(1, ORDER):
            u = rng.randrange(v)
            self._adj[u].append(v)
            self._adj[v].append(u)
        self._matrix = np.zeros((ORDER, ORDER))
        for u, nbrs in enumerate(self._adj):
            self._matrix[u, nbrs] = 1.0
        for _ in range(3):  # untimed warm-up
            self._kernel()
        self.times: list[float] = []
        self._starts: list[float] = []
        self._cumulative = [0.0]
        self._last = float("-inf")
        # Set while a traced round runs, so that probe time counts as no
        # layer's self time.
        self.tracer = None

    def _kernel(self) -> None:
        adj = self._adj
        for s in range(ORDER):
            dist = [-1] * ORDER
            dist[s] = 0
            queue = [s]
            for u in queue:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        queue.append(v)
        np.linalg.eigvalsh(self._matrix)

    def __call__(self) -> float:
        """Run the kernel if INTERVAL_S has passed since it last ran; return
        its duration (or 0.0), to be left out of the program's time."""
        start = perf_counter()
        if start - self._last < INTERVAL_S:
            return 0.0
        self._kernel()
        self._last = perf_counter()
        seconds = self._last - start
        self.times.append(seconds)
        self._starts.append(start)
        self._cumulative.append(self._cumulative[-1] + seconds)
        if self.tracer is not None:
            self.tracer.exclude(seconds)
        return seconds

    def correct(self, start: float, seconds: float) -> float:
        """`seconds` of program work that began at `start` and has just
        ended, load-corrected by the probe calls since WINDOW_S before it."""
        first = min(bisect_left(self._starts, start - WINDOW_S), len(self._starts) - 1)
        mean = (self._cumulative[-1] - self._cumulative[first]) / (len(self._starts) - first)
        return seconds * REFERENCE_S / mean

    def factor(self) -> float:
        """REFERENCE_S / the mean call over the whole run."""
        return REFERENCE_S / statistics.fmean(self.times)
