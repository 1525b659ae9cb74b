"""A fixed reference workload that gauges how fast the host runs right now.

The benchmark runs on shared virtual machines whose speed drifts by 15-50%
over minutes, and by up to 2x in bad minutes, for every process alike (CPU
time drifts with wall time).  Medians within a run absorb short bursts but not
drift between runs.  So a ``Sampler`` interrupts the run at a fixed wall-time
interval and times one probe: pure-Python graph work of the same kind as the
package's (tuples, sets, adjacency lists, breadth-first augmenting paths) plus
a few small numpy operations.  The probe never changes with the package.  The
probe times over ``NOMINAL_S`` give the run's host slowdown, by which the
benchmark scales its times to nominal host speed.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from collections import deque

import numpy as np

# About one probe's time inside a run on a 2-core Intel Xeon virtual machine.
# It sets only the scale of the reported times.
NOMINAL_S = 0.013
LEFT, RIGHT, DEGREE = 400, 400, 10


def _augmenting_matching(adj: list[list[int]]) -> int:
    """Maximum matching size by one breadth-first augmenting path per vertex."""
    match_left = [-1] * len(adj)
    match_right = [-1] * RIGHT
    for root in range(len(adj)):
        parent = {}
        queue = deque([root])
        seen = {root}
        end = -1
        while queue and end < 0:
            u = queue.popleft()
            for r in adj[u]:
                if r in parent:
                    continue
                parent[r] = u
                if match_right[r] < 0:
                    end = r
                    break
                if match_right[r] not in seen:
                    seen.add(match_right[r])
                    queue.append(match_right[r])
        while end >= 0:
            u = parent[end]
            previous = match_left[u]
            match_left[u], match_right[end] = end, u
            end = previous
    return sum(m >= 0 for m in match_left)


def reference_work() -> int:
    """The fixed work one probe times; returns a checksum of its results."""
    rng = random.Random(20261017)
    edges = tuple((l, rng.randrange(RIGHT)) for l in range(LEFT) for _ in range(DEGREE))
    unique = sorted(set(edges))
    adj: list[list[int]] = [[] for _ in range(LEFT)]
    for l, r in unique:
        adj[l].append(r)
    size = _augmenting_matching(adj)
    weights = np.random.default_rng(7).random((256, 256))
    weights /= weights.sum(axis=1, keepdims=True)
    order = np.argsort(weights, axis=None, kind="stable")
    return size + int(order[:16].sum()) + len(unique)


EXPECTED = reference_work()


def probe() -> float:
    """Seconds one run of the reference work takes now.

    The cyclic garbage collector is off meanwhile, so that the time does not
    depend on how many objects the package keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = reference_work()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if checksum != EXPECTED:
        raise RuntimeError("reference work gave a different result")
    return elapsed


class Sampler:
    """Probes the host every ``every`` seconds of wall time while entered.

    It probes once on entry.  Then a ``SIGALRM`` timer runs each probe between
    two bytecodes of whatever the main thread is doing, so probes sample every phase of a run evenly, and
    no second thread or process competes with the workload.  The intervals
    the probes take are recorded; ``active`` leaves them out of a duration.
    With ``every=None`` it never probes.
    """

    def __init__(self, every: float | None):
        self.every = every
        self.probe_s: list[float] = []
        self._pause_start: list[float] = []
        self._paused_before: list[float] = [0.0]
        self._previous = None

    def __enter__(self) -> "Sampler":
        if self.every is not None:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self._on_alarm(signal.SIGALRM, None)  # probes once and arms the timer
        return self

    def __exit__(self, *exc) -> None:
        if self.every is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe_s.append(probe())
        finish = time.perf_counter()
        self._pause_start.append(start)
        self._paused_before.append(self._paused_before[-1] + finish - start)
        signal.setitimer(signal.ITIMER_REAL, self.every)

    def active(self, begin: float, finish: float) -> float:
        """``finish - begin`` less the probes that started in between."""
        first = bisect.bisect_left(self._pause_start, begin)
        last = bisect.bisect_left(self._pause_start, finish)
        return finish - begin - (self._paused_before[last] - self._paused_before[first])

    def slowdown(self) -> float:
        """Host slowdown over everything sampled.

        With host speed s(t) a probe takes NOMINAL_S / s(t); a duration
        scales with the time-weighted harmonic mean of the probe times.
        """
        return statistics.harmonic_mean(self.probe_s) / NOMINAL_S
