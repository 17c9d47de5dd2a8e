"""Host-speed probe: scales measured times to a reference host speed.

The benchmark's host is a shared virtual machine whose speed drifts by tens
of per cent over minutes, so two runs of the same code a few minutes apart
can differ by a third in wall time.  A fixed probe of a few milliseconds of
interpreter and numpy work is timed again and again.  PROBE_NOMINAL_S over
its measured time is the host's speed at that moment, relative to the
reference speed at which the probe takes PROBE_NOMINAL_S.  The benchmark
scales every time it reports by that speed, so its times are seconds on a
host running at the reference speed throughout.

During a pass, SIGALRM runs the probe every INTERVAL_S seconds, between
bytecodes of the main thread.  The time spent in probes is taken out of the
pass, and each stretch of the pass is scaled by the probe that ends it.
The probe runs once untimed and then once timed, with the garbage collector
off, so that neither the pass's use of the caches nor its heap changes what
it measures.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# About the probe's median time on the 2-CPU host of the baseline in README.md.
PROBE_NOMINAL_S = 1.7e-3
INTERVAL_S = 0.1

_N = 64
_ROWS = [[(a * b + a + b) % _N for b in range(_N)] for a in range(_N)]
_ARRAY = np.random.default_rng(0).integers(0, 1000, size=16384).astype(np.int16)


def _interpreter_work():
    rows = _ROWS
    seen = [0] * _N
    total = 0
    for x in range(8 * _N):
        row = rows[x % _N]
        for y in range(0, _N, 2):
            z = row[y]
            if seen[z]:
                total += z
            else:
                seen[z] = 1
    return total


def _work():
    _interpreter_work()
    np.unique(_ARRAY[::-1])


def probe():
    """Seconds the fixed probe takes now, with its data already in cache."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()  # untimed: the pass has evicted the probe's data
        t = time.perf_counter()
        _work()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def speed_now(probes=5):
    """Reference speed over the host's speed, from the median of a few probes."""
    return PROBE_NOMINAL_S / statistics.median(probe() for _ in range(probes))


class Sampler:
    """Probes the host's speed while a pass runs; see the module docstring."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []  # (start, end, probe seconds) of each probe
        self.t0 = self.t1 = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        dt = probe()
        self.samples.append((start, time.perf_counter(), dt))

    def start(self):
        self.samples = []
        # The first call imports what np.unique loads lazily; made from the
        # handler while the pass is inside an import, it can recurse without end.
        probe()
        signal.signal(signal.SIGALRM, self._handler)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.t1 = time.perf_counter()
        # A SIGALRM raised just before the timer stopped may still be on its
        # way to one of numpy's threads; ignored, it cannot end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        # a closing probe scales the stretch after the last timed one
        self._handler(None, None)

    def times(self):
        """(raw, scaled) seconds of the pass, probes taken out of both."""
        raw = scaled = 0.0
        prev = self.t0
        for start, end, dt in self.samples:
            stretch = max(min(start, self.t1) - prev, 0.0)
            raw += stretch
            scaled += stretch * PROBE_NOMINAL_S / dt
            prev = end
        return raw, scaled

    def median_probe_s(self):
        return statistics.median(dt for _, _, dt in self.samples)
