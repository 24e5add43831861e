"""Machine-speed calibration: a fixed reference loop timed during each measurement.

The benchmark runs on shared machines whose speed drifts by 10 to 20% over
seconds to minutes, for wall time and process CPU time alike, while a
single verdict takes 10 to 25 s.  So the same verdict timed minutes apart
differs by about as much as a regression the benchmark must catch.  Over
five rounds of the four workloads, the verdict time correlated with this
loop's time at 0.96 to 0.98 (0.79 for the memory-heavier Hopf workload).

A ``Calibrator`` times a fixed pure-Python reference loop before the
measured interval, after it, and every ``PERIOD_S`` inside it, from a
``SIGALRM`` handler that runs between the program's bytecodes.  The
handler's own time is taken out of the measured interval, and the interval
is then scaled to the nominal speed: ``scaled = net * NOMINAL_REF_S /
median(reference times)``.  A scaled time is the time the measured code
would take on a machine where the reference loop takes exactly
``NOMINAL_REF_S``, the same on every run, so a program change moves it and
a slow spell of the machine mostly does not.  Wall and CPU time are scaled
by the reference's wall and CPU time respectively.

The reference loop allocates no container and runs with the cyclic garbage
collector off, so its time does not depend on how large the program's heap
has grown.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

# Iterations of the reference loop, and its nominal time: about its median
# over runs of all four workloads on a shared 2-vCPU Intel Xeon VM at
# 2.1 GHz with Python 3.11.7, where single runs ranged from 5.4 to 8.2 ms.
# Changing either changes every scaled time, so both stay fixed.
REF_ITERS = 60_000
NOMINAL_REF_S = 0.0075
# A reference run inside the measured interval every PERIOD_S seconds of wall
# time; with a reference of about 8 ms that adds about 4%.
PERIOD_S = 0.2
# Reference runs on each side of the measured interval.
BRACKET = 2

_TABLE = tuple((i * 7919) % 65521 for i in range(256))


def reference() -> tuple:
    """Wall and CPU seconds of one run of the fixed reference loop."""
    table = _TABLE
    enabled = gc.isenabled()
    gc.disable()
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + table[i & 255]) % 65521
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if enabled:
        gc.enable()
    return wall, cpu


class Calibrator:
    """Times one interval and scales it to the nominal machine speed.

    ::

        cal = Calibrator()
        with cal:
            work()
        cal.scaled_wall_s, cal.scaled_cpu_s, cal.raw_wall_s
    """

    def __init__(self):
        self.refs: list = []
        self._inside_wall = 0.0
        self._inside_cpu = 0.0

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.refs.append(reference())
        self._inside_wall += time.perf_counter() - w0
        self._inside_cpu += time.process_time() - c0

    def __enter__(self):
        self.refs.extend(reference() for _ in range(BRACKET))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._w0, self._c0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        wall, cpu = time.perf_counter() - self._w0, time.process_time() - self._c0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.refs.extend(reference() for _ in range(BRACKET))
        self.raw_wall_s = wall - self._inside_wall
        self.raw_cpu_s = cpu - self._inside_cpu
        ref_wall = statistics.median(r[0] for r in self.refs)
        ref_cpu = statistics.median(r[1] for r in self.refs)
        self.scaled_wall_s = self.raw_wall_s * NOMINAL_REF_S / ref_wall
        self.scaled_cpu_s = self.raw_cpu_s * NOMINAL_REF_S / ref_cpu


class Stopwatch:
    """Times one interval without calibration; its scaled times are None."""

    scaled_wall_s = scaled_cpu_s = None

    def __enter__(self):
        self._w0, self._c0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_wall_s = time.perf_counter() - self._w0
        self.raw_cpu_s = time.process_time() - self._c0
