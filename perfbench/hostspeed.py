"""Host speed probe, for timing on a host whose speed drifts.

The 2-vCPU host this benchmark was defined on runs the same code up to 1.8x
slower for stretches of a fraction of a second to minutes (the whole
per-call latency distribution shifts; the process is not paused).  A fixed
calibration loop of the same kind of work slows by about the same factor:
over 2 s windows, raw chunk times of the ``point-stream`` queries varied by
+-27% while their ratio to the interpreter loop's time varied by +-1%.
Interpreter-bound and numpy-bound code slow by different factors, so there
are two loops, and each workload names the one that matches where its time
goes (``Workload.speed_loop``).

:class:`SpeedProbe` runs a loop from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds, in the benchmark's own thread, and keeps each
sample.  Its :meth:`SpeedProbe.clock` excludes the handler's time, and
:meth:`SpeedProbe.factor` gives the loop's reference time over its time
near an interval: multiplying a measured time by it gives the time at the
reference speed, and dividing a rate by it gives the rate at that speed.
"""

from __future__ import annotations

import cmath
import signal
import time

import numpy as np

INTERVAL_S = 0.05

_POWERS = np.arange(2000)
_MATRIX = np.eye(12) * 4.0 + np.arange(144).reshape(12, 12) % 5 * (0.5 + 0.25j)
_RHS = np.ones(12, dtype=complex)


def python_loop() -> complex:
    """Interpreter-bound work: calls and complex arithmetic, like the
    package's scalar path."""
    acc = 0j
    for i in range(1500):
        z = complex(i % 7, 1.0)
        acc += cmath.exp(1j * (i & 15)) / (3.0 + z * z) + abs(z) * 1e-3
    return acc


def numpy_loop() -> complex:
    """numpy-bound work like ``verify``'s: geometric series of 2000 complex
    powers summed smallest first, and a dense 12x12 complex solve."""
    acc = 0j
    for k in range(2):
        acc += complex(np.power(0.999 * cmath.exp(0.3j * (k + 1)), _POWERS)[::-1].sum())
    return acc + complex(np.linalg.solve(_MATRIX, _RHS)[0])


# Loop -> seconds it takes on the reference host at its usual (fast) speed:
# the 10th percentile of its samples over a minute on a 2-vCPU Intel Xeon
# at 2.1 GHz with CPython 3.11 and numpy 2.4.
LOOPS = {"python": (python_loop, 0.80e-3), "numpy": (numpy_loop, 1.00e-3)}

# No loop allocates objects the garbage collector tracks, so a sample cannot
# trigger a collection of the program's objects.


def loop_seconds(kind: str) -> float:
    loop, _ = LOOPS[kind]
    start = time.perf_counter_ns()
    loop()
    return (time.perf_counter_ns() - start) / 1e9


class SpeedProbe:
    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = LOOPS[kind][1]
        self.samples: list[tuple[int, float]] = []  # (start ns, loop seconds)
        self.handler_ns = 0
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        seconds = loop_seconds(self.kind)
        self.samples.append((start, seconds))
        self.handler_ns += time.perf_counter_ns() - start

    def clock(self) -> int:
        """``perf_counter_ns`` minus the time spent in the handler."""
        while True:
            spent = self.handler_ns
            now = time.perf_counter_ns()
            if spent == self.handler_ns:
                return now - spent

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Reference time over the median loop time of the samples taken
        within one interval of [start_ns, end_ns] (``perf_counter_ns``)."""
        margin = int(INTERVAL_S * 1e9)
        near = sorted(s for t, s in self.samples if start_ns - margin <= t <= end_ns + margin)
        if not near:
            near = [loop_seconds(self.kind)]
        return self.reference_s / near[len(near) // 2]
