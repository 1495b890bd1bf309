"""Host-speed calibration for the benchmark's end-to-end times.

On a shared virtual machine the host's speed drifts by up to 2x over
fractions of a second to minutes (measured on a 2-core 2.1 GHz Xeon VM),
and the program's tasks slow down in step with any fixed piece of Python and
numpy code.  So the runner times a fixed probe while each task runs and
between tasks, and scales the task's host time by
``REFERENCE_S / mean probe time``: a task's time in *reference seconds* is
what it would take on a host that runs the probe in exactly ``REFERENCE_S``.
The probe never changes with the program, so a faster program still reads
faster.  Raw host times are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# About the probe's time on an unloaded 2-core 2.1 GHz Xeon VM (Python 3.11,
# numpy 2.4).  It fixes the unit only; changing it rescales every time.
REFERENCE_S = 0.3e-3

# Probe period while a task runs: about 1% of the task's time goes to probes
# and is taken out of its host time again.
_INTERVAL_S = 0.03

_MATRIX = np.eye(5) * 2.0 + 0.1
_RHS = np.arange(5.0)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _step(x: float, p: _Point) -> float:
    return p.a * x * x + p.b


def _probe() -> float:
    """Interpreter work of the program's kind: float arithmetic, calls,
    attribute and dict traffic, and small numpy calls including an LU."""
    acc = 0.0
    p = _Point(0.5, 1e-3)
    table = {}
    for i in range(450):
        acc += _step(i * 1e-3, p)
        table[i & 31] = acc
    for _ in range(30):
        x = np.linalg.solve(_MATRIX, _RHS)
        acc += float(np.max(np.abs(x)))
    return acc


def probe_seconds(repeats: int = 5) -> float:
    """Median host time of ``repeats`` runs of the probe."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _probe()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedMeter:
    """Times the probe every ``_INTERVAL_S`` while a task runs, from a
    ``SIGALRM`` timer whose handler runs between the task's bytecodes.

    Use from the main thread: ``start()`` before the task, ``stop()`` after;
    ``stop`` returns the probe times taken meanwhile.
    """

    def __init__(self):
        self._samples: list[float] = []
        self._on = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._on:  # a tick already queued when stop() ran is dropped
            t0 = perf_counter()
            _probe()
            self._samples.append(perf_counter() - t0)

    def start(self) -> None:
        self._samples = []
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, _INTERVAL_S, _INTERVAL_S)

    def stop(self) -> list[float]:
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        return self._samples
