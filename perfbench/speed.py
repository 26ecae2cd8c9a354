"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by 10-25% over tens of seconds
(other tenants' load), and a run is too short to average the drift out, so
raw timings spread more between runs than the benchmark's bounds allow. A
fixed probe of interpreter and small-matrix work (the same mix as qauthlab's
engine) is timed before the first timed step and after every step, and each
step's duration is rescaled to the speed at which the probe takes
``REFERENCE_S``, using the median of the probes around the step:

    calibrated = raw * REFERENCE_S / median(up to 3 probes before, 3 after)

Calibrated seconds are raw seconds on a host where the probe runs at
``REFERENCE_S``. The probe is benchmark code that the program never touches,
so a program change moves calibrated and raw time alike; raw times and
probes are recorded next to them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.020
WINDOW = 3
_LOOP = 150_000
_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    t0 = perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    a = _MATRIX.copy()
    for _ in range(16):
        a = a @ a
        a /= np.abs(a).max()
    return perf_counter() - t0


def calibrate(raw: list[float], probes: list[float]) -> list[float]:
    """Calibrated durations of steps timed between ``probes[i]`` and ``probes[i + 1]``."""
    return [
        seconds * REFERENCE_S / statistics.median(probes[max(0, i - WINDOW + 1): i + WINDOW + 1])
        for i, seconds in enumerate(raw)
    ]
