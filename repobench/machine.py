"""Machine stamp: what a record was measured on, plus a fixed calibration loop.

Records from different machines are compared through the stamp: ``nproc``,
the CPU model, the Python/NumPy/SciPy versions and ``calibration_ms``, the
median time of a fixed interpreter-plus-NumPy loop.  A ratio of two
machines' ``calibration_ms`` normalises their timings.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np
import scipy


def calibration_ms(repeats: int = 5) -> float:
    """Median wall time of one fixed loop (pure Python, then NumPy)."""
    data = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        np.sort(data)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "calibration_ms": calibration_ms(),
    }
