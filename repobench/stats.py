"""Small numeric helpers shared by the workloads and the reports."""

from __future__ import annotations

import statistics
from typing import Iterable, List, Sequence, Tuple

import numpy as np


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if len(values) else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    merged = merge(intervals)
    return sum(end - start for start, end in merged)


def merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def clip(intervals: Iterable[Tuple[float, float]], lo: float, hi: float):
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            yield start, end


def overlap(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    """Length covered by both of two merged interval lists (two-pointer walk)."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
