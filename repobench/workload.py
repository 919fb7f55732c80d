"""What every workload module provides, and what one measurement returns."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass
class Measurement:
    """Raw observations of one measured phase (judged after timing)."""

    latencies_ms: List[float] = field(default_factory=list)
    ops: int = 0
    window_s: float = 0.0
    # Completion rates of consecutive chunks of equal work; when present,
    # ``ops_per_s`` is their median, which a burst of machine noise or one
    # slow instance cannot drag as far as it drags the overall mean.
    chunk_rates: List[float] = field(default_factory=list)
    # (start, end) of every operation, for trace coverage.
    op_intervals: List[Tuple[float, float]] = field(default_factory=list)
    # Workload-specific answer records, judged by the workload's ``judge``.
    answers: List[Any] = field(default_factory=list)
    # Operations that raised instead of answering (each one a failure).
    errors: List[str] = field(default_factory=list)
    # Extra facts for the run record and the per-layer metrics.
    record: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        if self.chunk_rates:
            return statistics.median(self.chunk_rates)
        return self.ops / self.window_s if self.window_s > 0 else 0.0

    def extend(self, other: "Measurement") -> None:
        """Fold a later window's observations into this one."""
        self.ops += other.ops
        self.window_s += other.window_s
        self.chunk_rates += other.chunk_rates
        self.latencies_ms += other.latencies_ms
        self.op_intervals += other.op_intervals
        self.answers += other.answers
        self.errors += other.errors
        for key, value in other.record.items():
            if isinstance(value, list):
                self.record.setdefault(key, []).extend(value)
            else:
                self.record[key] = value
