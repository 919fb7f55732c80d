"""Answer checking: every operation is scored against an independent reference.

During the timed region the workloads only *record* answers (cheap tuples);
:class:`Ledger` judges them afterwards, so the check costs no measured time.

* An **exact** answer (classical routes, problems, converged shards) must
  equal its reference to ``EXACT_RTOL``; anything else is a failed
  operation.
* An **approximate** answer (the analog substrate, unconverged shards) is
  scored, not failed: its accuracy ``max(0, 1 - |value - exact| / exact)``
  feeds ``answer_accuracy_mean``.  An unconverged shard must still bracket
  the exact value between its dual and feasible bounds.
* Each distinct returned exact flow is certified once with
  :func:`repro.resilience.failover.certify_flow_result` (feasibility, value,
  strong duality); a flow that fails its certificate fails every operation
  that returned it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError

EXACT_RTOL = 1e-9


def flow_key(ref, value: float, edge_flows: Dict[int, float]) -> Tuple:
    """Identity of one returned flow: its network (object or label) and its values."""
    return (ref if isinstance(ref, tuple) else id(ref), value, hash(tuple(edge_flows.values())))


class Ledger:
    """Counts attempted and failed operations and accumulates accuracy."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.accuracy: List[float] = []
        self.problems: List[str] = []
        # key -> [network, value, edge_flows, times returned]
        self._flows: Dict[Tuple, list] = {}

    # -- recording (inside the timed region: keep it cheap) -------------

    def flow(self, ref, value: float, edge_flows: Dict[int, float]) -> None:
        """Remember an exact flow for certification after the timed region.

        ``ref`` is the :class:`FlowNetwork` the flow answers, or a tuple
        label that :meth:`certify`'s ``resolve`` turns into one later.
        """
        key = flow_key(ref, value, edge_flows)
        entry = self._flows.get(key)
        if entry is None:
            # Compact copy: the benchmark's memory counts in peak_rss_mb.
            flows = (
                np.fromiter(edge_flows.keys(), dtype=np.int64, count=len(edge_flows)),
                np.fromiter(edge_flows.values(), dtype=np.float64, count=len(edge_flows)),
            )
            self._flows[key] = [ref, value, flows, 1]
        else:
            entry[3] += 1

    # -- judging ---------------------------------------------------------

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(why)

    def exact(self, value: float, reference: float, label: str) -> None:
        """An exact route's answer: equal to the reference or failed."""
        self.attempted += 1
        if abs(value - reference) <= EXACT_RTOL * max(1.0, abs(reference)):
            self.accuracy.append(1.0)
        else:
            self.failed += 1
            self._note(f"{label}: returned {value!r}, exact {reference!r}")

    def approx(self, value: float, reference: float, label: str) -> None:
        """An approximate answer: scored by its relative error, never failed."""
        self.attempted += 1
        if reference <= 0:
            self.failed += 1
            self._note(f"{label}: reference {reference!r} is not positive")
            return
        self.accuracy.append(max(0.0, 1.0 - abs(value - reference) / reference))

    def bracket(self, low: float, value: float, reference: float, label: str) -> None:
        """An unconverged shard: scored, and ``low <= exact <= value`` must hold."""
        tol = 1e-6 * max(1.0, abs(reference))
        if not (low - tol <= reference <= value + tol):
            self.fail(f"{label}: bounds [{low!r}, {value!r}] miss exact {reference!r}")
            return
        self.approx(value, reference, label)

    def certify(self, certify_fn: Callable, resolve: Optional[Callable] = None) -> int:
        """Certify every distinct flow recorded since the last call; returns how many."""
        flows, self._flows = self._flows, {}
        for ref, value, (keys, values), times in flows.values():
            network = resolve(ref) if isinstance(ref, tuple) else ref
            edge_flows = dict(zip(keys.tolist(), values.tolist()))
            try:
                certify_fn(network, value, edge_flows, exact=True)
            except ReproError as exc:
                self.failed += times
                self._note(f"certificate failed: {exc}")
        return len(flows)

    @property
    def accuracy_mean(self) -> float:
        return sum(self.accuracy) / len(self.accuracy) if self.accuracy else 0.0

    def _note(self, why: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(why)
