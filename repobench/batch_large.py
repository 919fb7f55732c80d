"""batch-large: one client in a closed loop of ``BatchSolveService().solve_batch``.

Why: each call holds ``BATCH`` instances of 4.6k to 8k edges on the default
``"dinic"`` route (Fig. 10 dense and sparse R-MAT at scale 1.0, plus
grids), so time goes to kernel sweeps, lowering and the batch executor,
with no server, coalescing or analog substrate in the path.  Batches are
small enough that a run makes well over 100 calls; every pass over the
pool reshuffles which instances share a batch.
"""

from __future__ import annotations

import time
from typing import List

from repro.service import BatchSolveService, SolveRequest

from . import closed_loop, inputs
from .workload import Measurement

NAME = "batch-large"

# Fig. 10 at scale 1.0: dense |E| = 8.7e-3 |V|^2 (capped at 8000), sparse |E| = 6 |V|.
FIG10_VERTICES = (768, 832, 896, 960)
GRIDS = ((40, 40), (41, 41), (42, 42), (43, 43), (44, 44)) * 2
BATCH = 3

DECLARED_SPANS = (
    "batch.solve_batch", "batch.map", "backend.solve",
    "flows.resolve_default", "flows.solve",
)
ENTRY_SPANS = ("batch.solve_batch",)


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        start = time.perf_counter()
        r = inputs.rng(NAME, seed, "pool")
        self.pool: List[inputs.Instance] = []
        for v in FIG10_VERTICES:
            self.pool.append(inputs.rmat(r, v, min(8000, round(8.7e-3 * v * v))))
            self.pool.append(inputs.rmat(r, v, 6 * v))
        self.pool += [inputs.grid(r, rows, cols) for rows, cols in GRIDS]
        self.build_s = time.perf_counter() - start
        self.requests = [SolveRequest(network=i.network, backend="dinic") for i in self.pool]
        self.service = BatchSolveService()
        self.batches = None  # the endless batch order, started by the first window
        report = self.service.solve_batch(self.requests[:BATCH])
        if report.num_failed:
            raise RuntimeError(f"warm-up batch failed: {report.error_counts()}")

    def close(self) -> None:
        pass


def setup(seed: int, seconds: float) -> State:
    return State(seed)


def _batches(state: State):
    """Endless batches: each pass reshuffles the pool into groups of ``BATCH``."""
    r = inputs.rng(NAME, state.seed, "batches")
    order = list(range(len(state.pool)))
    while True:
        r.shuffle(order)
        for i in range(0, len(order), BATCH):
            yield order[i:i + BATCH]


def window(state: State, seconds: float, ledger) -> Measurement:
    """Measure ``seconds`` of calls; a later window continues where this one stopped."""
    if state.batches is None:
        state.batches = _batches(state)

    def call():
        indices = next(state.batches)
        report = state.service.solve_batch([state.requests[i] for i in indices])
        answer = []
        for index, result in zip(indices, report.results):
            if result.ok:
                ledger.flow(state.pool[index].network, result.flow_value, result.edge_flows)
            answer.append((index, result.ok, result.flow_value, result.error))
        return answer

    calls_per_pass = -(-len(state.pool) // BATCH)
    return closed_loop.run(seconds, call, chunk=calls_per_pass)




def judge(state: State, m: Measurement, ledger) -> None:
    for answer in m.answers:
        for index, ok, value, error in answer:
            inst = state.pool[index]
            if not ok:
                ledger.fail(f"{inst.name}: {error}")
                continue
            ledger.exact(value, inst.exact, inst.name)
