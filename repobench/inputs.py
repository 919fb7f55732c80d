"""Seeded benchmark inputs and independent exact references.

Every instance is built from a named random stream, ``rng(workload, seed,
purpose)``, so one seed always yields the same inputs.  The seed draws
capacities and structure only: the classes and sizes below are constants,
so every seed sends the same mix.

Exact references never use :mod:`repro.flows`.  Max-flow values come from
``scipy.sparse.csgraph.maximum_flow`` on the integer-capacity edge lists, and
problem optima come from their own flow constructions (or
``maximum_bipartite_matching``), built here from the problem data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow

from repro import FlowNetwork
from repro.graph.generators import bipartite_graph, grid_graph, rmat_graph

Edge = Tuple[Hashable, Hashable, float]


def rng(workload: str, seed: int, purpose: str) -> random.Random:
    """An independent random stream per workload, seed and purpose."""
    return random.Random(f"{workload}/{seed}/{purpose}")


# ----------------------------------------------------------------------
# Independent references
# ----------------------------------------------------------------------


def exact_max_flow(edges: Sequence[Edge], source: Hashable, sink: Hashable) -> int:
    """Maximum s-t flow of an integer-capacity edge list, via SciPy."""
    index: Dict[Hashable, int] = {source: 0, sink: 1}
    rows: List[int] = []
    cols: List[int] = []
    data: List[int] = []
    for tail, head, capacity in edges:
        if capacity != int(capacity):
            raise ValueError(f"capacity {capacity!r} of {tail!r}->{head!r} is not integral")
        if capacity <= 0 or tail == head:
            continue
        rows.append(index.setdefault(tail, len(index)))
        cols.append(index.setdefault(head, len(index)))
        data.append(int(capacity))
    n = len(index)
    matrix = csr_matrix(
        (np.asarray(data, dtype=np.int32), (rows, cols)), shape=(n, n)
    )
    matrix.sum_duplicates()
    return int(maximum_flow(matrix, 0, 1).flow_value)


def edge_list(network: FlowNetwork) -> List[Edge]:
    """The ``(tail, head, capacity)`` triples of a generated network."""
    return [(e.tail, e.head, e.capacity) for e in network.edges()]


@dataclass
class Instance:
    """One generated network plus the data its reference is computed from."""

    name: str
    network: FlowNetwork
    edges: List[Edge]
    _exact: int = field(default=-1, repr=False)

    @property
    def exact(self) -> int:
        """Exact max-flow value (computed once, on first use)."""
        if self._exact < 0:
            g = self.network
            self._exact = exact_max_flow(self.edges, g.source, g.sink)
        return self._exact


def instance(name: str, network: FlowNetwork) -> Instance:
    return Instance(name=name, network=network, edges=edge_list(network))


# ----------------------------------------------------------------------
# Instance classes (fixed sizes; the seed draws structure and capacities)
# ----------------------------------------------------------------------


def rmat(r: random.Random, vertices: int, edges: int) -> Instance:
    """R-MAT network, integer capacities 1..100."""
    seed = r.randrange(2**31)
    return instance(f"rmat-{vertices}x{edges}", rmat_graph(vertices, edges, seed=seed))


def grid(r: random.Random, rows: int, cols: int) -> Instance:
    """4-connected grid (``grid_graph``) with seeded integer capacities."""
    network = grid_graph(rows, cols)
    terminals = (network.source, network.sink)
    for e in network.edges():
        if e.tail in terminals or e.head in terminals:
            network.set_capacity(e.index, float(r.randint(5, 40)))
        else:
            network.set_capacity(e.index, float(r.randint(1, 20)))
    return instance(f"grid-{rows}x{cols}", network)


def unit_bipartite(r: random.Random, left: int, right: int, connectivity: float) -> Instance:
    """Unit-capacity bipartite matching network (``bipartite_graph``)."""
    seed = r.randrange(2**31)
    network = bipartite_graph(left, right, connectivity=connectivity, seed=seed)
    return instance(f"bipartite-{left}x{right}", network)


# ----------------------------------------------------------------------
# Problems (services-mix) and their independent optima
# ----------------------------------------------------------------------


def matching_optimum(left: Sequence, right: Sequence, pairs: Sequence[Tuple]) -> int:
    li = {v: i for i, v in enumerate(left)}
    ri = {v: i for i, v in enumerate(right)}
    unique = sorted({(li[a], ri[b]) for a, b in pairs})
    rows = [a for a, _ in unique]
    cols = [b for _, b in unique]
    graph = csr_matrix(
        (np.ones(len(unique), dtype=np.int32), (rows, cols)),
        shape=(len(left), len(right)),
    )
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def segmentation_optimum(fg: List[List[int]], bg: List[List[int]], smooth: int) -> int:
    """Minimum labeling energy: unary costs plus ``smooth`` per discontinuity."""
    h, w = len(fg), len(fg[0])
    edges: List[Edge] = []
    for y in range(h):
        for x in range(w):
            p = (x, y)
            edges.append(("S", p, bg[y][x]))  # cut when p is background
            edges.append((p, "T", fg[y][x]))  # cut when p is foreground
            for q in ((x + 1, y), (x, y + 1)):
                if q[0] < w and q[1] < h:
                    edges.append((p, q, smooth))
                    edges.append((q, p, smooth))
    return exact_max_flow(edges, "S", "T")


def closure_optimum(profits: Dict[str, int], prerequisites: Sequence[Tuple[str, str]]) -> int:
    """Maximum-weight closure: positive profit minus the minimum cut."""
    big = 1 + sum(abs(v) for v in profits.values())
    edges: List[Edge] = []
    for p, v in profits.items():
        if v > 0:
            edges.append(("S", p, v))
        elif v < 0:
            edges.append((p, "T", -v))
    for a, b in set(prerequisites):
        edges.append((a, b, big))
    return sum(v for v in profits.values() if v > 0) - exact_max_flow(edges, "S", "T")


def disjoint_paths_optimum(arcs: Sequence[Tuple], source, sink, vertex_disjoint: bool) -> int:
    """Menger: unit-capacity flow, with split internal vertices if required."""
    if not vertex_disjoint:
        return exact_max_flow([(a, b, 1) for a, b in set(arcs)], source, sink)

    def out(v):
        return v if v in (source, sink) else ("out", v)

    def inn(v):
        return v if v in (source, sink) else ("in", v)

    edges: List[Edge] = [(out(a), inn(b), 1) for a, b in set(arcs)]
    internal = {v for arc in arcs for v in arc} - {source, sink}
    edges += [(inn(v), out(v), 1) for v in internal]
    return exact_max_flow(edges, source, sink)
