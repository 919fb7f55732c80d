"""Directed flow-network data structure.

A :class:`FlowNetwork` is a directed graph ``G = (V, E)`` with a nonnegative
capacity on every edge and two distinguished vertices, the source ``s`` and
the sink ``t`` (Section 2 of the paper).  Vertices are arbitrary hashable
labels; edges are identified by an integer index so that parallel edges are
supported (the analog substrate allocates one circuit node per edge, so edge
identity matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    EdgeNotFoundError,
    InvalidGraphError,
    VertexNotFoundError,
)

__all__ = ["Edge", "FlowNetwork", "is_valid_capacity"]

Vertex = Hashable


def is_valid_capacity(capacity: float) -> bool:
    """True for a non-negative capacity; NaN is rejected, ``inf`` allowed (§6.5).

    The one boundary predicate shared by every capacity entry point
    (:class:`Edge`, :meth:`FlowNetwork.add_edge`,
    :meth:`FlowNetwork.set_capacity` and the streaming update log).
    """
    return capacity >= 0  # NaN compares False


@dataclass(frozen=True)
class Edge:
    """A single directed edge of a flow network.

    Attributes
    ----------
    index:
        Stable integer identifier of the edge within its network.  The analog
        compiler names the corresponding circuit node ``x{index}``.
    tail, head:
        Edge goes from ``tail`` to ``head``.
    capacity:
        Nonnegative edge capacity ``c_e``.  ``float('inf')`` is allowed and
        denotes an uncapacitated edge (used by the Section 6.5 example).
    """

    index: int
    tail: Vertex
    head: Vertex
    capacity: float

    def __post_init__(self) -> None:
        if not is_valid_capacity(self.capacity):
            raise InvalidGraphError(
                f"edge {self.tail}->{self.head} has invalid capacity {self.capacity}"
            )

    @property
    def is_uncapacitated(self) -> bool:
        """True when the edge has infinite capacity."""
        return self.capacity == float("inf")

    def reversed(self) -> "Edge":
        """Return an :class:`Edge` with tail and head swapped (same index)."""
        return Edge(self.index, self.head, self.tail, self.capacity)


class FlowNetwork:
    """Directed graph with edge capacities and a source/sink pair.

    Parameters
    ----------
    source, sink:
        Labels of the source and sink vertices.  They are added to the vertex
        set immediately.

    Notes
    -----
    The class intentionally stores edges in insertion order and exposes them
    through :meth:`edges`; algorithms and the circuit compiler rely on that
    stable ordering so that results are reproducible.
    """

    def __init__(self, source: Vertex = "s", sink: Vertex = "t") -> None:
        if source == sink:
            raise InvalidGraphError("source and sink must be distinct vertices")
        self._source: Vertex = source
        self._sink: Vertex = sink
        self._edges: List[Edge] = []
        self._out: Dict[Vertex, List[int]] = {}
        self._in: Dict[Vertex, List[int]] = {}
        self.add_vertex(source)
        self.add_vertex(sink)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> Vertex:
        """Add ``vertex`` to the network (no-op if already present)."""
        if vertex not in self._out:
            self._out[vertex] = []
            self._in[vertex] = []
        return vertex

    def add_edge(self, tail: Vertex, head: Vertex, capacity: float) -> Edge:
        """Add a directed edge ``tail -> head`` with the given capacity.

        Self-loops are rejected because they can never carry flow and the
        analog substrate has no widget for them.  Parallel edges are allowed.
        """
        if tail == head:
            raise InvalidGraphError(f"self-loop on vertex {tail!r} is not allowed")
        if not is_valid_capacity(capacity):
            raise InvalidGraphError(
                f"edge {tail!r}->{head!r} has invalid capacity {capacity}"
            )
        self.add_vertex(tail)
        self.add_vertex(head)
        edge = Edge(len(self._edges), tail, head, float(capacity))
        self._edges.append(edge)
        self._out[tail].append(edge.index)
        self._in[head].append(edge.index)
        return edge

    def add_edges_from(
        self, triples: Iterable[Tuple[Vertex, Vertex, float]]
    ) -> List[Edge]:
        """Add many ``(tail, head, capacity)`` triples and return the edges."""
        return [self.add_edge(t, h, c) for t, h, c in triples]

    def set_capacity(self, index: int, capacity: float) -> Edge:
        """Replace the capacity of the edge at ``index`` (same endpoints).

        :class:`Edge` objects are immutable, so the edge is replaced by a
        fresh instance with the same index/tail/head; previously handed-out
        ``Edge`` references keep their old capacity (they are snapshots).
        This is the primitive the streaming update log
        (:class:`~repro.graph.updates.MutableFlowNetwork`) builds on.
        """
        old = self.edge(index)
        if not is_valid_capacity(capacity):
            raise InvalidGraphError(
                f"edge {old.tail!r}->{old.head!r} has invalid capacity {capacity}"
            )
        replacement = Edge(index, old.tail, old.head, float(capacity))
        self._edges[index] = replacement
        return replacement

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def source(self) -> Vertex:
        """The source vertex ``s``."""
        return self._source

    @property
    def sink(self) -> Vertex:
        """The sink vertex ``t``."""
        return self._sink

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|`` (including source and sink)."""
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._edges)

    def vertices(self) -> List[Vertex]:
        """All vertices in insertion order."""
        return list(self._out.keys())

    def internal_vertices(self) -> List[Vertex]:
        """Vertices other than the source and the sink."""
        return [v for v in self._out if v != self._source and v != self._sink]

    def edges(self) -> List[Edge]:
        """All edges in insertion order (edge ``index`` equals position)."""
        return list(self._edges)

    def edge(self, index: int) -> Edge:
        """Return the edge with the given index."""
        try:
            return self._edges[index]
        except IndexError as exc:
            raise EdgeNotFoundError(f"no edge with index {index}") from exc

    def has_vertex(self, vertex: Vertex) -> bool:
        """True when ``vertex`` belongs to the network."""
        return vertex in self._out

    def has_edge(self, tail: Vertex, head: Vertex) -> bool:
        """True when at least one edge ``tail -> head`` exists."""
        if tail not in self._out:
            return False
        return any(self._edges[i].head == head for i in self._out[tail])

    def find_edges(self, tail: Vertex, head: Vertex) -> List[Edge]:
        """Return every edge going from ``tail`` to ``head``."""
        self._require_vertex(tail)
        self._require_vertex(head)
        return [self._edges[i] for i in self._out[tail] if self._edges[i].head == head]

    def out_edges(self, vertex: Vertex) -> List[Edge]:
        """Edges leaving ``vertex``."""
        self._require_vertex(vertex)
        return [self._edges[i] for i in self._out[vertex]]

    def in_edges(self, vertex: Vertex) -> List[Edge]:
        """Edges entering ``vertex``."""
        self._require_vertex(vertex)
        return [self._edges[i] for i in self._in[vertex]]

    def out_degree(self, vertex: Vertex) -> int:
        """Number of edges leaving ``vertex``."""
        self._require_vertex(vertex)
        return len(self._out[vertex])

    def in_degree(self, vertex: Vertex) -> int:
        """Number of edges entering ``vertex``."""
        self._require_vertex(vertex)
        return len(self._in[vertex])

    def degree(self, vertex: Vertex) -> int:
        """Total degree (in + out) of ``vertex``."""
        return self.in_degree(vertex) + self.out_degree(vertex)

    def neighbors(self, vertex: Vertex) -> List[Vertex]:
        """Distinct heads of edges leaving ``vertex``."""
        seen: Dict[Vertex, None] = {}
        for edge in self.out_edges(vertex):
            seen.setdefault(edge.head, None)
        return list(seen)

    def max_capacity(self) -> float:
        """Largest finite edge capacity ``C`` (0.0 for an edgeless network)."""
        finite = [e.capacity for e in self._edges if not e.is_uncapacitated]
        return max(finite) if finite else 0.0

    def total_capacity(self) -> float:
        """Sum of all finite edge capacities."""
        return sum(e.capacity for e in self._edges if not e.is_uncapacitated)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowNetwork(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"source={self._source!r}, sink={self._sink!r})"
        )

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def copy(self) -> "FlowNetwork":
        """Return a deep copy of the network (alias of :meth:`snapshot`)."""
        return self.snapshot()

    def snapshot(self) -> "FlowNetwork":
        """Deep, independent checkpoint of the network.

        Every :class:`Edge` of the snapshot is a freshly constructed object
        (even when ``self`` holds instances of a mutable ``Edge`` subclass),
        vertices keep their insertion order and edge indices are preserved,
        so later :meth:`set_capacity` / :meth:`add_edge` calls on either
        network can never alias into the other.  Streaming sessions use this
        to checkpoint a revision before applying further updates.
        """
        clone = FlowNetwork(self._source, self._sink)
        for vertex in self._out:
            clone.add_vertex(vertex)
        for edge in self._edges:
            # Rebuild through Edge directly (not the handed-in object) so a
            # snapshot never shares edge instances with the original.
            added = clone.add_edge(edge.tail, edge.head, float(edge.capacity))
            assert added.index == edge.index  # insertion order preserves indices
        return clone

    def reversed(self) -> "FlowNetwork":
        """Return the network with every edge reversed and s/t swapped."""
        rev = FlowNetwork(self._sink, self._source)
        for vertex in self._out:
            rev.add_vertex(vertex)
        for edge in self._edges:
            rev.add_edge(edge.head, edge.tail, edge.capacity)
        return rev

    def subgraph(self, vertices: Sequence[Vertex]) -> "FlowNetwork":
        """Return the induced subgraph on ``vertices`` (must contain s and t)."""
        keep = set(vertices)
        if self._source not in keep or self._sink not in keep:
            raise InvalidGraphError("subgraph must contain both source and sink")
        sub = FlowNetwork(self._source, self._sink)
        for vertex in self._out:
            if vertex in keep:
                sub.add_vertex(vertex)
        for edge in self._edges:
            if edge.tail in keep and edge.head in keep:
                sub.add_edge(edge.tail, edge.head, edge.capacity)
        return sub

    def adjacency_matrix(self) -> Tuple[List[Vertex], List[List[float]]]:
        """Dense capacity adjacency matrix and the vertex order used.

        Parallel edges are merged by summing capacities, matching the view
        the crossbar takes of the graph (one cell per vertex pair).
        """
        order = self.vertices()
        position = {v: i for i, v in enumerate(order)}
        matrix = [[0.0 for _ in order] for _ in order]
        for edge in self._edges:
            i, j = position[edge.tail], position[edge.head]
            matrix[i][j] += edge.capacity
        return order, matrix

    def vertex_index_map(self) -> Dict[Vertex, int]:
        """Mapping from vertex label to a dense 0-based index."""
        return {v: i for i, v in enumerate(self._out)}

    # ------------------------------------------------------------------
    # Flow utilities
    # ------------------------------------------------------------------

    def flow_value(self, flow: Dict[int, float]) -> float:
        """Net flow out of the source for a per-edge-index flow assignment."""
        out_flow = sum(flow.get(e.index, 0.0) for e in self.out_edges(self._source))
        in_flow = sum(flow.get(e.index, 0.0) for e in self.in_edges(self._source))
        return out_flow - in_flow

    def excess(self, flow: Dict[int, float], vertex: Vertex) -> float:
        """Flow into ``vertex`` minus flow out of it."""
        inflow = sum(flow.get(e.index, 0.0) for e in self.in_edges(vertex))
        outflow = sum(flow.get(e.index, 0.0) for e in self.out_edges(vertex))
        return inflow - outflow

    def check_flow(
        self,
        flow: Dict[int, float],
        capacity_tol: float = 1e-9,
        conservation_tol: float = 1e-9,
    ) -> List[str]:
        """Return a list of human-readable constraint violations (empty if feasible).

        Parameters
        ----------
        flow:
            Mapping from edge index to flow value.
        capacity_tol, conservation_tol:
            Absolute tolerances for capacity bounds and conservation.
        """
        problems: List[str] = []
        for edge in self._edges:
            value = flow.get(edge.index, 0.0)
            if value < -capacity_tol:
                problems.append(
                    f"edge {edge.index} ({edge.tail}->{edge.head}): negative flow {value}"
                )
            if not edge.is_uncapacitated and value > edge.capacity + capacity_tol:
                problems.append(
                    f"edge {edge.index} ({edge.tail}->{edge.head}): flow {value} exceeds "
                    f"capacity {edge.capacity}"
                )
        for vertex in self.internal_vertices():
            excess = self.excess(flow, vertex)
            if abs(excess) > conservation_tol:
                problems.append(f"vertex {vertex!r}: conservation violated by {excess}")
        return problems

    def is_feasible_flow(
        self,
        flow: Dict[int, float],
        capacity_tol: float = 1e-9,
        conservation_tol: float = 1e-9,
    ) -> bool:
        """True when ``flow`` satisfies capacity and conservation constraints."""
        return not self.check_flow(flow, capacity_tol, conservation_tol)

    def cut_capacity(self, source_side: Iterable[Vertex]) -> float:
        """Capacity of the cut defined by the vertex set containing the source."""
        side = set(source_side)
        if self._source not in side:
            raise InvalidGraphError("source_side must contain the source vertex")
        if self._sink in side:
            raise InvalidGraphError("source_side must not contain the sink vertex")
        total = 0.0
        for edge in self._edges:
            if edge.tail in side and edge.head not in side:
                total += edge.capacity
        return total

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _require_vertex(self, vertex: Vertex) -> None:
        if vertex not in self._out:
            raise VertexNotFoundError(f"vertex {vertex!r} is not in the network")
