"""services-mix: one client interleaving the server front door and the streaming, problem and sharded services.

Why: this is the only caller of ``AsyncSolveServer.submit`` (grid, R-MAT
and unit-bipartite instances of about 130 to 2,000 edges, four tenants,
three priorities, a fifth of submissions a concurrent duplicate that the
server coalesces, loose deadlines so every request takes the exact default
route), ``StreamingSession.push`` (capacity updates, inserts and removes on
``dinic`` and ``analog`` sessions — the writes beside the reads),
``ProblemSolveService.solve`` (matching, segmentation, closure, disjoint
paths) and ``ShardedSolveService.solve``.  It bypasses the batch fan-out.

Every cycle runs the same operations (see ``CYCLE``) in a seeded order, so
every seed sends the same mix.  The exact sessions validate every push
(``validate=True``), so the failover certificate runs on this workload.
Session event streams are generated before timing, and the benchmark keeps
its own copy of every session's edge list to compute each revision's exact
value afterwards.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Dict, List, Tuple

from repro import FlowNetwork
from repro.graph.updates import CapacityUpdate, EdgeInsert, EdgeRemove
from repro.problems import BipartiteMatching, DisjointPaths, ImageSegmentation, ProjectSelection
from repro.service import (
    AsyncSolveServer, ProblemSolveService, ShardedSolveService, StreamingSession,
)

from . import closed_loop, inputs
from .workload import Measurement

NAME = "services-mix"

# (name, backend, instance maker)
SESSIONS = tuple(
    (f"{name}-{copy}", backend, make)
    for copy in (1, 2)
    for name, backend, make in (
        ("dinic-rmat", "dinic", lambda r: inputs.rmat(r, 128, 400)),
        ("dinic-grid", "dinic", lambda r: inputs.grid(r, 12, 12)),
        ("analog-rmat", "analog", lambda r: inputs.rmat(r, 96, 250)),
        ("analog-grid", "analog", lambda r: inputs.grid(r, 10, 10)),
    )
)
UPDATES_PER_PUSH = 3
# Every 10th push of a session also removes an edge, and every 10th (five
# pushes later) inserts one, so the live edge count holds steady.  An insert
# is structural: analog sessions recompile.
REMOVE_EVERY = 10
INSERT_EVERY = 10
PROBLEM_KINDS = ("matching", "segmentation", "closure", "paths")
PROBLEM_COPIES = 4  # instances per kind
SHARD_INSTANCES = (lambda r: inputs.grid(r, 12, 12), lambda r: inputs.rmat(r, 128, 400)) * 4
# One cycle: PUSHES_PER_CYCLE pushes into every session, the next
# PROBLEMS_PER_CYCLE problems of every kind and the next sharded solve.  A
# sharded solve costs up to ten times a push, so one per cycle keeps the
# slowest operations under a tenth of the mix and p90 off their boundary.
PUSHES_PER_CYCLE = 2
PROBLEMS_PER_CYCLE = 2
# Cycles per second the pre-generated push streams last for.
STREAM_CYCLES_PER_S = 125
# The server's instances, one of each size.
SERVE_GRIDS = ((6, 8), (9, 10), (12, 12), (15, 15), (18, 18), (22, 22), (25, 25))
SERVE_RMATS = ((64, 130), (128, 300), (256, 600), (384, 1000), (512, 1500), (640, 2000))
SERVE_BIPARTITE = ((30, 30, 0.15), (40, 40, 0.25), (60, 60, 0.3), (70, 70, 0.35))
# Submissions per cycle; the first of them goes with a concurrent duplicate
# (another tenant), so a fifth of all submissions are duplicates.
SERVES_PER_CYCLE = 4
TENANTS = 4
PRIORITIES = 3
# Loose: far above the server's analog routing threshold (0.25 s), so the
# deadline router always picks the exact default backend.
DEADLINE_S = 30.0

DECLARED_SPANS = (
    "server.submit", "batch.solve", "failover.walk", "cache.signature",
    "flows.resolve_default", "stream.push", "failover.certify", "analog.resolve",
    "graph.snapshot", "problems.solve", "shard.solve", "flows.solve",
)
ENTRY_SPANS = ("server.submit", "stream.push", "problems.solve", "shard.solve")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _events(r, edges: List[list], vertices: List, source, sink, pushes: int):
    """Seeded push batches, valid against the edge list they are applied to in order.

    A removal never takes the maximum flow to zero (checked on the
    benchmark's own replay), so every revision has a positive exact value
    to score an analog answer against.
    """
    edges = [list(e) for e in edges]
    live = [i for i, e in enumerate(edges) if e[2] > 0]
    inner = [v for v in vertices if v not in (source, sink)]
    batches = []
    for k in range(1, pushes + 1):
        batch = [
            CapacityUpdate(r.choice(live), float(r.randint(1, 100)))
            for _ in range(UPDATES_PER_PUSH)
        ]
        if k % INSERT_EVERY == INSERT_EVERY // 2:
            tail, head = r.sample(inner, 2)
            batch.append(EdgeInsert(tail, head, float(r.randint(1, 100))))
            live.append(len(edges))
        _apply(edges, batch)
        if k % REMOVE_EVERY == 0:
            for victim in r.sample(live, 8):
                kept = edges[victim][2]
                edges[victim][2] = 0.0
                if _reaches(edges, source, sink):
                    live.remove(victim)
                    batch.append(EdgeRemove(victim))
                    break
                edges[victim][2] = kept
        batches.append(batch)
    return batches


def _reaches(edges: List[list], source, sink) -> bool:
    """Whether positive-capacity edges connect source to sink (flow > 0)."""
    out: Dict = {}
    for tail, head, capacity in edges:
        if capacity > 0:
            out.setdefault(tail, []).append(head)
    seen, stack = {source}, [source]
    while stack:
        for head in out.get(stack.pop(), ()):
            if head == sink:
                return True
            if head not in seen:
                seen.add(head)
                stack.append(head)
    return False


def _apply(edges: List[list], batch) -> None:
    """The benchmark's own replay of one push on its edge-list copy."""
    for event in batch:
        if isinstance(event, CapacityUpdate):
            edges[event.edge_index][2] = event.capacity
        elif isinstance(event, EdgeRemove):
            edges[event.edge_index][2] = 0.0
        else:
            edges.append([event.tail, event.head, event.capacity])


def _problem(kind: str, r):
    """A seeded problem plus its independently computed optimum."""
    if kind == "matching":
        left = [f"l{i}" for i in range(40)]
        right = [f"r{i}" for i in range(40)]
        pairs = [(a, b) for a in left for b in right if r.random() < 0.08]
        return BipartiteMatching(left, right, pairs), inputs.matching_optimum(left, right, pairs)
    if kind == "segmentation":
        size, smooth = 14, 6
        fg = [[r.randint(0, 20) for _ in range(size)] for _ in range(size)]
        bg = [[r.randint(0, 20) for _ in range(size)] for _ in range(size)]
        return (
            ImageSegmentation(fg, bg, smoothness=smooth),
            inputs.segmentation_optimum(fg, bg, smooth),
        )
    if kind == "closure":
        profits = {f"p{i}": r.randint(-30, 30) for i in range(60)}
        names = list(profits)
        prereq = [(a, b) for a in names for b in names if a != b and r.random() < 0.04]
        return ProjectSelection(profits, prereq), inputs.closure_optimum(profits, prereq)
    inner = [f"v{i}" for i in range(50)]
    arcs = [(a, b) for a in inner for b in inner if a != b and r.random() < 0.08]
    arcs += [("s", v) for v in inner[:10]] + [(v, "t") for v in inner[-10:]]
    vertex_disjoint = r.random() < 0.5
    return (
        DisjointPaths(arcs, vertex_disjoint=vertex_disjoint),
        inputs.disjoint_paths_optimum(arcs, "s", "t", vertex_disjoint),
    )


class Session:
    def __init__(self, name: str, backend: str, inst: inputs.Instance, events) -> None:
        self.name = name
        self.events = events
        self.initial = [list(e) for e in inst.edges]
        self.source, self.sink = inst.network.source, inst.network.sink
        self.pushed = 0
        self.replay = None  # [revision, edges]: the checks' own replay (after timing)
        self.exact_route = backend != "analog"
        # Exact sessions certify every push; an analog answer is scored by
        # the benchmark instead (a substrate flow may exceed a capacity).
        self.session = StreamingSession(inst.network, backend=backend, validate=self.exact_route)


class State:
    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        start = time.perf_counter()
        r = inputs.rng(NAME, seed, "inputs")
        made = [(name, backend, make(r)) for name, backend, make in SESSIONS]
        self.problems = {
            kind: [_problem(kind, r) for _ in range(PROBLEM_COPIES)] for kind in PROBLEM_KINDS
        }
        self.shard_pool = [make(r) for make in SHARD_INSTANCES]
        self.serve_pool = [inputs.grid(r, rows, cols) for rows, cols in SERVE_GRIDS]
        self.serve_pool += [inputs.rmat(r, v, e) for v, e in SERVE_RMATS]
        self.serve_pool += [inputs.unit_bipartite(r, a, b, c) for a, b, c in SERVE_BIPARTITE]
        self.build_s = time.perf_counter() - start
        # Enough pushes for a run of ``seconds`` at about 20 times today's
        # rate (some 11 pushes per second per session); a program faster
        # still ends its window cleanly when a stream runs out.
        self.sessions: List[Session] = []
        for name, backend, inst in made:
            events = _events(
                inputs.rng(NAME, seed, f"events-{name}"), inst.edges, inst.network.vertices(),
                inst.network.source, inst.network.sink,
                int(seconds * PUSHES_PER_CYCLE * STREAM_CYCLES_PER_S) + 50,
            )
            self.sessions.append(Session(name, backend, inst, events))
        self.feed = None  # the endless operation order, started by the first window
        self.problem_service = ProblemSolveService()
        self.sharded_service = ShardedSolveService()
        # Warm: one problem of each kind and one sharded solve.
        for kind in PROBLEM_KINDS:
            if not self.problem_service.solve(self.problems[kind][0][0], backend="dinic").certified:
                raise RuntimeError(f"warm-up {kind} solve was not certified")
        self.sharded_service.solve(self.shard_pool[0].network, shards=2)
        # The server runs on a private event loop that the client drives.
        self.loop = asyncio.new_event_loop()
        self.server = AsyncSolveServer()
        self.loop.run_until_complete(self._warm())

    async def _warm(self) -> None:
        self.server.start()  # on the loop that serves it
        for inst in self.serve_pool:
            response = await self.server.submit(inst.network, deadline_s=DEADLINE_S)
            if not response.ok:
                raise RuntimeError(f"warm-up request failed: {response.detail}")

    def close(self) -> None:
        self.loop.run_until_complete(self.server.aclose())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


def setup(seed: int, seconds: float) -> State:
    return State(seed, seconds)


# ----------------------------------------------------------------------


CYCLE = (
    PUSHES_PER_CYCLE * len(SESSIONS) + PROBLEMS_PER_CYCLE * len(PROBLEM_KINDS) + 1
    + SERVES_PER_CYCLE
)


def _operations(state: State, r):
    """Endless cycles of ``CYCLE`` operations, each cycle in a seeded order.

    Submissions walk the server's pool in seeded passes, every instance
    once per pass, so the mix of sizes does not depend on the seed.
    """
    problem = itertools.count()
    serve_order: List[int] = []
    for cycle in itertools.count():
        ops = [("push", i) for i in range(len(state.sessions))] * PUSHES_PER_CYCLE
        for _ in range(PROBLEMS_PER_CYCLE):
            n = next(problem) % PROBLEM_COPIES
            ops += [("problem", (kind, n)) for kind in PROBLEM_KINDS]
        ops.append(("shard", cycle % len(state.shard_pool)))
        for k in range(SERVES_PER_CYCLE):
            if not serve_order:
                serve_order = list(range(len(state.serve_pool)))
                r.shuffle(serve_order)
            tenant, priority = r.randrange(TENANTS), r.randrange(PRIORITIES)
            ops.append(("serve", (serve_order.pop(), tenant, priority, k == 0)))
        r.shuffle(ops)
        yield from ops


async def _serve(state: State, network: FlowNetwork, tenant: int, priority: int, duplicate: bool):
    """One submission, or two of the same network at once (the server coalesces them)."""
    sends = [
        state.server.submit(
            network, tenant=f"tenant-{(tenant + k) % TENANTS}", priority=priority,
            deadline_s=DEADLINE_S,
        )
        for k in range(2 if duplicate else 1)
    ]
    return await asyncio.gather(*sends)


def window(state: State, seconds: float, ledger) -> Measurement:
    """Measure ``seconds`` of the mix; a later window continues where this one stopped."""
    if state.feed is None:
        state.feed = _operations(state, inputs.rng(NAME, state.seed, "order"))
    feed = state.feed

    def call():
        kind, which = next(feed)
        if kind == "serve":
            index, tenant, priority, duplicate = which
            network = state.serve_pool[index].network
            responses = state.loop.run_until_complete(
                _serve(state, network, tenant, priority, duplicate)
            )
            out = []
            for response in responses:
                value = None
                if response.ok:
                    value = response.result.flow_value
                    ledger.flow(network, value, response.result.edge_flows)
                out.append((response.ok, response.status, value, response.coalesced,
                            response.queued_s, response.detail))
            return ("serve", index, out)
        if kind == "push":
            s = state.sessions[which]
            if s.pushed == len(s.events):
                raise closed_loop.Exhausted(f"{s.name}: all {s.pushed} pushes sent")
            batch = s.events[s.pushed]
            s.pushed += 1
            delta = s.session.push(batch)
            result = delta.result
            if s.exact_route:
                ledger.flow(("revision", which, s.pushed), result.flow_value, result.edge_flows)
            return ("push", which, s.pushed, result.flow_value, delta.warm)
        if kind == "problem":
            problem_kind, n = which
            solved = state.problem_service.solve(state.problems[problem_kind][n][0], backend="dinic")
            result = solved.result
            ledger.flow(("problem", problem_kind, n), result.flow_value, result.edge_flows)
            return ("problem", problem_kind, n, solved.value, solved.certified)
        sharded = state.sharded_service.solve(state.shard_pool[which].network, shards=2)
        report = sharded.report
        return ("shard", which, report.converged, report.dual_value, sharded.flow_value)

    m = closed_loop.run(seconds, call, chunk=CYCLE)
    # The server's own observations, for the per-layer metrics.
    for answer in m.answers:
        if answer[0] == "serve":
            for ok, _, _, coalesced, queued_s, _ in answer[2]:
                m.record.setdefault("queue_wait_ms", []).append(queued_s * 1e3)
                m.record.setdefault("coalesced", []).append(bool(coalesced))
                m.record.setdefault("refused", []).append(0 if ok else 1)
    return m




def resolve_network(state: State, ref: Tuple) -> FlowNetwork:
    """The network a recorded flow answers, rebuilt after timing.

    A problem's reduced network comes from reducing it again (reductions
    are deterministic, so edge indices match).  A session revision comes
    from the benchmark's own replay (:func:`_apply`) of the session's events
    on its edge-list copy, advanced in place: flows are certified in the
    order they were recorded, which is revision order within a session.
    """
    if ref[0] == "problem":
        _, kind, n = ref
        return state.problems[kind][n][0].reduce().network
    _, which, revision = ref
    s = state.sessions[which]
    if s.replay is None or s.replay[0] > revision:
        s.replay = [0, [list(e) for e in s.initial]]
    at, edges = s.replay
    for batch in s.events[at:revision]:
        _apply(edges, batch)
    s.replay[0] = revision
    network = FlowNetwork(s.source, s.sink)
    network.add_edges_from(edges)
    return network


def judge(state: State, m: Measurement, ledger) -> None:
    exact_of: Dict[Tuple[int, int], int] = {}
    for which, s in enumerate(state.sessions):
        edges = [list(e) for e in s.initial]
        for revision in range(1, s.pushed + 1):
            _apply(edges, s.events[revision - 1])
            exact_of[(which, revision)] = inputs.exact_max_flow(edges, s.source, s.sink)
    for answer in m.answers:
        kind = answer[0]
        if kind == "serve":
            _, index, responses = answer
            inst = state.serve_pool[index]
            for ok, status, value, _, _, detail in responses:
                if ok:
                    ledger.exact(value, inst.exact, f"served {inst.name}")
                else:
                    ledger.fail(f"served {inst.name}: status {status} {detail}")
        elif kind == "push":
            _, which, revision, value, _ = answer
            s = state.sessions[which]
            label = f"{s.name} revision {revision}"
            reference = exact_of[(which, revision)]
            if s.exact_route:
                ledger.exact(value, reference, label)
            else:
                ledger.approx(value, reference, label)
        elif kind == "problem":
            _, which, n, value, certified = answer
            if not certified:
                ledger.fail(f"{which}: certificate failed")
            else:
                ledger.exact(value, state.problems[which][n][1], which)
        else:
            _, which, converged, dual, value = answer
            inst = state.shard_pool[which]
            if converged:
                ledger.exact(value, inst.exact, f"sharded {inst.name}")
            else:
                ledger.bracket(dual, value, inst.exact, f"sharded {inst.name}")
