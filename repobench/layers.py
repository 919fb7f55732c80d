"""What the traced run wraps, and the per-layer metrics it derives from the spans.

Span names are ``<layer>.<call>``.  Each per-layer metric below names, in
``PER_LAYER``, the layer it reads; ``README.md`` says which end-to-end
metric it should move on which workload.  A metric a workload does not
exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.service.batch import ParallelMap

from .stats import clip, mean, merge, overlap, pct, union_length
from .tracer import Span, Tracer, Wrap
from .workload import Measurement


def _flows(span, args, kwargs, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["operations"] = result.operations.total()


def _resolve(span, args, kwargs, result):
    span.attrs["kernel"] = result == "kernel-dinic"


def _lookup(span, args, kwargs, result):
    span.attrs["hit"] = bool(result[0])


def _dc(span, args, kwargs, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["refactorizations"] = result.refactorizations
    span.attrs["smw_solves"] = result.smw_solves


def _push(span, args, kwargs, result):
    span.attrs["warm"] = bool(result.warm)


def _problem(span, args, kwargs, result):
    report = result.report
    span.attrs["reduce_s"] = report.reduce_time_s
    span.attrs["solve_s"] = report.solve_time_s
    span.attrs["decode_s"] = report.decode_time_s


def _shard(span, args, kwargs, result):
    span.attrs["iterations"] = result.report.iterations
    span.attrs["converged"] = bool(result.report.converged)


def _walk(span, args, kwargs, result):
    span.attrs["degraded"] = bool(result.degraded)


WRAPS = [
    Wrap("repro.service.server:AsyncSolveServer.submit", "server.submit", hop_arg=1, hop_register=True),
    Wrap("repro.service.batch:BatchSolveService.solve", "batch.solve", hop_arg=1),
    Wrap("repro.service.batch:BatchSolveService.solve_batch", "batch.solve_batch"),
    Wrap("repro.service.backends:SolveBackend.solve", "backend.solve"),
    Wrap("repro.service.cache:network_signature", "cache.signature"),
    Wrap("repro.service.cache:CompiledCircuitCache.lookup", "cache.lookup", _lookup),
    Wrap("repro.flows.base:FlowAlgorithm.solve", "flows.solve", _flows),
    Wrap("repro.flows.kernel:KernelDinic.solve", "flows.solve", _flows),
    Wrap("repro.flows.kernel:resolve_default_algorithm", "flows.resolve_default", _resolve),
    Wrap("repro.graph.network:FlowNetwork.snapshot", "graph.snapshot"),
    Wrap("repro.resilience.failover:solve_with_failover", "failover.walk", _walk),
    Wrap("repro.resilience.failover:certify_flow_result", "failover.certify"),
    Wrap("repro.analog.solver:AnalogMaxFlowSolver.compile", "analog.compile"),
    Wrap("repro.analog.solver:AnalogMaxFlowSolver.solve_compiled", "analog.solve_compiled"),
    Wrap("repro.analog.solver:AnalogMaxFlowSolver.resolve", "analog.resolve"),
    Wrap("repro.circuit.dc:DCOperatingPoint.solve", "circuit.dc_solve", _dc),
    Wrap("repro.service.streaming:StreamingSession.push", "stream.push", _push),
    Wrap("repro.service.problems:ProblemSolveService.solve", "problems.solve", _problem),
    Wrap("repro.service.sharded:ShardedSolveService.solve", "shard.solve", _shard),
]
PARALLEL_MAP = (ParallelMap, "map", "batch.map")

LAYERS = (
    "server", "batch", "backend", "cache", "flows", "graph", "failover",
    "analog", "circuit", "stream", "problems", "shard",
)

# (name, unit, better)
PER_LAYER = [
    ("server.queue_wait_ms.p50", "ms", "lower"),
    ("server.queue_wait_ms.p90", "ms", "lower"),
    ("server.overhead_ms.p50", "ms", "lower"),
    ("server.coalesce_ratio", "ratio", "higher"),
    ("server.refused", "count", "lower"),
    ("cache.signature_ms.p50", "ms", "lower"),
    ("cache.signature_calls", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("batch.call_ms.p50", "ms", "lower"),
    ("batch.parallelism", "ratio", "higher"),
    ("backend.solve_ms.p50", "ms", "lower"),
    ("backend.solve_ms.p90", "ms", "lower"),
    ("backend.solves", "count", "higher"),
    ("flows.solve_ms.p50", "ms", "lower"),
    ("flows.iterations.p50", "count", "lower"),
    ("flows.operations.p50", "count", "lower"),
    ("flows.kernel_share", "ratio", "lower"),
    ("graph.build_ms.total", "ms", "lower"),
    ("graph.copy_calls", "count", "lower"),
    ("graph.copy_ms.p50", "ms", "lower"),
    ("failover.certify_ms.p50", "ms", "lower"),
    ("failover.walks", "count", "lower"),
    ("failover.degraded", "count", "lower"),
    ("analog.compile_ms.p50", "ms", "lower"),
    ("analog.solve_compiled_ms.p50", "ms", "lower"),
    ("circuit.dc_solve_ms.p50", "ms", "lower"),
    ("circuit.dc_iterations.p50", "count", "lower"),
    ("circuit.refactorizations.mean", "count", "lower"),
    ("circuit.smw_solves.mean", "count", "higher"),
    ("analog.resolve_ms.p50", "ms", "lower"),
    ("stream.push_ms.p50", "ms", "lower"),
    ("stream.warm_share", "ratio", "higher"),
    ("problems.reduce_ms.p50", "ms", "lower"),
    ("problems.solve_ms.p50", "ms", "lower"),
    ("problems.decode_ms.p50", "ms", "lower"),
    ("shard.solve_ms.p50", "ms", "lower"),
    ("shard.iterations.p50", "count", "lower"),
    ("shard.converged_share", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("machine.calibration_ms", "ms", "lower"),
] + [(f"self_share.{layer}", "ratio", "lower") for layer in LAYERS]


def install(tracer: Tracer) -> None:
    tracer.install(WRAPS, parallel_map=PARALLEL_MAP)


# ----------------------------------------------------------------------


def _ms(spans: List[Span]) -> List[float]:
    return [s.duration * 1e3 for s in spans]


def _attr(spans: List[Span], key: str) -> List[float]:
    return [s.attrs[key] for s in spans if key in s.attrs]


def _share(flags: List[bool]) -> float:
    return sum(1 for f in flags if f) / len(flags) if flags else 0.0


def check(spans: List[Span], declared, entries) -> List[str]:
    """Why a traced run is broken: declared spans that never fired, orphans."""
    fired = {s.name for s in spans}
    problems = [f"declared span {name!r} never fired" for name in declared if name not in fired]
    orphans = defaultdict(int)
    for s in spans:
        if s.root().name not in entries:
            orphans[s.root().name if s.parent is None else s.name] += 1
    problems += [
        f"{count} span(s) of {name!r} did not attach to an entry span {entries}"
        for name, count in sorted(orphans.items())
    ]
    return problems


def coverage(spans: List[Span], entries, op_intervals) -> float:
    """Share of client-measured operation time covered by entry-layer spans."""
    ops = merge(op_intervals)
    total = sum(end - start for start, end in ops)
    if total <= 0:
        return 0.0
    roots = merge((s.start, s.end) for s in spans if s.parent is None and s.name in entries)
    return overlap(ops, roots) / total


def self_shares(spans: List[Span]) -> Dict[str, float]:
    """Per layer: self time (duration minus the union of its children) over root time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    own = defaultdict(float)
    root_time = 0.0
    for s in spans:
        kids = children.get(id(s), ())
        own[s.name.split(".")[0]] += s.duration - union_length(
            clip(((k.start, k.end) for k in kids), s.start, s.end)
        )
        if s.parent is None:
            root_time += s.duration
    return {layer: (own[layer] / root_time if root_time > 0 else 0.0) for layer in LAYERS}


def per_layer(spans: List[Span], m: Measurement, build_s: float) -> Dict[str, float]:
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)

    overhead = []
    for s in by["server.submit"]:
        inner = [k.duration for k in children.get(id(s), ()) if k.name == "batch.solve"]
        if inner:
            overhead.append((s.duration - sum(inner)) * 1e3)

    batch_wall = sum(s.duration for s in by["batch.solve_batch"])
    batch_work = 0.0
    for s in by["backend.solve"]:
        if any(a.name == "batch.solve_batch" for a in _ancestors(s)):
            batch_work += s.duration

    lookups = _attr(by["cache.lookup"], "hit")
    resolved = _attr(by["flows.resolve_default"], "kernel")
    queue_wait = m.record.get("queue_wait_ms", [])
    problems = by["problems.solve"]

    values = {
        "server.queue_wait_ms.p50": pct(queue_wait, 50),
        "server.queue_wait_ms.p90": pct(queue_wait, 90),
        "server.overhead_ms.p50": pct(overhead, 50),
        "server.coalesce_ratio": _share(m.record.get("coalesced", [])),
        "server.refused": float(sum(m.record.get("refused", []))),
        "cache.signature_ms.p50": pct(_ms(by["cache.signature"]), 50),
        "cache.signature_calls": float(len(by["cache.signature"])),
        "cache.hit_ratio": _share(lookups),
        "batch.call_ms.p50": pct(_ms(by["batch.solve_batch"]), 50),
        "batch.parallelism": batch_work / batch_wall if batch_wall > 0 else 0.0,
        "backend.solve_ms.p50": pct(_ms(by["backend.solve"]), 50),
        "backend.solve_ms.p90": pct(_ms(by["backend.solve"]), 90),
        "backend.solves": float(len(by["backend.solve"])),
        "flows.solve_ms.p50": pct(_ms(by["flows.solve"]), 50),
        "flows.iterations.p50": pct(_attr(by["flows.solve"], "iterations"), 50),
        "flows.operations.p50": pct(_attr(by["flows.solve"], "operations"), 50),
        "flows.kernel_share": _share(resolved),
        "graph.build_ms.total": build_s * 1e3,
        "graph.copy_calls": float(len(by["graph.snapshot"])),
        "graph.copy_ms.p50": pct(_ms(by["graph.snapshot"]), 50),
        "failover.certify_ms.p50": pct(_ms(by["failover.certify"]), 50),
        "failover.walks": float(len(by["failover.walk"])),
        "failover.degraded": float(sum(_attr(by["failover.walk"], "degraded"))),
        "analog.compile_ms.p50": pct(_ms(by["analog.compile"]), 50),
        "analog.solve_compiled_ms.p50": pct(_ms(by["analog.solve_compiled"]), 50),
        "circuit.dc_solve_ms.p50": pct(_ms(by["circuit.dc_solve"]), 50),
        "circuit.dc_iterations.p50": pct(_attr(by["circuit.dc_solve"], "iterations"), 50),
        "circuit.refactorizations.mean": mean(_attr(by["circuit.dc_solve"], "refactorizations")),
        "circuit.smw_solves.mean": mean(_attr(by["circuit.dc_solve"], "smw_solves")),
        "analog.resolve_ms.p50": pct(_ms(by["analog.resolve"]), 50),
        "stream.push_ms.p50": pct(_ms(by["stream.push"]), 50),
        "stream.warm_share": _share(_attr(by["stream.push"], "warm")),
        "problems.reduce_ms.p50": pct([x * 1e3 for x in _attr(problems, "reduce_s")], 50),
        "problems.solve_ms.p50": pct([x * 1e3 for x in _attr(problems, "solve_s")], 50),
        "problems.decode_ms.p50": pct([x * 1e3 for x in _attr(problems, "decode_s")], 50),
        "shard.solve_ms.p50": pct(_ms(by["shard.solve"]), 50),
        "shard.iterations.p50": pct(_attr(by["shard.solve"], "iterations"), 50),
        "shard.converged_share": _share(_attr(by["shard.solve"], "converged")),
    }
    for layer, share in self_shares(spans).items():
        values[f"self_share.{layer}"] = share
    return values


def _ancestors(span: Span):
    parent = span.parent
    while parent is not None:
        yield parent
        parent = parent.parent
