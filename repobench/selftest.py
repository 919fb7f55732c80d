"""Self-test of the benchmark's own checks and tracer (about two seconds).

    python3 repobench/selftest.py

Shows that the checks catch what they claim to catch:

1. a corrupted exact answer counts as a failed operation;
2. a corrupted flow fails its certificate (and fails the operations that
   returned it);
3. an analog answer's error is scored, not failed;
4. an unconverged shard that does not bracket the exact value fails;

and that the tracer holds its contract: spans cross ``ParallelMap`` worker
threads and the server's ``run_in_executor`` hop to attach to their request,
every import-site binding is wrapped, and uninstalling restores the
originals.  Finally, ``BENCHMARK.json`` must list exactly the metrics the
runs print.  Exits 0 when every check passes.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.resilience.failover import certify_flow_result  # noqa: E402
from repro.service import AsyncSolveServer, BatchSolveService, SolveRequest  # noqa: E402
import repro.service.backends as backends  # noqa: E402
import repro.service.cache as cache  # noqa: E402
import repro.service.server as server  # noqa: E402

from repobench import inputs, layers  # noqa: E402
from repobench.checks import Ledger  # noqa: E402
from repobench.tracer import Tracer  # noqa: E402

RESULTS = []


def check(name: str, ok: bool) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def answers() -> None:
    inst = inputs.grid(inputs.rng("selftest", 1, "grid"), 5, 6)
    service = BatchSolveService()
    exact = service.solve(inst.network, backend="dinic")

    ledger = Ledger()
    ledger.exact(exact.flow_value, inst.exact, "honest")
    check("an honest exact answer passes", ledger.failed == 0 and ledger.attempted == 1)
    ledger.exact(exact.flow_value * 1.01, inst.exact, "corrupted")
    check("a corrupted exact answer is a failed operation", ledger.failed == 1)

    ledger = Ledger()
    ledger.flow(inst.network, exact.flow_value, exact.edge_flows)
    ledger.certify(certify_flow_result)
    check("an honest flow certifies", ledger.failed == 0)
    saturated = next(
        e.index for e in inst.network.edges()
        if e.capacity > 0 and exact.edge_flows[e.index] == e.capacity
    )
    corrupted = dict(exact.edge_flows)
    corrupted[saturated] += 1.0
    ledger = Ledger()
    for _ in range(3):  # three operations returned the same corrupted flow
        ledger.flow(inst.network, exact.flow_value, corrupted)
    ledger.certify(certify_flow_result)
    check("a corrupted flow fails its certificate, for every operation that returned it",
          ledger.failed == 3)

    analog = service.solve(inst.network, backend="analog")
    ledger = Ledger()
    ledger.approx(analog.flow_value, inst.exact, "analog")
    error = abs(analog.flow_value - inst.exact) / inst.exact
    check(f"an analog error ({error:.3f}) is scored, not failed",
          ledger.failed == 0 and abs(ledger.accuracy_mean - max(0.0, 1 - error)) < 1e-12)

    ledger = Ledger()
    ledger.bracket(inst.exact - 1, inst.exact + 2, inst.exact, "brackets")
    ledger.bracket(inst.exact + 1, inst.exact + 2, inst.exact, "misses")
    check("an unconverged shard must bracket the exact value", ledger.failed == 1)


def tracer() -> None:
    originals = (cache.network_signature, BatchSolveService.__dict__["solve"])
    g = inputs.grid(inputs.rng("selftest", 1, "trace"), 4, 5).network
    t = Tracer()
    layers.install(t)
    try:
        wrapped = (
            server.network_signature is not originals[0]
            and backends.network_signature is not originals[0]
            and cache.network_signature is not originals[0]
        )
        BatchSolveService(max_workers=2).solve_batch(
            [SolveRequest(network=g, backend="dinic") for _ in range(4)]
        )

        async def serve():
            async with AsyncSolveServer() as s:
                await asyncio.gather(*(s.submit(g, deadline_s=30.0) for _ in range(3)))

        asyncio.run(serve())
    finally:
        t.uninstall()
    check("every import site of network_signature is wrapped", wrapped)
    check("uninstall restores the originals",
          cache.network_signature is originals[0] and server.network_signature is originals[0]
          and BatchSolveService.__dict__["solve"] is originals[1])
    solves = [s for s in t.spans if s.name == "backend.solve"]
    roots = {s.root().name for s in solves}
    check("backend spans attach to their request across threads and the executor hop",
          len(solves) == 5 and roots == {"batch.solve_batch", "server.submit"})
    check("no span is orphaned",
          not layers.check(t.spans, (), ("batch.solve_batch", "server.submit")))


def spec() -> None:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in data["per_layer"]]
    check("BENCHMARK.json per_layer matches the traced run's metrics", per_layer == layers.PER_LAYER)
    from repobench.harness import END_TO_END

    end_to_end = [(m["name"], m["unit"], m["better"]) for m in data["end_to_end"]]
    check("BENCHMARK.json end_to_end matches the untraced run's metrics", end_to_end == END_TO_END)


def main() -> int:
    answers()
    tracer()
    spec()
    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
