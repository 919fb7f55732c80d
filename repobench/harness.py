"""One benchmark run: set up, measure, check every answer, report.

Untraced (``--trace 0``): set up, then measure the workload for
``--seconds`` on that set-up in ``SETUPS - 1`` equal windows, each followed
by one more set-up that is timed and thrown away; judge every answer
against its independent reference, certify every distinct exact flow, and
report the end-to-end metrics.  ``setup_s`` is the median of the
``SETUPS`` set-ups.  The machine's speed drifts over tens of seconds;
set-ups spread evenly over the run sample that drift the way the
measurement does, where set-ups taken back to back would all share one
state of it.

Traced (``--trace 1``): measure an untraced window of ``TRACE_WINDOW_SHARE``
of ``--seconds`` on a fresh set-up, then the same window again on a second
fresh set-up with the tracer installed, and report the per-layer metrics.
``trace.overhead_ratio`` is the traced window's ``ops_per_s`` over the
untraced one's.  The run fails when a span declared for the workload never
fired, when a span did not attach to its request's entry span, or when the
tracer could not restore the program.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from functools import partial
from pathlib import Path

from repro.resilience.failover import certify_flow_result

from . import analog_substrate, batch_large, layers, services_mix
from .checks import Ledger
from .machine import stamp
from .stats import pct
from .tracer import Tracer
from .workload import Measurement

WORKLOADS = {
    mod.NAME: mod for mod in (batch_large, analog_substrate, services_mix)
}
# (name, unit, better) of the untraced run's metrics, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("answer_accuracy_mean", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUPS = 5
TRACE_WINDOW_SHARE = 0.3
MIN_TAIL_SAMPLES = 10  # samples beyond p90, so at least 100 operations
OUT_DIR = ".bench_out"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _judge(mod, state, m, ledger) -> int:
    for error in m.errors:
        ledger.fail(error)
    mod.judge(state, m, ledger)
    resolve = getattr(mod, "resolve_network", None)
    return ledger.certify(
        certify_flow_result, resolve=partial(resolve, state) if resolve else None
    )


def _timed_setup(mod, seed: int, seconds: float, setups: list):
    gc.collect()  # no set-up pays for the previous one's garbage
    start = time.perf_counter()
    state = mod.setup(seed, seconds)
    setups.append(time.perf_counter() - start)
    return state


def untraced(mod, seed: int, seconds: float):
    setups = []
    state = _timed_setup(mod, seed, seconds, setups)
    ledger = Ledger()
    m = Measurement()
    for _ in range(SETUPS - 1):
        m.extend(mod.window(state, seconds / (SETUPS - 1), ledger))
        # The measured state's objects sit out of the collector meanwhile,
        # so a later set-up pays no more for collections than the first.
        gc.freeze()
        _timed_setup(mod, seed, seconds, setups).close()
        gc.collect()  # the next window does not pay for the thrown-away set-up
        gc.unfreeze()
    rss = peak_rss_mb()
    state.close()
    certified = _judge(mod, state, m, ledger)
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": pct(m.latencies_ms, 50),
        "latency_p90_ms": pct(m.latencies_ms, 90),
        "ops_per_s": m.ops_per_s,
        "answer_accuracy_mean": ledger.accuracy_mean,
        "peak_rss_mb": rss,
    }
    metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    record = {
        "setup_s_samples": setups,
        "latency_samples": len(m.latencies_ms),
        "tail_samples_beyond_p90": len(m.latencies_ms) - int(0.9 * len(m.latencies_ms)),
        "flows_certified": certified,
    }
    if "inputs_exhausted" in m.record:
        record["inputs_exhausted"] = m.record["inputs_exhausted"]
    if record["tail_samples_beyond_p90"] < MIN_TAIL_SAMPLES:
        record["warning"] = "fewer than 10 samples beyond p90"
    return metrics, ledger, record


def traced(mod, seed: int, seconds: float, machine: dict):
    window = TRACE_WINDOW_SHARE * seconds
    ledger = Ledger()

    state = mod.setup(seed, seconds)
    base = mod.window(state, window, ledger)
    state.close()
    _judge(mod, state, base, ledger)

    state = mod.setup(seed, seconds)
    tracer = Tracer()
    layers.install(tracer)
    try:
        m = mod.window(state, window, ledger)
    finally:
        sites = tracer.patched_sites()
        tracer.uninstall()
    state.close()
    certified = _judge(mod, state, m, ledger)
    spans = tracer.spans
    problems = layers.check(spans, mod.DECLARED_SPANS, mod.ENTRY_SPANS)
    values = layers.per_layer(spans, m, state.build_s)
    values["trace.coverage"] = layers.coverage(spans, mod.ENTRY_SPANS, m.op_intervals)
    values["trace.overhead_ratio"] = m.ops_per_s / base.ops_per_s if base.ops_per_s else 0.0
    values["machine.calibration_ms"] = machine["calibration_ms"]
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    _write_spans(mod.NAME, seed, spans)
    record = {
        "spans": len(spans),
        "patched_sites": sites,
        "flows_certified": certified,
        "trace_problems": problems,
    }
    return metrics, ledger, record


def _write_spans(workload: str, seed: int, spans) -> None:
    """Spans were kept in memory during the run; write them out at the end."""
    os.makedirs(OUT_DIR, exist_ok=True)
    index = {id(s): i for i, s in enumerate(spans)}
    path = Path(OUT_DIR) / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as out:
        for i, s in enumerate(spans):
            out.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": index.get(id(s.parent)), "request": s.request_id,
                "attrs": {k: v for k, v in s.attrs.items() if k != "hop_claimed"},
            }) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    mod = WORKLOADS[workload]
    machine = stamp()
    if trace:
        metrics, ledger, record = traced(mod, seed, seconds, machine)
    else:
        metrics, ledger, record = untraced(mod, seed, seconds)
    record.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace, machine=machine,
        attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
    )
    print("record: " + json.dumps(record, default=str))
    if record.get("trace_problems"):
        for problem in record["trace_problems"]:
            print(f"traced run broken: {problem}", file=sys.stderr)
        return 1
    correct = ledger.failed == 0 and ledger.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
