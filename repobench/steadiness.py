"""Steadiness report: run workloads repeatedly and compare each metric's spread to its bound.

    python3 repobench/steadiness.py --runs 10 --seed0 1 --sets 2
    python3 repobench/steadiness.py --workloads services-mix --runs 5 --seconds 20

Runs ``repobench/run.py`` one workload at a time, round-robin over the
workloads, each run with the next seed (``seed0``, ``seed0 + 1``, ...), so
the spread includes the seed's effect.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``: a spread over the bound is ``NOISY``, one over a third
of it ``marginal``.  With ``--sets 2`` the whole round repeats; every set's
spread is held to the bound, and the report adds how far each later
median moved from the first, in the metric's worse direction, against the
same bound (``DRIFT``).  Every metric, ``setup_s`` included, is held to
both checks.  Every run's record, machine stamp included, is written to
``.bench_out/steadiness-<time>.json``.

The rows marked ``*`` are the metrics hardest to hold steady:
``setup_s``, the tail percentile, answer accuracy across seeds and
batch-large p50 across seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repobench.stats import quartiles  # noqa: E402

WATCHED = {
    ("*", "setup_s"), ("*", "latency_p90_ms"),
    ("*", "answer_accuracy_mean"), ("batch-large", "latency_p50_ms"),
}


def one_run(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [
        sys.executable, str(ROOT / "repobench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = next((json.loads(l[len("record: "):]) for l in lines if l.startswith("record: ")), {})
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "result": json.loads(lines[-1]), "record": record}


def summarize(runs, bounds):
    """``{(workload, metric): (q1, median, q3, spread, bound)}`` over the runs given."""
    values = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    table = {}
    for key, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
        table[key] = (q1, med, q3, spread, bounds.get(key[1]))
    return table


def verdict(spread: float, bound) -> str:
    if bound is None:
        return ""
    if spread > bound:
        return "NOISY"
    return "marginal" if spread > bound / 3 else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="batch-large,analog-substrate,services-mix")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")

    os.makedirs(ROOT / ".bench_out", exist_ok=True)
    out = ROOT / ".bench_out" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    sets = []
    seed = args.seed0
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            for workload in workloads:
                run = one_run(workload, seed + i, seconds)
                runs.append(run)
                ok = run["result"]["correct"] and run["result"]["failed"] == 0
                print(f"set {s + 1} run {i + 1:2d} {workload:17s} seed {seed + i:3d} "
                      f"{run['wall_s']:5.1f} s  {'ok' if ok else 'FAILED'}", flush=True)
                # Written after every run, so an interrupted report keeps its records.
                out.write_text(json.dumps(
                    {"seconds": seconds, "sets": sets + [runs]}, indent=1, default=str
                ))
        sets.append(runs)
        seed += args.runs

    tables = [summarize(runs, bounds) for runs in sets]
    first = tables[0]
    print(f"\n{'workload':17s} {'metric':22s} {'set':>3s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}  verdict" + ("      drift  drift-verdict" if args.sets > 1 else ""))
    worst = "ok"
    for key in sorted(first):
        mark = "*" if key in WATCHED or ("*", key[1]) in WATCHED else " "
        for n, table in enumerate(tables, 1):
            if key not in table:
                continue
            q1, med, q3, spread, bound = table[key]
            v = verdict(spread, bound)
            if v == "NOISY":
                worst = "NOISY"
            line = (f"{key[0]:17s}{mark}{key[1]:22s} {n:3d} {q1:11.4g} {med:11.4g} {q3:11.4g} "
                    f"{spread:7.3f} {bound if bound is not None else '':>6}  {v:12s}")
            base = first[key][1]
            if n > 1 and bound is not None and base:
                change = (med - base) / base
                worse = change if better[key[1]] == "lower" else -change
                dv = "DRIFT" if worse > bound else "ok"
                if dv == "DRIFT":
                    worst = "NOISY"
                line += f" {worse:+7.3f}  {dv}"
            print(line)

    print(f"\nrecords: {out}\noverall: {worst}")
    return 0 if worst == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
