"""One client in a closed loop: the next operation starts when one returns."""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.errors import ReproError

from .workload import Measurement


class Exhausted(Exception):
    """The workload's pre-generated inputs ran out: the window ends here."""


def run(seconds: float, next_op: Callable[[], Any], chunk: int) -> Measurement:
    """Call ``next_op`` until ``seconds`` have passed; its return is the answer record.

    An operation that raises a :class:`~repro.errors.ReproError` is recorded
    in ``errors`` (a failed operation) and the loop goes on.  One that
    raises :class:`Exhausted` ends the window before ``seconds`` (it is not
    an operation); ``record["inputs_exhausted"]`` then says why.

    ``chunk`` consecutive operations carry equal work (one pass over a pool,
    one cycle of a mix); ``ops_per_s`` is the median completion rate over
    the run's whole chunks.
    """
    m = Measurement()
    begin = time.perf_counter()
    end = begin + seconds
    done = begin
    while done < end:
        start = time.perf_counter()
        try:
            m.answers.append(next_op())
        except ReproError as exc:
            m.errors.append(f"{type(exc).__name__}: {exc}")
        except Exhausted as exc:
            m.record["inputs_exhausted"] = str(exc)
            break
        done = time.perf_counter()
        m.latencies_ms.append((done - start) * 1e3)
        m.op_intervals.append((start, done))
    m.ops = len(m.latencies_ms)
    m.window_s = done - begin
    m.chunk_rates = chunk_rates(m.op_intervals, chunk)
    return m


def chunk_rates(intervals, chunk: int):
    """Operations per second of each whole run of ``chunk`` consecutive operations."""
    return [
        chunk / (intervals[i + chunk - 1][1] - intervals[i][0])
        for i in range(0, len(intervals) - chunk + 1, chunk)
    ]
