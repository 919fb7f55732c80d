"""The batched solving service.

:class:`BatchSolveService` is the front door for heavy traffic: it accepts a
batch of flow networks (or fully-specified
:class:`~repro.service.api.SolveRequest` objects mixing analog and classical
backends), fans the instances out over a worker pool, memoizes compiled
analog circuits across the batch, and returns one
:class:`~repro.service.api.BatchReport` with per-instance results and
aggregate statistics.

Worker pools
------------
``executor="thread"`` (default) runs instances on a thread pool.  The MNA
hot path spends its time inside scipy's LAPACK/SuperLU calls, which release
the GIL, so threads overlap well and share one compiled-circuit cache.
``executor="process"`` sidesteps the GIL entirely for Python-bound classical
solvers at the cost of pickling instances and forgoing the shared cache
(each worker process compiles for itself).  ``executor="serial"`` runs
in-line, which is the reference behaviour for debugging.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, Iterable, Optional, Union

from dataclasses import replace

from ..analog.solver import AnalogMaxFlowSolver
from ..errors import AlgorithmError
from ..graph.network import FlowNetwork
from ..obs import probes
from ..obs.trace import current_span, record_span, span, span_scope
from ..resilience.failover import FailoverPolicy, solve_with_failover
from ..resilience.policy import Deadline, deadline_scope
from .api import BatchReport, SolveRequest, SolveResult
from .backends import SolveBackend, create_backend
from .cache import CompiledCircuitCache, network_signature

__all__ = ["BatchSolveService", "ParallelMap"]

RequestLike = Union[SolveRequest, FlowNetwork]


def _default_max_workers() -> int:
    return min(8, os.cpu_count() or 1)


class _ContextualCall:
    """Picklable wrapper attaching item context to worker exceptions.

    An exception escaping a thread/process worker otherwise surfaces with a
    bare traceback and no hint of *which* item it was processing; this
    wrapper notes the item index plus whatever ``describe(item)`` reports
    (the batch service uses backend name, tag and topology signature).
    """

    def __init__(self, fn, describe=None):
        self.fn = fn
        self.describe = describe

    def __call__(self, indexed):
        index, item = indexed
        try:
            return self.fn(item)
        except Exception as exc:
            detail = ""
            if self.describe is not None:
                try:
                    detail = f" ({self.describe(item)})"
                except Exception:  # noqa: BLE001 - context must never mask
                    detail = ""
            note = f"while processing item {index}{detail}"
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(note)
            else:  # pragma: no cover - pre-3.11 fallback
                exc.args = tuple(exc.args) + (note,)
            raise


def _describe_request(item) -> str:
    """Context line for one batch item (request or process-pool payload)."""
    request = item[0] if isinstance(item, tuple) else item
    signature = network_signature(request.network)[:12]
    return f"backend={request.backend!r} tag={request.tag!r} network={signature}"


class ParallelMap:
    """Reusable thread/process/serial mapper — the service executor layer.

    One instance owns (at most) one worker pool, created lazily on the first
    :meth:`map` call and kept alive until :meth:`close`, so iterative callers
    (the shard coordinator re-solving its shards every subgradient step, a
    batch service draining request waves) pay the pool spin-up once instead
    of per wave.  ``"serial"`` never creates a pool; ``"process"`` requires
    the mapped function and items to be picklable.

    Examples
    --------
    >>> with ParallelMap(executor="thread", max_workers=2) as pool:
    ...     pool.map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    """

    def __init__(self, executor: str = "thread", max_workers: Optional[int] = None) -> None:
        if executor not in ("thread", "process", "serial"):
            raise AlgorithmError(f"unknown executor {executor!r}")
        if max_workers is not None and max_workers < 1:
            raise AlgorithmError("max_workers must be at least 1")
        self.executor = executor
        self.max_workers = max_workers if max_workers is not None else _default_max_workers()
        self._pool = None

    def map(self, fn, items, describe=None) -> list:
        """Apply ``fn`` to every item, in order; short inputs run inline.

        ``describe`` (optional, ``item -> str``) enriches any exception that
        escapes a worker with the failing item's index and description, via
        ``Exception.add_note``; with a process pool it must be picklable (a
        module-level function).
        """
        items = list(items)
        if describe is not None or self.executor != "serial":
            fn = _ContextualCall(fn, describe)
            items = list(enumerate(items))
        if self.executor == "serial" or self.max_workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            factory = (
                ProcessPoolExecutor if self.executor == "process" else ThreadPoolExecutor
            )
            self._pool = factory(max_workers=self.max_workers)
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelMap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _process_worker(payload) -> SolveResult:
    """Top-level worker for the process pool (must be picklable)."""
    request, analog_solver = payload
    backend = create_backend(request.backend, analog_solver=analog_solver, cache=None)
    return backend.solve(request)


class BatchSolveService:
    """Solve many max-flow instances concurrently through one call.

    Parameters
    ----------
    max_workers:
        Worker-pool width; defaults to ``min(8, cpu_count)``.
    executor:
        ``"thread"`` (default), ``"process"`` or ``"serial"`` — see the
        module docstring for the trade-offs.
    analog_solver:
        Configured :class:`~repro.analog.solver.AnalogMaxFlowSolver` used by
        every ``"analog"`` request (Table 1 defaults when omitted).
    cache_size:
        Capacity of the shared compiled-circuit cache (``0`` disables it).
    failover:
        Opt-in degraded-mode solving: ``True`` enables the default
        :class:`~repro.resilience.failover.FailoverPolicy`, or pass a
        configured policy.  Failed requests then retry and degrade along
        their declared backend chain (``analog → kernel-dinic → dinic``,
        ...), with every fallback result re-validated before it is
        accepted; requests whose whole chain fails still come back as
        typed ``ok=False`` entries.  Off (``None``) by default so the
        plain service's one-backend-one-result contract is unchanged.

    Examples
    --------
    A mixed batch — the same instance through a classical and the analog
    backend — in one call:

    >>> from repro import FlowNetwork
    >>> from repro.service import BatchSolveService, SolveRequest
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "a", 3.0)
    >>> _ = g.add_edge("a", "t", 2.0)
    >>> service = BatchSolveService(max_workers=2)
    >>> report = service.solve_batch(
    ...     [
    ...         SolveRequest(network=g, backend="dinic", tag="exact"),
    ...         SolveRequest(network=g, backend="analog", tag="substrate"),
    ...     ]
    ... )
    >>> report.num_ok
    2
    >>> round(report.by_tag("exact")[0].flow_value, 2)
    2.0
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        analog_solver: Optional[AnalogMaxFlowSolver] = None,
        cache_size: int = 128,
        failover: Union[FailoverPolicy, bool, None] = None,
    ) -> None:
        if executor not in ("thread", "process", "serial"):
            raise AlgorithmError(f"unknown executor {executor!r}")
        if max_workers is not None and max_workers < 1:
            raise AlgorithmError("max_workers must be at least 1")
        self.max_workers = max_workers if max_workers is not None else _default_max_workers()
        self.executor = executor
        self.analog_solver = analog_solver if analog_solver is not None else AnalogMaxFlowSolver()
        self.cache = CompiledCircuitCache(max_entries=cache_size)
        if failover is True:
            failover = FailoverPolicy()
        elif failover is False:
            failover = None
        self.failover: Optional[FailoverPolicy] = failover
        self._backends: Dict[str, SolveBackend] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def _as_request(item: RequestLike) -> SolveRequest:
        if isinstance(item, SolveRequest):
            return item
        if isinstance(item, FlowNetwork):
            return SolveRequest(network=item)
        raise AlgorithmError(
            f"batch items must be SolveRequest or FlowNetwork, got {type(item).__name__}"
        )

    def backend(self, name: str) -> SolveBackend:
        """This service's backend for ``name``, created on first use.

        Every backend shares the service's analog solver and
        compiled-circuit cache; failover fallbacks come from the same memo.

        Raises
        ------
        AlgorithmError
            For unknown backend names.
        """
        backend = self._backends.get(name)
        if backend is None:
            # Two threads may both miss and create one; either instance
            # serves, since backends hold no per-request state.
            backend = create_backend(
                name, analog_solver=self.analog_solver, cache=self.cache
            )
            self._backends[name] = backend
        return backend

    def _solve_one(self, request: SolveRequest) -> SolveResult:
        """The one solve path: name check, deadline, chain walk or one call.

        The name is checked before anything runs, so a typo raises
        :class:`~repro.errors.AlgorithmError` instead of being answered by
        a fallback.  ``deadline_s`` opens one budget around the whole walk:
        every stage and retry shares it (a tighter ambient deadline wins).
        """
        backend = self.backend(request.backend)
        with deadline_scope(request.options.get("deadline_s"), label=request.backend):
            if self.failover is not None:
                return solve_with_failover(request, self.failover, self.backend)
            return backend.solve(request)

    # ------------------------------------------------------------------

    def solve(
        self,
        network: FlowNetwork,
        backend: str = "analog",
        tag: Optional[str] = None,
        **options: Any,
    ) -> SolveResult:
        """Solve a single instance.

        Parameters
        ----------
        network:
            The instance to solve.
        backend:
            Registered backend name; an unknown name raises
            :class:`~repro.errors.AlgorithmError`, with or without failover.
        tag:
            Free-form label echoed back in ``result.request.tag``.
        **options:
            Backend-specific options (see :class:`SolveRequest`).  A
            ``deadline_s`` budget covers the whole solve, including every
            failover stage and retry.

        Examples
        --------
        >>> from repro import FlowNetwork
        >>> from repro.service import BatchSolveService
        >>> g = FlowNetwork()
        >>> _ = g.add_edge("s", "t", 1.5)
        >>> result = BatchSolveService().solve(g, backend="push-relabel", tag="one")
        >>> round(result.flow_value, 2), result.request.tag
        (1.5, 'one')
        """
        return self._solve_one(
            SolveRequest(network=network, backend=backend, options=dict(options), tag=tag)
        )

    def solve_batch(
        self,
        requests: Iterable[RequestLike],
        deadline: Union[Deadline, float, None] = None,
    ) -> BatchReport:
        """Solve a batch of instances and aggregate the outcome.

        Parameters
        ----------
        requests:
            :class:`SolveRequest` objects and/or bare
            :class:`~repro.graph.network.FlowNetwork` instances (which get
            the default ``"analog"`` backend).
        deadline:
            Optional shared wall-clock budget (seconds or a
            :class:`~repro.resilience.policy.Deadline`) for the whole batch:
            instances past the budget fail with typed
            ``SolveTimeoutError`` entries instead of running.  With the
            process executor each instance gets the budget remaining at
            dispatch via its ``deadline_s`` option (context variables do not
            cross process boundaries).

        Returns
        -------
        BatchReport
            Per-instance results in request order plus aggregate stats.
            Backend exceptions are captured per instance (``ok=False``,
            typed ``error_type``); only malformed batches (unknown backend
            name, wrong item type) raise.  With a ``failover`` policy
            configured, failed instances degrade along their backend chain
            before being reported as failures.
        """
        reqs = [self._as_request(item) for item in requests]
        start = time.perf_counter()
        if not reqs:
            return BatchReport(
                results=[],
                total_wall_time_s=0.0,
                max_workers=self.max_workers,
                executor=self.executor,
                cache_stats=self.cache.stats(),
            )
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline(float(deadline), label="batch")
        for name in {r.backend for r in reqs}:
            self.backend(name)  # unknown names fail the batch before it runs

        with span(
            "batch.solve", executor=self.executor, requests=len(reqs)
        ) as batch_span, ParallelMap(
            executor=self.executor, max_workers=self.max_workers
        ) as pool:
            if self.executor == "process" and len(reqs) > 1 and self.max_workers > 1:
                if deadline is not None:
                    reqs = [
                        replace(
                            r,
                            options={
                                **r.options,
                                "deadline_s": max(1e-6, deadline.remaining()),
                            },
                        )
                        for r in reqs
                    ]
                payloads = [(r, self.analog_solver) for r in reqs]
                results = pool.map(_process_worker, payloads, describe=_describe_request)
                if self.failover is not None:
                    # Chains re-run in the parent: the policy's breakers and
                    # the compiled-circuit cache are not shared with workers.
                    with deadline_scope(deadline):
                        results = [
                            r if r.ok else self._solve_one(r.request) for r in results
                        ]
                # Worker processes cannot attach to this trace tree (nor
                # reach this registry), so their returned timings become
                # post-hoc child spans and counters on the parent side —
                # the same explicit hand-off as ``deadline_s`` above.
                for r in results:
                    record_span(
                        "backend.solve",
                        r.wall_time_s,
                        backend=r.request.backend,
                        ok=r.ok,
                        executor="process",
                    )
                    if r.ok:
                        probes.solve_finished(r.request.backend, r.cache_hit)
                    else:
                        probes.solve_error(r.request.backend, r.error_type or "")
                    probes.solve_timed(r.request.backend, r.wall_time_s)
            else:
                # Inline execution (serial, threads, or a degenerate process
                # pool that would run one task at a time anyway) keeps the
                # shared backend instances and their compiled-circuit cache.
                parent_span = current_span()

                def run(r: SolveRequest) -> SolveResult:
                    # Deadlines and trace context re-scope inside the
                    # worker: the Deadline object carries an absolute
                    # expiry, the parent span was captured at dispatch, and
                    # context variables do not propagate into pool threads.
                    with span_scope(parent_span), deadline_scope(deadline):
                        return self._solve_one(r)

                results = pool.map(run, reqs, describe=_describe_request)
            batch_span.set(
                ok=sum(1 for r in results if r.ok),
                failed=sum(1 for r in results if not r.ok),
            )

        return BatchReport(
            results=results,
            total_wall_time_s=time.perf_counter() - start,
            max_workers=self.max_workers,
            executor=self.executor,
            cache_stats=self.cache.stats(),
        )
