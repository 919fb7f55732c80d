"""Outside-in span tracer: wraps the program's functions without editing it.

:meth:`Tracer.install` replaces functions and methods with wrappers that
record one :class:`Span` per call (name, start, end, parent span, request
id).  Spans stay in memory and are written out when the run ends.
:meth:`Tracer.uninstall` puts every original back and checks that it did.

Three rules keep the tree connected across the program's threads:

* A module-level function is replaced at **every import site**: each loaded
  ``repro.*`` module attribute that *is* the original gets the wrapper (for
  example ``network_signature`` in ``repro.service.server`` and
  ``repro.service.backends`` as well as ``repro.service.cache``).
* Context variables do not cross ``loop.run_in_executor``.  The server's
  executor hop is bridged by network identity: a traced ``submit`` registers
  its span under ``id(network)``, and a traced call that opens on an
  executor thread with no parent claims the oldest open registration for
  the network it was handed (``hop_arg``).  Coalesced followers never claim
  one; their leader's solve attaches to the leader.
* ``ParallelMap.map`` becomes a ``batch.map`` span, and each mapped call
  runs on its worker thread with that span as its parent (thread and serial
  executors; a process pool's workers cannot reach this tracer).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    """One traced call."""

    __slots__ = ("name", "start", "end", "parent", "request_id", "attrs")

    def __init__(self, name: str, start: float, parent: Optional["Span"], request_id: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


@dataclass
class Wrap:
    """One thing to wrap.

    ``target`` is ``"module:function"`` (wrapped at every import site) or
    ``"module:Class.method"``.  ``on_result(span, args, kwargs, result)``
    copies counters off the return value onto the span.  ``hop_arg`` names
    the positional index of the network argument used to bridge an executor
    hop (see the module docstring); ``hop_register`` marks the call that
    registers the hop.
    """

    target: str
    span: str
    on_result: Optional[Callable] = None
    hop_arg: Optional[int] = None
    hop_register: bool = False


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any


class Tracer:
    """Collects spans from wrapped program entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "repobench_span", default=None
        )
        self._ids = itertools.count(1)
        self._patches: List[_Patch] = []
        self._hops: Dict[int, List[Span]] = {}
        self._hop_lock = threading.Lock()

    # -- span plumbing ---------------------------------------------------

    def _open(self, name: str, parent: Optional[Span]) -> Span:
        request_id = parent.request_id if parent is not None else next(self._ids)
        return Span(name, time.perf_counter(), parent, request_id)

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.spans.append(span)  # list.append is atomic under the GIL

    def _register_hop(self, key: int, span: Span) -> None:
        with self._hop_lock:
            self._hops.setdefault(key, []).append(span)

    def _release_hop(self, key: int, span: Span) -> None:
        with self._hop_lock:
            waiting = self._hops.get(key, [])
            if span in waiting:
                waiting.remove(span)
            if not waiting:
                self._hops.pop(key, None)

    def _claim_hop(self, key: int) -> Optional[Span]:
        with self._hop_lock:
            for span in self._hops.get(key, []):
                if not span.attrs.get("hop_claimed"):
                    span.attrs["hop_claimed"] = True
                    return span
        return None

    def _parent_for(self, wrap: Wrap, args: tuple, kwargs: dict) -> Optional[Span]:
        parent = self._current.get()
        if parent is None and wrap.hop_arg is not None and not wrap.hop_register:
            network = args[wrap.hop_arg] if len(args) > wrap.hop_arg else kwargs.get("network")
            if network is not None:
                parent = self._claim_hop(id(network))
        return parent

    # -- wrappers --------------------------------------------------------

    def _wrapper(self, wrap: Wrap, fn: Callable) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span = tracer._open(wrap.span, tracer._parent_for(wrap, args, kwargs))
                token = tracer._current.set(span)
                key = None
                if wrap.hop_register:
                    key = id(args[wrap.hop_arg])
                    tracer._register_hop(key, span)
                try:
                    result = await fn(*args, **kwargs)
                    if wrap.on_result is not None:
                        wrap.on_result(span, args, kwargs, result)
                    return result
                finally:
                    tracer._current.reset(token)
                    if key is not None:
                        tracer._release_hop(key, span)
                    tracer._close(span)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(wrap.span, tracer._parent_for(wrap, args, kwargs))
            token = tracer._current.set(span)
            try:
                result = fn(*args, **kwargs)
                if wrap.on_result is not None:
                    wrap.on_result(span, args, kwargs, result)
                return result
            finally:
                tracer._current.reset(token)
                tracer._close(span)

        return traced

    def _map_wrapper(self, original: Callable, name: str) -> Callable:
        """``ParallelMap.map`` as a span that is the parent of every mapped call."""
        tracer = self

        @functools.wraps(original)
        def traced_map(pool, fn, items, describe=None):
            span = tracer._open(name, tracer._current.get())
            token = tracer._current.set(span)
            try:
                if pool.executor == "process":
                    return original(pool, fn, items, describe)

                def with_parent(item):
                    inner = tracer._current.set(span)
                    try:
                        return fn(item)
                    finally:
                        tracer._current.reset(inner)

                return original(pool, with_parent, items, describe)
            finally:
                tracer._current.reset(token)
                tracer._close(span)

        return traced_map

    # -- install / uninstall ---------------------------------------------

    def install(self, wraps: List[Wrap], parallel_map: Optional[Tuple[Any, str, str]] = None) -> None:
        """Wrap every target; ``parallel_map`` is ``(ParallelMap, "map", span name)``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for wrap in wraps:
            module_name, _, qualname = wrap.target.partition(":")
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            if "." in qualname:
                cls_name, method = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrapper(wrap, original))
                continue
            original = getattr(module, qualname)
            replacement = self._wrapper(wrap, original)
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and mod is not None:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, replacement)
        if parallel_map is not None:
            owner, method, name = parallel_map
            original = owner.__dict__[method]
            self._patch(owner, method, original, self._map_wrapper(original, name))

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append(_Patch(owner, attr, original))

    def patched_sites(self) -> List[str]:
        """``module.attr`` of every replaced binding (for the run record)."""
        return sorted(
            f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}" for p in self._patches
        )

    def uninstall(self) -> None:
        """Restore every original binding, then verify the restoration."""
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        broken = [
            p for p in self._patches
            if (p.owner.__dict__ if isinstance(p.owner, type) else vars(p.owner))[p.attr]
            is not p.original
        ]
        self._patches = []
        if broken:
            raise RuntimeError(f"tracer left {len(broken)} bindings wrapped")
