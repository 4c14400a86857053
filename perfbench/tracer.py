"""Out-of-program span tracing for the traced benchmark run.

The tracer wraps public functions and methods of the ``repro`` layers
from the outside (nothing under ``src/`` is touched).  Each call becomes
a span: name, start, end, parent span and the method scope the worker
set.  Spans live in compact in-memory arrays and are written out once,
when the run ends.  A span's *self time* is its duration minus the time
its direct child spans cover.

``install()`` patches every wrapped attribute and ``uninstall()``
restores the originals, so one process can alternate untraced and
traced episodes over the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.scopes: list[str] = [""]
        self.scope_id = 0
        self.span_name = array("H")
        self.span_scope = array("B")
        self.span_parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        #: (scope, counter name) -> value, for counts taken at the
        #: same boundaries as the spans.
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.installed = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_scope(self, scope: str) -> None:
        """Tag the spans that follow with a method name (``CORP``, ...)."""
        if scope not in self.scopes:
            self.scopes.append(scope)
        self.scope_id = self.scopes.index(scope)

    @property
    def scope(self) -> str:
        return self.scopes[self.scope_id]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.scope, key)] += value

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name_id: int) -> int:
        idx = len(self.t0)
        self.span_name.append(name_id)
        self.span_scope.append(self.scope_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, stop: float) -> None:
        """Record a span measured by the caller (e.g. the import block)."""
        idx = self.begin(self._name_id(name))
        self.t0[idx] = start
        self.t1[idx] = stop
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.t0)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _wrapper(
        self,
        fn: Callable,
        name: str,
        before: Callable | None,
        after: Callable | None,
    ) -> Callable:
        nid = self._name_id(name)
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_traced(*args, **kwargs):
                if before is not None:
                    before(tracer, args)
                idx = tracer.begin(nid)
                try:
                    out = await fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                if after is not None:
                    after(tracer, args, out)
                return out

            return async_traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            idx = tracer.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Trace ``cls.attr`` (resolved through the MRO) under ``name``."""
        original = cls.__dict__.get(attr, _MISSING)
        fn = getattr(cls, attr)
        self._patches.append(
            (cls, attr, original, self._wrapper(fn, name, before, after))
        )

    def wrap_function(
        self,
        fn: Callable,
        name: str,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Trace a module-level function at every module that bound it.

        ``from x import f`` copies the reference, so the defining module
        and every loaded ``repro`` module (and the benchmark's
        ``workloads``) holding the same object are patched together.
        """
        wrapped = self._wrapper(fn, name, before, after)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "") or ""
            if not (mod_name.startswith("repro") or mod_name == "workloads"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn, wrapped))

    def wrap_async_generator(
        self, cls: type, attr: str, counter: str
    ) -> None:
        """Count the items an async-generator method yields (no span).

        A span around a stream would time the consumer's waiting, not
        the producer's work, so streams are counted only.
        """
        fn = getattr(cls, attr)
        original = cls.__dict__.get(attr, _MISSING)
        tracer = self

        @functools.wraps(fn)
        async def counted(*args, **kwargs):
            async for item in fn(*args, **kwargs):
                tracer.count(counter)
                yield item

        self._patches.append((cls, attr, original, counted))

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _wrapped in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.installed = False

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of spans ``lo..hi`` (duration minus direct children)."""
        hi = len(self) if hi is None else hi
        out = [self.t1[i] - self.t0[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            parent = self.span_parent[i]
            if parent >= lo:
                out[parent - lo] -= self.t1[i] - self.t0[i]
        return out

    def summarize(self, lo: int = 0, hi: int | None = None) -> "SpanSummary":
        """Per (scope, name) call count, inclusive and self seconds."""
        hi = len(self) if hi is None else hi
        selfs = self.self_times(lo, hi)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        total: dict[tuple[str, str], float] = defaultdict(float)
        own: dict[tuple[str, str], float] = defaultdict(float)
        top = 0.0
        for i in range(lo, hi):
            key = (self.scopes[self.span_scope[i]], self.names[self.span_name[i]])
            calls[key] += 1
            dur = self.t1[i] - self.t0[i]
            own[key] += selfs[i - lo]
            total[key] += dur
            if self.span_parent[i] < lo:
                top += dur
        return SpanSummary(calls, total, own, top)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, scope."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.span_name[i]],
                            round(self.t0[i], 9),
                            round(self.t1[i], 9),
                            self.span_parent[i],
                            self.scopes[self.span_scope[i]],
                        ]
                    )
                )
                fh.write("\n")


class SpanSummary:
    """Aggregated spans of one phase, queried by (scope, name)."""

    def __init__(self, calls, total, own, top) -> None:
        self._calls = calls
        self._total = total
        self._own = own
        #: Sum of the durations of the phase's top-level spans.
        self.top_level_s = top

    def _sum(self, table, name: str, scope: str | None) -> float:
        return sum(
            v for (s, n), v in table.items()
            if n == name and (scope is None or s == scope)
        )

    def calls(self, name: str, scope: str | None = None) -> int:
        return int(self._sum(self._calls, name, scope))

    def total(self, name: str, scope: str | None = None) -> float:
        return self._sum(self._total, name, scope)

    def own(self, name: str, scope: str | None = None) -> float:
        return self._sum(self._own, name, scope)


class _Missing:
    pass


_MISSING = _Missing()
