"""Out-of-program tracing: spans recorded around calls into each layer.

The benchmark never edits ``src/``.  It wraps the public entry points of
each layer from the outside, so every caller resolves the wrapper at call
time:

* class methods are replaced on the class (``Cls.method = wrapper``);
* free functions are replaced at the binding the *caller* uses — e.g.
  ``branch_and_bound`` imports ``to_standard_form`` by name, so the
  wrapper goes on ``repro.milp.branch_and_bound.to_standard_form``.

Spans (name, start, end, parent, request id) are kept in memory and
written out when the run ends.  Parents come from a per-thread stack, so
a span opened in a worker thread has no parent unless that thread opened
one before it; the request id then comes from the query object the call
carries, bound by the workload code at submission.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from benchstats import self_times


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers.

    ``after`` hooks registered with a wrapper run after the span closed,
    so the extra work they do (reading counts off a result) is not
    charged to the layer.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._query_requests: dict[int, str] = {}
        self.enabled = False

    # -- request identity ------------------------------------------------

    def bind_query(self, query, request_id: str) -> None:
        """Spans opened on ``query`` in threads without a request of
        their own carry ``request_id``."""
        self._query_requests[id(query)] = request_id

    def set_request(self, request_id: str | None) -> None:
        """Request id for spans opened by the calling thread."""
        self._local.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value) -> None:
        with self._lock:
            self.samples[name].append(value)

    @contextlib.contextmanager
    def suspended(self):
        """Record nothing from the calling thread inside the block."""
        self._local.suspended = True
        try:
            yield
        finally:
            self._local.suspended = False

    def _active(self) -> bool:
        return self.enabled and not getattr(self._local, "suspended", False)

    def _run(self, name, query, fn, args, kwargs):
        local = self._local
        stack = self._stack()
        parent = stack[-1] if stack else None
        outer_request = getattr(local, "request", None)
        request = outer_request
        if request is None and query is not None:
            # Nested spans in this thread inherit the request.
            request = local.request = self._query_requests.get(id(query))
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            local.request = outer_request
            self.spans.append(Span(
                span_id, name, start, end, parent, request,
                threading.current_thread().name,
            ))
        return result, end - start

    def _wrapper(self, name, fn, after, query_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            query = query_of(args) if query_of is not None else None
            result, seconds = tracer._run(name, query, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result, seconds)
            return result

        return wrapper

    def wrap_method(self, cls, attr, name, after=None, query_of=None):
        """Replace ``cls.attr`` (defined on ``cls`` itself) by a traced
        wrapper.  ``query_of(args)`` picks the query out of the call's
        positional arguments (``self`` included); ``after(tracer, args,
        kwargs, result, seconds)`` runs once the span has closed."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, after, query_of))

    def wrap_function(self, module, attr, name, after=None, query_of=None):
        """Replace the binding ``module.attr`` by a traced wrapper."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrapper(name, original, after, query_of))

    def uninstall(self) -> None:
        """Restore every patched binding, most recent first."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return grouped

    def self_time_by_name(self) -> dict[str, float]:
        """Total self time (seconds) per span name."""
        selfs = self_times(
            (s.span_id, s.parent, s.start, s.end) for s in self.spans
        )
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += selfs[span.span_id]
        return dict(totals)

    def write(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent,
                    "request": s.request, "thread": s.thread,
                }) + "\n")
