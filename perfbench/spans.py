"""In-memory span recorder for the benchmark's traced run.

A span is ``(span_id, parent_id, name, start_ns, end_ns)``; the parent is
the span open when it started, so the spans of one item form a tree under
that item's root span.  Spans stay in memory until the run ends and are then
written out as JSON lines.

The recorder attaches to a program from the outside: ``install`` rebinds a
function's name, for the duration of a ``with`` block, in every module
namespace that holds it (a method is rebound on its class), and puts the
original back on exit.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable

Span = tuple[int, "int | None", str, int, int]


@dataclass(frozen=True)
class Target:
    """Where to record a span: ``module.attr``, or ``module.cls.attr`` for a
    method.  ``key`` maps the call's arguments to the input it is counted as
    (for distinct-input ratios); ``on_result`` sees the arguments and the
    result after the span has closed (for counters)."""

    name: str
    module: str
    attr: str
    cls: str | None = None
    key: Callable | None = None
    on_result: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid, parent = self._next_id, (self._stack[-1] if self._stack else None)
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn: Callable, target: Target) -> Callable:
        # the span logic is repeated here rather than built on ``span``: a
        # generator context manager per call adds its own cost, on layers
        # called some 50,000 times a round
        name, key, on_result = target.name, target.key, target.on_result
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            if key is not None:
                self.distinct[name].add(key(*args, **kwargs))
            sid, parent = self._next_id, (stack[-1] if stack else None)
            self._next_id += 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def install(self, modules: dict[str, object], targets: Iterable[Target]):
        """Record spans around ``targets`` while the block runs.

        ``modules`` maps short names to the program's module objects; a
        plain function is rebound in every one of them that holds it.
        """
        undo = []
        try:
            for t in targets:
                if t.cls is not None:
                    owner = getattr(modules[t.module], t.cls)
                    original = owner.__dict__[t.attr]
                    setattr(owner, t.attr, self.wrap(original, t))
                    undo.append((owner, t.attr, original))
                    continue
                original = getattr(modules[t.module], t.attr)
                traced = self.wrap(original, t)
                for mod in modules.values():
                    if mod.__dict__.get(t.attr) is original:
                        setattr(mod, t.attr, traced)
                        undo.append((mod, t.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def self_times(spans: Iterable[Span]) -> tuple[Counter, dict[str, int]]:
    """Calls and self time (ns) per span name.

    A span's self time is its duration minus the time its direct children
    cover.  Spans come from one thread, so children nest inside their parent
    and do not overlap one another: what they cover is the sum of their
    durations.
    """
    spans = list(spans)
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end in spans:
        calls[name] += 1
        self_ns[name] += (end - start) - child_ns[sid]
    return calls, dict(self_ns)


def child_counts(spans: Iterable[Span], child: str, parent: str) -> int:
    """How many ``child`` spans have a ``parent`` span as direct parent."""
    spans = list(spans)
    parents = {sid for sid, _, name, _, _ in spans if name == parent}
    return sum(1 for _, p, name, _, _ in spans if name == child and p in parents)
