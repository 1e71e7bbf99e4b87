"""In-memory span recorder driven from outside the program.

A :class:`Tracer` replaces a function with a timing wrapper at the place
where its caller looks it up (``frameport.pipeline.canonicalize``, not
``frameport.canon.canonicalize``), so the program runs in its own call
order. Each call becomes one span record; hot tiny calls get count-only
wrappers instead, which add to a counter on the innermost open span.

A span record is a plain list ``[id, name, start, end, parent, request,
counts]`` with times from ``time.perf_counter`` in seconds, ``parent`` the
id of the enclosing span (-1 at the top) and ``request`` the id of the
unit of work (op index, or op/step inside a training step). The same
record can later be emitted by an in-program trace without changing the
analysis here.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

ID, NAME, START, END, PARENT, REQUEST, COUNTS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._request = "-"
        self._steps = 0

    # -- recording -----------------------------------------------------------

    def open(self, name: str, request: str | None = None) -> list:
        parent = self.stack[-1] if self.stack else None
        if request is None:
            request = parent[REQUEST] if parent else self._request
        span = [len(self.spans), name, time.perf_counter(), 0.0,
                parent[ID] if parent else -1, request, None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def add(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to ``counter`` on the innermost open span."""
        if not self.stack:
            return
        span = self.stack[-1]
        if span[COUNTS] is None:
            span[COUNTS] = {}
        span[COUNTS][counter] = span[COUNTS].get(counter, 0) + n

    def begin_request(self, request: str) -> None:
        self._request = request
        self._steps = 0

    def next_step(self) -> str:
        self._steps += 1
        return f"{self._request}/step{self._steps}"

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[list | None], str],
        after: Callable[["Tracer", Any, tuple, dict], None] | None = None,
        step: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` may be a function of the parent span. ``after`` sees the
        result and arguments and may add counters to the call's own span.
        ``step`` gives each call a fresh request id (a training step).
        """
        inner = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(
                tracer.stack[-1] if tracer.stack else None
            )
            span = tracer.open(label, tracer.next_step() if step else None)
            try:
                result = inner(*args, **kwargs)
                if after is not None:
                    after(tracer, result, args, kwargs)
                return result
            finally:
                tracer.close(span)

        self._patch(owner, attr, wrapper)

    def count(
        self,
        owner: Any,
        attr: str,
        counter: str,
        amount: Callable[[Any], int] | None = None,
    ) -> None:
        """Count calls of ``owner.attr`` without timing them.

        With ``amount``, add ``amount(result)`` instead of one per call.
        """
        inner = getattr(owner, attr)
        stack = self.stack

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if stack:
                span = stack[-1]
                counts = span[COUNTS]
                if counts is None:
                    counts = span[COUNTS] = {}
                n = 1 if amount is None else amount(result)
                counts[counter] = counts.get(counter, 0) + n
            return result

        self._patch(owner, attr, wrapper)

    def wrap_returned(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of the callables that ``owner.attr`` returns."""
        factory = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            made = factory(*args, **kwargs)

            def traced(*a, **k):
                with tracer.span(name):
                    return made(*a, **k)

            return traced

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "name", "start", "end", "parent", "request", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest within one thread, so children never overlap and the part
    of a span's interval they cover is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class Summary:
    """Totals by span name, and spans and counters inside each named scope."""

    def __init__(self, spans: list[list]) -> None:
        selfs = self_times(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        # (scope name, inner span name or counter) -> count inside that scope
        self.within: dict[tuple[str, str], int] = defaultdict(int)
        self.within_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        for span, own in zip(spans, selfs):
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_total[name] += own
            scopes = set()
            parent = span[PARENT]
            while parent >= 0:
                scopes.add(spans[parent][NAME])
                parent = spans[parent][PARENT]
            for scope in scopes:
                self.within[(scope, name)] += 1
                self.within_time[(scope, name)] += duration
            if span[COUNTS]:
                scopes.add(name)
                for counter, n in span[COUNTS].items():
                    self.counters[counter] += n
                    for scope in scopes:
                        self.within[(scope, counter)] += n

    def rows(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total s, self s), slowest self time first."""
        return sorted(
            ((n, self.calls[n], self.total[n], self.self_total[n]) for n in self.calls),
            key=lambda r: -r[3],
        )
