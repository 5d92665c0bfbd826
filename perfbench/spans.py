"""In-memory span tracing of library calls, recorded from outside the library.

A Tracer wraps a library function and installs the wrapper under every
module-level name that refers to it, which is where callers look it up
(for example ``skinseg.segment.refine`` as well as
``skinseg.neighbourhood.refine``). Each call records a span: name, start,
end, parent span and op id. Spans stay in memory until the run ends.

A layer's self time is its span's duration minus its child spans'
durations; over one op the self times of all spans, including the op's
root span, add up to the op's duration.
"""

import time
from collections import defaultdict
from dataclasses import dataclass, field

ROOT = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    capture: object = None


@dataclass
class Totals:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    captures: list = field(default_factory=list)


class Tracer:
    """Records spans for the functions it has wrapped while an op is open."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._clock = clock
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list = []

    def begin_op(self, op: int) -> None:
        self._op = op
        self._open(ROOT)

    def end_op(self) -> float:
        """Close the op's root span and return its duration."""
        root = self._close()
        self._op = None
        return root.end - root.start

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list.

        Call it between ops only: parent indices are positions in the
        list handed over.
        """
        taken, self.spans = self.spans, []
        return taken

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = self._clock()
        return span

    def _close(self) -> Span:
        end = self._clock()
        span = self.spans[self._stack.pop()]
        span.end = end
        return span

    def wrap(self, name: str, fn, capture=None):
        """fn wrapped to record a span named name while an op is open.

        capture(args, kwargs, result), if given, runs after the span has
        closed and its return value is kept on the span for counters.
        """

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if capture is not None:
                span.capture = capture(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, modules) -> None:
        """Patch each (span name, module, attribute, capture) target.

        The wrapper replaces every name in modules bound to the original
        function. A target whose attribute no longer exists is recorded in
        self.missing and reports zero calls.
        """
        for name, module, attr, capture in targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, original, capture)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Span name -> calls, inclusive and self seconds, and captures."""
    out: dict[str, Totals] = defaultdict(Totals)
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry.calls += 1
        entry.inclusive += span.end - span.start
        entry.self_time += own
        if span.capture is not None:
            entry.captures.append(span.capture)
    return out
