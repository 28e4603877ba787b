"""In-memory spans around calls into the program's layers.

A recorder wraps a call as ``rec.call(name, fn, *args, attrs=..., **kwargs)``
or a block as ``with rec.span(name, **attrs)``. ``Tracer`` keeps timed spans
(name, parent, start, end, the unit of work they belong to); ``PeakRecorder``
keeps the tracemalloc allocation peak of each span instead; ``NULL`` records
nothing. Spans are written out only when the run ends.
"""

import contextlib
import time
import tracemalloc


class NullRecorder:
    """Records nothing; ``call`` runs a call inside ``span``."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, attrs=None, **kwargs):
        with self.span(name, **(attrs or {})):
            return fn(*args, **kwargs)


NULL = NullRecorder()


class Tracer(NullRecorder):
    """Timed spans. A span's ``unit`` (a step number or image name) is
    inherited from its parent unless given, so spans of one unit of work
    share an identifier."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        unit = self.spans[parent]["unit"] if parent is not None else None
        rec = {"name": name, "parent": parent, "unit": unit, **attrs,
               "start": self._clock(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = self._clock()
            self._stack.pop()


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def coverage(spans, root_name):
    """Share of the time of all ``root_name`` spans that their child spans
    cover: 1 - (sum of the roots' self times) / (sum of their durations)."""
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s["name"] == root_name]
    total = sum(duration(spans[i]) for i in roots)
    return 1.0 - sum(own[i] for i in roots) / total


def total_ms(spans, name, unit=..., **match):
    """Summed duration in ms of spans called ``name`` (of one unit when given)
    whose attributes equal ``match``."""
    return 1e3 * sum(duration(s) for s in spans
                     if s["name"] == name and (unit is ... or s["unit"] == unit)
                     and all(s.get(k) == v for k, v in match.items()))


class PeakRecorder(NullRecorder):
    """tracemalloc peak, in bytes above the level at entry, of every span.

    Nested spans are handled by folding a child's absolute peak into its
    parent's running maximum before the child resets the peak counter.
    tracemalloc must be tracing while spans run.
    """

    def __init__(self):
        self.peaks = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]     # level at entry, running absolute peak
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            top = max(frame[1], tracemalloc.get_traced_memory()[1])
            self.peaks.append({"name": name, **attrs, "peak_bytes": top - frame[0]})
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], top)
            tracemalloc.reset_peak()

    def max_mb(self, name, **match):
        vals = [p["peak_bytes"] for p in self.peaks if p["name"] == name
                and all(p.get(k) == v for k, v in match.items())]
        return max(vals) / 2 ** 20 if vals else 0.0
