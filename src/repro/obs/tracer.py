"""Span tracing for the simulator itself.

The paper's contribution is instrumentation *of* Blue Gene/P; this
module instruments the *simulator*, in the style of LIKWID's marker API
(Treibig et al.): named regions opened and closed around interesting
work, recorded with both wall-clock time (what the simulator costs us)
and simulated cycles (what the modelled machine spent inside the
region).

Design constraints, in order:

1. **Disabled tracing costs ~nothing.**  The process-global tracer slot
   defaults to ``None``; :func:`span` then returns a shared, stateless
   :class:`NullSpan` whose every method is a no-op.  Hot paths may
   additionally guard attribute construction behind :func:`enabled`.
2. **No nesting discipline required.**  Spans usually close LIFO (the
   ``with`` statement guarantees it), but marker spans opened by
   ``BGP_Start`` may interleave across set ids; ``end()`` tolerates
   out-of-order closes.
3. **Exportable artifacts.**  A finished trace serialises to JSONL (one
   span per line, trivially greppable) and to the Chrome/Perfetto
   ``trace.json`` event format, loadable in ``chrome://tracing`` or
   https://ui.perfetto.dev with zero extra tooling.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional


class NullSpan:
    """The do-nothing span returned while tracing is disabled.

    A single shared instance is handed to every caller; it carries no
    state, so reuse is safe even across interleaved regions.
    """

    __slots__ = ()

    def set(self, key: str, value: Any) -> "NullSpan":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The shared no-op span (identity-comparable in tests).
NULL_SPAN = NullSpan()


class Span:
    """One live (or finished) traced region."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth",
                 "start_us", "dur_us", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int, start_us: float,
                 attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_us = start_us
        self.dur_us: Optional[float] = None  # None while open
        self.attrs = attrs

    def set(self, key: str, value: Any) -> "Span":
        """Attach/overwrite one attribute (chainable)."""
        self.attrs[key] = value
        return self

    def end(self) -> None:
        """Close the span; idempotent."""
        if self.dur_us is None:
            self._tracer._end(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.end()
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "ts_us": round(self.start_us, 3),
            "dur_us": round(self.dur_us, 3) if self.dur_us is not None
                      else None,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans against a per-tracer wall-clock epoch."""

    def __init__(self):
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._open: List[Span] = []
        #: finished spans, in close order
        self.spans: List[Span] = []

    # ------------------------------------------------------------------
    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _make(self, name: str, attrs: Dict[str, Any]) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(self, name,
                    span_id=self._next_id,
                    parent_id=parent.span_id if parent else None,
                    depth=parent.depth + 1 if parent else 0,
                    start_us=self._now_us(),
                    attrs=attrs)
        self._next_id += 1
        return span

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span as a child of the innermost open span."""
        span = self._make(name, attrs)
        self._open.append(span)
        return span

    def marker(self, name: str, **attrs: Any) -> Span:
        """Open a *marker* span: recorded, but never anyone's parent.

        LIKWID-style region markers (``BGP_Start``/``BGP_Stop``) stay
        open across whole measured regions and interleave across set
        ids; keeping them off the parent stack stops them from
        swallowing the structural job/phase hierarchy.
        """
        return self._make(name, attrs)

    def _end(self, span: Span) -> None:
        span.dur_us = self._now_us() - span.start_us
        # LIFO is the overwhelmingly common case; interleaved marker
        # spans (BGP_Start set interleaving) take the slow remove
        if self._open and self._open[-1] is span:
            self._open.pop()
        elif span in self._open:
            self._open.remove(span)
        self.spans.append(span)

    def close_open_spans(self) -> int:
        """Force-close anything still open (end of run); returns count."""
        n = 0
        while self._open:
            self._open[-1].end()
            n += 1
        return n

    # ------------------------------------------------------------------
    # summaries and exporters
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate finished spans by name.

        Returns ``{name: {count, total_us, max_us, cycles}}`` where
        ``cycles`` sums the spans' simulated-cycle attribute.
        """
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            agg = out.setdefault(span.name, {
                "count": 0, "total_us": 0.0, "max_us": 0.0,
                "cycles": 0.0})
            agg["count"] += 1
            dur = span.dur_us or 0.0
            agg["total_us"] += dur
            agg["max_us"] = max(agg["max_us"], dur)
            cycles = span.attrs.get("cycles")
            if isinstance(cycles, (int, float)):
                agg["cycles"] += float(cycles)
        return out

    def export_jsonl(self, path: str) -> str:
        """One finished span per line, start-time ordered."""
        ordered = sorted(self.spans, key=lambda s: s.start_us)
        with open(path, "w") as fh:
            for span in ordered:
                fh.write(json.dumps(span.to_dict(),
                                    default=_json_scalar) + "\n")
        return path

    def export_chrome(self, path: str,
                      process_name: str = "repro simulator",
                      extra_events: Optional[List[Dict[str, Any]]] = None
                      ) -> str:
        """Chrome/Perfetto ``trace.json``: complete ('X') events.

        ``extra_events`` are appended verbatim — the timeline pipeline
        uses this to merge its counter-track (``"ph": "C"``) events so
        sampled counters render as graphs under the span rows.
        """
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": process_name},
        }]
        for span in sorted(self.spans, key=lambda s: s.start_us):
            events.append({
                "name": span.name,
                "cat": "sim",
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(span.dur_us or 0.0, 3),
                "pid": 0,
                "tid": 0,
                "args": {k: _json_scalar(v)
                         for k, v in span.attrs.items()},
            })
        if extra_events:
            events.extend(extra_events)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      fh)
        return path


def _json_scalar(value: Any) -> Any:
    """Coerce numpy scalars and other oddballs to JSON-safe values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:  # numpy integer/float scalars expose item()
        return value.item()
    except AttributeError:
        return str(value)


# ---------------------------------------------------------------------------
# the process-global tracer slot
# ---------------------------------------------------------------------------
_tracer: Optional[Tracer] = None


def enabled() -> bool:
    """True when a recording tracer is installed."""
    return _tracer is not None


def get() -> Optional[Tracer]:
    """The installed tracer, or None."""
    return _tracer


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) a recording tracer as the process global."""
    global _tracer
    _tracer = tracer if tracer is not None else Tracer()
    return _tracer


def uninstall() -> Optional[Tracer]:
    """Remove the installed tracer; returns it for export."""
    global _tracer
    tracer, _tracer = _tracer, None
    return tracer


def span(name: str, **attrs: Any):
    """Open a span on the installed tracer, or the shared no-op span.

    This is the one call instrumented code makes; the disabled path is
    a global load, a comparison, and a return of a shared object.
    """
    t = _tracer
    if t is None:
        return NULL_SPAN
    return t.begin(name, **attrs)


def marker(name: str, **attrs: Any):
    """Open a marker span (never a parent) on the installed tracer."""
    t = _tracer
    if t is None:
        return NULL_SPAN
    return t.marker(name, **attrs)


@contextmanager
def recording(tracer: Optional[Tracer] = None):
    """Temporarily install a tracer (tests, library embedding)."""
    t = install(tracer)
    try:
        yield t
    finally:
        uninstall()
