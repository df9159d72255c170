"""A metrics registry for the simulator's own internals.

The UPC unit counts the *modelled machine*; this registry counts the
*model* — how many cache-model evaluations, DDR contention resolutions,
network phase charges and BSP iterations a run performed.  That is the
raw material for finding and verifying hot-path optimisations (you
cannot speed up what you cannot see).

Three instrument kinds, deliberately minimal:

* :class:`Counter` — monotonically increasing count (``inc``);
* :class:`Gauge` — last-written value (``set``);
* :class:`Histogram` — streaming count/total/min/max plus p50/p90/p99
  tails over observations (no buckets: a bounded reservoir of raw
  samples keeps the hot path at one compare + three adds + one append,
  and nearest-rank percentiles are computed only at snapshot time).

Hot modules bind their instruments once at import time
(``_EVALS = counter("mem.loop_evals")``); incrementing is then a method
call and an integer add.  :func:`reset` zeroes instruments **in
place**, so those module-level bindings survive.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Streaming summary statistics of observed values.

    Percentiles come from a deterministic decimating reservoir: raw
    samples accumulate until :data:`MAX_SAMPLES`, then every other
    retained sample is dropped and the keep-stride doubles.  The kept
    samples stay an unbiased, evenly spaced subsample of the stream in
    arrival order, so nearest-rank percentiles over them converge on
    the stream's tails without unbounded memory.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_stride")

    #: reservoir capacity before decimation halves it
    MAX_SAMPLES = 4096

    def __init__(self, name: str):
        self.name = name
        self._reset()

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.count % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self.MAX_SAMPLES:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> Optional[float]:
        """Nearest-rank percentile over the retained reservoir.

        An empty reservoir has no tails to report: the query returns
        ``None`` (not a fabricated 0.0, which callers would mistake for
        a real observation) — fleet summarizers and report renderers
        show the absence explicitly.
        """
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(1, -(-pct * len(ordered) // 100))  # ceil
        return ordered[int(min(rank, len(ordered))) - 1]

    def _reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples = []
        self._stride = 1

    def to_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {"count": self.count, "total": self.total,
                "mean": self.mean, "min": self.min, "max": self.max,
                "p50": self.percentile(50), "p90": self.percentile(90),
                "p99": self.percentile(99)}


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name)
        return inst

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument in place (bindings stay valid)."""
        for group in (self.counters, self.gauges, self.histograms):
            for inst in group.values():
                inst._reset()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All current values as a plain JSON-ready dict."""
        return {
            "counters": {n: c.value for n, c in
                         sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.to_dict() for n, h in
                           sorted(self.histograms.items())},
        }

    def export_json(self, path: str) -> str:
        # write-then-rename: the service re-exports this file on every
        # request, so concurrent readers must never see a torn snapshot
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path


#: The process-global registry the instrumented modules bind against.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get or create a counter on the global registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create a gauge on the global registry."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Get or create a histogram on the global registry."""
    return REGISTRY.histogram(name)


def reset(registry: Optional[MetricsRegistry] = None) -> None:
    """Zero the given (default: global) registry in place."""
    (registry or REGISTRY).reset()


def snapshot() -> Dict[str, Dict[str, object]]:
    """Snapshot of the global registry."""
    return REGISTRY.snapshot()
