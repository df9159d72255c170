"""Observability for the simulator itself: spans, metrics, logging.

The paper instruments Blue Gene/P; this package instruments the
*reproduction* — a LIKWID-style span tracer with wall-time and
simulated-cycle attributes, a metrics registry for the model's internal
hot paths, structured logging, and (via :mod:`repro.obs.timeline` /
:mod:`repro.obs.report`) job-level counter sampling with SUPReMM-style
run reports.  Everything defaults to off at near-zero cost; the CLI's
``--trace``/``--profile``/``--json``/``--sample-every`` flags (and
:func:`repro.obs.tracer.install`) switch recording on.

Artifacts a traced run exports:

* ``trace.json`` — Chrome/Perfetto-loadable span timeline (plus
  counter tracks when ``--sample-every`` is active);
* ``spans.jsonl`` — one span per line for ad-hoc analysis;
* ``metrics.json`` — the counters/gauges/histograms snapshot;
* ``timeline.jsonl`` — per-sample job telemetry records;
* ``report.md``/``report.json`` — ``python -m repro report`` summary.

One registry per process
------------------------
The tracer slot, the metrics :data:`REGISTRY`, and the timeline
recorder are **process-global**.  Every simulation runs in the process
that asks for it, so everything it records lands in these globals
directly; nothing is shipped between processes.
"""

from . import logging, metrics, tracer
from . import report, timeline
from .logging import get_logger, kv
from .logging import setup as setup_logging
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from .timeline import (
    DEFAULT_SAMPLE_EVENTS,
    JobTimeline,
    NodeTimeline,
    NodeTimelineSampler,
    TimelineAlert,
    TimelineConfig,
)
from .tracer import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    enabled,
    install,
    marker,
    recording,
    span,
    uninstall,
)

__all__ = [
    "tracer",
    "metrics",
    "logging",
    "timeline",
    "report",
    "TimelineConfig",
    "TimelineAlert",
    "NodeTimelineSampler",
    "NodeTimeline",
    "JobTimeline",
    "DEFAULT_SAMPLE_EVENTS",
    "Tracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "span",
    "marker",
    "enabled",
    "install",
    "uninstall",
    "recording",
    "MetricsRegistry",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "get_logger",
    "setup_logging",
    "kv",
]
