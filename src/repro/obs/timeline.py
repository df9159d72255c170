"""Job-level telemetry: machine-wide counter sampling and timelines.

The paper's headline use-case for the UPC unit is *online* analysis — "a
single monitoring thread executing as part of a system service" watching
counters while a job runs (Section I).  :mod:`repro.core.monitor` gives
us that thread for one node; this module scales it to the whole machine,
in the style of ScALPEL / SUPReMM / LIKWID job telemetry:

* during :meth:`repro.runtime.Job.run` one integer sampler
  (:class:`NodeTimelineSampler`) runs per monitored node, sampling a
  configurable event set every ``sample_every`` simulated cycles.  It
  computes what a :class:`~repro.core.monitor.CounterMonitor` reading a
  UPC unit would see, on plain Python ints: no register file, so
  monitoring stays cheap next to the work it observes;
* the memoized engine samples **one representative per node-equivalence
  class** and replicates the compute-phase series to the class members
  (via :meth:`NodeTimelineSampler.branch`), exactly as counter deltas
  are replicated — per-node series are byte-identical to the legacy
  ``memoize=False`` engine;
* the per-node series roll up into a :class:`JobTimeline`: per-event
  min/mean/max/percentile bands across nodes, load-imbalance statistics,
  phase-change anomaly flags, threshold-interrupt alert streams, and
  derived-metric timelines (MFLOPS, L3<->DDR bandwidth, FP instruction
  mix over time) computed by reusing :mod:`repro.core.metrics` on
  per-sample deltas.

Within one BSP phase the simulation produces its events in a single
lump, so the sampler distributes each phase's event total uniformly
across the sample boundaries that fall inside the phase (cumulative
integer rounding: per-phase totals are preserved exactly).  That models
the paper's bulk-synchronous workloads — event rates are constant inside
a phase and step at phase boundaries, which is precisely the signal the
online-analysis use-cases consume.

Artifacts (exported by the CLI when ``--sample-every`` is given):

* ``timeline.jsonl`` — per-sample/per-node records, one JSON per line;
* Perfetto counter tracks (``"ph": "C"``) merged into ``trace.json`` so
  sampled events render as graphs under the span timeline;
* ``report.md`` / ``report.json`` via ``python -m repro report``
  (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import COUNTER_MASK
from ..core.events import EVENTS_BY_NAME


def _default_sample_events() -> Tuple[str, ...]:
    """The default sampled event set, spanning counter modes 0 and 2.

    This is the event list of the built-in ``BGP_BASE`` performance
    group: mode 0 (even node cards) carries the per-core cycle,
    instruction, FPU and L1-miss counters every derived metric needs;
    mode 2 (odd cards) the L3/DDR counters behind the bandwidth
    timeline.  Each node samples only the subset belonging to its own
    counter mode — all a real monitoring thread could observe.
    """
    from ..groups import get_group
    return tuple(get_group("BGP_BASE").events)


DEFAULT_SAMPLE_EVENTS: Tuple[str, ...] = _default_sample_events()


@dataclass(frozen=True)
class TimelineConfig:
    """What to sample, how often, and what to alert on."""

    #: sampling period in simulated cycles
    sample_every: int
    #: event names to watch (filtered per node to its counter mode)
    events: Tuple[str, ...] = DEFAULT_SAMPLE_EVENTS
    #: event name -> absolute counter threshold; crossing one raises a
    #: thresholding interrupt recorded in the job's alert stream
    thresholds: Dict[str, int] = field(default_factory=dict)
    #: cross-node band percentiles exported per sample
    percentiles: Tuple[int, int] = (10, 90)
    #: rate-jump factor fed to the per-node phase-change detector
    anomaly_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.sample_every <= 0:
            raise ValueError(
                f"sample_every must be positive, got {self.sample_every}")
        for name in self.events:
            if name not in EVENTS_BY_NAME:
                raise ValueError(f"unknown event {name!r}")

    def with_period(self, sample_every: int) -> "TimelineConfig":
        """This configuration at a different sampling period."""
        return replace(self, sample_every=sample_every)

    def events_in_mode(self, mode: int) -> List[str]:
        """The sampled events a node in counter ``mode`` can observe."""
        return [name for name in self.events
                if EVENTS_BY_NAME[name].mode == mode]


@dataclass(frozen=True)
class TimelineAlert:
    """One thresholding interrupt observed by the sampling pipeline."""

    node_id: int
    cycle: int
    event: str
    threshold: int
    value: int

    def to_dict(self) -> Dict[str, Any]:
        return {"node": self.node_id, "cycle": self.cycle,
                "event": self.event, "threshold": self.threshold,
                "value": self.value}


class NodeTimelineSampler:
    """The monitoring thread of one node during one job run.

    The job engine *feeds* it: each BSP phase hands over its named
    event totals and its cycle span, and the sampler distributes the
    events across the sample boundaries inside the span (see the module
    docstring).  Per sampled event it keeps the counter value modulo
    2**64, its value at the last sample and the ``(cycle, delta)``
    series, all plain Python ints, and does the arithmetic of a UPC unit
    read back by a :class:`~repro.core.monitor.CounterMonitor` at every
    boundary, without a register file.  Thresholds are held as the
    threshold registers hold them (masked to 64 bits, off when the
    masked value is 0) and raise an alert where the unit would raise a
    thresholding interrupt.  No node's counters are touched.
    """

    def __init__(self, node_id: int, mode: int, config: TimelineConfig):
        names = config.events_in_mode(mode)
        if not names:
            raise ValueError(
                f"no sampled events belong to counter mode {mode}")
        self.node_id = node_id
        self.mode = mode
        self.config = config
        #: event name -> counter value modulo 2**64 (sampling order)
        self._values: Dict[str, int] = dict.fromkeys(names, 0)
        #: event name -> counter value at the last sample
        self._last: Dict[str, int] = dict(self._values)
        #: event name -> (cycle, delta) samples taken by this sampler
        self._series: Dict[str, List[Tuple[int, int]]] = {
            name: [] for name in self._values}
        #: event name -> armed threshold register value
        self._thresholds: Dict[str, int] = {}
        for name in self._values:
            # a threshold register is 64 bits wide; 0 leaves it disarmed
            threshold = (config.thresholds.get(name) or 0) & COUNTER_MASK
            if threshold:
                self._thresholds[name] = int(threshold)
        self._now = 0
        self.alerts: List[TimelineAlert] = []
        #: series sampled before this sampler was branched (shared, not
        #: copied, across an equivalence class — replication for free)
        self._base_series: Dict[str, List[Tuple[int, int]]] = {}
        self._base_alerts: List[TimelineAlert] = []
        #: this sampler's series so far, frozen once for every branch
        #: taken from the same state (reset by each feed)
        self._branch_series: Optional[Dict[str, list]] = None
        self.phases: List[Tuple[str, int, int]] = []

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int, cycle: int) -> None:
        """Add ``amount`` to one counter; alert on a threshold crossing."""
        old = self._values[name]
        new = self._values[name] = (old + amount) & COUNTER_MASK
        threshold = self._thresholds.get(name)
        if threshold and (old < threshold <= new
                          or (new < old and threshold > old)):  # wrapped
            self.alerts.append(TimelineAlert(
                node_id=self.node_id, cycle=cycle, event=name,
                threshold=threshold, value=new))

    def _sample(self, cycle: int) -> None:
        """Append one ``(cycle, delta)`` sample to every event's series."""
        idle = (cycle, 0)  # one tuple for every event that did not move
        for series, value, last in zip(self._series.values(),
                                       self._values.values(),
                                       self._last.values()):
            series.append((cycle, (value - last) & COUNTER_MASK)
                          if value != last else idle)
        self._last = self._values.copy()

    def feed(self, label: str, events: Dict[str, int],
             cycles: float) -> None:
        """One BSP phase: distribute its events over its cycle span."""
        span = int(round(cycles))
        if span < 0:
            raise ValueError(f"negative phase span: {cycles}")
        self._branch_series = None
        start = self._now
        end = start + span
        totals = {name: int(count) for name, count in events.items()
                  if count > 0 and name in self._values}
        pulsed = dict.fromkeys(totals, 0)
        if span > 0:
            period = self.config.sample_every
            boundary = (start // period + 1) * period
            while boundary <= end:
                frac = (boundary - start) / span
                for name, total in totals.items():
                    target = int(total * frac)
                    share = target - pulsed[name]
                    if share > 0:
                        self._count(name, share, boundary)
                        pulsed[name] = target
                self._sample(boundary)
                boundary += period
        # the tail segment: per-phase totals are preserved exactly
        for name, total in totals.items():
            rest = total - pulsed[name]
            if rest > 0:
                self._count(name, rest, end)
        self._now = end
        self.phases.append((label, start, end))

    # ------------------------------------------------------------------
    def branch(self, node_id: int) -> "NodeTimelineSampler":
        """Replicate this sampler's series to an equivalence-class member.

        The branch starts where this sampler stands: the samples taken
        so far become the member's (shared, read-only) base series, the
        counter values and last-sample values are copied, and every
        alert so far, inherited ones included, is re-labelled with the
        member's node id.
        Feeding both the original and the branch the same subsequent
        phases yields byte-identical per-node series.
        """
        twin = NodeTimelineSampler.__new__(NodeTimelineSampler)
        twin.node_id = node_id
        twin.mode = self.mode
        twin.config = self.config
        twin._values = self._values.copy()
        twin._last = self._last.copy()
        twin._series = {name: [] for name in self._values}
        twin._thresholds = self._thresholds
        twin._now = self._now
        twin.alerts = []
        if self._branch_series is None:
            # built once per sampler state: a class representative
            # branches to every member, and rebuilding the series per
            # member would cost O(members x samples)
            self._branch_series = {
                name: self._base_series.get(name, []) + series
                for name, series in self._series.items()}
        twin._base_series = self._branch_series
        twin._branch_series = None
        twin._base_alerts = [replace(a, node_id=node_id)
                             for a in self._base_alerts + self.alerts]
        twin.phases = list(self.phases)
        return twin

    # ------------------------------------------------------------------
    def finish(self) -> "NodeTimeline":
        """Take the closing sample and freeze this node's timeline.

        The closing sample lands at the current cycle, and only if some
        counter moved since the last sample.
        """
        if self._now > 0 and self._values != self._last:
            self._sample(self._now)
        self._branch_series = None
        samples = {name: self._base_series.get(name, []) + series
                   for name, series in self._series.items()}
        return NodeTimeline(
            node_id=self.node_id,
            mode=self.mode,
            samples=samples,
            alerts=self._base_alerts + self.alerts,
            phases=list(self.phases),
            anomaly_factor=self.config.anomaly_factor,
        )


def detect_rate_jumps(samples: Sequence[Tuple[int, int]],
                      factor: float) -> List[int]:
    """Cycles where the event rate jumped/dropped by >= ``factor``.

    The same detector as :meth:`CounterMonitor.phase_changes`, operating
    on frozen ``(cycle, delta)`` series (zero-delta intervals are idle
    gaps, not phases).
    """
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    active: List[Tuple[float, int]] = []
    prev_cycle = 0
    for cycle, delta in samples:
        width = cycle - prev_cycle
        rate = delta / width if width else 0.0
        if rate > 0:
            active.append((rate, cycle))
        prev_cycle = cycle
    changes = []
    for (prev, _), (cur, cycle) in zip(active, active[1:]):
        if cur / prev >= factor or prev / cur >= factor:
            changes.append(cycle)
    return changes


@dataclass
class NodeTimeline:
    """One node's frozen sampled series for one job."""

    node_id: int
    mode: int
    #: event name -> [(cycle, delta)] in cycle order
    samples: Dict[str, List[Tuple[int, int]]]
    alerts: List[TimelineAlert] = field(default_factory=list)
    phases: List[Tuple[str, int, int]] = field(default_factory=list)
    anomaly_factor: float = 4.0

    def totals(self) -> Dict[str, int]:
        return {name: sum(d for _, d in series)
                for name, series in self.samples.items()}

    def phase_changes(self) -> Dict[str, List[int]]:
        """Per-event anomaly flags: cycles where the rate jumped."""
        out: Dict[str, List[int]] = {}
        for name, series in self.samples.items():
            changes = detect_rate_jumps(series, self.anomaly_factor)
            if changes:
                out[name] = changes
        return out


class JobTimeline:
    """The job-level rollup of every node's sampled series."""

    def __init__(self, program: str, flags: str, mode_name: str,
                 num_nodes: int, num_ranks: int, sample_every: int,
                 elapsed_cycles: float,
                 nodes: Dict[int, NodeTimeline],
                 percentiles: Tuple[int, int] = (10, 90),
                 wall_start_us: Optional[float] = None,
                 wall_dur_us: Optional[float] = None,
                 label: Optional[str] = None):
        self.program = program
        self.flags = flags
        self.mode_name = mode_name
        self.num_nodes = num_nodes
        self.num_ranks = num_ranks
        self.sample_every = sample_every
        self.elapsed_cycles = elapsed_cycles
        self.nodes = nodes
        self.percentiles = percentiles
        self.wall_start_us = wall_start_us
        self.wall_dur_us = wall_dur_us
        self.label = label or f"{program} {flags}"

    # ------------------------------------------------------------------
    # cross-node aggregation
    # ------------------------------------------------------------------
    def sample_grid(self) -> List[int]:
        """The union of all nodes' sample cycles, sorted."""
        grid = set()
        for node in self.nodes.values():
            for series in node.samples.values():
                grid.update(cycle for cycle, _ in series)
        return sorted(grid)

    def bands(self) -> Dict[str, List[Dict[str, float]]]:
        """Per-event cross-node bands: one record per sample cycle.

        Each record carries ``cycle, min, mean, max, p<lo>, p<hi>,
        total`` over the nodes that monitored the event and have a
        sample at that cycle.
        """
        lo, hi = self.percentiles
        per_event: Dict[str, Dict[int, List[int]]] = {}
        for node in self.nodes.values():
            for name, series in node.samples.items():
                cells = per_event.setdefault(name, {})
                for cycle, delta in series:
                    cells.setdefault(cycle, []).append(delta)
        out: Dict[str, List[Dict[str, float]]] = {}
        for name, cells in per_event.items():
            rows = []
            for cycle in sorted(cells):
                values = sorted(cells[cycle])
                rows.append({
                    "cycle": cycle,
                    "min": values[0],
                    "mean": sum(values) / len(values),
                    "max": values[-1],
                    f"p{lo}": _nearest_rank(values, lo),
                    f"p{hi}": _nearest_rank(values, hi),
                    "total": sum(values),
                    "nodes": len(values),
                })
            out[name] = rows
        return out

    def merged_deltas(self) -> List[Tuple[int, Dict[str, int]]]:
        """Per sample cycle, the machine-wide named event deltas."""
        merged: Dict[int, Dict[str, int]] = {}
        for node in self.nodes.values():
            for name, series in node.samples.items():
                for cycle, delta in series:
                    cell = merged.setdefault(cycle, {})
                    cell[name] = cell.get(name, 0) + delta
        return [(cycle, merged[cycle]) for cycle in sorted(merged)]

    def derived_timeline(self) -> List[Dict[str, float]]:
        """The active group's timeline metrics per sample interval.

        Evaluates the timeline-flagged formulas of the active
        performance group (:func:`repro.groups.get_active_group`;
        ``mflops``/``ddr_bytes_per_sec``/``simd_fraction`` under the
        default ``BGP_BASE``) on the per-sample machine-wide deltas.
        Rates use the interval width as the cycle base (the sampled
        CYCLES deltas only see one interval's worth per core, which is
        not the interval width under SMP modes).
        """
        from ..groups import get_active_group
        group = get_active_group()
        metrics = group.timeline_metrics()
        rows: List[Dict[str, float]] = []
        prev_cycle = 0
        for cycle, named in self.merged_deltas():
            width = cycle - prev_cycle
            prev_cycle = cycle
            if width <= 0:
                continue
            row: Dict[str, float] = {"cycle": cycle}
            row.update(group.evaluate(named, params={"cycles": width},
                                      only=metrics))
            rows.append(row)
        return rows

    def imbalance(self) -> Dict[str, Dict[str, float]]:
        """Cross-node load imbalance per event, over whole-run totals.

        ``imbalance = (max - min) / mean`` — 0 for perfectly symmetric
        SPMD placement, > 0 where some nodes did more of the work.
        """
        per_event: Dict[str, List[int]] = {}
        for node in self.nodes.values():
            for name, total in node.totals().items():
                per_event.setdefault(name, []).append(total)
        out: Dict[str, Dict[str, float]] = {}
        for name, values in per_event.items():
            mean = sum(values) / len(values)
            out[name] = {
                "min": float(min(values)),
                "mean": mean,
                "max": float(max(values)),
                "imbalance": ((max(values) - min(values)) / mean
                              if mean else 0.0),
                "nodes": float(len(values)),
            }
        return out

    def top_imbalanced(self, n: int = 5) -> List[Tuple[str, Dict[str, float]]]:
        """The ``n`` most imbalanced events with nonzero activity."""
        stats = [(name, s) for name, s in self.imbalance().items()
                 if s["mean"] > 0]
        stats.sort(key=lambda item: -item[1]["imbalance"])
        return stats[:n]

    def alerts(self) -> List[TimelineAlert]:
        """Every node's thresholding interrupts, in cycle order."""
        out = [a for node in self.nodes.values() for a in node.alerts]
        out.sort(key=lambda a: (a.cycle, a.node_id))
        return out

    def anomalies(self) -> Dict[int, Dict[str, List[int]]]:
        """Per-node phase-change/anomaly flags (empty nodes omitted)."""
        out = {}
        for node_id, node in sorted(self.nodes.items()):
            changes = node.phase_changes()
            if changes:
                out[node_id] = changes
        return out

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """The timeline as flat JSONL-ready records.

        One ``job`` record, one ``sample`` record per grid cycle (bands
        + derived metrics), one ``node`` record per node (totals,
        anomaly flags), and one ``alert`` record per interrupt.
        """
        records: List[Dict[str, Any]] = [{
            "kind": "job",
            "job": self.label,
            "program": self.program,
            "flags": self.flags,
            "mode": self.mode_name,
            "nodes": self.num_nodes,
            "sampled_nodes": len(self.nodes),
            "ranks": self.num_ranks,
            "sample_every": self.sample_every,
            "elapsed_cycles": self.elapsed_cycles,
            "samples": len(self.sample_grid()),
        }]
        bands = self.bands()
        derived = {row["cycle"]: row for row in self.derived_timeline()}
        by_cycle: Dict[int, Dict[str, Dict[str, float]]] = {}
        for name, rows in bands.items():
            for row in rows:
                if row["total"]:
                    by_cycle.setdefault(row["cycle"], {})[name] = {
                        k: v for k, v in row.items() if k != "cycle"}
        for cycle in sorted(by_cycle):
            rec: Dict[str, Any] = {"kind": "sample", "job": self.label,
                                   "cycle": cycle,
                                   "events": by_cycle[cycle]}
            drow = derived.get(cycle)
            if drow:
                rec["derived"] = {k: v for k, v in drow.items()
                                  if k != "cycle"}
            records.append(rec)
        for node_id, node in sorted(self.nodes.items()):
            records.append({
                "kind": "node",
                "job": self.label,
                "node": node_id,
                "counter_mode": node.mode,
                "totals": {k: v for k, v in node.totals().items() if v},
                "phase_changes": node.phase_changes(),
                "phases": [{"label": l, "start": s, "end": e}
                           for l, s, e in node.phases],
            })
        for alert in self.alerts():
            rec = alert.to_dict()
            rec.update(kind="alert", job=self.label)
            records.append(rec)
        return records

    def perfetto_counter_events(self, pid: int = 0) -> List[Dict[str, Any]]:
        """Chrome/Perfetto counter-track (``"ph": "C"``) events.

        One track per derived metric and one per sampled event (the
        cross-node mean), time-mapped onto the job span's wall-clock
        window when the run was traced so the graphs line up under the
        span timeline; untraced timelines fall back to 1 us per 1000
        simulated cycles.
        """
        grid = self.sample_grid()
        if not grid:
            return []
        span_cycles = max(grid[-1], 1)

        def ts(cycle: int) -> float:
            if (self.wall_start_us is not None
                    and self.wall_dur_us is not None):
                return round(self.wall_start_us
                             + self.wall_dur_us * cycle / span_cycles, 3)
            return round(cycle / 1000.0, 3)

        from ..groups import get_active_group
        track_metrics = get_active_group().track_metrics()
        events: List[Dict[str, Any]] = []
        for row in self.derived_timeline():
            cycle = int(row["cycle"])
            for metric in track_metrics:
                events.append({
                    "name": f"{self.label} {metric}",
                    "cat": "timeline", "ph": "C",
                    "ts": ts(cycle), "pid": pid,
                    "args": {"value": round(row[metric], 3)},
                })
        for name, rows in self.bands().items():
            if not any(row["total"] for row in rows):
                continue
            for row in rows:
                events.append({
                    "name": f"{self.label} {name}",
                    "cat": "timeline", "ph": "C",
                    "ts": ts(int(row["cycle"])), "pid": pid,
                    "args": {"mean": round(row["mean"], 3),
                             "max": row["max"]},
                })
        return events


def _nearest_rank(sorted_values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


# ---------------------------------------------------------------------------
# the process-global sampling slot (mirrors repro.obs.tracer's design)
# ---------------------------------------------------------------------------
_config: Optional[TimelineConfig] = None
#: timelines recorded while sampling was installed, in run order
_recorded: List[JobTimeline] = []


def install_sampling(config: "TimelineConfig | int") -> TimelineConfig:
    """Install a sampling configuration as the process global.

    Accepts a full :class:`TimelineConfig` or a bare period in cycles
    (the ``--sample-every N`` CLI flag).  Jobs run while a config is
    installed sample their nodes and record a :class:`JobTimeline`.
    """
    global _config
    if isinstance(config, int):
        config = TimelineConfig(sample_every=config)
    _config = config
    return config


def uninstall_sampling() -> List[JobTimeline]:
    """Remove the installed config; return (and keep) the timelines."""
    global _config
    _config = None
    return _recorded


def get_config() -> Optional[TimelineConfig]:
    """The installed sampling configuration, or None."""
    return _config


def resolve_config(sample_every: Optional[int]) -> Optional[TimelineConfig]:
    """The effective config for one job.

    An explicit per-job ``sample_every`` overrides the installed
    config's period (keeping its event set and thresholds) or, with
    nothing installed, turns on sampling with the defaults.  ``None``
    defers to the installed config (usually: sampling off).
    """
    if sample_every is None:
        return _config
    if _config is not None:
        return _config.with_period(sample_every)
    return TimelineConfig(sample_every=sample_every)


def record(timeline: JobTimeline) -> JobTimeline:
    """Register one job's finished timeline with the global recorder."""
    timeline.label = (f"{timeline.program} {timeline.flags} "
                      f"#{len(_recorded)}")
    _recorded.append(timeline)
    return timeline


def recorded() -> List[JobTimeline]:
    """Every timeline recorded since the last :func:`clear_recorded`."""
    return list(_recorded)


def clear_recorded() -> None:
    """Drop recorded timelines (tests and fresh CLI runs use this)."""
    del _recorded[:]


def export_jsonl(path: str,
                 timelines: Optional[Sequence[JobTimeline]] = None) -> str:
    """Write ``timeline.jsonl``: every timeline's records, one per line."""
    timelines = _recorded if timelines is None else timelines
    with open(path, "w") as fh:
        for timeline in timelines:
            for rec in timeline.to_records():
                fh.write(json.dumps(rec) + "\n")
    return path


def perfetto_events(timelines: Optional[Sequence[JobTimeline]] = None
                    ) -> List[Dict[str, Any]]:
    """Counter-track events for every recorded timeline."""
    timelines = _recorded if timelines is None else timelines
    events: List[Dict[str, Any]] = []
    for timeline in timelines:
        events.extend(timeline.perfetto_counter_events())
    return events
