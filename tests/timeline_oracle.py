"""The reference node sampler: a shadow UPC unit read by a counter monitor.

This is the per-node monitoring thread exactly as the paper's hardware
would run it, and the oracle the integer sampler of
:mod:`repro.obs.timeline` is checked against.  Each sampler owns a
shadow :class:`~repro.core.counters.UPCUnit` in the node's counter
mode, every share of a phase's events is pulsed through the
memory-mapped register words (threshold registers and interrupt
handlers included), and a :class:`~repro.core.monitor.CounterMonitor`
reads the counters back at every sample boundary.  ``branch`` forks the
monitor onto a fresh shadow unit with the same counter values.
"""

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.counters import UPCUnit
from repro.core.events import event_by_name
from repro.core.monitor import CounterMonitor, EventSeries
from repro.obs.timeline import NodeTimeline, TimelineAlert, TimelineConfig


def _fork_monitor(monitor: CounterMonitor, upc: UPCUnit) -> CounterMonitor:
    """A monitor on ``upc`` continuing from ``monitor``'s state.

    Same events and period, the same current cycle and last-sample
    baselines, and empty series.
    """
    twin = CounterMonitor.__new__(CounterMonitor)
    twin.upc = upc
    twin.period_cycles = monitor.period_cycles
    twin.series = {name: EventSeries(event=s.event)
                   for name, s in monitor.series.items()}
    twin._last_values = dict(monitor._last_values)
    twin._now = monitor._now
    twin._next_sample = monitor._next_sample
    return twin


class OracleNodeSampler:
    """Shadow-UPC node sampler with the integer sampler's interface."""

    def __init__(self, node_id: int, mode: int, config: TimelineConfig):
        names = config.events_in_mode(mode)
        if not names:
            raise ValueError(
                f"no sampled events belong to counter mode {mode}")
        self.node_id = node_id
        self.mode = mode
        self.config = config
        self.upc = UPCUnit(node_id=node_id)
        self.upc.mode = mode
        self.alerts: List[TimelineAlert] = []
        for name in names:
            threshold = config.thresholds.get(name)
            if threshold:
                self.upc.configure(event_by_name(name).counter,
                                   interrupt_enable=True,
                                   threshold=threshold)
        self._cycle_hint = 0
        self.upc.on_interrupt(lambda irq: self.alerts.append(
            TimelineAlert(node_id=self.node_id, cycle=self._cycle_hint,
                          event=irq.event_name, threshold=irq.threshold,
                          value=irq.value)))
        self.monitor = CounterMonitor(self.upc, names,
                                      period_cycles=config.sample_every)
        self._base_series: Dict[str, List[Tuple[int, int]]] = {}
        self._base_alerts: List[TimelineAlert] = []
        self._branch_series: Optional[Dict[str, list]] = None
        self.phases: List[Tuple[str, int, int]] = []

    def feed(self, label: str, events: Dict[str, int],
             cycles: float) -> None:
        span = int(round(cycles))
        if span < 0:
            raise ValueError(f"negative phase span: {cycles}")
        self._branch_series = None
        monitor = self.monitor
        start = monitor.now
        end = start + span
        totals = {name: int(count) for name, count in events.items()
                  if count > 0 and name in monitor.series}
        pulsed = dict.fromkeys(totals, 0)
        if span > 0 and totals:
            period = monitor.period_cycles
            boundary = (start // period + 1) * period
            while boundary <= end:
                self._cycle_hint = boundary
                frac = (boundary - start) / span
                for name, total in totals.items():
                    target = int(total * frac)
                    share = target - pulsed[name]
                    if share > 0:
                        self.upc.pulse(name, share)
                        pulsed[name] = target
                monitor.advance(boundary - monitor.now)
                boundary += period
        self._cycle_hint = end
        for name, total in totals.items():
            rest = total - pulsed[name]
            if rest > 0:
                self.upc.pulse(name, rest)
        if end > monitor.now:
            monitor.advance(end - monitor.now)
        self.phases.append((label, start, end))

    def branch(self, node_id: int) -> "OracleNodeSampler":
        twin = OracleNodeSampler.__new__(OracleNodeSampler)
        twin.node_id = node_id
        twin.mode = self.mode
        twin.config = self.config
        twin.upc = UPCUnit(node_id=node_id)
        twin.upc.mode = self.mode
        twin.alerts = []
        twin._cycle_hint = self._cycle_hint
        for name in self.monitor.series:
            ev = event_by_name(name)
            twin.upc.registers.set_counter(ev.counter,
                                           self.upc.read(ev.counter))
            threshold = self.config.thresholds.get(name)
            if threshold:
                twin.upc.configure(ev.counter, interrupt_enable=True,
                                   threshold=threshold)
        twin.upc.on_interrupt(lambda irq: twin.alerts.append(
            TimelineAlert(node_id=twin.node_id, cycle=twin._cycle_hint,
                          event=irq.event_name, threshold=irq.threshold,
                          value=irq.value)))
        twin.monitor = _fork_monitor(self.monitor, twin.upc)
        if self._branch_series is None:
            self._branch_series = {
                name: self._base_series.get(name, [])
                + [(s.cycle, s.delta) for s in series.samples]
                for name, series in self.monitor.series.items()}
        twin._base_series = self._branch_series
        twin._branch_series = None
        twin._base_alerts = [replace(a, node_id=node_id)
                             for a in self._base_alerts + self.alerts]
        twin.phases = list(self.phases)
        return twin

    def finish(self) -> NodeTimeline:
        self.monitor.flush()
        self._branch_series = None
        samples = {
            name: self._base_series.get(name, [])
            + [(s.cycle, s.delta) for s in series.samples]
            for name, series in self.monitor.series.items()}
        return NodeTimeline(
            node_id=self.node_id,
            mode=self.mode,
            samples=samples,
            alerts=self._base_alerts + self.alerts,
            phases=list(self.phases),
            anomaly_factor=self.config.anomaly_factor,
        )
