"""A counter monitoring thread: periodic sampling + time series.

The paper highlights that "global accessibility of configuration and
count values allow[s] a single monitoring thread executing as part of a
system service, or as part of an application, [to] read the performance
counters" (Section I).  This module implements that monitoring thread
for the simulated machine: it samples a set of events at a fixed cycle
period, producing per-event time series, rates, and simple anomaly
flags — the raw material for the "online performance analysis"
use-cases the paper cites.

Because the simulation advances in discrete work items rather than real
time, the monitor is *driven*: callers interleave ``advance(cycles)``
with the work they simulate, and the monitor decides how many samples
fall inside each advance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .counters import UPCUnit
from .events import Event, event_by_name


@dataclass
class Sample:
    """One monitoring sample of one event."""

    cycle: int
    value: int        #: absolute counter value at the sample
    delta: int        #: increase since the previous sample


@dataclass
class EventSeries:
    """The sampled time series of one event."""

    event: Event
    samples: List[Sample] = field(default_factory=list)

    def values(self) -> List[int]:
        return [s.value for s in self.samples]

    def deltas(self) -> List[int]:
        return [s.delta for s in self.samples]

    def rate_per_cycle(self) -> List[float]:
        """Event rate within each sampling interval."""
        out = []
        prev_cycle = 0
        for s in self.samples:
            width = s.cycle - prev_cycle
            out.append(s.delta / width if width else 0.0)
            prev_cycle = s.cycle
        return out

    def peak_interval(self) -> Optional[Sample]:
        """The sample with the largest delta (the hottest interval)."""
        if not self.samples:
            return None
        return max(self.samples, key=lambda s: s.delta)


class CounterMonitor:
    """Periodic sampling of selected UPC events on one node.

    Parameters
    ----------
    upc:
        The node's UPC unit.
    events:
        Event names (or Events) to watch; they must belong to the
        unit's current counter mode, since that is all a real monitor
        could observe.
    period_cycles:
        Sampling period.
    """

    def __init__(self, upc: UPCUnit,
                 events: Sequence[Union[str, Event]],
                 period_cycles: int = 10_000):
        if period_cycles <= 0:
            raise ValueError("sampling period must be positive")
        if not events:
            raise ValueError("monitor needs at least one event")
        self.upc = upc
        self.period_cycles = period_cycles
        self.series: Dict[str, EventSeries] = {}
        self._last_values: Dict[str, int] = {}
        for e in events:
            ev = e if isinstance(e, Event) else event_by_name(e)
            if ev.mode != upc.mode:
                raise ValueError(
                    f"{ev.name} belongs to counter mode {ev.mode}, but "
                    f"the unit runs mode {upc.mode}: the monitoring "
                    "thread could never observe it")
            self.series[ev.name] = EventSeries(event=ev)
            self._last_values[ev.name] = int(upc.read(ev))
        self._now = 0
        self._next_sample = period_cycles

    @property
    def now(self) -> int:
        """The monitor's current cycle."""
        return self._now

    def advance(self, cycles: int) -> int:
        """Advance simulated time; take every sample that falls inside.

        Returns the number of samples taken.  Counter increments that
        happened since the last ``advance`` are attributed to the first
        sample boundary they precede, which is exactly the granularity
        a real periodic monitor achieves.
        """
        if cycles < 0:
            raise ValueError("cannot advance backwards")
        self._now += cycles
        taken = 0
        while self._next_sample <= self._now:
            self._take_sample(self._next_sample)
            self._next_sample += self.period_cycles
            taken += 1
        return taken

    def _take_sample(self, cycle: int) -> None:
        # one read of the whole counter array per sample; .tolist()
        # yields Python ints — a NumPy uint64 would make the
        # subtraction wrap (or promote to float) instead of going
        # negative, silently disabling the wrap correction below
        values = self.upc.snapshot().tolist()
        mode = self.upc.mode
        for name, series in self.series.items():
            if series.event.mode != mode:
                self.upc.read(series.event)  # raises the mode error
            value = values[series.event.counter]
            delta = value - self._last_values[name]
            if delta < 0:  # counter wrapped
                delta += 1 << 64
            series.samples.append(Sample(cycle=cycle, value=value,
                                         delta=delta))
            self._last_values[name] = value

    def flush(self) -> None:
        """Take one final sample at the current cycle (end of run)."""
        if self._now > 0 and (
                not self.series or self._pending_since_last_sample()):
            self._take_sample(self._now)

    def _pending_since_last_sample(self) -> bool:
        for name, series in self.series.items():
            if int(self.upc.read(series.event)) != self._last_values[name]:
                return True
        return False

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def hottest_event(self) -> Optional[str]:
        """The event with the largest total count over the run."""
        totals = {name: sum(s.deltas())
                  for name, s in self.series.items()}
        if not totals or not any(totals.values()):
            return None
        return max(totals, key=totals.get)

    def phase_changes(self, factor: float = 4.0) -> List[int]:
        """Cycles where any event's rate jumped by >= ``factor``.

        A crude phase detector: the kind of signal the paper's
        "feedback to system optimization tasks" consumes.
        """
        if factor <= 1.0:
            raise ValueError("factor must be > 1")
        changes: List[int] = []
        for series in self.series.values():
            # compare successive *active* intervals: coarse-grained
            # simulation can leave zero-delta samples between bursts,
            # which are gaps, not phases
            active = [(r, s) for r, s in zip(series.rate_per_cycle(),
                                             series.samples) if r > 0]
            for (prev, _), (cur, sample) in zip(active, active[1:]):
                if cur / prev >= factor or prev / cur >= factor:
                    changes.append(sample.cycle)
        return sorted(set(changes))
