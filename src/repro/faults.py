"""Deterministic, seeded fault injection (the RAS layer's adversary).

Blue Gene/P's reliability story assumes hardware misbehaves: counter
SRAM takes soft errors, DDR sees correctable-error bursts, torus links
stall, whole nodes die.  The paper's counter library has to *survive
and detect* those conditions — its validation pass rejects wrap
artefacts, its aggregation cross-checks nodes against each other.  This
module injects exactly those conditions into the simulator so audits
(``python -m repro fault-audit``) can assert the detection machinery
actually fires.

Everything is derived from one seed via SHA-256 over the decision's
context (job identity, attempt number, node id, fault class) — never
Python's salted ``hash()`` — so the same :class:`FaultConfig` produces
the same RAS event log on every run, in any process.  Injection is
**off by default**: with no injector installed (or all rates zero) the
simulator's behaviour is bit-identical to a build without this module.

Fault classes
-------------
``node_failure``
    A node dies at the start of its compute phase;
    :class:`NodeFailure` aborts the job (fatal RAS event).  A retried
    job is a new *attempt* and re-rolls the dice, so a resilient
    harness can make progress past transient failures.
``sram_bit_flip``
    One bit of one UPC counter SRAM cell flips (silent corruption).
``wrap_storm``
    A handful of counters are preloaded to within <512 of the 2**64
    wrap; the post-run ``validate_dumps`` pass must flag the survivors.
``ddr_correctable``
    A correctable-error burst: the scrub engine re-reads a block of
    lines, visible as extra DDR read traffic on one controller.
``link_stall``
    A torus/collective link hiccup adds cycles to one communication
    phase (the cross-job comm-phase cache is never poisoned — the
    stall is charged outside the cached cost).

Every injected fault is recorded as a :class:`RASEvent` (also surfaced
as a ``faults.*`` metric, a ``ras.*`` tracer marker, and a structured
log line) and can be exported as ``ras.jsonl`` for the run report.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from .obs import metrics as _metrics
from .obs import tracer as _tracer
from .obs.logging import get_logger, kv

_log = get_logger("faults")

_EVENTS = _metrics.counter("faults.events")

#: values this close to 2**64 are what validate_dumps rejects (2**10),
#: so wrap-storm margins stay strictly inside it
_WRAP_MARGIN_MAX = 512


@dataclass(frozen=True)
class FaultConfig:
    """Injection rates and shapes; all rates default to 0 (off).

    Rates are per-roll probabilities: node-level classes roll once per
    (job attempt, node), ``link_stall_rate`` once per communication
    phase.  Construct directly or via :meth:`parse` from the CLI's
    ``--faults k=v,k=v`` spec.
    """

    seed: int = 0
    node_failure_rate: float = 0.0
    sram_flip_rate: float = 0.0
    wrap_storm_rate: float = 0.0
    wrap_storm_counters: int = 8
    ddr_error_rate: float = 0.0
    ddr_burst_lines: int = 256
    link_stall_rate: float = 0.0
    link_stall_cycles: int = 25_000

    @property
    def any_enabled(self) -> bool:
        return any(getattr(self, f.name) > 0 for f in fields(self)
                   if f.name.endswith("_rate"))

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a config from ``key=value[,key=value...]``.

        Example: ``--faults seed=7,sram_flip_rate=1,link_stall_rate=0.5``.
        """
        types = {f.name: f.type for f in fields(cls)}
        values: Dict[str, Any] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, raw = item.partition("=")
            name = name.strip()
            if not sep or name not in types:
                known = ", ".join(sorted(types))
                raise ValueError(
                    f"bad fault spec item {item!r}; expected key=value "
                    f"with key in: {known}")
            caster = float if "float" in str(types[name]) else int
            try:
                values[name] = caster(raw.strip())
            except ValueError:
                raise ValueError(
                    f"bad fault spec value for {name!r}: {raw!r} "
                    f"(expected {caster.__name__})") from None
        return cls(**values)


@dataclass(frozen=True)
class RASEvent:
    """One injected fault, RAS-log style.

    ``detail`` is a name-sorted item tuple so events stay hashable and
    two logs compare with ``==``; :meth:`to_dict` re-inflates it.
    """

    kind: str
    severity: str
    node_id: Optional[int]
    job: str
    phase: str
    detail: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "node_id": self.node_id,
            "job": self.job,
            "phase": self.phase,
            "detail": dict(self.detail),
        }


class NodeFailure(RuntimeError):
    """A compute node died mid-job (fatal RAS event)."""

    def __init__(self, node_id: int, job: str, phase: str):
        super().__init__(
            f"node {node_id} failed during {phase} of job {job}")
        self.node_id = node_id
        self.job = job
        self.phase = phase


class FaultInjector:
    """Rolls the (seeded) dice and keeps the RAS event log."""

    def __init__(self, config: FaultConfig):
        self.config = config
        self.events: List[RASEvent] = []
        self._attempts: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------
    def rng(self, *context: Any) -> random.Random:
        """A fresh RNG derived from (seed, context) — stable across
        processes and hash seeds, unlike ``hash()``."""
        material = "|".join(str(part)
                            for part in (self.config.seed, *context))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def begin_job(self, job_key: Tuple) -> "JobFaultContext":
        """Open a job's fault context; each call is a new *attempt*.

        Attempt numbering keeps retries meaningful: a deterministic
        re-roll with identical context would fail a retried job the
        same way forever.
        """
        attempt = self._attempts.get(job_key, 0) + 1
        self._attempts[job_key] = attempt
        return JobFaultContext(self, job_key, attempt)

    def record(self, kind: str, severity: str, node_id: Optional[int],
               job: str, phase: str, **detail: Any) -> RASEvent:
        event = RASEvent(kind=kind, severity=severity, node_id=node_id,
                         job=job, phase=phase,
                         detail=tuple(sorted(detail.items())))
        self.events.append(event)
        _EVENTS.inc()
        _metrics.counter(f"faults.{kind}").inc()
        _tracer.marker(f"ras.{kind}", severity=severity, node=node_id,
                       phase=phase, **dict(event.detail)).end()
        _log.warning(kv(f"ras.{kind}", severity=severity, node=node_id,
                        job=job, phase=phase, **dict(event.detail)))
        return event

    def clear(self) -> None:
        """Drop the event log and attempt counters (fresh campaign)."""
        self.events.clear()
        self._attempts.clear()

    def export_jsonl(self, path) -> int:
        """Write the RAS log one JSON object per line; returns count."""
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(json.dumps(event.to_dict()) + "\n")
        return len(self.events)


class JobFaultContext:
    """One job attempt's view of the injector (what ``Job.run`` holds)."""

    def __init__(self, injector: FaultInjector, job_key: Tuple,
                 attempt: int):
        self.injector = injector
        self.job = "/".join(str(part) for part in job_key)
        self.attempt = attempt

    def _roll(self, rate: float, *context: Any) -> Optional[random.Random]:
        """The RNG for this decision iff it fires, else None."""
        if rate <= 0:
            return None
        rng = self.injector.rng(self.job, self.attempt, *context)
        return rng if rng.random() < rate else None

    # ------------------------------------------------------------------
    def visit_node(self, node, phase: str = "compute") -> None:
        """Roll every node-level fault class against one node.

        Called by ``Job.run`` once per monitored node, in node order,
        with a port on that node's counter row (``node_id`` plus
        ``inject_counter_bit_flip``, ``preload_counter_near_wrap`` and
        ``pulse_events``).  The row already holds the node's compute
        counts and receives its comm counts afterwards — corruption
        lands on each member's own row, not just the class
        representative's.
        """
        cfg = self.injector.config
        rng = self._roll(cfg.node_failure_rate, "node_failure",
                         node.node_id)
        if rng is not None:
            self.injector.record("node_failure", "fatal", node.node_id,
                                 self.job, phase, attempt=self.attempt)
            raise NodeFailure(node.node_id, self.job, phase)
        rng = self._roll(cfg.sram_flip_rate, "sram_bit_flip",
                         node.node_id)
        if rng is not None:
            counter = rng.randrange(256)
            bit = rng.randrange(64)
            value = node.inject_counter_bit_flip(counter, bit)
            self.injector.record("sram_bit_flip", "error", node.node_id,
                                 self.job, phase, counter=counter,
                                 bit=bit, value=value)
        rng = self._roll(cfg.wrap_storm_rate, "wrap_storm", node.node_id)
        if rng is not None:
            counters = sorted(rng.sample(range(256),
                                         cfg.wrap_storm_counters))
            for counter in counters:
                node.preload_counter_near_wrap(
                    counter, rng.randrange(1, _WRAP_MARGIN_MAX))
            self.injector.record("wrap_storm", "error", node.node_id,
                                 self.job, phase,
                                 counters=tuple(counters))
        rng = self._roll(cfg.ddr_error_rate, "ddr_correctable",
                         node.node_id)
        if rng is not None:
            controller = rng.randrange(2)
            # the scrub engine re-reads the burst's lines: correctable
            # errors are invisible to software except as read traffic
            node.pulse_events({
                f"BGP_DDR{controller}_READ": cfg.ddr_burst_lines})
            self.injector.record("ddr_correctable", "correctable",
                                 node.node_id, self.job, phase,
                                 controller=controller,
                                 lines=cfg.ddr_burst_lines)

    def link_stall(self, phase_index: int, op_kind: str) -> int:
        """Extra cycles a link hiccup adds to one comm phase (0 if none)."""
        cfg = self.injector.config
        rng = self._roll(cfg.link_stall_rate, "link_stall", phase_index,
                         op_kind)
        if rng is None:
            return 0
        cycles = cfg.link_stall_cycles
        self.injector.record("link_stall", "warning", None, self.job,
                             f"comm[{phase_index}].{op_kind}",
                             cycles=cycles)
        return cycles


# ---------------------------------------------------------------------------
# process-global injector slot (mirrors obs.tracer's install/uninstall)
# ---------------------------------------------------------------------------
_injector: Optional[FaultInjector] = None


def install(config: FaultConfig) -> FaultInjector:
    """Install (and return) a fault injector as the process global."""
    global _injector
    _injector = FaultInjector(config)
    return _injector


def uninstall() -> Optional[FaultInjector]:
    """Remove the installed injector; returns it (for its event log)."""
    global _injector
    injector, _injector = _injector, None
    return injector


def get() -> Optional[FaultInjector]:
    """The installed injector, or None (the clean-run default)."""
    return _injector
