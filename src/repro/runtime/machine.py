"""Whole-machine simulation: partitions, jobs, and the BSP engine.

A :class:`Machine` is a partition of compute nodes in a chosen
operating mode; a :class:`Job` runs an SPMD :class:`Program` on it with
the counter library linked in (MPI_Init/Finalize hooks), producing a
:class:`JobResult` with the elapsed time, per-rank times, and the full
cross-node counter aggregation from which every paper metric derives.

Execution model: the NAS benchmarks are bulk-synchronous and symmetric
across ranks, so the engine (1) charges every rank its compute work
through the node model (which handles L3 sharing, interference and DDR
port contention among co-resident ranks), then (2) charges every
communication phase at its network cost, then (3) takes the slowest
rank as the job's elapsed time.  Phase-by-phase interleaving is not
simulated — for symmetric SPMD programs the aggregate is identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.ir import Program
from ..core.dump import DumpWriter, dump_file_name, dump_file_size
from ..core.events import COUNTERS_PER_MODE, EVENTS_BY_NAME
from ..core.interface import job_card_size, mode_for_node
from ..core.metrics import (
    fp_profile,
    total_flops,
)
from ..core.postprocess import Aggregation
from .. import faults as _faults
from ..isa.latency import CORE_CLOCK_HZ
from ..mem import NodeMemoryConfig
from ..net import (
    BarrierNetwork,
    CollectiveNetwork,
    EthernetIOModel,
    JTAGController,
    Personality,
    TorusNetwork,
    TorusTopology,
)
from ..node import ComputeNode, LoopWork, OperatingMode, ProcessWork
from .. import checkpoint as _checkpoint
from .. import markers as _markers
from ..obs import metrics as _metrics
from ..obs import timeline as _timeline
from ..obs.tracer import span as _span
from ..parallel import cache_context
from .mpi import CommResult, SimMPI
from .process import JobPlacement, place_ranks

_JOBS = _metrics.counter("runtime.jobs")
_BSP_PHASES = _metrics.counter("runtime.bsp_phases")
_NODE_CLASSES = _metrics.counter("runtime.node_classes")
_NODE_CLASS_HITS = _metrics.counter("runtime.node_class_hits")
_COMM_HITS = _metrics.counter("runtime.comm_cache_hits")
_COMM_MISSES = _metrics.counter("runtime.comm_cache_misses")
_SAMPLED_NODES = _metrics.counter("runtime.sampled_nodes")
_CLASS_TIER_HITS = _metrics.counter("runtime.node_class_tier_hits")
_COMM_TIER_HITS = _metrics.counter("runtime.comm_tier_hits")

#: Cross-job cache of costed communication phases.  A comm phase is a
#: pure function of (comm ops, rank count, mode, partition size) — the
#: memory configuration never enters it — so L3/prefetch sweep points
#: of the same benchmark share one entry.
_COMM_CACHE: "Dict[Tuple, List]" = {}
_COMM_CACHE_MAX = 64

_U64 = (1 << 64) - 1


def clear_comm_cache() -> None:
    """Drop all cached communication phases (tests use this)."""
    _COMM_CACHE.clear()


class Machine:
    """A BG/P partition: nodes + networks in one operating mode.

    The compute nodes themselves are not objects here: a job simulates
    one :class:`ComputeNode` per node equivalence class and keeps every
    node's counters as one row of its counter matrix.
    """

    def __init__(self, num_nodes: int,
                 mode: OperatingMode = OperatingMode.SMP1,
                 mem_config: Optional[NodeMemoryConfig] = None):
        if num_nodes <= 0:
            raise ValueError(f"partition needs >= 1 node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.mode = mode
        self.mem_config = mem_config or NodeMemoryConfig()
        self.topology = TorusTopology.for_nodes(num_nodes)
        self.torus = TorusNetwork(self.topology)
        self.collective = CollectiveNetwork(num_nodes)
        self.barrier = BarrierNetwork(num_nodes)
        self.io = EthernetIOModel()
        # the control plane boots every node with the personality that
        # matches this partition's configuration (the paper's "svchost
        # options while booting a node", Section VIII)
        self.jtag = JTAGController()
        personality = Personality(
            l3_size_bytes=self.mem_config.l3.size_bytes,
            l2_prefetch_depth=self.mem_config.prefetcher.depth,
            mode_name=mode.name,
        )
        for node_id in range(num_nodes):
            self.jtag.load_personality(node_id, personality)
        self.boot_cycles = self.jtag.boot(list(range(num_nodes)))

    @property
    def max_ranks(self) -> int:
        return self.num_nodes * self.mode.processes_per_node


def _program_to_work(program: Program) -> ProcessWork:
    """Lower a compiled Program to the node model's work description."""
    loops = [
        LoopWork(mix=loop.total_mix(), streams=loop.streams,
                 traversals=loop.executions,
                 serial_fraction=loop.serial_fraction)
        for loop in program.loops()
    ]
    return ProcessWork(loops=loops)


# ---------------------------------------------------------------------------
# counter algebra: named event counts -> per-node uint64 rows
# ---------------------------------------------------------------------------
def _accumulate(acc: Dict[str, int], events: Dict[str, int]) -> None:
    for name, count in events.items():
        acc[name] = acc.get(name, 0) + count


def _counts_to_row(counts: Dict[str, int], counter_mode: int) -> np.ndarray:
    """One node's counter row: mode-gated, counter-indexed, masked.

    Mirrors ``UPCUnit.pulse_many`` delivery exactly: zero counts are
    skipped, negative counts raise, unknown names and events of another
    mode are ignored, and each counter holds its pulse sum mod 2**64
    (modular addition commutes, so summing before masking is identical
    to the per-pulse sequence).
    """
    acc: Dict[int, int] = {}
    for name, count in counts.items():
        if count < 0:
            raise ValueError(f"negative event count: {name}={count}")
        if count == 0:
            continue
        event = EVENTS_BY_NAME.get(name)
        if event is None or event.mode != counter_mode:
            continue
        acc[event.counter] = acc.get(event.counter, 0) + count
    row = np.zeros(COUNTERS_PER_MODE, dtype=np.uint64)
    if acc:
        row[list(acc)] = np.array([total & _U64 for total in acc.values()],
                                  dtype=np.uint64)
    return row


def _node_counter_modes(used_nodes: Sequence[int],
                        counter_modes: Tuple[int, int]) -> List[int]:
    """The counter mode BGP_Initialize gives each used node.

    The even/odd node-card policy with ``CounterSession``'s default
    card size.
    """
    card_size = job_card_size(len(used_nodes))
    return [mode_for_node(n, counter_modes[0], counter_modes[1], card_size)
            for n in used_nodes]


def _comm_rows(used_nodes: Sequence[int], residents: Sequence[int],
               node_modes: Sequence[int], phases: Sequence[CommResult],
               comm_wait: int, mode: OperatingMode) -> np.ndarray:
    """The comm-side counter rows of every used node, one matrix.

    Replays the per-node delivery as one accumulation: per-phase torus
    events on the receiving used nodes, the total message-staging DDR
    lines split across the controllers, collective events on every
    used node, and ``comm_wait`` cycles elapsing on every core that
    hosts one of the node's ``residents[i]`` ranks.  The last two are
    the same on every node with one resident count and counter mode,
    so each such group gets one shared row; uint64 row adds are the
    modular sums a single accumulation would give.
    """
    index_of = {n: i for i, n in enumerate(used_nodes)}
    counts: List[Dict[str, int]] = [{} for _ in used_nodes]
    collective_total: Dict[str, int] = {}
    ddr_lines: Dict[int, int] = {}
    for phase in phases:
        for node_id, events in phase.torus_events.items():
            i = index_of.get(node_id)
            if i is not None:
                _accumulate(counts[i], events)
        if phase.collective_events:
            _accumulate(collective_total, phase.collective_events)
        for node_id, lines in phase.ddr_lines_per_node.items():
            ddr_lines[node_id] = ddr_lines.get(node_id, 0) + lines
    for node_id, lines in ddr_lines.items():
        i = index_of.get(node_id)
        if i is not None and lines:
            _accumulate(counts[i], {"BGP_DDR0_WRITE": lines // 2,
                                    "BGP_DDR1_READ": lines - lines // 2})
    rows = np.zeros((len(used_nodes), COUNTERS_PER_MODE), dtype=np.uint64)
    for i, node_counts in enumerate(counts):
        if node_counts:
            rows[i] = _counts_to_row(node_counts, node_modes[i])
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, group in enumerate(zip(residents, node_modes)):
        groups.setdefault(group, []).append(i)
    assignment = mode.core_assignment()
    for (slots, counter_mode), indices in groups.items():
        shared = dict(collective_total)
        if comm_wait > 0:
            _accumulate(shared, {f"BGP_PU{core}_CYCLES": comm_wait
                                 for slot in range(slots)
                                 for core in assignment[slot]})
        rows[indices] += _counts_to_row(shared, counter_mode)
    return rows


def _dump_io_cycles(io: EthernetIOModel, num_nodes: int,
                    used_nodes: Sequence[int]) -> float:
    """Cycles of the post-monitoring dump phase over the I/O path.

    Each used node ships one single-set dump whose size is a pure
    function of the format (:func:`repro.core.dump.dump_file_size`), so
    the Ethernet write phase is costed without materialising files.
    """
    dump_bytes = [0] * num_nodes
    size = dump_file_size(1)
    for node_id in used_nodes:
        dump_bytes[node_id] = size
    return io.write_phase(dump_bytes).cycles


class _NodeRow:
    """One node's counter row, as the node-level fault classes see it.

    A view on the node's row of the job's counter matrix with the three
    ports :meth:`repro.faults.JobFaultContext.visit_node` drives: a bit
    flip (XOR), a near-wrap preload (overwrite) and a mode-gated pulse
    (add).  Never built in a clean run.
    """

    __slots__ = ("node_id", "mode", "row")

    def __init__(self, node_id: int, mode: int, row: np.ndarray):
        self.node_id = node_id
        self.mode = mode
        self.row = row

    def inject_counter_bit_flip(self, counter: int, bit: int) -> int:
        """Flip one bit of one counter's SRAM cell; returns the new value.

        Models a soft error in the UPC counter array — the silent
        corruption the Röhl-style validation audits exist to catch.
        """
        if not 0 <= bit < 64:
            raise ValueError(f"bit must be 0..63, got {bit}")
        value = int(self.row[counter]) ^ (1 << bit)
        self.row[counter] = np.uint64(value)
        return value

    def preload_counter_near_wrap(self, counter: int, margin: int) -> int:
        """Push one counter to within ``margin`` of the 2**64 wrap.

        Subsequent event traffic carries it over the edge (or leaves it
        suspiciously close), which the aggregation's validation flags.
        """
        if margin < 1:
            raise ValueError(f"margin must be >= 1, got {margin}")
        value = (1 << 64) - margin
        self.row[counter] = np.uint64(value)
        return value

    def pulse_events(self, events: Dict[str, int]) -> None:
        """Deliver named event pulses to the row (mode-gated)."""
        self.row += _counts_to_row(events, self.mode)


@dataclass
class JobResult:
    """Everything one job run produced."""

    program_name: str
    flags_label: str
    mode: OperatingMode
    placement: JobPlacement
    elapsed_cycles: float
    compute_cycles_per_rank: List[float]
    comm_cycles_per_rank: float
    aggregation: Aggregation
    #: per-node dump files, written only for ``Job.run(dump_dir=...)``
    dump_paths: List[str] = field(default_factory=list)
    #: cost of shipping the counter dumps over the I/O path; it happens
    #: after monitoring stopped, so it lengthens the job but never
    #: perturbs the counts (paper, Section IV)
    dump_io_cycles: float = 0.0
    #: job-level sampled telemetry (only when sampling was enabled via
    #: ``Job(..., sample_every=N)`` or an installed timeline config)
    timeline: Optional[_timeline.JobTimeline] = None

    # ------------------------------------------------------------------
    # whole-machine metric helpers
    # ------------------------------------------------------------------
    @cached_property
    def _scaled_totals(self) -> Dict[str, int]:
        n = self.placement.num_nodes
        return {name: int(round(stats.mean * n))
                for name, stats in self.aggregation.stats.items()}

    def scaled_totals(self) -> Dict[str, int]:
        """Estimated whole-machine event totals (a fresh dict per call).

        The 512-event node-card split means each event was monitored on
        a *subset* of nodes; symmetric SPMD workloads let us scale the
        per-node mean back up to the full partition.  Computed once per
        result; the metric helpers below read that one dict.
        """
        return dict(self._scaled_totals)

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_cycles / CORE_CLOCK_HZ

    def _group_metric(self, metric: str) -> float:
        """Evaluate one BGP_BASE metric over the machine-wide totals,
        with the job's elapsed cycles as the rate base."""
        from ..groups import get_group
        return get_group("BGP_BASE").evaluate(
            self._scaled_totals,
            params={"cycles": self.elapsed_cycles},
            only=(metric,))[metric]

    def total_flops(self) -> float:
        """Machine-wide floating point operations."""
        return total_flops(self._scaled_totals)

    def mflops_total(self) -> float:
        """Machine-wide MFLOPS over the elapsed time."""
        return self._group_metric("mflops")

    def mflops_per_node(self) -> float:
        """Delivered MFLOPS per chip (the Figure 14 metric)."""
        return self.mflops_total() / self.placement.num_nodes

    def ddr_traffic_lines(self) -> float:
        """Machine-wide L3<->DDR line transfers (Figures 11/12)."""
        return self._group_metric("ddr_lines")

    def ddr_traffic_bytes(self) -> float:
        return self._group_metric("ddr_bytes")

    def ddr_traffic_lines_per_node(self) -> float:
        return self.ddr_traffic_lines() / self.placement.num_nodes

    def fp_profile(self) -> Dict[str, float]:
        """Machine-wide dynamic FP instruction mix (Figure 6)."""
        return fp_profile(self._scaled_totals)

    def simd_instructions(self) -> int:
        return self._group_metric("simd_instructions")

    def l3_miss_ratio(self) -> float:
        return self._group_metric("l3_miss_rate")

    # ------------------------------------------------------------------
    # JSON round trip (the checkpoint/--resume layer)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form holding every derived-metric input.

        Dump paths (files the caller asked for) and the timeline
        (absent on memoized sweep runs) are deliberately dropped: a
        resumed process could not use either.
        """
        return {
            "program_name": self.program_name,
            "flags_label": self.flags_label,
            "mode": self.mode.name,
            "num_ranks": self.placement.num_ranks,
            "num_nodes": self.placement.num_nodes,
            "elapsed_cycles": self.elapsed_cycles,
            "compute_cycles_per_rank": list(self.compute_cycles_per_rank),
            "comm_cycles_per_rank": self.comm_cycles_per_rank,
            "dump_io_cycles": self.dump_io_cycles,
            "aggregation": {
                "set_id": self.aggregation.set_id,
                "nodes_by_mode": {str(mode): nodes for mode, nodes
                                  in self.aggregation.nodes_by_mode.items()},
                "stats": {name: [s.minimum, s.maximum, s.mean, s.total,
                                 s.node_count]
                          for name, s in self.aggregation.stats.items()},
            },
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobResult":
        """Rebuild a result saved by :meth:`to_dict`.

        The placement is re-derived from (ranks, mode, nodes) — block
        placement is deterministic, so the rebuilt object answers every
        metric query identically to the original.
        """
        mode = OperatingMode[data["mode"]]
        agg = data["aggregation"]
        return cls(
            program_name=data["program_name"],
            flags_label=data["flags_label"],
            mode=mode,
            placement=place_ranks(data["num_ranks"], mode,
                                  data["num_nodes"]),
            elapsed_cycles=data["elapsed_cycles"],
            compute_cycles_per_rank=list(data["compute_cycles_per_rank"]),
            comm_cycles_per_rank=data["comm_cycles_per_rank"],
            aggregation=Aggregation.from_stats(
                agg["set_id"], agg["nodes_by_mode"], agg["stats"]),
            dump_io_cycles=data["dump_io_cycles"],
        )


class Job:
    """One SPMD application run on a machine partition.

    ``memoize`` controls the execution engine: when True (default)
    nodes are grouped into equivalence classes and each class is
    simulated once, with counter deltas replicated to the members, and
    communication phases are reused from the cross-job comm cache; when
    False every node is simulated separately and every phase is costed
    from scratch (the legacy path, kept for baseline benchmarking and
    for verifying the memoized engine's results are identical).

    ``sample_every`` turns on job-level telemetry: a monitoring thread
    (:class:`repro.obs.timeline.NodeTimelineSampler`) is attached to
    every monitored node and samples the configured event set at that
    cycle period; the rolled-up :class:`repro.obs.timeline.JobTimeline`
    lands on ``JobResult.timeline``.  ``None`` (default) defers to the
    process-global config installed by ``--sample-every`` (usually:
    sampling off, zero overhead).
    """

    def __init__(self, machine: Machine, program: Program, num_ranks: int,
                 memoize: bool = True,
                 sample_every: Optional[int] = None):
        if num_ranks > machine.max_ranks:
            raise ValueError(
                f"{num_ranks} ranks exceed the partition's "
                f"{machine.max_ranks} slots ({machine.num_nodes} nodes, "
                f"{machine.mode.value})")
        self.machine = machine
        self.program = program
        self.num_ranks = num_ranks
        self.memoize = memoize
        self.sample_every = sample_every

    def run(self, counter_modes: Tuple[int, int] = (0, 2),
            dump_dir: Optional[str] = None) -> JobResult:
        """Execute the job with the counter library linked in.

        ``counter_modes`` are the two 256-event sets split across the
        node cards (default: processor/FPU/L1 events + L3/DDR events,
        which the paper's figures need).  Every used node's counters
        are one ``uint64`` row of the job's counter matrix, aggregated
        in memory; ``dump_dir`` additionally writes each row as the
        node's ``BGP_Finalize`` dump file (nothing is written without
        it, and ``JobResult.dump_paths`` stays empty).
        """
        machine = self.machine
        _JOBS.inc()
        job_span = _span("job", program=self.program.name,
                         flags=self.program.flags_label,
                         mode=machine.mode.name, ranks=self.num_ranks,
                         nodes=machine.num_nodes)
        placement = place_ranks(self.num_ranks, machine.mode,
                                machine.num_nodes)
        by_node = placement.slots_by_node()
        used_nodes = sorted(by_node)
        residents = [by_node[n] for n in used_nodes]
        node_modes = _node_counter_modes(used_nodes, counter_modes)
        rows = np.zeros((len(used_nodes), COUNTERS_PER_MODE),
                        dtype=np.uint64)

        # fault injection (off unless an injector is installed): each
        # run of this job is one RAS "attempt", so a harness retry after
        # a NodeFailure re-rolls the dice instead of dying identically
        injector = _faults.get()
        fault_ctx = None
        if injector is not None and injector.config.any_enabled:
            fault_ctx = injector.begin_job(
                (self.program.name, self.program.flags_label,
                 machine.mode.name, self.num_ranks, machine.num_nodes,
                 machine.mem_config.l3.size_bytes))

        # job-level telemetry: one integer sampler per monitored node,
        # created per node class below so the memoized engine samples
        # each class representative once and replicates the series
        sampling = _timeline.resolve_config(self.sample_every)
        samplers: Dict[int, _timeline.NodeTimelineSampler] = {}

        # ---- compute: one simulation per node equivalence class -------
        # SPMD placement gives every resident rank the same work, so two
        # nodes with the same configuration and resident count perform
        # byte-identical compute.  Simulate each class once and copy its
        # counter row to the other members — O(classes) node
        # simulations instead of O(nodes).
        work = _program_to_work(self.program)
        compute_cycles: List[float] = [0.0] * self.num_ranks
        job_key = (self.program.name, self.program.flags_label,
                   machine.mode.name, machine.mem_config)
        with _span("phase.compute", nodes=len(used_nodes)) as compute_span:
            node_keys: List[Tuple] = []
            classes: Dict[Tuple, int] = {}  # key -> representative
            for node_id, slots in zip(used_nodes, residents):
                if self.memoize:
                    key = (len(slots),) + job_key
                else:  # legacy: every node is its own class
                    key = (len(slots), node_id) + job_key
                node_keys.append(key)
                classes.setdefault(key, node_id)
            keys = list(classes)
            # the shared tier (when installed) persists node-class
            # results across processes; fault-injected runs bypass it
            # in both directions so perturbed state never poisons it
            tier = (_checkpoint.get_shared_tier()
                    if self.memoize and fault_ctx is None else None)
            tier_ctx = cache_context() if tier is not None else None
            class_results: Dict[Tuple, Tuple[List[float],
                                             Dict[str, int]]] = {}
            pending = keys
            if tier is not None:
                pending = []
                for key in keys:
                    payload = tier.get("machine.node_class",
                                       (tier_ctx, key))
                    if payload is not None:
                        class_results[key] = (payload["cycles"],
                                              payload["events"])
                        _CLASS_TIER_HITS.inc()
                    else:
                        pending.append(key)
            for key in pending:
                # the class representative is its first member
                representative = ComputeNode(
                    node_id=classes[key], mode=machine.mode,
                    mem_config=machine.mem_config)
                result = representative.run([work] * key[0])
                class_results[key] = (result.process_cycles,
                                      result.events)
            if tier is not None:
                for key in pending:
                    cycles, events = class_results[key]
                    tier.put("machine.node_class", (tier_ctx, key),
                             {"cycles": list(cycles),
                              "events": dict(events)})
            _NODE_CLASSES.inc(len(keys))
            _NODE_CLASS_HITS.inc(len(used_nodes) - len(keys))
            # one compute row per (class, counter mode): nodes of one
            # class split across counter modes by the node-card policy
            compute_rows: Dict[Tuple, np.ndarray] = {}
            rep_samplers: Dict[Tuple, _timeline.NodeTimelineSampler] = {}
            for i, node_id in enumerate(used_nodes):
                key = node_keys[i]
                upc_mode = node_modes[i]
                cycles, events = class_results[key]
                group = (key, upc_mode)
                row = compute_rows.get(group)
                if row is None:
                    row = compute_rows[group] = _counts_to_row(events,
                                                               upc_mode)
                rows[i] = row
                if fault_ctx is not None:
                    # node-level faults land on every member's own row,
                    # after its compute counts and before its comm
                    # counts; a node_failure raises NodeFailure out of
                    # the job
                    fault_ctx.visit_node(_NodeRow(node_id, upc_mode,
                                                  rows[i]),
                                         phase="compute")
                for slot, rank in enumerate(residents[i]):
                    compute_cycles[rank] = cycles[slot]
                if sampling is not None:
                    # the sampling class is (compute class, counter
                    # mode); the representative samples the compute
                    # phase once, members branch
                    if not sampling.events_in_mode(upc_mode):
                        continue
                    rep = rep_samplers.get(group)
                    if rep is None:
                        rep = _timeline.NodeTimelineSampler(
                            node_id, upc_mode, sampling)
                        rep.feed("compute", events, max(cycles))
                        rep_samplers[group] = rep
                    samplers[node_id] = rep.branch(node_id)
            _SAMPLED_NODES.inc(len(samplers))
            compute_span.set("cycles", max(compute_cycles, default=0.0))
            compute_span.set("classes", len(keys))
            compute_span.set("replicated", len(used_nodes) - len(keys))

        # ---- communication: phase by phase on the networks ------------
        # phase costs are pure functions of (ops, placement, partition),
        # independent of the memory configuration, so sweep points that
        # differ only in L3/prefetch settings replay the cached phases
        mpi = SimMPI(placement, machine.topology, machine.torus,
                     machine.collective, machine.barrier)
        comm_ops = list(self.program.comms())
        comm_key: Optional[Tuple] = None
        cached_phases = None
        if self.memoize:
            comm_key = (tuple(comm_ops), self.num_ranks,
                        machine.mode.name, machine.num_nodes)
            cached_phases = _COMM_CACHE.get(comm_key)
            if cached_phases is None and tier is not None:
                payload = tier.get("machine.comm_phase",
                                   (tier_ctx, comm_key))
                if payload is not None:
                    cached_phases = [CommResult.from_dict(d)
                                     for d in payload]
                    _COMM_TIER_HITS.inc()
                    # seed the in-process cache so sibling sweep
                    # points skip even the disk read
                    while len(_COMM_CACHE) >= _COMM_CACHE_MAX:
                        _COMM_CACHE.pop(next(iter(_COMM_CACHE)))
                    _COMM_CACHE[comm_key] = cached_phases
            (_COMM_HITS if cached_phases is not None
             else _COMM_MISSES).inc()
        phases: List[CommResult] = []
        comm_cycles = 0.0
        assignment = machine.mode.core_assignment()
        for op_index, op in enumerate(comm_ops):
            _BSP_PHASES.inc()
            with _span("phase.comm", kind=op.kind.value,
                       bytes_per_rank=op.bytes_per_rank,
                       repeats=op.repeats) as comm_span:
                if cached_phases is not None:
                    comm = cached_phases[op_index]
                    comm_span.set("cached", True)
                else:
                    comm = mpi.run(op)
                comm_span.set("cycles", comm.cycles_per_rank)
                # an injected link stall is charged outside the phase
                # cost so the cross-job comm cache stays clean
                stall = 0
                if fault_ctx is not None:
                    stall = fault_ctx.link_stall(op_index, op.kind.value)
                    if stall:
                        comm_span.set("ras_stall_cycles", stall)
            phases.append(comm)
            comm_cycles += comm.cycles_per_rank + stall
            if samplers:
                phase_wait = int(round(comm.cycles_per_rank))
                for node_id, slots in zip(used_nodes, residents):
                    sampler = samplers.get(node_id)
                    if sampler is None:
                        continue
                    phase_events: Dict[str, int] = {}
                    for source in (
                            comm.torus_events.get(node_id, {}),
                            comm.collective_events):
                        for name, count in source.items():
                            phase_events[name] = (
                                phase_events.get(name, 0) + count)
                    lines = comm.ddr_lines_per_node.get(node_id, 0)
                    if lines:
                        # message staging traffic for this phase
                        phase_events["BGP_DDR0_WRITE"] = (
                            phase_events.get("BGP_DDR0_WRITE", 0)
                            + lines // 2)
                        phase_events["BGP_DDR1_READ"] = (
                            phase_events.get("BGP_DDR1_READ", 0)
                            + lines - lines // 2)
                    if phase_wait > 0:
                        # comm wait elapses on every rank-hosting core
                        for slot in range(len(slots)):
                            for core in assignment[slot]:
                                cname = f"BGP_PU{core}_CYCLES"
                                phase_events[cname] = (
                                    phase_events.get(cname, 0)
                                    + phase_wait)
                    sampler.feed(f"comm.{op.kind.value}", phase_events,
                                 comm.cycles_per_rank)
        if comm_key is not None and cached_phases is None:
            while len(_COMM_CACHE) >= _COMM_CACHE_MAX:
                _COMM_CACHE.pop(next(iter(_COMM_CACHE)))
            _COMM_CACHE[comm_key] = phases
            if tier is not None:
                tier.put("machine.comm_phase", (tier_ctx, comm_key),
                         [phase.to_dict() for phase in phases])

        # torus, collective, message-staging and comm-wait counts land
        # after the compute counts (and any fault) of every node;
        # uint64 adds wrap modulo 2**64 like the UPC counters
        rows += _comm_rows(used_nodes, [len(slots) for slots in residents],
                           node_modes, phases, int(round(comm_cycles)),
                           machine.mode)

        with _span("phase.dump") as dump_span:
            dump_paths: List[str] = []
            if dump_dir is not None:
                os.makedirs(dump_dir, exist_ok=True)
                for i, node_id in enumerate(used_nodes):
                    writer = DumpWriter(node_id=node_id,
                                        mode=node_modes[i])
                    writer.add_set(0, rows[i])
                    path = os.path.join(dump_dir, dump_file_name(node_id))
                    writer.write(path)
                    dump_paths.append(path)
            dump_span.set("files", len(dump_paths))
            dump_io = _dump_io_cycles(machine.io, machine.num_nodes,
                                      used_nodes)
            dump_span.set("cycles", dump_io)

        elapsed = max(c + comm_cycles for c in compute_cycles)
        job_span.set("cycles", elapsed)
        job_span.end()

        timeline = None
        if samplers:
            for sampler in samplers.values():
                # the dump ships after monitoring stopped: no events,
                # but the job's clock keeps running through it
                sampler.feed("dump", {}, dump_io)
            timeline = _timeline.JobTimeline(
                program=self.program.name,
                flags=self.program.flags_label,
                mode_name=machine.mode.name,
                num_nodes=len(used_nodes),
                num_ranks=self.num_ranks,
                sample_every=sampling.sample_every,
                elapsed_cycles=elapsed,
                nodes={node_id: sampler.finish()
                       for node_id, sampler in sorted(samplers.items())},
                percentiles=sampling.percentiles,
                wall_start_us=getattr(job_span, "start_us", None),
                wall_dur_us=getattr(job_span, "dur_us", None),
            )
            if _timeline.get_config() is not None:
                # CLI-installed sampling: register with the recorder so
                # --trace/--json runs export timeline.jsonl at exit
                _timeline.record(timeline)
        result = JobResult(
            program_name=self.program.name,
            flags_label=self.program.flags_label,
            mode=machine.mode,
            placement=placement,
            elapsed_cycles=elapsed,
            compute_cycles_per_rank=compute_cycles,
            comm_cycles_per_rank=comm_cycles,
            aggregation=Aggregation.from_rows(used_nodes, node_modes, rows),
            dump_paths=dump_paths,
            dump_io_cycles=dump_io,
            timeline=timeline,
        )
        if _markers.active():
            # credit this job's machine-wide counter view to every open
            # marker region; the disabled path is this one bool check
            _markers.credit(result.scaled_totals(), elapsed)
        return result


def run_job(program: Program, num_ranks: int, num_nodes: int,
            mode: OperatingMode,
            mem_config: Optional[NodeMemoryConfig] = None,
            counter_modes: Tuple[int, int] = (0, 2)) -> JobResult:
    """Convenience one-shot: build a machine, run the program, return."""
    machine = Machine(num_nodes, mode=mode, mem_config=mem_config)
    return Job(machine, program, num_ranks).run(
        counter_modes=counter_modes)
