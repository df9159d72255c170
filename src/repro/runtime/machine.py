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
from typing import Dict, List, Optional, Tuple

from ..compiler.ir import Program
from ..core.metrics import (
    fp_profile,
    total_flops,
)
from ..core.mpi_hooks import CounterSession
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
from ..parallel import (
    cache_context,
    get_jobs,
    parallel_map,
    worker_shared,
)
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


def clear_comm_cache() -> None:
    """Drop all cached communication phases (tests use this)."""
    _COMM_CACHE.clear()


class Machine:
    """A BG/P partition: nodes + networks in one operating mode."""

    def __init__(self, num_nodes: int,
                 mode: OperatingMode = OperatingMode.SMP1,
                 mem_config: Optional[NodeMemoryConfig] = None):
        if num_nodes <= 0:
            raise ValueError(f"partition needs >= 1 node, got {num_nodes}")
        self.mode = mode
        self.mem_config = mem_config or NodeMemoryConfig()
        self.topology = TorusTopology.for_nodes(num_nodes)
        self.nodes = [ComputeNode(node_id=i, mode=mode,
                                  mem_config=self.mem_config)
                      for i in range(num_nodes)]
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
    def num_nodes(self) -> int:
        return len(self.nodes)

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


def _simulate_node_class_shared(residents: int
                                ) -> Tuple[List[float], Dict[str, int]]:
    """Pool target: simulate one node class from hoisted batch context.

    The class context that is invariant across one job's fan-out — the
    operating mode, the memory configuration and the lowered program
    work — is shipped once per worker via ``parallel_map(shared=...)``
    and read back here, so each task's pickled payload is just the
    resident count (a few dozen bytes instead of the multi-kilobyte
    lowered program; ``BENCH_sweep_batch.json`` records the before and
    after sizes).  The engine switches travel in the same initializer.
    """
    mode, mem_config, work = worker_shared()
    node = ComputeNode(node_id=0, mode=mode, mem_config=mem_config)
    result = node.run([work] * residents)
    return result.process_cycles, result.events


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
    def scaled_totals(self) -> Dict[str, int]:
        """Estimated whole-machine event totals.

        The 512-event node-card split means each event was monitored on
        a *subset* of nodes; symmetric SPMD workloads let us scale the
        per-node mean back up to the full partition.
        """
        n = self.placement.num_nodes
        return {name: int(round(stats.mean * n))
                for name, stats in self.aggregation.stats.items()}

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_cycles / CORE_CLOCK_HZ

    def _group_metric(self, metric: str) -> float:
        """Evaluate one BGP_BASE metric over the machine-wide totals,
        with the job's elapsed cycles as the rate base."""
        from ..groups import get_group
        return get_group("BGP_BASE").evaluate(
            self.scaled_totals(),
            params={"cycles": self.elapsed_cycles},
            only=(metric,))[metric]

    def total_flops(self) -> float:
        """Machine-wide floating point operations."""
        return total_flops(self.scaled_totals())

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
        return fp_profile(self.scaled_totals())

    def simd_instructions(self) -> int:
        return self._group_metric("simd_instructions")

    def l3_miss_ratio(self) -> float:
        return self._group_metric("l3_miss_rate")

    # ------------------------------------------------------------------
    # JSON round trip (the checkpoint/--resume layer)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form holding every derived-metric input.

        Dump paths (session-scoped temp files) and the timeline (absent
        on memoized sweep runs) are deliberately dropped: a resumed
        process could not use either.
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
        which the paper's figures need).
        """
        machine = self.machine
        _JOBS.inc()
        job_span = _span("job", program=self.program.name,
                         flags=self.program.flags_label,
                         mode=machine.mode.name, ranks=self.num_ranks,
                         nodes=machine.num_nodes)
        placement = place_ranks(self.num_ranks, machine.mode,
                                machine.num_nodes)
        used_nodes = sorted(placement.slots_by_node())
        nodes = [machine.nodes[i] for i in used_nodes]

        session = CounterSession(nodes, primary_mode=counter_modes[0],
                                 secondary_mode=counter_modes[1],
                                 dump_dir=dump_dir)
        session.mpi_init()

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

        # job-level telemetry: one shadow sampler per monitored node,
        # created per node class below so the memoized engine samples
        # each class representative once and replicates the series
        sampling = _timeline.resolve_config(self.sample_every)
        samplers: Dict[int, _timeline.NodeTimelineSampler] = {}

        # ---- compute: one simulation per node equivalence class -------
        # SPMD placement gives every resident rank the same work, so two
        # nodes with the same configuration and resident count perform
        # byte-identical compute.  Simulate each class once and replicate
        # the counter deltas to the other members via pulse_events —
        # O(classes) node simulations instead of O(nodes).
        work = _program_to_work(self.program)
        compute_cycles: List[float] = [0.0] * self.num_ranks
        job_key = (self.program.name, self.program.flags_label,
                   machine.mode.name, machine.mem_config)
        with _span("phase.compute", nodes=len(nodes)) as compute_span:
            classes: Dict[Tuple, List[ComputeNode]] = {}
            for node in nodes:
                residents = placement.ranks_on_node(node.node_id)
                if self.memoize:
                    key = (len(residents),) + job_key
                else:  # legacy: every node is its own class
                    key = (len(residents), node.node_id) + job_key
                classes.setdefault(key, []).append(node)
            keys = list(classes)
            simulated: Dict[int, bool] = {}
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
            if get_jobs() > 1 and len(pending) > 1:
                # fan the distinct classes out over the process pool;
                # every member (including the representative) gets the
                # replicated deltas afterwards
                outs = parallel_map(
                    _simulate_node_class_shared,
                    [(key[0],) for key in pending],
                    label="node_classes",
                    shared=(machine.mode, machine.mem_config, work))
                class_results.update(zip(pending, outs))
            else:
                for key in pending:
                    representative = classes[key][0]
                    result = representative.run([work] * key[0])
                    class_results[key] = (result.process_cycles,
                                          result.events)
                    simulated[representative.node_id] = True
            if tier is not None:
                for key in pending:
                    cycles, events = class_results[key]
                    tier.put("machine.node_class", (tier_ctx, key),
                             {"cycles": list(cycles),
                              "events": dict(events)})
            _NODE_CLASSES.inc(len(keys))
            _NODE_CLASS_HITS.inc(len(nodes) - len(keys))
            rep_samplers: Dict[Tuple, _timeline.NodeTimelineSampler] = {}
            for node in nodes:
                residents = placement.ranks_on_node(node.node_id)
                if self.memoize:
                    key = (len(residents),) + job_key
                else:
                    key = (len(residents), node.node_id) + job_key
                cycles, events = class_results[key]
                if not simulated.get(node.node_id):
                    node.pulse_events(events)
                if fault_ctx is not None:
                    # node-level faults land on every member's own UPC
                    # unit, after its compute counts on every engine
                    # (the representative counted inside its run); a
                    # node_failure raises NodeFailure out of the job
                    fault_ctx.visit_node(node, phase="compute")
                for slot, rank in enumerate(residents):
                    compute_cycles[rank] = cycles[slot]
                if sampling is not None:
                    # nodes of the same class split across counter modes
                    # by the node-card policy, so the sampling class is
                    # (compute class, counter mode); the representative
                    # samples the compute phase once, members branch
                    upc_mode = node.upc.mode
                    if not sampling.events_in_mode(upc_mode):
                        continue
                    group = (key, upc_mode)
                    rep = rep_samplers.get(group)
                    if rep is None:
                        rep = _timeline.NodeTimelineSampler(
                            node.node_id, upc_mode, sampling)
                        rep.feed("compute", events, max(cycles))
                        rep_samplers[group] = rep
                    samplers[node.node_id] = rep.branch(node.node_id)
            _SAMPLED_NODES.inc(len(samplers))
            compute_span.set("cycles", max(compute_cycles, default=0.0))
            compute_span.set("classes", len(keys))
            compute_span.set("replicated", len(nodes) - len(keys))

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
        computed_phases: List = []
        comm_cycles = 0.0
        comm_ddr: Dict[int, int] = {}
        used_node_set = set(used_nodes)
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
                    computed_phases.append(comm)
                comm_span.set("cycles", comm.cycles_per_rank)
                # an injected link stall is charged outside the phase
                # cost so the cross-job comm cache stays clean
                stall = 0
                if fault_ctx is not None:
                    stall = fault_ctx.link_stall(op_index, op.kind.value)
                    if stall:
                        comm_span.set("ras_stall_cycles", stall)
            comm_cycles += comm.cycles_per_rank + stall
            for node_id, events in comm.torus_events.items():
                if node_id in used_node_set:
                    machine.nodes[node_id].pulse_events(events)
            if comm.collective_events:
                for node in nodes:
                    node.pulse_events(comm.collective_events)
            for node_id, lines in comm.ddr_lines_per_node.items():
                comm_ddr[node_id] = comm_ddr.get(node_id, 0) + lines
            if samplers:
                phase_wait = int(round(comm.cycles_per_rank))
                for node in nodes:
                    sampler = samplers.get(node.node_id)
                    if sampler is None:
                        continue
                    phase_events: Dict[str, int] = {}
                    for source in (
                            comm.torus_events.get(node.node_id, {}),
                            comm.collective_events):
                        for name, count in source.items():
                            phase_events[name] = (
                                phase_events.get(name, 0) + count)
                    lines = comm.ddr_lines_per_node.get(node.node_id, 0)
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
                        residents = placement.ranks_on_node(node.node_id)
                        for slot in range(len(residents)):
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
            _COMM_CACHE[comm_key] = computed_phases
            if tier is not None:
                tier.put("machine.comm_phase", (tier_ctx, comm_key),
                         [phase.to_dict() for phase in computed_phases])

        # message staging traffic: split lines across the controllers
        for node_id, lines in comm_ddr.items():
            machine.nodes[node_id].pulse_events({
                "BGP_DDR0_WRITE": lines // 2,
                "BGP_DDR1_READ": lines - lines // 2,
            })

        # comm wait time elapses on every core hosting a rank
        comm_int = int(round(comm_cycles))
        if comm_int > 0:
            for node in nodes:
                residents = placement.ranks_on_node(node.node_id)
                # one merged delivery per node: the per-slot cores are
                # disjoint, so the counter state is identical to a
                # pulse per core
                node.pulse_events(
                    {f"BGP_PU{core}_CYCLES": comm_int
                     for slot in range(len(residents))
                     for core in assignment[slot]})

        with _span("phase.dump") as dump_span:
            session.mpi_finalize()
            dump_span.set("files", len(session.dump_paths))
            dump_bytes = [0] * machine.num_nodes
            for path in session.dump_paths:
                node_id = int(path.rsplit("node", 1)[1].split(".")[0])
                dump_bytes[node_id] = os.path.getsize(path)
            dump_io = machine.io.write_phase(dump_bytes).cycles
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
                num_nodes=len(nodes),
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
            aggregation=session.aggregation(),
            dump_paths=session.dump_paths,
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
