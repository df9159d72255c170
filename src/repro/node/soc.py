"""The Blue Gene/P compute ASIC: four cores + shared L3 + DDR + UPC.

A :class:`ComputeNode` takes the work of its resident processes (each
expressed as a list of :class:`LoopWork` items), runs the full node
model — per-core pipeline timing, per-process hierarchy analysis with
L3 sharing and interference, DDR port contention over the node's
execution window — and pulses every resulting hardware event into the
node's UPC unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.counters import UPCUnit
from ..core.events import EVENTS_BY_NAME
from ..cpu import CoreExecution, PPC450Core, PipelineModel
from ..isa import InstructionMix, OpClass
from ..mem import NodeMemoryConfig, NodeMemoryModel, StreamAccess
from ..mem.analytical import LoopMemoryResult, analyze_loop
from ..obs import metrics as _metrics
from ..obs.tracer import span as _span
from ..parallel import get_vectorize
from .modes import OperatingMode

_NODE_RUNS = _metrics.counter("node.runs")

#: Efficiency of an OpenMP-style thread split inside one process
#: (imperfect due to serial sections and barrier costs).
THREAD_EFFICIENCY = 0.92


@dataclass(frozen=True)
class LoopWork:
    """One loop nest's worth of work for a process.

    ``mix`` is per whole loop (all iterations); ``streams``/
    ``traversals`` describe its memory behaviour; ``serial_fraction``
    its dependence structure.
    """

    mix: InstructionMix
    streams: Sequence[StreamAccess] = ()
    traversals: int = 1
    serial_fraction: float = 0.05


@dataclass
class ProcessWork:
    """All the compute work of one process between synchronisations."""

    loops: List[LoopWork] = field(default_factory=list)

    def total_mix(self) -> InstructionMix:
        total = InstructionMix()
        for loop in self.loops:
            total += loop.mix
        return total

    def memory_loops(self):
        """The ``(streams, traversals)`` pairs for the hierarchy model."""
        return [(loop.streams, loop.traversals) for loop in self.loops
                if loop.streams]


@dataclass
class NodeRunResult:
    """Everything a node run produced."""

    mode: OperatingMode
    core_executions: List[CoreExecution] = field(default_factory=list)
    process_cycles: List[float] = field(default_factory=list)
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def node_cycles(self) -> float:
        """Wall-clock cycles: the slowest core bounds the node."""
        return max((c.cycles for c in self.core_executions), default=0.0)


class ComputeNode:
    """One BG/P node: SoC model + UPC unit."""

    def __init__(self, node_id: int = 0,
                 mode: OperatingMode = OperatingMode.SMP1,
                 mem_config: Optional[NodeMemoryConfig] = None):
        self.node_id = node_id
        self.mode = mode
        base = mem_config or NodeMemoryConfig()
        # the mode dictates how much L1 data cores genuinely share
        from dataclasses import replace

        from ..mem.snoop import SnoopConfig
        self.mem_config = replace(base, snoop=SnoopConfig(
            sharing_fraction=mode.snoop_sharing_fraction))
        self.mem_model = NodeMemoryModel(self.mem_config)
        self.cores = [PPC450Core(i) for i in range(4)]
        self.upc = UPCUnit(node_id=node_id)

    # ------------------------------------------------------------------
    def run(self, processes: Sequence[ProcessWork]) -> NodeRunResult:
        """Run one batch of per-process work to completion.

        ``processes`` must not exceed the mode's process slots.  Each
        process's loops are timed on its assigned cores (split across
        threads), the shared L3/DDR effects are applied, and every event
        is pulsed into the UPC unit.
        """
        slots = self.mode.processes_per_node
        if len(processes) > slots:
            raise ValueError(
                f"{self.mode.value} offers {slots} process slots, "
                f"got {len(processes)} processes")
        _NODE_RUNS.inc()
        with _span("node.run", node=self.node_id,
                   processes=len(processes)) as node_span:
            result = self._run(processes)
            node_span.set("cycles", result.node_cycles)
        return result

    def _run(self, processes: Sequence[ProcessWork]) -> NodeRunResult:
        # 1) shared-memory analysis over the co-resident processes
        mem_loops = [p.memory_loops() for p in processes]
        non_empty = [ml if ml else [((), 0)] for ml in mem_loops]
        mem_result = self.mem_model.analyze(non_empty)
        # 2) per-core pipeline timing, 3) DDR contention, 4) UPC pulses
        plans = self._plan(processes, mem_result)
        compute = self._compute_totals(plans)
        result = self._assemble(processes, mem_result, plans, compute)
        self.pulse_events(result.events)
        return result

    def _plan(self, processes: Sequence[ProcessWork],
              mem_result) -> List[tuple]:
        """Plan every (process, thread) slice of a node run.

        Planning is split out from timing so the batched sweep engine
        can stack many nodes' plans into one
        ``compute_cycles_batch`` matrix; each plan row is
        ``(p_index, core_id, threads, thread_mix, serial_fraction,
        mem_share)``.
        """
        assignment = self.mode.core_assignment()
        plans: List[tuple] = []
        for p_index, work in enumerate(processes):
            cores = assignment[p_index]
            threads = len(cores)
            proc_mem = mem_result.per_process[p_index]
            for core_id in cores:
                # split each loop's instructions across the threads
                thread_mix = InstructionMix()
                serial_weight = 0.0
                for loop in work.loops:
                    thread_mix += loop.mix * (1.0 / threads)
                    serial_weight += (loop.serial_fraction
                                      * loop.mix.total())
                total_insts = max(work.total_mix().total(), 1.0)
                serial_fraction = min(1.0, serial_weight / total_insts)
                mem_share = _scale_memory(proc_mem, 1.0 / threads)
                plans.append((p_index, core_id, threads, thread_mix,
                              serial_fraction, mem_share))
        return plans

    def _compute_totals(self, plans: Sequence[tuple]) -> List[float]:
        """Raw compute cycles for each plan row (pipeline timing only)."""
        if get_vectorize() and len(plans) > 1:
            # ComputeNode builds its cores with one shared pipeline
            # configuration, so a single batched call covers them all
            matrix = np.stack([plan[3].as_vector() for plan in plans])
            totals = self.cores[0].pipeline.compute_cycles_batch(
                matrix, [plan[4] for plan in plans])
            return [float(t) for t in totals.tolist()]
        return [
            self.cores[core_id].pipeline.compute_cycles(
                thread_mix, serial_fraction).total
            for _, core_id, _, thread_mix, serial_fraction, _
            in plans]

    def _assemble(self, processes: Sequence[ProcessWork], mem_result,
                  plans: Sequence[tuple],
                  compute: Sequence[float]) -> NodeRunResult:
        """Fold timed plans into a result — no UPC side effects.

        The caller pulses ``result.events`` itself (``_run`` does so
        immediately; the batched engine instead converts them into
        counter rows analytically).
        """
        assignment = self.mode.core_assignment()
        executions: Dict[int, CoreExecution] = {
            core.core_id: core.idle_execution() for core in self.cores}
        process_cycles = [0.0] * len(processes)
        for plan, compute_cycles in zip(plans, compute):
            p_index, core_id, threads, thread_mix, _, mem_share = plan
            execution = CoreExecution(
                core_id=core_id,
                compute_cycles=compute_cycles,
                memory_stall_cycles=mem_share.stall_cycles,
                mix=thread_mix.copy(),
                memory=mem_share,
            )
            if threads > 1:
                execution.compute_cycles /= THREAD_EFFICIENCY
            executions[core_id].add(execution)
            process_cycles[p_index] = max(process_cycles[p_index],
                                          executions[core_id].cycles)

        # 3) DDR port contention over the first-pass window
        window = max((e.cycles for e in executions.values()), default=0.0)
        if window > 0:
            extra = self.mem_model.contention_stall_per_process(
                mem_result, window)
            for p_index, work in enumerate(processes):
                cores = assignment[p_index]
                for core_id in cores:
                    executions[core_id].extra_stall_cycles += (
                        extra[p_index] / len(cores))
                process_cycles[p_index] += extra[p_index] / len(cores)

        # 4) collect every hardware event the run produced
        result = NodeRunResult(
            mode=self.mode,
            core_executions=[executions[i] for i in range(4)],
            process_cycles=process_cycles,
        )
        events: Dict[str, int] = {}
        for execution in result.core_executions:
            events.update(execution.events())
        stores = [int(round(executions[i].mix[OpClass.STORE]
                            + executions[i].mix[OpClass.QUADSTORE]))
                  for i in range(4)]
        events.update(self.mem_model.node_events(mem_result, stores))
        result.events = events
        return result

    # ------------------------------------------------------------------
    def pulse_events(self, events: Dict[str, int]) -> None:
        """Deliver named event pulses to the UPC unit (mode-gated)."""
        if get_vectorize():
            self.upc.pulse_many({name: count
                                 for name, count in events.items()
                                 if count > 0})
            return
        for name, count in events.items():
            if count <= 0:
                continue
            if name in EVENTS_BY_NAME:
                self.upc.pulse(name, count)


def _scale_memory(result: LoopMemoryResult,
                  factor: float) -> LoopMemoryResult:
    """A thread's share of its process's memory behaviour."""
    out = LoopMemoryResult()
    out.l1.accesses = result.l1.accesses * factor
    out.l1.hits = result.l1.hits * factor
    out.l1.misses = result.l1.misses * factor
    out.l1.writethroughs = result.l1.writethroughs * factor
    out.l2.accesses = result.l2.accesses * factor
    out.l2.hits = result.l2.hits * factor
    out.l2.misses = result.l2.misses * factor
    out.l2.prefetch_hits = result.l2.prefetch_hits * factor
    out.l2.prefetch_issued = result.l2.prefetch_issued * factor
    out.l3.accesses = result.l3.accesses * factor
    out.l3.hits = result.l3.hits * factor
    out.l3.misses = result.l3.misses * factor
    out.l3.writebacks = result.l3.writebacks * factor
    out.ddr_reads = result.ddr_reads * factor
    out.ddr_writes = result.ddr_writes * factor
    out.stall_cycles = result.stall_cycles * factor
    return out
