"""The performance counter interface library — the paper's contribution.

Provides the four calls of the paper's Section IV, on a per-node basis:

* ``BGP_Initialize()`` — select the UPC counter mode (and with it, the
  256-event set), reset and enable all counters;
* ``BGP_Start(set)`` / ``BGP_Stop(set)`` — bracket a code region; each
  start/stop pair accumulates counter deltas under its *set number*, so
  distinct program regions can be monitored independently;
* ``BGP_Finalize(dir)`` — dump every set's accumulated deltas into a
  per-node binary file for post-processing.

512 events in one run
---------------------
A single UPC unit counts one 256-event mode at a time.  The library
monitors **512** events per batch job by configuring the *even-numbered
node cards* to count the first event set and the *odd-numbered node
cards* to count the second (paper, Section IV).  :func:`mode_for_node`
implements that policy; the post-processing tools stitch the halves back
together.

Overhead
--------
The measured overhead of initialize + start + stop on the real chip is
**196 machine cycles** (paper, Section IV).  We charge the same split
here (150 + 23 + 23) to an ``overhead_cycles`` account and, when a
cycle-sink callback is provided, into the simulated core's timeline —
dumping in finalize only lengthens execution *after* monitoring stopped,
which the model reproduces by charging dump time separately.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..obs.tracer import enabled as _tracing
from ..obs.tracer import marker as _marker
from ..obs.tracer import span as _span
from .config import COUNTER_MASK
from .counters import UPCUnit
from .dump import DumpWriter, dump_file_name
from .events import COUNTERS_PER_MODE

#: Cycle cost of BGP_Initialize (one-time).
OVERHEAD_INIT_CYCLES = 150
#: Cycle cost of one BGP_Start call.
OVERHEAD_START_CYCLES = 23
#: Cycle cost of one BGP_Stop call.
OVERHEAD_STOP_CYCLES = 23
#: Total for the paper's init+start+stop sanity check.
OVERHEAD_TOTAL_CYCLES = (
    OVERHEAD_INIT_CYCLES + OVERHEAD_START_CYCLES + OVERHEAD_STOP_CYCLES
)
#: Modelled cycles to write one counter record to the I/O node (finalize).
OVERHEAD_DUMP_CYCLES_PER_SET = 50_000

#: Compute nodes per node card on BG/P.
NODES_PER_NODE_CARD = 32


def node_card(node_id: int,
              card_size: int = NODES_PER_NODE_CARD) -> int:
    """The node card a compute node sits on."""
    if node_id < 0:
        raise ValueError(f"negative node id: {node_id}")
    if card_size <= 0:
        raise ValueError(f"card size must be positive, got {card_size}")
    return node_id // card_size


def job_card_size(num_nodes: int) -> int:
    """Node-card size the policy uses for a job on ``num_nodes`` nodes.

    The real 32, shrunk so small partitions still sample both event
    sets (a job of one or two nodes alternates individual nodes).
    """
    return min(NODES_PER_NODE_CARD, max(1, num_nodes // 2))


def mode_for_node(node_id: int, primary_mode: int = 0,
                  secondary_mode: int = 1,
                  card_size: int = NODES_PER_NODE_CARD) -> int:
    """Counter mode a node should run: the even/odd node-card policy.

    Even-numbered node cards monitor ``primary_mode``'s 256 events, odd
    cards monitor ``secondary_mode``'s — together, 512 events per run.
    ``card_size`` is 32 on the real machine; small simulated partitions
    can shrink it (down to 1 = alternate individual nodes) so both event
    sets are still sampled.
    """
    return (primary_mode if node_card(node_id, card_size) % 2 == 0
            else secondary_mode)


class InterfaceError(RuntimeError):
    """Raised on misuse of the BGP_* call protocol."""


@dataclass
class _SetState:
    """Accumulation state for one start/stop set."""

    accumulated: np.ndarray = field(
        default_factory=lambda: np.zeros(COUNTERS_PER_MODE, dtype=np.uint64))
    start_snapshot: Optional[np.ndarray] = None
    start_count: int = 0
    stop_count: int = 0
    #: open tracer marker span bracketing the current start/stop pair
    #: (LIKWID-style: the paper's counter regions line up with traces)
    marker: Optional[object] = None


class BGPCounterInterface:
    """Per-node instance of the interface library.

    Parameters
    ----------
    upc:
        The node's UPC unit.
    node_id:
        Compute-node id (drives the even/odd node-card mode policy and
        names the dump file).
    cycle_sink:
        Optional callable charged with every overhead cycle, so the
        instrumentation cost lands in the simulated core's timeline the
        way it lands on the real machine.
    """

    def __init__(self, upc: UPCUnit, node_id: int = 0,
                 cycle_sink: Optional[Callable[[int], None]] = None):
        self.upc = upc
        self.node_id = node_id
        self._cycle_sink = cycle_sink
        self.overhead_cycles = 0
        self.dump_cycles = 0
        self._sets: Dict[int, _SetState] = {}
        self._initialized = False
        self._finalized = False

    # ------------------------------------------------------------------
    def _charge(self, cycles: int) -> None:
        self.overhead_cycles += cycles
        if self._cycle_sink is not None:
            self._cycle_sink(cycles)

    # ------------------------------------------------------------------
    # the four paper calls
    # ------------------------------------------------------------------
    def initialize(self, mode: Optional[int] = None,
                   primary_mode: int = 0, secondary_mode: int = 1,
                   card_size: int = NODES_PER_NODE_CARD) -> int:
        """``BGP_Initialize()``: pick the mode, reset and enable counters.

        When ``mode`` is None the even/odd node-card policy selects it.
        Returns the selected mode.
        """
        if self._finalized:
            raise InterfaceError("interface already finalized")
        selected = (mode if mode is not None
                    else mode_for_node(self.node_id, primary_mode,
                                       secondary_mode, card_size))
        self.upc.reset(mode=selected)
        self._sets.clear()
        self._initialized = True
        self._charge(OVERHEAD_INIT_CYCLES)
        return selected

    def start(self, set_id: int = 0) -> None:
        """``BGP_Start(set)``: snapshot all 256 counters for ``set``."""
        self._require_initialized()
        state = self._sets.setdefault(set_id, _SetState())
        if state.start_snapshot is not None:
            raise InterfaceError(
                f"BGP_Start({set_id}) called twice without BGP_Stop")
        if _tracing():
            state.marker = _marker(f"BGP_set{set_id}", kind="marker",
                                   node=self.node_id, set=set_id)
        state.start_snapshot = self.upc.snapshot()
        # start overhead is charged *after* the snapshot: the tail of the
        # call executes inside the measured region, as on the real chip
        self._charge(OVERHEAD_START_CYCLES)
        state.start_count += 1

    def stop(self, set_id: int = 0) -> np.ndarray:
        """``BGP_Stop(set)``: accumulate deltas since the matching start.

        Returns this interval's 256 deltas (uint64, wrap-corrected).
        """
        self._require_initialized()
        state = self._sets.get(set_id)
        if state is None or state.start_snapshot is None:
            raise InterfaceError(
                f"BGP_Stop({set_id}) without matching BGP_Start")
        now = self.upc.snapshot()
        # modular subtraction handles counters that wrapped mid-interval
        delta = (now - state.start_snapshot) & np.uint64(COUNTER_MASK)
        state.accumulated = (state.accumulated + delta) & np.uint64(
            COUNTER_MASK)
        state.start_snapshot = None
        state.stop_count += 1
        if state.marker is not None:
            state.marker.set("events", int(delta.sum())).end()
            state.marker = None
        # the stop overhead is charged *after* the snapshot so it never
        # perturbs the measured region (paper, Section IV)
        self._charge(OVERHEAD_STOP_CYCLES)
        return delta

    def finalize(self, directory: str) -> str:
        """``BGP_Finalize()``: dump all sets to a per-node binary file.

        Returns the written file path.  Dump time is charged to
        ``dump_cycles`` (it lengthens execution but cannot perturb the
        counts — monitoring already stopped).
        """
        self._require_initialized()
        open_sets = [sid for sid, st in self._sets.items()
                     if st.start_snapshot is not None]
        if open_sets:
            raise InterfaceError(
                f"BGP_Finalize with sets still running: {open_sets}")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, dump_file_name(self.node_id))
        with _span("BGP_finalize", node=self.node_id,
                   sets=len(self._sets)):
            writer = DumpWriter(node_id=self.node_id, mode=self.upc.mode)
            for set_id in sorted(self._sets):
                writer.add_set(set_id, self._sets[set_id].accumulated)
            writer.write(path)
        self.dump_cycles += OVERHEAD_DUMP_CYCLES_PER_SET * max(
            len(self._sets), 1)
        self._finalized = True
        return path

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def set_deltas(self, set_id: int = 0) -> np.ndarray:
        """Accumulated 256-counter deltas of ``set_id`` (copy)."""
        state = self._sets.get(set_id)
        if state is None:
            raise InterfaceError(f"unknown set {set_id}")
        return state.accumulated.copy()

    def named_deltas(self, set_id: int = 0) -> Dict[str, int]:
        """Set deltas keyed by event name for the node's counter mode."""
        from .events import EVENTS_BY_NAME

        deltas = self.set_deltas(set_id)
        mode = self.upc.mode
        return {name: int(deltas[ev.counter])
                for name, ev in EVENTS_BY_NAME.items() if ev.mode == mode}

    @property
    def set_ids(self):
        """Ids of all sets seen so far, sorted."""
        return sorted(self._sets)

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise InterfaceError("BGP_Initialize must be called first")
        if self._finalized:
            raise InterfaceError("interface already finalized")


# ---------------------------------------------------------------------------
# paper-style module-level API for single-process (sequential) use
# ---------------------------------------------------------------------------
_current: Optional[BGPCounterInterface] = None


def BGP_Initialize(upc: UPCUnit, node_id: int = 0,
                   mode: Optional[int] = None) -> BGPCounterInterface:
    """Create and initialize the process-global interface instance.

    Mirrors how a sequential application links the library and calls
    ``BGP_Initialize()`` at the top of ``main`` (paper, Section IV).
    """
    global _current
    _current = BGPCounterInterface(upc, node_id)
    _current.initialize(mode=mode)
    return _current


def BGP_Start(set_id: int = 0) -> None:
    """Start monitoring ``set_id`` on the process-global interface."""
    _require_current().start(set_id)


def BGP_Stop(set_id: int = 0) -> np.ndarray:
    """Stop monitoring ``set_id`` on the process-global interface."""
    return _require_current().stop(set_id)


def BGP_Finalize(directory: str) -> str:
    """Finalize the process-global interface, dumping to ``directory``."""
    global _current
    path = _require_current().finalize(directory)
    _current = None
    return path


def _require_current() -> BGPCounterInterface:
    if _current is None:
        raise InterfaceError("BGP_Initialize has not been called")
    return _current
