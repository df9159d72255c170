"""MPI-integrated instrumentation: zero-code-change counter collection.

The paper integrates the interface with the MPI library: "The functions
BGP_Initialize() & BGP_Start() are added to MPI_Init() and the functions
BGP_Stop() & BGP_Finalize() functions are added to MPI_Finalize() ...
Linking this library with any MPI based application during compile time
gets the application instrumented" (Section IV).

Our simulated runtime reproduces that linkage: a :class:`CounterSession`
attaches one :class:`~repro.core.interface.BGPCounterInterface` to every
node of a job, starts monitoring when the job's ``MPI_Init`` fires and
stops at ``MPI_Finalize`` — the application model itself is untouched.
Finalize writes the per-node dumps only into a caller-given directory;
without one the session aggregates the interfaces' rows in memory.  The
session can also be used directly as a context manager around any
simulated code region.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from .dump import NodeDump, read_dump
from .interface import BGPCounterInterface, job_card_size
from .postprocess import Aggregation


class NodeLike(Protocol):
    """Anything with a UPC unit and a node id can be instrumented."""

    node_id: int
    upc: object


class CounterSession:
    """Machine-wide counter collection bracketed like MPI_Init/Finalize.

    Parameters
    ----------
    nodes:
        The job's compute nodes (each exposing ``.upc`` and ``.node_id``).
    primary_mode / secondary_mode:
        The two 256-event sets monitored simultaneously via the even/odd
        node-card policy.  Pass ``split_by_node_card=False`` to force
        every node onto ``primary_mode`` (256 events only).
    dump_dir:
        Where finalize writes per-node binaries; when omitted nothing
        is written and :meth:`aggregation` reads the rows in memory.
    """

    def __init__(self, nodes: Sequence[NodeLike],
                 primary_mode: int = 0, secondary_mode: int = 1,
                 split_by_node_card: bool = True,
                 card_size: Optional[int] = None,
                 dump_dir: Optional[str] = None):
        if not nodes:
            raise ValueError("CounterSession needs at least one node")
        self.nodes = list(nodes)
        self.primary_mode = primary_mode
        self.secondary_mode = secondary_mode
        self.split_by_node_card = split_by_node_card
        if card_size is None:
            card_size = job_card_size(len(self.nodes))
        self.card_size = card_size
        self.dump_dir = dump_dir
        self.interfaces: Dict[int, BGPCounterInterface] = {}
        self.dump_paths: List[str] = []
        self._active = False
        self._finalized = False

    # ------------------------------------------------------------------
    # MPI hook points
    # ------------------------------------------------------------------
    def mpi_init(self) -> None:
        """The BGP_Initialize + BGP_Start half, fired from MPI_Init."""
        if self._active:
            raise RuntimeError("session already active")
        for node in self.nodes:
            iface = BGPCounterInterface(node.upc, node.node_id)
            if self.split_by_node_card:
                iface.initialize(primary_mode=self.primary_mode,
                                 secondary_mode=self.secondary_mode,
                                 card_size=self.card_size)
            else:
                iface.initialize(mode=self.primary_mode)
            iface.start(0)
            self.interfaces[node.node_id] = iface
        self._active = True

    def mpi_finalize(self) -> List[str]:
        """The BGP_Stop + BGP_Finalize half, fired from MPI_Finalize.

        Returns the per-node dump paths (empty without ``dump_dir``).
        """
        if not self._active:
            raise RuntimeError("mpi_finalize without mpi_init")
        if self.dump_dir is not None:
            os.makedirs(self.dump_dir, exist_ok=True)
        for iface in self.interfaces.values():
            iface.stop(0)
            if self.dump_dir is not None:
                self.dump_paths.append(iface.finalize(self.dump_dir))
        self._active = False
        self._finalized = True
        return self.dump_paths

    # ------------------------------------------------------------------
    # context-manager sugar for non-MPI (sequential) instrumentation
    # ------------------------------------------------------------------
    def __enter__(self) -> "CounterSession":
        self.mpi_init()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # on an application error we still stop counters, but discard
        # dumps: partial data would poison the aggregation
        if exc_type is None:
            self.mpi_finalize()
        else:
            self._active = False

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def dumps(self) -> List[NodeDump]:
        """Parsed dumps of the finished session."""
        if self.dump_dir is None:
            raise RuntimeError(
                "session wrote no dumps: pass dump_dir to write them")
        self._require_finalized()
        return [read_dump(p) for p in self.dump_paths]

    def aggregation(self, set_id: int = 0) -> Aggregation:
        """Cross-node aggregation of the finished session.

        Built from the interfaces' accumulated rows — the same numbers
        the dumps hold, so ``Aggregation(self.dumps())`` agrees.
        """
        self._require_finalized()
        ifaces = list(self.interfaces.values())
        return Aggregation.from_rows(
            [iface.node_id for iface in ifaces],
            [iface.upc.mode for iface in ifaces],
            np.stack([iface.set_deltas(set_id) for iface in ifaces]),
            set_id=set_id)

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("session has not finalized yet")

    def total_overhead_cycles(self) -> int:
        """Interface overhead summed over nodes (excludes dump time)."""
        return sum(i.overhead_cycles for i in self.interfaces.values())
