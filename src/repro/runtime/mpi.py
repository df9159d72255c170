"""Simulated MPI: communication phases costed on the machine's networks.

The runtime executes communication the way the NAS benchmarks drive it:
bulk-synchronous phases where every rank participates.  Each
:class:`~repro.compiler.ir.CommOp` is lowered to concrete messages
using the job's rank placement:

* **HALO** — each rank exchanges with its neighbours in a 3D rank-grid
  decomposition; co-resident partners (Virtual Node Mode!) communicate
  through the shared L3 instead of the torus;
* **ALLTOALL** — personalised all-to-all (FT's transpose): every rank
  sends an equal slice to every other rank.  Costed as one node-pair
  flow per ordered pair of nodes, never as its rank pairs;
* **PAIRWISE** — fixed-partner exchange (IS's ranking step);
* **ALLREDUCE / BROADCAST** — the collective tree network;
* **BARRIER** — the global barrier network.

Inter-node transfers also cost *memory traffic*: the torus DMA engines
stream message payloads through the L3, and a fraction spills to DDR.
Intra-node transfers stay in the shared L3 — one of the reasons the
paper measures a DDR-traffic ratio *below* 4x for neighbour-local
benchmarks in VNM (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compiler.ir import CommKind, CommOp
from ..net import (
    BarrierNetwork,
    CollectiveNetwork,
    Message,
    TorusNetwork,
    TorusTopology,
)
from ..net.topology import partition_shape
from ..net.torus import first_occurrence
from ..parallel import get_vectorize
from .process import JobPlacement

#: Cycles of software overhead for an intra-node (shared-memory) message.
SHM_OVERHEAD_CYCLES = 300.0
#: Shared-L3 copy bandwidth, bytes per cycle.
SHM_BYTES_PER_CYCLE = 4.0
#: Fraction of inter-node message bytes that cross the DDR interface
#: (payloads staged through L3; the rest is consumed before eviction).
COMM_DDR_FRACTION = 0.5
#: L3 line size for converting comm bytes to DDR line transfers.
_LINE = 128
#: Below this many messages the vectorized lowering isn't worth its
#: array setup (mirrors the torus phase-engine threshold).
_VECTOR_MIN_TRIPLES = 16


def _off_diagonal(square: np.ndarray) -> np.ndarray:
    """The entries ``[a, b]`` with ``a != b`` of a square matrix, in
    row-major order: a row-major walk skips the diagonal every
    ``n + 1`` entries."""
    n = square.shape[0]
    return square.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].reshape(-1)


@dataclass
class CommResult:
    """Cost and events of one communication phase (all repeats)."""

    cycles_per_rank: float = 0.0
    torus_events: Dict[int, Dict[str, int]] = field(default_factory=dict)
    collective_events: Dict[str, int] = field(default_factory=dict)
    #: extra DDR line transfers per node caused by message staging
    ddr_lines_per_node: Dict[int, int] = field(default_factory=dict)
    intra_node_bytes: int = 0
    inter_node_bytes: int = 0

    # ------------------------------------------------------------------
    # JSON round trip (the shared cache tier persists costed phases)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form; exact (floats survive json)."""
        return {
            "cycles_per_rank": self.cycles_per_rank,
            "torus_events": {str(node): dict(events) for node, events
                             in self.torus_events.items()},
            "collective_events": dict(self.collective_events),
            "ddr_lines_per_node": {str(node): lines for node, lines
                                   in self.ddr_lines_per_node.items()},
            "intra_node_bytes": self.intra_node_bytes,
            "inter_node_bytes": self.inter_node_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CommResult":
        """Rebuild a phase saved by :meth:`to_dict` (node ids re-int'd
        after JSON stringified the dict keys)."""
        return cls(
            cycles_per_rank=data["cycles_per_rank"],
            torus_events={int(node): dict(events) for node, events
                          in data["torus_events"].items()},
            collective_events=dict(data["collective_events"]),
            ddr_lines_per_node={int(node): lines for node, lines
                                in data["ddr_lines_per_node"].items()},
            intra_node_bytes=data["intra_node_bytes"],
            inter_node_bytes=data["inter_node_bytes"],
        )


class SimMPI:
    """Lower CommOps to messages and cost them on the networks."""

    def __init__(self, placement: JobPlacement, topology: TorusTopology,
                 torus: TorusNetwork, collective: CollectiveNetwork,
                 barrier: BarrierNetwork):
        self.placement = placement
        self.topology = topology
        self.torus = torus
        self.collective = collective
        self.barrier = barrier
        self._rank_grid = partition_shape(placement.num_ranks)
        self._node_by_rank: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # rank-grid neighbours for halo exchanges
    # ------------------------------------------------------------------
    def _rank_coords(self, rank: int) -> Tuple[int, int, int]:
        x_dim, y_dim, _ = self._rank_grid
        return (rank % x_dim, (rank // x_dim) % y_dim,
                rank // (x_dim * y_dim))

    def _rank_at(self, coord: Tuple[int, int, int]) -> int:
        x_dim, y_dim, _ = self._rank_grid
        x, y, z = coord
        return x + y * x_dim + z * x_dim * y_dim

    def halo_partners(self, rank: int, wanted: int) -> List[int]:
        """Up to ``wanted`` distinct neighbour ranks in the 3D rank grid."""
        coords = self._rank_coords(rank)
        partners: List[int] = []
        for axis in range(3):
            for step in (+1, -1):
                if len(partners) >= wanted:
                    return partners
                size = self._rank_grid[axis]
                if size == 1:
                    continue
                n = list(coords)
                n[axis] = (n[axis] + step) % size
                partner = self._rank_at(tuple(n))
                if partner != rank and partner not in partners:
                    partners.append(partner)
        return partners

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def _messages_for(self, op: CommOp) -> List[Tuple[int, int, int]]:
        """(src_rank, dst_rank, bytes) triples for one repeat of ``op``."""
        p = self.placement
        if op.kind is CommKind.HALO:
            out = []
            for rank in range(p.num_ranks):
                partners = self.halo_partners(rank, op.neighbors)
                if not partners:
                    continue
                per_partner = op.bytes_per_rank // len(partners)
                out.extend((rank, q, per_partner) for q in partners)
            return out
        if op.kind is CommKind.ALLTOALL:
            n = p.num_ranks
            if n == 1:
                return []
            slice_bytes = op.bytes_per_rank // (n - 1)
            return [(r, q, slice_bytes)
                    for r in range(n) for q in range(n) if q != r]
        if op.kind is CommKind.PAIRWISE:
            out = []
            for rank in range(p.num_ranks):
                partner = rank ^ op.partner_stride
                if partner < p.num_ranks and partner != rank:
                    out.append((rank, partner, op.bytes_per_rank))
            return out
        raise ValueError(f"{op.kind} is not a point-to-point pattern")

    def _rank_to_node(self) -> np.ndarray:
        """Per-rank home node, cached (placement is fixed per job)."""
        if self._node_by_rank is None:
            p = self.placement
            self._node_by_rank = np.fromiter(
                (p.node_of(r) for r in range(p.num_ranks)),
                dtype=np.int64, count=p.num_ranks)
        return self._node_by_rank

    def _cost_triples(self, triples: List[Tuple[int, int, int]],
                      balanced: bool, result: CommResult):
        """Per-message reference lowering (the oracle engine)."""
        torus_messages: List[Message] = []
        intra_cycles_per_rank: Dict[int, float] = {}
        for src, dst, size in triples:
            if size == 0:
                continue
            src_node = self.placement.node_of(src)
            dst_node = self.placement.node_of(dst)
            if src_node == dst_node:
                # shared-memory path: L3 copy, no torus, no DDR
                result.intra_node_bytes += size
                intra_cycles_per_rank[src] = (
                    intra_cycles_per_rank.get(src, 0.0)
                    + SHM_OVERHEAD_CYCLES + size / SHM_BYTES_PER_CYCLE)
            else:
                result.inter_node_bytes += size
                torus_messages.append(Message(src_node, dst_node, size))
                lines = int(size * COMM_DDR_FRACTION) // _LINE
                for node in (src_node, dst_node):
                    result.ddr_lines_per_node[node] = (
                        result.ddr_lines_per_node.get(node, 0) + lines)
        phase = self.torus.run_phase(torus_messages, balanced=balanced)
        intra_max = max(intra_cycles_per_rank.values(), default=0.0)
        return phase, intra_max

    def _alltoall_flows(self, op: CommOp, result: CommResult):
        """ALLTOALL as node-pair flows, built from the block placement.

        Every rank sends one ``slice`` to every other rank, so the
        ``c_a * c_b`` messages from node a's ranks to node b's form one
        flow, and flows listed in (a, b) order are in first-message
        order.  Only the intra-node messages are replayed, for the
        shared-memory float accumulation: ``c_a - 1`` equal terms per
        rank, at most three.
        """
        n = self.placement.num_ranks
        empty = np.zeros(0, dtype=np.int64)
        flows = (empty, empty, empty, empty)
        if n == 1:
            return flows, 0.0
        slice_bytes = op.bytes_per_rank // (n - 1)
        if slice_bytes == 0:
            return flows, 0.0
        node_of = self._rank_to_node()
        # runs of consecutive ranks that share a node
        starts = np.flatnonzero(np.diff(node_of, prepend=-1))
        block_node = node_of[starts]
        counts = np.diff(np.append(starts, n))
        if np.bincount(block_node).max() > 1:
            raise ValueError("ALLTOALL lowering needs each node's ranks "
                             "to be consecutive")

        # shared-memory path: the scalar loop's per-rank accumulation
        result.intra_node_bytes += slice_bytes * int(
            (counts * (counts - 1)).sum())
        intra_max = 0.0
        for _ in range(int(counts.max()) - 1):
            intra_max = (intra_max + SHM_OVERHEAD_CYCLES
                         + slice_bytes / SHM_BYTES_PER_CYCLE)

        blocks = len(block_node)
        if blocks == 1:
            return flows, intra_max
        src = np.repeat(block_node, blocks - 1)
        dst = _off_diagonal(np.broadcast_to(block_node, (blocks, blocks)))
        messages = _off_diagonal(np.multiply.outer(counts, counts))
        size = np.broadcast_to(np.int64(slice_bytes), src.shape)
        return (src, dst, size, messages), intra_max

    def _message_flows(self, triples: List[Tuple[int, int, int]],
                       result: CommResult):
        """HALO/PAIRWISE: one flow per inter-node message (O(ranks)).

        The only float accumulation — per-rank shared-memory cycles — is
        replayed as a loop over just the intra-node messages, in the
        scalar message order, so every intermediate rounding matches.
        """
        arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        arr = arr[arr[:, 2] > 0]
        node_of = self._rank_to_node()
        src_node = node_of[arr[:, 0]]
        dst_node = node_of[arr[:, 1]]
        intra = src_node == dst_node

        intra_cycles_per_rank: Dict[int, float] = {}
        for src, sz in zip(arr[intra, 0].tolist(), arr[intra, 2].tolist()):
            intra_cycles_per_rank[src] = (
                intra_cycles_per_rank.get(src, 0.0)
                + SHM_OVERHEAD_CYCLES + sz / SHM_BYTES_PER_CYCLE)
        result.intra_node_bytes += int(arr[intra, 2].sum())
        intra_max = max(intra_cycles_per_rank.values(), default=0.0)

        inter = ~intra
        size = arr[inter, 2]
        return ((src_node[inter], dst_node[inter], size,
                 np.ones_like(size)), intra_max)

    def _cost_flows(self, flows, balanced: bool, result: CommResult):
        """Cost inter-node flows; byte-identical to :meth:`_cost_triples`.

        Bytes and DDR staging lines are exact integer sums over the
        flows.  The per-node DDR dict keeps the oracle's insertion
        order: by the first message touching the node, which charges
        its source before its destination.
        """
        src, dst, size, messages = flows
        result.inter_node_bytes += int(np.dot(size, messages))
        if src.size:
            # DDR staging lines, charged to both endpoints.  int(size *
            # fraction) truncates toward zero; astype(int64) of the same
            # float64 product truncates identically for sizes >= 0.
            lines = ((size * COMM_DDR_FRACTION).astype(np.int64)
                     // _LINE) * messages
            num_nodes = self.topology.num_nodes
            acc = np.zeros(num_nodes, dtype=np.int64)
            np.add.at(acc, src, lines)
            np.add.at(acc, dst, lines)
            # position of each node's first charge in the oracle's
            # (src, dst, src, dst, ...) sequence
            first = np.minimum(2 * first_occurrence(src, num_nodes),
                               2 * first_occurrence(dst, num_nodes) + 1)
            present = np.flatnonzero(first < 2 * src.size)
            acc = acc.tolist()
            for node in present[np.argsort(first[present])].tolist():
                result.ddr_lines_per_node[node] = acc[node]
        return self.torus.run_phase_arrays(src, dst, size, balanced,
                                           messages)

    def run(self, op: CommOp) -> CommResult:
        """Cost one CommOp (including its ``repeats``)."""
        result = CommResult()
        if op.kind in (CommKind.ALLREDUCE, CommKind.BROADCAST):
            coll = (self.collective.allreduce(op.bytes_per_rank)
                    if op.kind is CommKind.ALLREDUCE
                    else self.collective.broadcast(op.bytes_per_rank))
            result.cycles_per_rank = coll.cycles * op.repeats
            result.collective_events = {
                name: count * op.repeats
                for name, count in self.collective.events(coll).items()}
            return result
        if op.kind is CommKind.BARRIER:
            # symmetric BSP ranks arrive together: pure hardware latency
            result.cycles_per_rank = (self.barrier.hardware_latency
                                      * op.repeats)
            return result

        balanced = op.kind is CommKind.ALLTOALL
        if not get_vectorize():
            phase, intra_max = self._cost_triples(
                self._messages_for(op), balanced, result)
        elif op.kind is CommKind.ALLTOALL:
            flows, intra_max = self._alltoall_flows(op, result)
            phase = self._cost_flows(flows, balanced, result)
        else:
            triples = self._messages_for(op)
            if len(triples) >= _VECTOR_MIN_TRIPLES:
                flows, intra_max = self._message_flows(triples, result)
                phase = self._cost_flows(flows, balanced, result)
            else:
                phase, intra_max = self._cost_triples(
                    triples, balanced, result)
        result.cycles_per_rank = (max(phase.cycles, intra_max)
                                  * op.repeats)
        result.torus_events = {
            node: {name: count * op.repeats
                   for name, count in events.items()}
            for node, events in self.torus.phase_events(phase).items()}
        result.ddr_lines_per_node = {
            node: lines * op.repeats
            for node, lines in result.ddr_lines_per_node.items()}
        result.intra_node_bytes *= op.repeats
        result.inter_node_bytes *= op.repeats
        return result
