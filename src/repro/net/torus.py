"""The 3D torus data network: latency, bandwidth, link contention.

The torus is BG/P's main data network: 6 bidirectional links per node,
dimension-ordered routing, highest throughput to nearest neighbours.
The cost model for a communication *phase* (a set of messages injected
together, which is how BSP applications drive the network):

* every message pays per-hop latency along its route;
* every directed link serialises the bytes of all messages routed over
  it; the phase completes when the most-loaded link drains;
* per-node packet counts per direction feed the mode-3 UPC events.

Bytes on the wire are *packetised*: a message occupies its links for
``packets * packet_bytes`` (header-padded) bytes, not for its raw
payload size — sub-packet messages still burn a whole packet slot.

Two phase engines are provided.  :meth:`TorusNetwork.run_phase_scalar`
is the per-message Python loop — the oracle.  The flow engine
(:meth:`TorusNetwork.run_phase_arrays`) costs *node-pair flows*: each
flow is ``messages`` equal-sized messages between one pair of nodes,
so every message of a flow shares its route.  Link loads never expand
a route hop by hop.  Dimension-ordered routing walks each axis in one
straight *segment* along a torus ring (X on ring (sy, sz) from sx, Y
on ring (dx, sz) from sy, Z on ring (dx, dy) from sz), so per axis the
flows scatter onto (segment start, hop count, direction) keys and a
walk over at most ``size // 2`` hop offsets turns the segments into
per-link loads.  The engine is byte-identical to the oracle — every
accumulated quantity is an exact integer, and hop cycles are an exact
integer sum because ``hop_latency_cycles`` must be integral — enforced
by the randomized identity suite in ``tests/test_machine_vec.py``.
:meth:`TorusNetwork.run_phase` dispatches on the process-wide engine
switch (:func:`repro.parallel.get_vectorize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as _metrics
from ..obs.tracer import span as _span
from ..parallel import get_vectorize
from .topology import DIRECTION_NAMES, TorusTopology

_PHASES = _metrics.counter("net.torus_phases")
_PACKETS = _metrics.counter("net.torus_packets")
_PHASE_CYCLES = _metrics.histogram("net.torus_phase_cycles")

#: Below this many messages the scalar loop beats the array passes'
#: fixed setup cost; identity between the engines makes the threshold a
#: pure performance knob.
_VECTOR_MIN_MESSAGES = 16


def first_occurrence(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """Index of each key's first occurrence in ``keys`` (ints in
    ``[0, num_keys)``); ``len(keys)`` for keys that never occur.

    One O(len(keys)) ``np.minimum.at`` pass, no sort over the keys.
    """
    first = np.full(num_keys, len(keys), dtype=np.int64)
    np.minimum.at(first, keys, np.arange(len(keys), dtype=np.int64))
    return first


def first_occurrence_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """The distinct values of ``keys`` in order of first occurrence: the
    insertion order of a dict filled in ``keys`` order."""
    first = first_occurrence(keys, num_keys)
    present = np.flatnonzero(first < len(keys))
    return present[np.argsort(first[present])]


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer in a communication phase."""

    src: int
    dst: int
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("message size must be >= 0")


@dataclass(frozen=True)
class TorusConfig:
    """Torus link parameters, in core-clock cycles and bytes.

    BG/P torus links run at 425 MB/s per direction; at 850 MHz that is
    0.5 bytes per core cycle.  Hop latency is ~64 ns hardware + routing,
    ~55 core cycles.
    """

    bytes_per_cycle: float = 0.5
    hop_latency_cycles: float = 55.0
    packet_bytes: int = 256
    #: software (MPI) overhead per message, cycles
    software_overhead_cycles: float = 900.0

    def __post_init__(self):
        if self.bytes_per_cycle <= 0 or self.packet_bytes <= 0:
            raise ValueError("invalid torus configuration")
        # an integral latency makes every per-message hop term an exact
        # integer, so the flow engine's integer sum equals the oracle's
        # ordered float sum (below 2**53 cycles)
        if not float(self.hop_latency_cycles).is_integer():
            raise ValueError(
                f"hop_latency_cycles must be integral, got "
                f"{self.hop_latency_cycles!r}")


@dataclass
class PhaseResult:
    """Outcome of one communication phase on the torus."""

    cycles: float = 0.0
    max_link_bytes: int = 0
    total_packets: int = 0
    #: per-node, per-direction packet counts: node -> {"XP": n, ...}
    sent: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: packets received per node
    received: Dict[int, int] = field(default_factory=dict)
    #: cumulative packet-hops (feeds BGP_TORUS_HOP_CYCLES)
    hop_cycles: float = 0.0


class TorusNetwork:
    """Cost + event model of the torus for phase-structured traffic."""

    def __init__(self, topology: TorusTopology,
                 config: TorusConfig = TorusConfig()):
        self.topology = topology
        self.config = config
        self._tables: Optional[dict] = None

    def packets(self, size_bytes: int) -> int:
        """Packets needed for a message (minimum one for the header)."""
        if size_bytes == 0:
            return 0
        return -(-size_bytes // self.config.packet_bytes)

    def message_cost(self, msg: Message) -> float:
        """Cycles for one message on an otherwise idle network."""
        if msg.src == msg.dst:
            return 0.0  # intra-node: handled by shared memory, not torus
        hops = self.topology.hop_distance(msg.src, msg.dst)
        # packetised wire time: the link serialises whole (header-padded)
        # packets, consistent with packets() and the link-bytes charge
        wire = (self.packets(msg.size_bytes) * self.config.packet_bytes
                / self.config.bytes_per_cycle)
        return (self.config.software_overhead_cycles
                + hops * self.config.hop_latency_cycles + wire)

    def run_phase(self, messages: Sequence[Message],
                  balanced: bool = False,
                  engine: Optional[str] = None) -> PhaseResult:
        """Cost and events of a set of messages injected together.

        ``balanced=True`` models BG/P's optimised dense collectives
        (e.g. MPI_Alltoall), which spread traffic over all six links of
        every node instead of following deterministic dimension-order
        routes: the phase then drains at node-aggregate bandwidth, with
        per-link hotspots averaged away.

        ``engine`` forces ``"scalar"`` or ``"vector"``; the default
        picks the flow engine (one flow per message) for phases large
        enough to amortise its setup when
        :func:`repro.parallel.get_vectorize` is on.  Both engines return
        byte-identical results.
        """
        if engine is None:
            engine = ("vector" if get_vectorize()
                      and len(messages) >= _VECTOR_MIN_MESSAGES
                      else "scalar")
        if engine not in ("scalar", "vector"):
            raise ValueError(f"unknown phase engine {engine!r}")
        _PHASES.inc()
        charge_span = _span("net.torus.phase", messages=len(messages),
                            balanced=balanced, engine=engine)
        if engine == "vector":
            result = self._phase_vector(messages, balanced)
        else:
            result = self._phase_scalar(messages, balanced)
        return self._charged(result, charge_span)

    def run_phase_scalar(self, messages: Sequence[Message],
                         balanced: bool = False) -> PhaseResult:
        """The per-message reference engine (the oracle)."""
        return self.run_phase(messages, balanced, engine="scalar")

    def run_phase_vector(self, messages: Sequence[Message],
                         balanced: bool = False) -> PhaseResult:
        """The flow engine, one flow per message; byte-identical to the
        oracle."""
        return self.run_phase(messages, balanced, engine="vector")

    def run_phase_arrays(self, src: np.ndarray, dst: np.ndarray,
                         size: np.ndarray, balanced: bool = False,
                         messages: Optional[np.ndarray] = None
                         ) -> PhaseResult:
        """The flow engine fed node-pair flows directly.

        Flow ``i`` is ``messages[i]`` messages (one each when
        ``messages`` is None) of ``size[i]`` bytes each from node
        ``src[i]`` to node ``dst[i]``.  Flows must come in first-message
        order: the result equals ``run_phase`` over the flows' messages
        listed in that order, dict insertion orders included, without
        materialising them — the MPI layer's entry point.
        """
        size = np.asarray(size, dtype=np.int64)
        messages = (np.ones_like(size) if messages is None
                    else np.asarray(messages, dtype=np.int64))
        if size.size and (int(size.min()) < 0 or int(messages.min()) < 1):
            raise ValueError("a flow needs >= 1 message of >= 0 bytes")
        _PHASES.inc()
        charge_span = _span("net.torus.phase", messages=int(messages.sum()),
                            flows=int(size.size), balanced=balanced,
                            engine="vector")
        result = self._phase_flows(np.asarray(src, dtype=np.int64),
                                   np.asarray(dst, dtype=np.int64),
                                   size, messages, balanced)
        return self._charged(result, charge_span)

    @staticmethod
    def _charged(result: PhaseResult, charge_span) -> PhaseResult:
        """Record a finished phase on the metrics and its span."""
        _PACKETS.inc(result.total_packets)
        _PHASE_CYCLES.observe(result.cycles)
        charge_span.set("cycles", result.cycles)
        charge_span.set("packets", result.total_packets)
        charge_span.end()
        return result

    # ------------------------------------------------------------------
    def _phase_scalar(self, messages: Sequence[Message],
                      balanced: bool) -> PhaseResult:
        result = PhaseResult()
        link_bytes: Dict[Tuple[int, int], int] = {}
        worst_message = 0.0
        for msg in messages:
            if msg.src == msg.dst or msg.size_bytes == 0:
                continue
            route = self.topology.route(msg.src, msg.dst)
            pkts = self.packets(msg.size_bytes)
            result.total_packets += pkts
            result.received[msg.dst] = result.received.get(msg.dst, 0) + pkts
            result.hop_cycles += (len(route) * pkts
                                  * self.config.hop_latency_cycles)
            worst_message = max(worst_message, self.message_cost(msg))
            # links serialise whole packets: header padding occupies the
            # wire exactly like payload (sub-packet messages burn a full
            # packet slot per link)
            wire_bytes = pkts * self.config.packet_bytes
            for link in route:
                link_bytes[link] = link_bytes.get(link, 0) + wire_bytes
            # the injecting node's directional counter
            first = route[0]
            direction = self.topology.link_direction(*first)
            node_sent = result.sent.setdefault(msg.src, {})
            node_sent[direction] = node_sent.get(direction, 0) + pkts
        max_link = max(link_bytes.values()) if link_bytes else 0
        total_link = sum(link_bytes.values())
        self._finish_phase(result, max_link, total_link, worst_message,
                           balanced)
        return result

    def _phase_vector(self, messages: Sequence[Message],
                      balanced: bool) -> PhaseResult:
        n = len(messages)
        src = np.fromiter((m.src for m in messages), dtype=np.int64,
                          count=n)
        dst = np.fromiter((m.dst for m in messages), dtype=np.int64,
                          count=n)
        size = np.fromiter((m.size_bytes for m in messages),
                           dtype=np.int64, count=n)
        # one flow per message: listed order is first-message order
        return self._phase_flows(src, dst, size, np.ones_like(size),
                                 balanced)

    def _route_tables(self) -> dict:
        """Lookup tables of dimension-ordered routing, by relative offset.

        Nodes are packed with one mixed-radix digit per axis (radix
        ``2 * size``), so ``packed[dst] - packed[src] + offset`` holds
        each axis' coordinate delta as the digit ``delta + size``, with
        no borrow: that one offset indexes tables of ``8 * num_nodes``
        entries that describe the flow's whole route.  Per offset:

        ``hops``
            total hop count;
        ``first_dir``
            direction index of the route's first link;
        ``seg``
            per axis ``(from_dst, code)``: the axis' segment key (see
            :meth:`_link_loads`) is ``base * 2 * width + code[rel]``,
            with ``base`` the destination node if ``from_dst`` else the
            source node and ``width = size // 2 + 1`` hop counts.  The
            code is ``hops * 2 + backward`` plus the segment start's
            offset from ``base``: X starts at the source, Y at the
            source moved to the destination's X, Z at the destination
            moved back to the source's Z.
        """
        if self._tables is not None:
            return self._tables
        dims = self.topology.dims
        x_dim, y_dim, _ = dims
        radix = (1, 2 * x_dim, 4 * x_dim * y_dim)
        coords = self.topology.coords_arrays(
            np.arange(self.topology.num_nodes))
        grid = np.indices([2 * d for d in reversed(dims)]).reshape(3, -1)
        delta = [grid[2 - axis] - dims[axis] for axis in range(3)]
        hops = np.zeros(grid.shape[1], dtype=np.int64)
        first_dir = np.zeros(grid.shape[1], dtype=np.int64)
        seg = []
        for axis, size in enumerate(dims):
            forward = delta[axis] % size
            backward = (-delta[axis]) % size
            # shortest way, forward on ties — matches _axis_step
            back = forward > backward
            axis_hops = np.where(back, backward, forward)
            first_dir = np.where((hops == 0) & (axis_hops > 0),
                                 axis * 2 + back, first_dir)
            hops += axis_hops
            width2 = 2 * (size // 2 + 1)
            code = axis_hops * 2 + back
            if axis == 1:
                code += delta[0] * width2
            elif axis == 2:
                code -= delta[2] * (x_dim * y_dim) * width2
            seg.append((axis == 2, code))
        self._tables = {
            "packed": sum(c * r for c, r in zip(coords, radix)),
            "offset": sum(d * r for d, r in zip(dims, radix)),
            "hops": hops, "first_dir": first_dir, "seg": seg}
        return self._tables

    def _relative(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Each flow's index into the :meth:`_route_tables` tables."""
        tables = self._route_tables()
        rel = tables["packed"][dst] - tables["packed"][src]
        rel += tables["offset"]
        return rel

    def _phase_flows(self, src: np.ndarray, dst: np.ndarray,
                     size: np.ndarray, messages: np.ndarray,
                     balanced: bool) -> PhaseResult:
        result = PhaseResult()
        live = (src != dst) & (size > 0)
        if not live.all():
            src, dst = src[live], dst[live]
            size, messages = size[live], messages[live]
        if len(src) == 0:
            self._finish_phase(result, 0, 0, 0.0, balanced)
            return result

        cfg = self.config
        num_nodes = self.topology.num_nodes
        tables = self._route_tables()
        rel = self._relative(src, dst)
        hops = tables["hops"][rel]
        pkts = (size + (cfg.packet_bytes - 1)) // cfg.packet_bytes
        packets = pkts * messages  # per flow

        result.total_packets = int(packets.sum())
        # every oracle hop term is an exact integer (integral latency),
        # so its ordered float sum is this exact integer sum
        hop_packets = int(np.dot(hops, packets))
        result.hop_cycles = float(int(cfg.hop_latency_cycles)
                                  * hop_packets)
        # message_cost is monotone in the packet count, so the worst
        # message has, for some hop count, that count's largest packets
        top = np.zeros(int(hops.max()) + 1, dtype=np.int64)
        np.maximum.at(top, hops, pkts)
        reached = np.flatnonzero(top)
        wire = (top[reached] * cfg.packet_bytes) / cfg.bytes_per_cycle
        costs = (cfg.software_overhead_cycles
                 + reached * cfg.hop_latency_cycles + wire)
        worst_message = float(costs.max())

        max_link = int(self._link_loads(src, dst, rel,
                                        packets * cfg.packet_bytes).max())

        # received/sent dicts in the oracle's insertion order: flows come
        # in first-message order, so a key's first flow holds its first
        # message
        recv_acc = np.zeros(num_nodes, dtype=np.int64)
        np.add.at(recv_acc, dst, packets)
        recv_acc = recv_acc.tolist()
        for node in first_occurrence_order(dst, num_nodes).tolist():
            result.received[node] = recv_acc[node]

        sent_key = src * 6
        sent_key += tables["first_dir"][rel]
        sent_acc = np.zeros(num_nodes * 6, dtype=np.int64)
        np.add.at(sent_acc, sent_key, packets)
        sent_acc = sent_acc.tolist()
        for key in first_occurrence_order(sent_key, num_nodes * 6).tolist():
            node, direction = divmod(key, 6)
            node_sent = result.sent.setdefault(node, {})
            node_sent[DIRECTION_NAMES[direction]] = sent_acc[key]

        self._finish_phase(result, max_link,
                           hop_packets * cfg.packet_bytes, worst_message,
                           balanced)
        return result

    def _link_loads(self, src: np.ndarray, dst: np.ndarray,
                    rel: np.ndarray, wire_bytes: np.ndarray) -> np.ndarray:
        """Bytes on every directed link, ``(num_nodes, 6)`` by (from
        node, direction index), by segment aggregation.

        A flow's hops along one axis form a straight segment of one
        ring.  Segments that share (start node, hop count, direction)
        load the same links, so the flows first scatter onto those keys
        (an exact int64 ``np.add.at``); hop ``j`` of every segment with
        more than ``j`` hops then loads the link ``j`` steps from its
        start: one ``np.roll`` along the rings per hop offset.
        """
        dims = self.topology.dims
        x_dim, y_dim, z_dim = dims
        loads = np.zeros((z_dim, y_dim, x_dim, 6), dtype=np.int64)
        for axis, (from_dst, code) in enumerate(self._route_tables()["seg"]):
            if dims[axis] == 1:
                continue
            width = dims[axis] // 2 + 1  # hop counts 0 .. size // 2
            key = (dst if from_dst else src) * (2 * width)
            key += code[rel]
            seg = np.zeros(self.topology.num_nodes * width * 2,
                           dtype=np.int64)
            np.add.at(seg, key, wire_bytes)
            # (z, y, x, hops, backward) grid; the ring runs along array
            # axis ``2 - axis``
            seg = seg.reshape(z_dim, y_dim, x_dim, width, 2)
            # reach[..., j, :]: bytes of the segments with >= j hops
            reach = np.cumsum(seg[..., ::-1, :], axis=3)[..., ::-1, :]
            ring = 2 - axis
            for j in range(width - 1):
                # hop j (0-based) of every segment with more than j hops
                loads[..., 2 * axis] += np.roll(reach[..., j + 1, 0], j,
                                                axis=ring)
                loads[..., 2 * axis + 1] += np.roll(reach[..., j + 1, 1],
                                                    -j, axis=ring)
        return loads.reshape(-1, 6)

    def _finish_phase(self, result: PhaseResult, max_link_bytes: int,
                      total_link_bytes: int, worst_message: float,
                      balanced: bool) -> None:
        """Common tail: serialisation + phase cycles from link loads."""
        result.max_link_bytes = max_link_bytes
        if balanced and max_link_bytes:
            # node-aggregate drain: total link traffic spread over every
            # directed link actually available
            links = 6 * self.topology.num_nodes
            serialization = (total_link_bytes / links
                             / self.config.bytes_per_cycle)
            # hotspots never average out perfectly
            serialization = max(serialization,
                                0.25 * result.max_link_bytes
                                / self.config.bytes_per_cycle)
        else:
            serialization = (result.max_link_bytes
                             / self.config.bytes_per_cycle)
        result.cycles = max(worst_message, serialization)

    # ------------------------------------------------------------------
    def phase_events(self, result: PhaseResult) -> Dict[int, Dict[str, int]]:
        """Mode-3 UPC event pulses per node for a finished phase."""
        events: Dict[int, Dict[str, int]] = {}
        for node, directions in result.sent.items():
            node_ev = events.setdefault(node, {})
            for direction, pkts in directions.items():
                node_ev[f"BGP_TORUS_{direction}_PACKETS"] = (
                    node_ev.get(f"BGP_TORUS_{direction}_PACKETS", 0) + pkts)
        for node, pkts in result.received.items():
            node_ev = events.setdefault(node, {})
            node_ev["BGP_TORUS_RECV_PACKETS"] = (
                node_ev.get("BGP_TORUS_RECV_PACKETS", 0) + pkts)
        return events
