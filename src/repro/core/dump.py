"""Per-node binary counter dump format.

``BGP_Finalize`` writes one binary file per node; the post-processing
tools read them all back.  The format is deliberately simple and fully
self-describing so a reader can *validate* a file before trusting it —
the paper's tools "check the data based on the number of records and the
length of each record" (Section IV), and so do ours.

Layout (all integers little-endian)::

    header:
        magic        4s   = b"BGPC"
        version      u32  = 2
        node_id      u32
        mode         u32  counter mode the node ran in
        num_sets     u32
        counters     u32  counters per set (256)
        clock_hz     u64  core clock for time conversions
    per set (num_sets times):
        set_id       u32
        reserved     u32  (zero)
        deltas       256 x u64
    trailer:
        checksum     u64  sum of all delta words mod 2**64
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .events import COUNTERS_PER_MODE
from ..isa.latency import CORE_CLOCK_HZ

MAGIC = b"BGPC"
VERSION = 2

_HEADER = struct.Struct("<4sIIIIIQ")
_SET_HEADER = struct.Struct("<II")
_CHECKSUM = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1


class DumpFormatError(ValueError):
    """Raised when a dump file fails validation."""


def dump_file_size(num_sets: int = 1) -> int:
    """The exact on-disk size of a dump holding ``num_sets`` sets.

    The format is fixed-width (header + per-set records + checksum),
    so the size is a pure function of the set count — which lets the
    batched sweep engine account the Ethernet dump-I/O phase without
    materialising any files (``os.path.getsize`` on a real dump and
    this formula agree by construction).
    """
    record = _SET_HEADER.size + COUNTERS_PER_MODE * 8
    return _HEADER.size + num_sets * record + _CHECKSUM.size


def dump_file_name(node_id: int) -> str:
    """The file name ``BGP_Finalize`` gives node ``node_id``'s dump."""
    return f"bgp_counters_node{node_id:05d}.bin"


@dataclass
class NodeDump:
    """Parsed contents of one per-node dump file."""

    node_id: int
    mode: int
    clock_hz: int
    sets: Dict[int, np.ndarray] = field(default_factory=dict)

    def set_ids(self) -> List[int]:
        """Sorted set ids present in the dump."""
        return sorted(self.sets)

    def deltas(self, set_id: int) -> np.ndarray:
        """The 256 counter deltas of ``set_id``."""
        try:
            return self.sets[set_id]
        except KeyError:
            raise DumpFormatError(
                f"node {self.node_id}: no set {set_id} in dump "
                f"(has {self.set_ids()})") from None


class DumpWriter:
    """Accumulates sets and serializes them into the dump format."""

    def __init__(self, node_id: int, mode: int,
                 clock_hz: int = CORE_CLOCK_HZ):
        self.node_id = node_id
        self.mode = mode
        self.clock_hz = clock_hz
        self._sets: List[tuple] = []

    def add_set(self, set_id: int, deltas: np.ndarray) -> None:
        """Queue one set's 256 deltas for writing."""
        arr = np.asarray(deltas, dtype=np.uint64)
        if arr.shape != (COUNTERS_PER_MODE,):
            raise DumpFormatError(
                f"set {set_id}: expected {COUNTERS_PER_MODE} deltas, "
                f"got shape {arr.shape}")
        self._sets.append((int(set_id), arr.copy()))

    def to_bytes(self) -> bytes:
        """Serialize to the binary format."""
        out = bytearray()
        out += _HEADER.pack(MAGIC, VERSION, self.node_id, self.mode,
                            len(self._sets), COUNTERS_PER_MODE,
                            self.clock_hz)
        checksum = 0
        for set_id, arr in self._sets:
            out += _SET_HEADER.pack(set_id, 0)
            out += arr.astype("<u8").tobytes()
            checksum = (checksum + int(arr.sum(dtype=np.uint64))) & _U64_MASK
        out += _CHECKSUM.pack(checksum)
        return bytes(out)

    def write(self, path: str) -> None:
        """Write the dump file at ``path``."""
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())


def read_dump_bytes(data: bytes) -> NodeDump:
    """Parse and validate a dump from memory."""
    if len(data) < _HEADER.size:
        raise DumpFormatError("dump truncated before header")
    magic, version, node_id, mode, num_sets, counters, clock_hz = (
        _HEADER.unpack_from(data, 0))
    if magic != MAGIC:
        raise DumpFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DumpFormatError(f"unsupported version {version}")
    if counters != COUNTERS_PER_MODE:
        raise DumpFormatError(
            f"unexpected counters-per-set {counters} "
            f"(expected {COUNTERS_PER_MODE})")
    if not 0 <= mode <= 3:
        raise DumpFormatError(f"invalid counter mode {mode}")

    record = _SET_HEADER.size + counters * 8
    expected = _HEADER.size + num_sets * record + _CHECKSUM.size
    if len(data) != expected:
        raise DumpFormatError(
            f"dump length {len(data)} != expected {expected} "
            f"({num_sets} sets x {record}B records)")

    dump = NodeDump(node_id=node_id, mode=mode, clock_hz=clock_hz)
    offset = _HEADER.size
    checksum = 0
    for _ in range(num_sets):
        set_id, reserved = _SET_HEADER.unpack_from(data, offset)
        if reserved != 0:
            raise DumpFormatError(f"set {set_id}: nonzero reserved field")
        if set_id in dump.sets:
            raise DumpFormatError(f"duplicate set id {set_id}")
        offset += _SET_HEADER.size
        arr = np.frombuffer(data, dtype="<u8", count=counters,
                            offset=offset).astype(np.uint64)
        offset += counters * 8
        dump.sets[set_id] = arr
        checksum = (checksum + int(arr.sum(dtype=np.uint64))) & _U64_MASK
    (stored,) = _CHECKSUM.unpack_from(data, offset)
    if stored != checksum:
        raise DumpFormatError(
            f"checksum mismatch: stored {stored:#x}, computed {checksum:#x}")
    return dump


def read_dump(path: str) -> NodeDump:
    """Read and validate the dump file at ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return read_dump_bytes(data)
    except DumpFormatError as exc:
        raise DumpFormatError(f"{path}: {exc}") from None
