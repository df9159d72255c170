"""3D torus topology: node coordinates, routing distances, partitions.

Blue Gene/P partitions are 3D tori (mesh with wraparound links).  The
topology maps linear node ids to ``(x, y, z)`` coordinates, computes
wraparound hop distances, and enumerates dimension-ordered routes —
the deterministic X-then-Y-then-Z routing BG/P uses for deadlock
freedom, which the torus cost model needs for link-contention counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

Coord = Tuple[int, int, int]

#: Direction-index -> UPC event suffix (axis * 2 + (step < 0)).
DIRECTION_NAMES = ("XP", "XM", "YP", "YM", "ZP", "ZM")


def partition_shape(num_nodes: int) -> Tuple[int, int, int]:
    """A balanced 3D shape for a partition of ``num_nodes`` nodes.

    Mirrors the standard BG/P partition shapes (32 nodes = 4x4x2,
    128 nodes = 8x4x4, ...), falling back to the most-cubic
    factorisation for other sizes.
    """
    known = {
        1: (1, 1, 1), 2: (2, 1, 1), 4: (2, 2, 1), 8: (2, 2, 2),
        16: (4, 2, 2), 32: (4, 4, 2), 64: (4, 4, 4), 128: (8, 4, 4),
        256: (8, 8, 4), 512: (8, 8, 8), 1024: (16, 8, 8),
    }
    if num_nodes in known:
        return known[num_nodes]
    if num_nodes <= 0:
        raise ValueError(f"partition must have >= 1 node, got {num_nodes}")
    best = (num_nodes, 1, 1)
    best_score = num_nodes  # lower = more cubic
    for x in range(1, num_nodes + 1):
        if num_nodes % x:
            continue
        rest = num_nodes // x
        for y in range(1, rest + 1):
            if rest % y:
                continue
            z = rest // y
            score = max(x, y, z) - min(x, y, z)
            if score < best_score:
                best, best_score = (x, y, z), score
    return best


@dataclass(frozen=True)
class TorusTopology:
    """A ``dims``-shaped 3D torus of compute nodes."""

    dims: Coord

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"invalid torus dims {self.dims}")

    @classmethod
    def for_nodes(cls, num_nodes: int) -> "TorusTopology":
        """A torus of the standard partition shape for ``num_nodes``."""
        return cls(partition_shape(num_nodes))

    @property
    def num_nodes(self) -> int:
        x, y, z = self.dims
        return x * y * z

    # ------------------------------------------------------------------
    def coords(self, node: int) -> Coord:
        """Linear node id -> (x, y, z)."""
        self._check(node)
        x_dim, y_dim, _ = self.dims
        return (node % x_dim, (node // x_dim) % y_dim,
                node // (x_dim * y_dim))

    def node(self, coord: Coord) -> int:
        """(x, y, z) -> linear node id."""
        x, y, z = coord
        x_dim, y_dim, z_dim = self.dims
        if not (0 <= x < x_dim and 0 <= y < y_dim and 0 <= z < z_dim):
            raise ValueError(f"coordinate {coord} outside torus {self.dims}")
        return x + y * x_dim + z * x_dim * y_dim

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} outside torus of {self.num_nodes} nodes")

    # ------------------------------------------------------------------
    def _axis_step(self, src: int, dst: int, size: int) -> int:
        """Signed unit step along one wraparound axis (shortest way)."""
        if src == dst:
            return 0
        forward = (dst - src) % size
        backward = (src - dst) % size
        return 1 if forward <= backward else -1

    def hop_distance(self, a: int, b: int) -> int:
        """Shortest wraparound hop count between two nodes."""
        ca, cb = self.coords(a), self.coords(b)
        total = 0
        for axis in range(3):
            size = self.dims[axis]
            d = abs(ca[axis] - cb[axis])
            total += min(d, size - d)
        return total

    def neighbors(self, node: int) -> List[int]:
        """The (up to) six torus neighbours, deduplicated on small dims."""
        c = list(self.coords(node))
        out = []
        for axis in range(3):
            for step in (+1, -1):
                n = c.copy()
                n[axis] = (n[axis] + step) % self.dims[axis]
                nid = self.node(tuple(n))
                if nid != node and nid not in out:
                    out.append(nid)
        return out

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-ordered (X, Y, Z) route as a list of directed links.

        Each link is a ``(from_node, to_node)`` pair of adjacent nodes.
        Deterministic routing is what makes link contention computable.
        """
        links: List[Tuple[int, int]] = []
        cur = list(self.coords(src))
        target = self.coords(dst)
        here = self.node(tuple(cur))
        for axis in range(3):
            size = self.dims[axis]
            step = self._axis_step(cur[axis], target[axis], size)
            while cur[axis] != target[axis]:
                cur[axis] = (cur[axis] + step) % size
                nxt = self.node(tuple(cur))
                links.append((here, nxt))
                here = nxt
        return links

    def all_nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    # ------------------------------------------------------------------
    def coords_arrays(self, nodes: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`coords`: linear ids -> (x, y, z) arrays."""
        x_dim, y_dim, _ = self.dims
        nodes = np.asarray(nodes, dtype=np.int64)
        return (nodes % x_dim, (nodes // x_dim) % y_dim,
                nodes // (x_dim * y_dim))

    def link_direction(self, src: int, dst: int) -> str:
        """UPC event suffix of the directed link src->dst (e.g. "XP")."""
        cs, cd = self.coords(src), self.coords(dst)
        for axis, name in enumerate("XYZ"):
            if cs[axis] != cd[axis]:
                size = self.dims[axis]
                if (cs[axis] + 1) % size == cd[axis]:
                    return f"{name}P"
                if (cs[axis] - 1) % size == cd[axis]:
                    return f"{name}M"
                raise ValueError(f"{src}->{dst} is not a single hop")
        raise ValueError(f"{src}->{dst} is a self-link")
