"""Post-processing tools: data mining the per-node counter dumps.

Implements the paper's Section IV pipeline: read all files dumped by
each node, validate them (record counts, record lengths, value ranges),
compute the minimum / maximum / arithmetic mean of each of the **512**
logical counters (stitching the even-node-card event set and the
odd-node-card event set back together), evaluate user-defined metrics,
and print records into ``.csv`` files usable from any spreadsheet.
"""

from __future__ import annotations

import csv
import glob
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..parallel import get_vectorize
from .dump import DumpFormatError, NodeDump, read_dump
from .events import (
    COUNTERS_PER_MODE,
    EVENTS_BY_ID,
    EVENTS_BY_NAME,
    Event,
    events_in_mode,
)


@dataclass(frozen=True)
class CounterStats:
    """Cross-node statistics of one logical counter."""

    event: Event
    minimum: int
    maximum: int
    mean: float
    total: int
    node_count: int


class ValidationError(ValueError):
    """Raised when the set of dumps is internally inconsistent."""


def load_dumps(source: str | Iterable[str]) -> List[NodeDump]:
    """Load dumps from a directory or an iterable of file paths.

    Files that fail format validation abort the load — a truncated dump
    silently dropped would bias every statistic computed afterwards.
    """
    if isinstance(source, str):
        paths = sorted(glob.glob(os.path.join(source, "bgp_counters_*.bin")))
        if not paths:
            raise FileNotFoundError(f"no counter dumps under {source!r}")
    else:
        paths = list(source)
    return [read_dump(p) for p in paths]


#: counter values above this are rejected as likely wrap artefacts
_WRAP_CEILING = np.uint64((1 << 64) - (1 << 10))


def validate_dumps(dumps: Sequence[NodeDump]) -> None:
    """Cross-file sanity checks (paper: counts, lengths, value ranges).

    * every node must report the same set ids,
    * node ids must be unique,
    * counter values suspiciously close to 2**64 (within 2**10 of wrap)
      are rejected as likely wrap artefacts.
    """
    _check_node_ids([d.node_id for d in dumps])
    reference = dumps[0].set_ids()
    for d in dumps:
        if d.set_ids() != reference:
            raise ValidationError(
                f"node {d.node_id} has sets {d.set_ids()}, "
                f"expected {reference}")
    _check_wrap([(d.node_id, set_id) for d in dumps for set_id in d.sets],
                [arr for d in dumps for arr in d.sets.values()])


def _check_node_ids(node_ids: Sequence[int]) -> None:
    if not len(node_ids):
        raise ValidationError("no dumps to validate")
    ids = list(node_ids)
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"duplicate node ids in dumps: {dupes}")


def _check_wrap(labels: Sequence[tuple], rows) -> None:
    """Reject values within 2**10 of wrap, reported node by node.

    ``labels[i]`` is the ``(node id, set id)`` of ``rows[i]``; offenders
    are listed in row order, counters ascending within a row.
    """
    if not len(rows):
        return
    matrix = np.asarray(rows)
    high = matrix > _WRAP_CEILING
    if not high.any():
        return
    offenders = [
        f"node {labels[r][0]} set {labels[r][1]} counter {c}: "
        f"value {int(matrix[r, c])}"
        for r, c in zip(*(axis.tolist() for axis in np.nonzero(high)))]
    raise ValidationError(
        "counter values within 2**10 of wrap — likely counter wrap "
        "artefacts:\n  " + "\n  ".join(offenders))


class Aggregation:
    """Cross-node aggregation of one monitoring set.

    Stitches per-mode dumps into the 512-logical-event view: nodes that
    ran in different counter modes (the even/odd node-card policy)
    contribute statistics for *different* events, and the aggregation
    exposes them side by side, keyed by event name.
    """

    def __init__(self, dumps: Sequence[NodeDump], set_id: int = 0,
                 validate: bool = True):
        if validate:
            validate_dumps(dumps)
        self._aggregate([d.node_id for d in dumps], [d.mode for d in dumps],
                        [d.deltas(set_id) for d in dumps], set_id)

    @classmethod
    def from_rows(cls, node_ids: Sequence[int], modes: Sequence[int],
                  rows, set_id: int = 0,
                  validate: bool = True) -> "Aggregation":
        """Aggregate per-node counter rows held in memory.

        ``rows`` is a ``(nodes x 256)`` ``uint64`` matrix (or a sequence
        of 256-vectors): row ``i`` is what node ``node_ids[i]``, counting
        in mode ``modes[i]``, would have dumped for ``set_id``.  The
        result equals ``Aggregation`` over those dumps — same
        validation, same statistics in the same order — without any
        file in between.
        """
        if validate:
            _check_node_ids(node_ids)
            _check_wrap([(node_id, set_id) for node_id in node_ids], rows)
        agg = cls.__new__(cls)
        agg._aggregate(node_ids, modes, rows, set_id)
        return agg

    def _aggregate(self, node_ids: Sequence[int], modes: Sequence[int],
                   rows, set_id: int) -> None:
        """Per-mode statistics over the rows, modes in first-seen order."""
        self.set_id = set_id
        self.nodes_by_mode: Dict[int, List[int]] = {}
        members: Dict[int, List[int]] = {}
        for index, (node_id, mode) in enumerate(zip(node_ids, modes)):
            self.nodes_by_mode.setdefault(mode, []).append(node_id)
            members.setdefault(mode, []).append(index)
        self.stats: Dict[str, CounterStats] = {}
        if get_vectorize():
            # first-seen mode order, counters ascending: the same stats
            # insertion order the per-value loop produces
            matrix = np.asarray(rows)
            for mode, indices in members.items():
                self._stats_for_mode_vector(mode, matrix[indices])
            return
        per_event_values: Dict[int, List[int]] = {}
        for arr, mode in zip(rows, modes):
            base = mode * COUNTERS_PER_MODE
            for counter in range(COUNTERS_PER_MODE):
                per_event_values.setdefault(base + counter, []).append(
                    int(arr[counter]))
        for event_id, values in per_event_values.items():
            ev = EVENTS_BY_ID[event_id]
            self.stats[ev.name] = CounterStats(
                event=ev,
                minimum=min(values),
                maximum=max(values),
                mean=float(np.mean(values)),
                total=int(sum(values)),
                node_count=len(values),
            )

    #: exact-integer ceiling for float64: column means can be computed
    #: as total / n only while the exact total is below this
    _MEAN_EXACT_LIMIT = 1 << 53

    def _stats_for_mode_vector(self, mode: int,
                               matrix: np.ndarray) -> None:
        """Batched per-mode statistics; byte-identical to the scalar loop.

        Mins/maxes/totals are integer-exact axis reductions (totals via
        a 32-bit split so uint64 column sums cannot wrap).  A column
        mean equals ``total / n`` in float64 whenever the exact total is
        below 2**53 — every addend and partial sum is then an exactly
        representable integer, so any summation order (including
        np.mean's pairwise one) yields the same value.  Columns at or
        above that limit fall back to np.mean over the same value list
        the scalar path builds.
        """
        n = matrix.shape[0]
        # Python ints straight from .tolist(): no NumPy scalar per cell
        mins = matrix.min(axis=0).tolist()
        maxs = matrix.max(axis=0).tolist()
        lo = (matrix & np.uint64(0xFFFFFFFF)).astype(np.int64)
        hi = (matrix >> np.uint64(32)).astype(np.int64)
        lo_sum = lo.sum(axis=0, dtype=np.int64).tolist()
        hi_sum = hi.sum(axis=0, dtype=np.int64).tolist()
        totals = [(h << 32) + l for h, l in zip(hi_sum, lo_sum)]
        means = [float(total) / n if total < self._MEAN_EXACT_LIMIT
                 else float(np.mean(matrix[:, counter].tolist()))
                 for counter, total in enumerate(totals)]
        events = events_in_mode(mode)
        self.stats.update(zip(
            [ev.name for ev in events],
            map(CounterStats, events, mins, maxs, means, totals,
                repeat(n))))

    @classmethod
    def from_stats(cls, set_id: int,
                   nodes_by_mode: Mapping[int | str, Sequence[int]],
                   stats: Mapping[str, Sequence]) -> "Aggregation":
        """Rebuild an aggregation from serialised statistics.

        Inverse of the checkpoint layer's encoding: ``stats`` maps each
        event name to its ``[min, max, mean, total, node_count]`` row
        (JSON turns ``nodes_by_mode`` keys into strings; both forms are
        accepted).  Validation already ran when the original dumps were
        aggregated, so none is repeated here.
        """
        agg = cls.__new__(cls)
        agg.set_id = set_id
        agg.nodes_by_mode = {int(mode): [int(n) for n in nodes]
                             for mode, nodes in nodes_by_mode.items()}
        agg.stats = {}
        for name, row in stats.items():
            minimum, maximum, mean, total, node_count = row
            agg.stats[name] = CounterStats(
                event=EVENTS_BY_NAME[name],
                minimum=int(minimum),
                maximum=int(maximum),
                mean=float(mean),
                total=int(total),
                node_count=int(node_count),
            )
        return agg

    # ------------------------------------------------------------------
    def __contains__(self, event_name: str) -> bool:
        return event_name in self.stats

    def __getitem__(self, event_name: str) -> CounterStats:
        try:
            return self.stats[event_name]
        except KeyError:
            raise KeyError(
                f"event {event_name!r} was not monitored in this run "
                f"(modes present: {sorted(self.nodes_by_mode)})") from None

    def totals(self, group: Optional[str] = None) -> Dict[str, int]:
        """Whole-machine totals keyed by event name.

        ``group`` filters to one event group (e.g. ``"fpu"``).
        """
        return {name: s.total for name, s in self.stats.items()
                if group is None or s.event.group == group}

    def means(self) -> Dict[str, float]:
        """Per-node means keyed by event name."""
        return {name: s.mean for name, s in self.stats.items()}

    def metric(self, fn: Callable[[Mapping[str, int]], float]) -> float:
        """Evaluate a user-defined metric over the whole-machine totals."""
        return fn(self.totals())


def aggregate(dumps: Sequence[NodeDump], set_id: int = 0) -> Aggregation:
    """Convenience constructor for :class:`Aggregation`."""
    return Aggregation(dumps, set_id=set_id)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------
def write_stats_csv(agg: Aggregation, path: str,
                    include_reserved: bool = False) -> int:
    """Write per-event statistics as CSV; returns the row count.

    One row per monitored event: name, group, mode, counter, min, max,
    mean, total, nodes — the "statistics of all the 512 counters" output
    the paper's tools produce for spreadsheet work.
    """
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event", "group", "mode", "counter",
                         "min", "max", "mean", "total", "nodes"])
        for name in sorted(agg.stats):
            s = agg.stats[name]
            if not include_reserved and s.event.group == "reserved":
                continue
            writer.writerow([name, s.event.group, s.event.mode,
                             s.event.counter, s.minimum, s.maximum,
                             f"{s.mean:.3f}", s.total, s.node_count])
            rows += 1
    return rows


def write_metrics_csv(records: Sequence[Mapping[str, object]],
                      path: str) -> int:
    """Write one metrics record per application run, as the paper does.

    ``records`` is a list of dicts sharing the same keys ("The relevant
    metrics selected by the user are printed as a record for each
    application into .csv files").
    """
    if not records:
        raise ValueError("no records to write")
    keys = list(records[0].keys())
    for rec in records[1:]:
        if list(rec.keys()) != keys:
            raise ValueError(
                f"inconsistent record keys: {list(rec.keys())} vs {keys}")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(records)
    return len(records)


def write_raw_csv(dumps: Sequence[NodeDump], path: str,
                  set_id: int = 0) -> int:
    """Dump every counter value read in every node into one massive CSV.

    This mirrors the paper's "print every counter value read in every
    node into one massive .csv file" option; returns the row count.
    """
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "mode", "event", "counter", "value"])
        for d in sorted(dumps, key=lambda d: d.node_id):
            arr = d.deltas(set_id)
            base = d.mode * COUNTERS_PER_MODE
            for counter in range(COUNTERS_PER_MODE):
                ev = EVENTS_BY_ID[base + counter]
                writer.writerow([d.node_id, d.mode, ev.name, counter,
                                 int(arr[counter])])
                rows += 1
    return rows
