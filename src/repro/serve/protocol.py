"""The simulation service's thin JSON protocol.

A request is a JSON document describing either a *sweep* (a list of
sweep points, each naming a benchmark, compiler flag set, L3 size,
problem class and placement kind) or an *experiment* (one id from the
paper-figure catalog).  Everything is validated here, before any
simulation work is scheduled: unknown benchmarks, flag sets, modes or
experiment ids are a 400, never a crash mid-simulation.

Caching contract: every valid request has a **canonical form** — a
minimal, key-sorted JSON document — and its cache key is that document
qualified by :func:`repro.parallel.cache_context` (active performance
group, ``set_vectorize`` engine state, cache schema version).  Two
requests with the same canonical form under the same context are
byte-identical by construction, so the service can answer the second
one straight from the shared tier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..checkpoint import digest
from ..compiler import FlagSet, O3, O4, O5, O_base
from ..npb import BENCHMARK_ORDER
from ..parallel import cache_context

#: Version of the request/response wire format.
PROTOCOL_VERSION = 1

#: Requestable compiler flag sets, keyed by wire name (the paper's
#: Figure 7-10 sweep vocabulary).
FLAG_SETS: Dict[str, FlagSet] = {
    "O": O_base(),
    "O3": O3(),
    "O3-440d": O3(qarch440d=True),
    "O4": O4(),
    "O5": O5(),
}

#: Placement kinds a sweep point may ask for.
POINT_KINDS = ("vnm", "smp1", "scaled")

PROBLEM_CLASSES = ("S", "W", "A", "B", "C")

#: Hard bound on points per request: a request is one figure's worth
#: of work, not a denial-of-service vector.
MAX_POINTS = 256

#: Experiment ids that cannot be served: fault injection perturbs
#: results by design, so its audit runner never rides the shared tier.
UNSERVABLE_EXPERIMENTS = frozenset({"fault-audit"})


class RequestError(ValueError):
    """A request failed validation (rendered as HTTP 400)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RequestError(msg)


def _str_field(data: Mapping, name: str, default: Any = None) -> Any:
    value = data.get(name, default)
    _require(value is not None, f"missing required field {name!r}")
    return value


@dataclass(frozen=True)
class SweepPoint:
    """One validated simulation request: a single sweep point."""

    kind: str = "vnm"
    code: str = "MG"
    flags: str = "O5"
    l3_mb: int = 8
    problem_class: str = "C"
    num_ranks: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Any, index: int) -> "SweepPoint":
        _require(isinstance(data, Mapping),
                 f"points[{index}] must be an object")
        where = f"points[{index}]"
        kind = data.get("kind", "vnm")
        _require(kind in POINT_KINDS,
                 f"{where}.kind must be one of {list(POINT_KINDS)}, "
                 f"got {kind!r}")
        code = str(_str_field(data, "code")).upper()
        _require(code in BENCHMARK_ORDER,
                 f"{where}.code must be one of {list(BENCHMARK_ORDER)}, "
                 f"got {code!r}")
        flags = data.get("flags", "O5")
        _require(flags in FLAG_SETS,
                 f"{where}.flags must be one of {sorted(FLAG_SETS)}, "
                 f"got {flags!r}")
        l3_mb = data.get("l3_mb", 8 if kind != "smp1" else 2)
        _require(isinstance(l3_mb, int) and not isinstance(l3_mb, bool)
                 and 0 <= l3_mb <= 64,
                 f"{where}.l3_mb must be an integer in [0, 64], "
                 f"got {l3_mb!r}")
        problem_class = str(data.get("problem_class", "C")).upper()
        _require(problem_class in PROBLEM_CLASSES,
                 f"{where}.problem_class must be one of "
                 f"{list(PROBLEM_CLASSES)}, got {problem_class!r}")
        num_ranks = data.get("num_ranks")
        if kind == "scaled":
            _require(isinstance(num_ranks, int)
                     and not isinstance(num_ranks, bool)
                     and 1 <= num_ranks <= 4096,
                     f"{where}.num_ranks must be an integer in "
                     f"[1, 4096] for kind 'scaled', got {num_ranks!r}")
        else:
            _require(num_ranks is None,
                     f"{where}.num_ranks is only valid for kind "
                     f"'scaled' (the paper partitions fix the others)")
        return cls(kind=kind, code=code, flags=flags, l3_mb=l3_mb,
                   problem_class=problem_class, num_ranks=num_ranks)

    def flag_set(self) -> FlagSet:
        return FLAG_SETS[self.flags]

    def canonical(self) -> Dict[str, Any]:
        """Minimal stable form (defaults materialised, keys sorted by
        the canonical JSON encoder)."""
        doc: Dict[str, Any] = {
            "kind": self.kind, "code": self.code, "flags": self.flags,
            "l3_mb": self.l3_mb, "problem_class": self.problem_class,
        }
        if self.num_ranks is not None:
            doc["num_ranks"] = self.num_ranks
        return doc


@dataclass(frozen=True)
class SweepRequest:
    """A validated ``POST /v1/sweep`` body."""

    points: Tuple[SweepPoint, ...]

    @classmethod
    def from_dict(cls, data: Any) -> "SweepRequest":
        _require(isinstance(data, Mapping), "request body must be an "
                 "object with a 'points' array")
        points = data.get("points")
        _require(isinstance(points, (list, tuple)) and points,
                 "'points' must be a non-empty array")
        _require(len(points) <= MAX_POINTS,
                 f"at most {MAX_POINTS} points per request, "
                 f"got {len(points)}")
        return cls(points=tuple(SweepPoint.from_dict(p, i)
                                for i, p in enumerate(points)))

    def canonical(self) -> Dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "request": "sweep",
                "points": [p.canonical() for p in self.points]}


@dataclass(frozen=True)
class ExperimentRequest:
    """A validated ``POST /v1/experiment`` body."""

    experiment_id: str

    @classmethod
    def from_dict(cls, data: Any, known_ids) -> "ExperimentRequest":
        _require(isinstance(data, Mapping), "request body must be an "
                 "object with an 'id' field")
        experiment_id = _str_field(data, "id")
        _require(isinstance(experiment_id, str),
                 f"'id' must be a string, got {experiment_id!r}")
        _require(experiment_id not in UNSERVABLE_EXPERIMENTS,
                 f"experiment {experiment_id!r} cannot be served "
                 "(fault injection never rides the shared cache)")
        _require(experiment_id in known_ids,
                 f"unknown experiment {experiment_id!r}; "
                 f"available: {sorted(set(known_ids) - UNSERVABLE_EXPERIMENTS)}")
        return cls(experiment_id=experiment_id)

    def canonical(self) -> Dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "request": "experiment",
                "id": self.experiment_id}


# ---------------------------------------------------------------------------
# content-addressed cache keys
# ---------------------------------------------------------------------------
def canonical_json(doc: Mapping) -> str:
    """The canonical wire encoding: key-sorted, separator-minimal."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def request_cache_key(canonical: Mapping) -> Tuple:
    """The shared-tier key of one request: canonical form + context.

    The context (:func:`repro.parallel.cache_context`) folds in the
    active performance group, the vectorize engine switch and the
    cache schema version, so a response cached under one configuration
    is invisible under any other.
    """
    return (cache_context(), canonical_json(canonical))


def request_hash(canonical: Mapping) -> str:
    """Short content hash of a request (request ids, telemetry)."""
    return digest(request_cache_key(canonical))[:16]
