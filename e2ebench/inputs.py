"""Seeded inputs of the ``jobs-distinct`` and ``serve-mixed`` workloads.

The benchmark ships ``NUM_INPUT_SETS`` input sets; ``--seed N`` selects
set ``N % NUM_INPUT_SETS``, so every seed has reference digests.  Set
``HELD_BACK`` was never run while the benchmark was tuned.

Both generators are stratified so that the work of a pass barely
depends on the seed: the seed picks flags, L3 sizes, counter modes and
which points a request names, never how many expensive jobs or points
a pass holds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

NUM_INPUT_SETS = 16
HELD_BACK = 15

KERNELS = ("MG", "FT", "EP", "CG", "IS", "LU", "SP", "BT")
#: Kernels whose exchange is all-to-all: their cost grows with ranks².
ALLTOALL = ("FT", "IS")
#: Kernels that need a square rank count.
SQUARE = ("SP", "BT")
MODES = ("VNM", "DUAL", "SMP1", "SMP4")
PROCS_PER_NODE = {"VNM": 4, "DUAL": 2, "SMP1": 1, "SMP4": 1}
#: The paper's compiler sweep, by ``FlagSet.label``.
FLAG_LABELS = ("-O -qstrict", "-O3", "-O3 -qarch=440d",
               "-O4 -qarch=440d", "-O5 -qarch=440d")
L3_MB = (0, 2, 4, 6, 8)
COUNTER_MODES = ((0, 2), (1, 3))

#: Partition size of each tier in nodes (ranks = nodes x procs per
#: node) ...
NODE_TIERS = (8, 32, 96, 256)
#: ... except for all-to-all kernels, sized in ranks.
ALLTOALL_RANK_TIERS = (32, 64, 192, 512)
#: Tier whose jobs run sampled and inside a marker region.
SAMPLED_TIER = 1
#: Timeline sampling period of the sampled jobs, in simulated cycles.
SAMPLE_EVERY = 8_000_000
#: Flags, L3 size and counter modes of the sampled jobs.  Sampling cost
#: grows with the simulated run time, which rank count, flags and L3
#: size change several-fold, and the sampled events are counted only in
#: modes 0 and 2.  So the sampled tier has one size and these stay
#: fixed: the pass time must not depend on the seed.
SAMPLED_FLAGS = "-O5 -qarch=440d"
SAMPLED_L3_MB = 8
SAMPLED_COUNTER_MODES = (0, 2)


def input_set(seed: int) -> int:
    return seed % NUM_INPUT_SETS


def _ranks(code: str, mode: str, tier: int) -> int:
    if code in ALLTOALL:
        ranks = ALLTOALL_RANK_TIERS[tier]
    else:
        ranks = NODE_TIERS[tier] * PROCS_PER_NODE[mode]
    if code in SQUARE:
        ranks = int(ranks ** 0.5) ** 2
    return ranks


def jobs_distinct(seed: int) -> List[Dict]:
    """One pass of independent jobs: every kernel in every mode once.

    Slot (kernel k, mode m) gets size tier (k + m) mod 4, so each
    kernel and each mode spans all sizes, from 4 to 1024 ranks.
    The seed picks the flags, the L3 size and the counter-mode pair (the
    sampled jobs keep fixed ones, see ``SAMPLED_*``).  Sizes and order
    are fixed: the size of the median job sets ``req_p50_ms``, and
    which all-to-all job runs after which moves the peak memory by a
    fifth.  No two jobs share a (kernel, mode, ranks) triple, hence no
    comm phase and no node class.  Jobs of tier ``SAMPLED_TIER`` (one
    per kernel) run with timeline sampling inside a marker region.
    """
    rng = random.Random(f"jobs-distinct:{input_set(seed)}")
    jobs = []
    for k, code in enumerate(KERNELS):
        for m, mode in enumerate(MODES):
            tier = (k + m) % len(NODE_TIERS)
            ranks = _ranks(code, mode, tier)
            sampled = tier == SAMPLED_TIER
            flags = rng.choice(FLAG_LABELS)
            l3_mb = rng.choice(L3_MB)
            counter_modes = rng.choice(COUNTER_MODES)
            jobs.append({
                "code": code,
                "mode": mode,
                "ranks": ranks,
                "nodes": -(-ranks // PROCS_PER_NODE[mode]),
                "flags": SAMPLED_FLAGS if sampled else flags,
                "l3_mb": SAMPLED_L3_MB if sampled else l3_mb,
                "counter_modes": list(SAMPLED_COUNTER_MODES if sampled
                                      else counter_modes),
                "problem_class": "C",
                "sample_every": SAMPLE_EVERY if sampled else None,
                "region": f"{code.lower()}-{mode.lower()}"
                          if sampled else None,
            })
    return jobs


def job_key(job: Dict) -> str:
    """The reference-digest key of one job (everything that shapes it)."""
    return "|".join(str(job[k]) for k in (
        "code", "mode", "ranks", "nodes", "flags", "l3_mb",
        "counter_modes", "problem_class"))


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
#: Wire names of the flag sets a sweep point may ask for.
WIRE_FLAGS = ("O", "O3", "O3-440d", "O4", "O5")
#: The four request kinds.  "new" asks for a Figure 12-style pair (a
#: VNM point and its SMP/1 twin) never simulated before: cold.  "l3"
#: re-asks a simulated VNM point at another L3 size: comm phases reused,
#: new node classes.  "combo" asks for a new set of simulated points:
#: memo hits, a response-cache miss and a tier write.  "repeat" resends
#: an earlier request verbatim: a response-cache hit.
#:
#: No record of real service traffic exists, so the mix is assumed.
#: New pairs, L3 variants and combinations get equal shares and repeats
#: twice that, so that each kind sits where a scored metric reads it.
#: By latency the kinds run repeat < combo < l3 < new, so
#: ``warm_p50_ms`` is the repeats' median, ``req_p50_ms`` falls amid the
#: combinations, ``cold_p50_ms`` amid the L3 variants, and
#: ``req_tail_ms`` among the new pairs, which with the L3 variants also
#: set ``req_per_s``.  (A median that fell between two kinds would jump
#: from one to the other from run to run.)  ``run.py`` prints each
#: kind's p50 beside them.  Revisit the shares once a ``requests.jsonl``
#: recorded from real use exists.  The stream is fixed so that every
#: seed has the same mix and the same overlap of cheap and costly
#: requests between the two clients; the seed picks the points.
#:
#: The head asks for a new pair of every kernel, so that L3 variants
#: and combinations have points to draw from.
STREAM_HEAD = ("new",) * len(KERNELS)
STREAM_BLOCK = ("l3", "combo", "repeat", "new", "repeat", "l3", "repeat",
                "combo", "repeat")
#: Eight blocks: 16 new pairs, L3 variants and combinations each (two
#: new pairs and two L3 variants of each kernel) and 32 repeats.
STREAM_BLOCKS = 8
#: A repeat resends the request this many places back: old enough that
#: its reply is in the cache (the other client may still be busy with a
#: recent one), young enough that eviction spared it.  Ten places back
#: from a repeat in the block above is always a request of another kind,
#: and which kind is the same for every seed; that matters, because a
#: cached reply costs in proportion to its points (one for an L3
#: variant, two for a new pair, three for a combination).
REPEAT_BACK = 10
#: The server's record cap: below the stream's working set, so the
#: shared tier evicts while the stream runs.
SERVE_MAX_RECORDS = 64


def serve_stream(seed: int) -> List[Tuple[str, Dict]]:
    """A seeded request stream: (kind, ``POST /v1/sweep`` body) pairs.

    New pairs and L3 variants each cycle through the kernels in one
    seeded order, so every stream holds the same kernels equally often
    and a pass's work barely depends on the seed.  Points of the two
    most recent requests may still be in flight on the other client,
    so "l3" and "combo" draw only from older ones.
    """
    rng = random.Random(f"serve-mixed:{input_set(seed)}")
    codes = list(KERNELS)
    rng.shuffle(codes)
    configs = [(code, flags) for code in KERNELS for flags in WIRE_FLAGS]
    used_configs: set = set()
    l3_seen: Dict[tuple, set] = {}
    points_by_request: List[List[Dict]] = []
    stream: List[Tuple[str, Dict]] = []
    counts = {"new": 0, "l3": 0}
    for kind in STREAM_HEAD + STREAM_BLOCK * STREAM_BLOCKS:
        settled = [p for ps in points_by_request[:-2] for p in ps]
        if kind == "repeat":
            stream.append(("repeat", stream[len(stream) - REPEAT_BACK][1]))
            points_by_request.append([])
            continue
        if kind in counts:
            code = codes[counts[kind] % len(codes)]
            counts[kind] += 1
        if kind == "new":
            flags = rng.choice([f for c, f in configs
                                if c == code and (c, f) not in used_configs])
            used_configs.add((code, flags))
            vnm = {"kind": "vnm", "code": code, "flags": flags,
                   "l3_mb": rng.choice(L3_MB)}
            l3_seen[(code, flags)] = {vnm["l3_mb"]}
            points = [vnm, {"kind": "smp1", "code": code, "flags": flags,
                            "l3_mb": 2}]
        elif kind == "l3":
            bases = [p for p in settled if p["kind"] == "vnm"
                     and p["code"] == code
                     and len(l3_seen[(p["code"], p["flags"])]) < len(L3_MB)]
            base = rng.choice(bases)
            seen = l3_seen[(base["code"], base["flags"])]
            l3_mb = rng.choice([mb for mb in L3_MB if mb not in seen])
            seen.add(l3_mb)
            points = [dict(base, l3_mb=l3_mb)]
        else:
            points = rng.sample(settled, 3)
        points_by_request.append(points)
        stream.append((kind, {"points": points}))
    return stream


def stream_points(stream: List[Tuple[str, Dict]]) -> List[Dict]:
    """Every distinct point a stream asks for, in first-use order."""
    seen = set()
    out = []
    for _, body in stream:
        for point in body["points"]:
            key = tuple(sorted(point.items()))
            if key not in seen:
                seen.add(key)
                out.append(point)
    return out
