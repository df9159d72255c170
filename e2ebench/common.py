"""Helpers shared by ``run.py``, its worker processes and the tests.

Nothing here imports ``repro``: ``run.py`` must be able to fail cleanly
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

#: Percentiles tried for the tail metric, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def canonical_json(doc) -> str:
    """Key-sorted, separator-minimal JSON (the digest input)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    """SHA-256 of a document's canonical JSON."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def load_reference() -> Dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def median_low(values: Sequence[float]) -> float:
    """The median, or the lower middle value: always one of ``values``."""
    return float(statistics.median_low(values))


def nearest_rank(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    index = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return float(ordered[index])


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile that still has
    at least ten samples above it (the median when there are too few)."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, nearest_rank(values, pct)
    return 50.0, nearest_rank(values, 50.0)


def child_env(tmpdir: Optional[str] = None) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``REPRO_*`` switches are dropped so the program runs with its CLI
    defaults, and the checkout's ``src`` comes first on the path.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    if tmpdir is not None:
        env["TMPDIR"] = tmpdir
    return env


def count_files(directory) -> int:
    total = 0
    for _, _, files in os.walk(directory):
        total += len(files)
    return total
