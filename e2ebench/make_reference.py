"""Regenerate ``reference.json``, the digests every run checks against.

    python3 e2ebench/make_reference.py

Run it only on a commit whose outputs are known to be right: the
digests define "correct" for every later run.  It covers the figures
pass, every job of every ``jobs-distinct`` input set and every point of
every ``serve-mixed`` stream (``inputs.NUM_INPUT_SETS`` sets, the
held-back one included).  Served points are computed offline through
the same memoized runners the service uses.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from common import REFERENCE, SRC, canonical_json, digest

import inputs
import run


def main() -> int:
    scratch = run._scratch_dir()
    try:
        out = run._cli_pass(scratch, 0, "figures", None, traced=False,
                            warm_repeats=0)
        figures = out["cold"]["digests"]
        jobs = {}
        for index in range(inputs.NUM_INPUT_SETS):
            batch = inputs.jobs_distinct(index)
            out = run._cli_pass(scratch, index + 1, "jobs-distinct", batch,
                                traced=False, warm_repeats=0)
            jobs.update((inputs.job_key(job), d)
                        for job, d in zip(batch, out["cold"]["digests"]))
        points = _point_digests(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(
        {"figures": figures, "jobs": jobs, "points": points},
        indent=1, sort_keys=True) + "\n")
    print(f"{REFERENCE}: {len(figures)} experiments, {len(jobs)} jobs, "
          f"{len(points)} served points")
    return 0


def _point_digests(scratch) -> dict:
    tempfile.tempdir = str(scratch)   # the runs' counter dumps land here
    sys.path.insert(0, str(SRC))
    from repro.harness.sweep import run_smp1, run_vnm
    from repro.serve.protocol import SweepPoint

    points = {}
    for index in range(inputs.NUM_INPUT_SETS):
        for raw in inputs.stream_points(inputs.serve_stream(index)):
            point = SweepPoint.from_dict(raw, 0)
            key = canonical_json(point.canonical())
            if key in points:
                continue
            runner = run_vnm if point.kind == "vnm" else run_smp1
            job = runner(point.code, point.flag_set(), point.l3_mb,
                         point.problem_class)
            points[key] = digest(job.to_dict())
    return points


if __name__ == "__main__":
    sys.exit(main())
