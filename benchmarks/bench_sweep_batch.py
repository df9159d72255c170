"""Benchmark the cross-point batched sweep engine; record
``BENCH_sweep_batch.json``.

Runs the paper's 64-node figure sweep (all eight class-C NPB kernels
across the five Figure-11 L3 sizes, 256 ranks in VNM) three ways:

* **baseline** — the legacy engine: ``Job(..., memoize=False)`` with
  the scalar model paths, one point at a time;
* **vector** — the per-point engine every prior benchmark gated on:
  node-equivalence memoization, comm-phase cache, batched NumPy model
  passes — still one ``Job.run`` per sweep point;
* **batch** — :func:`repro.harness.batch.run_points` over the same 40
  points: node classes deduplicate *across* points, the surviving
  class representatives run as single stacked matrix passes, and the
  per-point counter dumps are reassembled from shared rows.

All three legs must agree byte-for-byte on **every** point (not just
the last one); the benchmark asserts it before writing any timing.

Run with::

    PYTHONPATH=src python benchmarks/bench_sweep_batch.py --gate 15
    PYTHONPATH=src python benchmarks/bench_sweep_batch.py \
        --regress BENCH_sweep_batch.json   # CI: >10% drop fails
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

from repro.compiler import O5  # noqa: E402
from repro.harness.batch import PointSpec, run_points  # noqa: E402
from repro.harness.sweep import (  # noqa: E402
    PAPER_L3_SIZES_MB,
    compiled_benchmark,
)
from repro.mem import NodeMemoryConfig  # noqa: E402
from repro.node import OperatingMode  # noqa: E402
from repro.npb import BENCHMARK_ORDER  # noqa: E402
from repro.parallel import set_vectorize  # noqa: E402
from repro.runtime.machine import (  # noqa: E402
    Job,
    Machine,
    clear_comm_cache,
)

MB = 1024 * 1024
NODES = 64
RANKS = 256


def sweep_configs():
    for code in BENCHMARK_ORDER:
        for l3_mb in PAPER_L3_SIZES_MB:
            yield code, l3_mb


def run_per_point(memoize: bool, vectorize: bool) -> tuple:
    """One figure sweep through per-point ``Job.run`` calls."""
    set_vectorize(vectorize)
    clear_comm_cache()
    results = []
    start = time.perf_counter()
    for code, l3_mb in sweep_configs():
        program = compiled_benchmark(code, O5())
        machine = Machine(NODES, mode=OperatingMode.VNM,
                          mem_config=NodeMemoryConfig().with_l3_size(
                              l3_mb * MB))
        results.append(Job(machine, program, RANKS,
                           memoize=memoize).run())
    return time.perf_counter() - start, results


def run_batched() -> tuple:
    """The same 40 points as one cross-point batched pass.

    Specs are built directly (not via ``PointSpec.for_vnm``, which
    mirrors ``run_vnm``'s 32-node paper partition): this benchmark
    measures the bigger 64-node/256-rank sweep every prior BENCH
    record used, so the numbers stay comparable.
    """
    set_vectorize(True)
    clear_comm_cache()
    points = [PointSpec(program=compiled_benchmark(code, O5()),
                        mode=OperatingMode.VNM, num_ranks=RANKS,
                        num_nodes=NODES,
                        mem_config=NodeMemoryConfig().with_l3_size(
                            l3_mb * MB))
              for code, l3_mb in sweep_configs()]
    start = time.perf_counter()
    results = run_points(points)
    return time.perf_counter() - start, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", type=float, default=None,
                        help="fail unless the end-to-end baseline/batch "
                             "speedup reaches this factor")
    parser.add_argument("--regress", metavar="JSON", default=None,
                        help="fail on a >10%% speedup drop vs this "
                             "committed record")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_sweep_batch.json"))
    args = parser.parse_args(argv)

    points = len(BENCHMARK_ORDER) * len(PAPER_L3_SIZES_MB)
    print(f"sweep: {points} points ({NODES} nodes, {RANKS} ranks, VNM)")

    try:
        baseline_s, baseline_r = run_per_point(memoize=False,
                                               vectorize=False)
        print(f"baseline (scalar, per point): {baseline_s:.2f}s")
        vector_s, vector_r = run_per_point(memoize=True, vectorize=True)
        print(f"vector (memoized, per point): {vector_s:.2f}s "
              f"-> {baseline_s / vector_s:.2f}x")
        batch_s, batch_r = run_batched()
        print(f"batch (one cross-point pass): {batch_s:.2f}s "
              f"-> {baseline_s / batch_s:.2f}x")
    finally:
        set_vectorize(True)
        clear_comm_cache()

    identical = benchlib.sweep_identity([baseline_r, vector_r, batch_r])
    print(f"all {points} points byte-identical across legs: {identical}")
    if not identical:
        print("FAIL: engines disagree", file=sys.stderr)
        return 1

    record = benchlib.make_record(
        benchmark="64-node figure sweep, cross-point batched engine "
                  "(8 NPB kernels x 5 L3 sizes, 256 ranks, VNM)",
        legs={"baseline": baseline_s, "vector": vector_s,
              "batch": batch_s},
        headline=("baseline", "batch"),
        identical=identical,
        details={
            "nodes": NODES,
            "ranks": RANKS,
            "sweep_points": points,
            "vector_speedup": round(baseline_s / vector_s, 2),
            "batch_over_vector": round(vector_s / batch_s, 2),
        })
    benchlib.write_record(record, args.out)

    ok = benchlib.check_gate(record, args.gate)
    if args.regress:
        ok = benchlib.check_regression(record, args.regress) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
