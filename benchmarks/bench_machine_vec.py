"""Benchmark the whole-machine matrix pass; record BENCH_machine_vec.json.

Runs the paper's 64-node figure sweep (all eight class-C NPB kernels
across the five Figure-11 L3 sizes, 256 ranks in VNM) three times:

* **baseline** — the pre-engine behavior: scalar analytical / torus /
  pipeline paths, no node-equivalence memoization;
* **engine** — node memoization + comm-phase cache, scalar inner
  engines (the PR-2 state of the world);
* **vector** — the same engine with the batched analytical, torus and
  pipeline matrix passes switched on.

All three legs produce byte-identical counter dumps — the last sweep
point's job result is compared across legs here, and the randomized
identity suites in ``tests/test_machine_vec.py`` assert it layer by
layer.  The wall times and ratios go to ``BENCH_machine_vec.json`` at
the repo root.

Run with::

    PYTHONPATH=src python benchmarks/bench_machine_vec.py --gate 10
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

from repro.compiler import O5
from repro.harness.sweep import PAPER_L3_SIZES_MB, compiled_benchmark
from repro.mem import NodeMemoryConfig
from repro.node import OperatingMode
from repro.npb import BENCHMARK_ORDER
from repro.parallel import set_vectorize
from repro.runtime.machine import Job, Machine, clear_comm_cache

MB = 1024 * 1024
NODES = 64
RANKS = 256


def run_sweep(memoize: bool, vectorize: bool) -> tuple:
    """One full 64-node figure sweep; returns (wall time, last result)."""
    set_vectorize(vectorize)
    clear_comm_cache()
    last = None
    start = time.perf_counter()
    for code in BENCHMARK_ORDER:
        program = compiled_benchmark(code, O5())
        for l3_mb in PAPER_L3_SIZES_MB:
            machine = Machine(NODES, mode=OperatingMode.VNM,
                              mem_config=NodeMemoryConfig().with_l3_size(
                                  l3_mb * MB))
            last = Job(machine, program, RANKS, memoize=memoize).run()
    return time.perf_counter() - start, last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", type=float, default=None,
                        help="fail unless the end-to-end baseline/vector "
                             "speedup reaches this factor")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_machine_vec.json"))
    args = parser.parse_args()

    points = len(BENCHMARK_ORDER) * len(PAPER_L3_SIZES_MB)
    print(f"sweep: {points} points ({NODES} nodes, {RANKS} ranks, VNM)")

    try:
        baseline_s, baseline_r = run_sweep(memoize=False, vectorize=False)
        print(f"baseline (scalar, no memoization): {baseline_s:.2f}s")
        engine_s, engine_r = run_sweep(memoize=True, vectorize=False)
        print(f"engine (memoized, scalar): {engine_s:.2f}s "
              f"-> {baseline_s / engine_s:.2f}x")
        vector_s, vector_r = run_sweep(memoize=True, vectorize=True)
        print(f"vector (memoized, matrix passes): {vector_s:.2f}s "
              f"-> {baseline_s / vector_s:.2f}x")
    finally:
        set_vectorize(True)

    dumps = [json.dumps(r.to_dict(), sort_keys=True)
             for r in (baseline_r, engine_r, vector_r)]
    identical = dumps[0] == dumps[1] == dumps[2]
    print(f"last sweep point byte-identical across legs: {identical}")
    if not identical:
        print("FAIL: engine legs disagree", file=sys.stderr)
        return 1

    record = benchlib.make_record(
        benchmark="64-node figure sweep "
                  "(8 NPB kernels x 5 L3 sizes, 256 ranks, VNM)",
        legs={"baseline": baseline_s, "engine": engine_s,
              "vector": vector_s},
        headline=("baseline", "vector"),
        identical=identical,
        details={
            "nodes": NODES,
            "ranks": RANKS,
            "sweep_points": points,
            "engine_speedup": round(baseline_s / engine_s, 2),
            "vector_over_engine": round(engine_s / vector_s, 2),
        })
    benchlib.write_record(record, args.out)
    return 0 if benchlib.check_gate(record, args.gate) else 1


if __name__ == "__main__":
    raise SystemExit(main())
