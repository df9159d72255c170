#!/usr/bin/env python3
"""Quickstart: instrument an application with the counter library.

This walks the paper's Figure 4/5 flow end to end on one simulated
node: initialize the UPC unit, bracket two code regions with
BGP_Start/BGP_Stop sets, finalize to a binary dump, then run the
post-processing tools to get statistics, CSV files, and the derived
metrics (MFLOPS, instruction mix).

Run:  python examples/quickstart.py
"""

import tempfile

from repro.core import (
    BGPCounterInterface,
    UPCUnit,
    aggregate,
    fp_profile,
    load_dumps,
    mflops,
    write_stats_csv,
)
from repro.cpu import PPC450Core
from repro.isa import InstructionMix, OpClass
from repro.mem import HierarchyConfig, StreamAccess, analyze_loop
from repro.node import ComputeNode, OperatingMode


def run_kernel(node: ComputeNode, flops: int, footprint: int) -> None:
    """A stand-in application kernel: an FMA-heavy streaming loop.

    On real hardware this would be your science code; here the node
    model executes an instruction mix + memory stream and pulses every
    resulting hardware event into the node's UPC unit.
    """
    core = PPC450Core(core_id=0)
    mix = InstructionMix({
        OpClass.FP_FMA: flops // 2,       # FMA = 2 flops each
        OpClass.LOAD: flops // 4,
        OpClass.STORE: flops // 8,
        OpClass.INT_ALU: flops // 8,
        OpClass.BRANCH: flops // 64,
    })
    memory = analyze_loop(
        [StreamAccess("data", footprint_bytes=footprint)],
        traversals=4,
        config=HierarchyConfig(),
    )
    execution = core.execute(mix, memory, serial_fraction=0.1)
    node.pulse_events(execution.events())


def main() -> None:
    # 1. one compute node, counters in mode 0 (processor/FPU/L1 events)
    node = ComputeNode(node_id=0, mode=OperatingMode.SMP1)
    iface = BGPCounterInterface(node.upc, node_id=0)
    iface.initialize(mode=0)

    # 2. bracket two program regions with different set numbers
    iface.start(0)
    run_kernel(node, flops=1_000_000, footprint=256 * 1024)
    iface.stop(0)

    iface.start(1)
    run_kernel(node, flops=250_000, footprint=8 * 1024 * 1024)
    iface.stop(1)

    # 3. finalize: dump the per-node binary, then post-process it
    with tempfile.TemporaryDirectory(prefix="bgp_quickstart_") as dump_dir:
        iface.finalize(dump_dir)
        dumps = load_dumps(dump_dir)

        for set_id, label in ((0, "hot compute region"),
                              (1, "memory-bound region")):
            agg = aggregate(dumps, set_id=set_id)
            named = agg.totals()
            print(f"--- set {set_id}: {label} ---")
            print(f"  cycles          : {named['BGP_PU0_CYCLES']:>12,}")
            print(f"  instructions    : "
                  f"{named['BGP_PU0_INST_COMPLETED']:>12,}")
            print(f"  MFLOPS          : {mflops(named):>12,.1f}")
            print(f"  L1 read misses  : "
                  f"{named['BGP_PU0_L1D_READ_MISS']:>12,}")
            profile = fp_profile(named)
            dominant = max(profile, key=profile.get)
            print(f"  dominant FP op  : {dominant} "
                  f"({profile[dominant]:.0%} of FP instructions)")

        # 4. the spreadsheet-ready CSV the paper's tools emit
        csv_path = f"{dump_dir}/stats.csv"
        rows = write_stats_csv(aggregate(dumps, set_id=0), csv_path)
        print(f"\nwrote {rows} counter rows to stats.csv")
    print(f"interface overhead: {iface.overhead_cycles} cycles "
          f"(paper: 196 for init+start+stop)")


if __name__ == "__main__":
    main()
