"""Randomized identity suites: vectorized engines vs scalar oracles.

PR 5 established the discipline for ``repro.mem.kernels``: every
batched NumPy path keeps its scalar loop as the oracle and must return
*byte-identical* results under randomized inputs.  These suites apply
it to the whole-machine matrix pass — the analytical memory hierarchy,
torus phase accounting, and pipeline timing — plus the node- and
job-level compositions, including the degenerate edges (empty phases,
single-node tori, zero-traversal loops, empty mixes).
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.pipeline import PipelineModel
from repro.isa import NUM_OP_CLASSES, InstructionMix
from repro.mem.address import AccessKind, AccessPattern, StreamAccess
from repro.mem.analytical import (
    HierarchyConfig,
    LoopMemoryResult,
    analyze_loops,
    analyze_loops_batch,
)
from repro.mem.hierarchy import NodeMemoryModel
from repro.net.topology import TorusTopology
from repro.net.torus import Message, TorusNetwork
from repro.node.modes import OperatingMode
from repro.node.soc import ComputeNode, LoopWork, ProcessWork
from repro.parallel import get_vectorize, set_vectorize


@pytest.fixture(autouse=True)
def _restore_engine():
    """Every test leaves the process-wide engine switch as it found it."""
    before = get_vectorize()
    yield
    set_vectorize(before)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
dims_st = st.tuples(st.integers(1, 6), st.integers(1, 6),
                    st.integers(1, 6))


@st.composite
def phases(draw):
    dims = draw(dims_st)
    topo = TorusTopology(dims)
    n = draw(st.integers(0, 40))
    node = st.integers(0, topo.num_nodes - 1)
    # sizes deliberately straddle the packet size (sub-packet messages
    # exercise the header-padding accounting) and include self-sends
    # and zero-byte messages
    msgs = draw(st.lists(
        st.builds(Message, src=node, dst=node,
                  size_bytes=st.integers(0, 2000)),
        min_size=n, max_size=n))
    return topo, msgs


@st.composite
def streams(draw):
    pattern = draw(st.sampled_from(list(AccessPattern)))
    accesses = draw(st.one_of(st.none(), st.integers(0, 200_000)))
    if pattern is AccessPattern.RANDOM and accesses is None:
        accesses = draw(st.integers(0, 200_000))
    return StreamAccess(
        array=f"a{draw(st.integers(0, 9))}",
        footprint_bytes=draw(st.integers(1, 1 << 22)),
        stride_bytes=draw(st.sampled_from([4, 8, 32, 128, 384, 4096,
                                           1 << 16])),
        kind=draw(st.sampled_from(list(AccessKind))),
        pattern=pattern,
        accesses=accesses,
    )


loops_st = st.lists(
    st.tuples(st.lists(streams(), max_size=4), st.integers(0, 25)),
    max_size=5)

configs_st = st.builds(
    HierarchyConfig,
    l3_capacity_bytes=st.sampled_from([0, 4096, 1 << 20, 8 << 20,
                                       1 << 40]),
    capacity_sharing=st.sampled_from(["greedy", "proportional"]),
    overlap=st.sampled_from([0.0, 0.3, 0.9]),
)


def assert_results_equal(a: LoopMemoryResult, b: LoopMemoryResult):
    for level in ("l1", "l2", "l3"):
        assert getattr(a, level).__dict__ == getattr(b, level).__dict__
    assert a.ddr_reads == b.ddr_reads
    assert a.ddr_writes == b.ddr_writes
    assert a.stall_cycles == b.stall_cycles
    assert a.l3_nonseq_misses == b.l3_nonseq_misses


# ---------------------------------------------------------------------------
# torus phase engine
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(phase=phases(), balanced=st.booleans())
def test_torus_phase_vector_identity(phase, balanced):
    topo, msgs = phase
    net = TorusNetwork(topo)
    a = net.run_phase_scalar(msgs, balanced)
    b = net.run_phase_vector(msgs, balanced)
    assert a.cycles == b.cycles
    assert a.max_link_bytes == b.max_link_bytes
    assert a.total_packets == b.total_packets
    assert a.hop_cycles == b.hop_cycles
    # dict contents AND insertion order (counter dumps iterate them)
    assert a.sent == b.sent and list(a.sent) == list(b.sent)
    for node in a.sent:
        assert list(a.sent[node]) == list(b.sent[node])
    assert a.received == b.received
    assert list(a.received) == list(b.received)
    assert net.phase_events(a) == net.phase_events(b)


def test_torus_phase_edges():
    for dims in [(1, 1, 1), (1, 2, 1), (2, 2, 1)]:
        net = TorusNetwork(TorusTopology(dims))
        # empty phase
        for engine in ("scalar", "vector"):
            r = net.run_phase([], engine=engine)
            assert r.cycles == 0.0 and r.total_packets == 0
        # phase of only self-sends and zero-byte messages
        msgs = [Message(0, 0, 4096), Message(0, dims[0] * dims[1]
                                             * dims[2] - 1, 0)]
        a = net.run_phase_scalar(msgs)
        b = net.run_phase_vector(msgs)
        assert a.__dict__ == b.__dict__


def test_torus_engine_dispatch_validates():
    net = TorusNetwork(TorusTopology((2, 2, 2)))
    with pytest.raises(ValueError):
        net.run_phase([], engine="quantum")


@st.composite
def flow_phases(draw):
    """Node-pair flows (several equal-sized messages each) on tori with
    size-1 and size-2 axes and even rings, whose half-way
    forward/backward ties route forward."""
    dims = draw(st.tuples(st.sampled_from([1, 2, 3, 4, 6]),
                          st.sampled_from([1, 2, 4, 5]),
                          st.sampled_from([1, 2, 4])))
    topo = TorusTopology(dims)
    node = st.integers(0, topo.num_nodes - 1)
    flows = draw(st.lists(st.tuples(node, node, st.integers(0, 2000),
                                    st.integers(1, 4)), max_size=30))
    return topo, flows


@settings(max_examples=120, deadline=None)
@given(phase=flow_phases(), balanced=st.booleans())
def test_torus_flow_phase_matches_oracle(phase, balanced):
    """run_phase_arrays == the scalar loop over the flows' messages."""
    topo, flows = phase
    net = TorusNetwork(topo)
    msgs = [Message(s, d, size) for s, d, size, count in flows
            for _ in range(count)]
    cols = [np.array(col, dtype=np.int64) for col in zip(*flows)] \
        or [np.zeros(0, dtype=np.int64)] * 4
    a = net.run_phase_scalar(msgs, balanced)
    b = net.run_phase_arrays(*cols[:3], balanced, messages=cols[3])
    assert a.__dict__ == b.__dict__
    assert list(a.sent) == list(b.sent)
    for node in a.sent:
        assert list(a.sent[node]) == list(b.sent[node])
    assert list(a.received) == list(b.received)


@settings(max_examples=60, deadline=None)
@given(phase=flow_phases())
def test_torus_link_loads_match_route(phase):
    """Segment aggregation puts every flow's bytes on exactly the
    directed links ``route`` walks, not just the right maximum."""
    from repro.net.topology import DIRECTION_NAMES

    topo, flows = phase
    net = TorusNetwork(topo)
    flows = [(s, d, size) for s, d, size, _ in flows if s != d]
    expect = np.zeros((topo.num_nodes, 6), dtype=np.int64)
    for s, d, size in flows:
        for frm, to in topo.route(s, d):
            direction = DIRECTION_NAMES.index(topo.link_direction(frm, to))
            expect[frm, direction] += size
    src, dst, size = (np.array(col, dtype=np.int64).reshape(-1)
                      for col in (zip(*flows) if flows else ([], [], [])))
    loads = net._link_loads(src, dst, net._relative(src, dst), size)
    assert (loads == expect).all()


def test_torus_config_rejects_non_integral_hop_latency():
    """Integral hop latency is what keeps hop_cycles an exact sum."""
    from repro.net import TorusConfig

    with pytest.raises(ValueError, match="integral"):
        TorusConfig(hop_latency_cycles=55.5)
    assert TorusConfig(hop_latency_cycles=60).hop_latency_cycles == 60


# ---------------------------------------------------------------------------
# analytical memory hierarchy
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(loops=loops_st, config=configs_st)
def test_analytical_batch_identity(loops, config):
    scalar = analyze_loops(loops, config, engine="scalar")
    vector = analyze_loops_batch([(loops, config)])[0]
    assert_results_equal(scalar, vector)


@settings(max_examples=40, deadline=None)
@given(tasks=st.lists(st.tuples(loops_st, configs_st), max_size=4))
def test_analytical_batch_identity_across_configs(tasks):
    """One flat pass over heterogeneous configs == per-task scalar."""
    batch = analyze_loops_batch(tasks)
    for (loops, config), vector in zip(tasks, batch):
        assert_results_equal(analyze_loops(loops, config,
                                           engine="scalar"), vector)


def test_analyze_loops_engine_dispatch():
    loops = [([StreamAccess("x", 1 << 16)], 3)]
    cfg = HierarchyConfig()
    assert_results_equal(analyze_loops(loops, cfg, engine="scalar"),
                         analyze_loops(loops, cfg, engine="vector"))
    with pytest.raises(ValueError):
        analyze_loops(loops, cfg, engine="nope")


def test_analytical_batch_rejects_negative_traversals():
    with pytest.raises(ValueError):
        analyze_loops_batch([([([StreamAccess("x", 64)], -1)],
                              HierarchyConfig())])


@settings(max_examples=30, deadline=None)
@given(loops=loops_st)
def test_node_memory_model_vector_identity(loops):
    """NodeMemoryModel.analyze: batched passes == scalar per process."""
    processes = [loops if loops else [((), 0)]] * 2 + [[((), 0)]]
    model = NodeMemoryModel()
    try:
        set_vectorize(False)
        scalar = model.analyze(processes)
        set_vectorize(True)
        vector = model.analyze(processes)
    finally:
        set_vectorize(True)
    assert scalar.shares == vector.shares
    assert scalar.inflations == vector.inflations
    for a, b in zip(scalar.per_process, vector.per_process):
        assert_results_equal(a, b)


# ---------------------------------------------------------------------------
# pipeline timing
# ---------------------------------------------------------------------------
mix_vectors = st.lists(
    st.floats(0.0, 1e8, allow_nan=False, allow_infinity=False),
    min_size=NUM_OP_CLASSES, max_size=NUM_OP_CLASSES)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(mix_vectors, st.floats(0.0, 1.0)),
                     min_size=1, max_size=8))
def test_pipeline_batch_identity(rows):
    model = PipelineModel()
    mixes = [InstructionMix.from_vector(np.array(v)) for v, _ in rows]
    sfs = [sf for _, sf in rows]
    scalar = [model.compute_cycles(m, sf).total
              for m, sf in zip(mixes, sfs)]
    batch = model.compute_cycles_batch(
        np.stack([m.as_vector() for m in mixes]), sfs)
    assert scalar == [float(t) for t in batch.tolist()]


def test_pipeline_batch_validates():
    model = PipelineModel()
    with pytest.raises(ValueError):
        model.compute_cycles_batch(np.zeros((2, NUM_OP_CLASSES)), [0.5])
    with pytest.raises(ValueError):
        model.compute_cycles_batch(np.zeros((1, NUM_OP_CLASSES)), [1.5])


# ---------------------------------------------------------------------------
# UPC batched event delivery
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pulse_many_identity(data):
    from repro.core.counters import UPCUnit
    from repro.core.events import EVENTS_BY_NAME

    names = sorted(n for n, e in EVENTS_BY_NAME.items() if e.mode == 0)
    picked = data.draw(st.lists(st.sampled_from(names), max_size=10,
                                unique=True))
    counts = {n: data.draw(st.integers(0, 1 << 48)) for n in picked}
    scalar, batch = UPCUnit(), UPCUnit()
    # park one touched counter near the 2**64 wrap in both units
    if picked:
        near = EVENTS_BY_NAME[picked[0]].counter
        scalar.registers.set_counter(near, (1 << 64) - 3)
        batch.registers.set_counter(near, (1 << 64) - 3)
    for name, count in counts.items():
        if count > 0:
            scalar.pulse(name, count)
    batch.pulse_many(counts)
    assert (scalar.snapshot() == batch.snapshot()).all()


def test_pulse_many_interrupts_and_gating():
    from repro.core.config import SignalMode
    from repro.core.counters import UPCUnit
    from repro.core.events import EVENTS_BY_NAME

    names = sorted(n for n, e in EVENTS_BY_NAME.items() if e.mode == 0)
    scalar, batch = UPCUnit(), UPCUnit()
    for unit in (scalar, batch):
        unit.configure(EVENTS_BY_NAME[names[0]].counter,
                       interrupt_enable=True, threshold=50)
        unit.configure(EVENTS_BY_NAME[names[1]].counter,
                       signal_mode=SignalMode.LEVEL_LOW)
        unit.configure(EVENTS_BY_NAME[names[2]].counter, enabled=False)
    events = {names[0]: 80, names[1]: 7, names[2]: 9, names[3]: 3}
    for name, count in events.items():
        scalar.pulse(name, count)
    batch.pulse_many(events)
    assert (scalar.snapshot() == batch.snapshot()).all()
    assert [i.counter for i in scalar.interrupt_log] == \
        [i.counter for i in batch.interrupt_log]
    # a disabled unit swallows everything, in both paths
    scalar.enabled = batch.enabled = False
    scalar.pulse(names[3], 5)
    batch.pulse_many({names[3]: 5})
    assert (scalar.snapshot() == batch.snapshot()).all()


# ---------------------------------------------------------------------------
# node and job composition
# ---------------------------------------------------------------------------
def _sample_work(seed: int) -> ProcessWork:
    rng = random.Random(seed)
    loops = []
    for _ in range(rng.randrange(1, 4)):
        v = np.array([rng.random() * 1e6 if rng.random() < 0.7 else 0.0
                      for _ in range(NUM_OP_CLASSES)])
        strms = [
            StreamAccess(f"a{i}", rng.randrange(1, 1 << 21),
                         rng.choice([8, 128, 4096]),
                         rng.choice(list(AccessKind)),
                         rng.choice([AccessPattern.SEQUENTIAL,
                                     AccessPattern.STRIDED]))
            for i in range(rng.randrange(0, 3))
        ]
        loops.append(LoopWork(mix=InstructionMix.from_vector(v),
                              streams=strms,
                              traversals=rng.randrange(1, 10),
                              serial_fraction=rng.random()))
    return ProcessWork(loops=loops)


@pytest.mark.parametrize("mode", [OperatingMode.SMP1, OperatingMode.DUAL,
                                  OperatingMode.VNM])
def test_compute_node_vector_identity(mode):
    for seed in range(3):
        work = [_sample_work(seed + 10 * i)
                for i in range(mode.processes_per_node)]
        try:
            set_vectorize(False)
            scalar = ComputeNode(mode=mode).run(work)
            set_vectorize(True)
            vector = ComputeNode(mode=mode).run(work)
        finally:
            set_vectorize(True)
        assert scalar.events == vector.events
        assert scalar.process_cycles == vector.process_cycles
        assert scalar.node_cycles == vector.node_cycles


def test_job_vector_identity_end_to_end():
    """Legacy scalar engine vs memoized vector engine, full job."""
    from repro.npb import build_benchmark
    from repro.runtime.machine import Job, Machine, clear_comm_cache

    prog = build_benchmark("cg", 32, "S")

    def run(vectorize: bool, memoize: bool):
        try:
            set_vectorize(vectorize)
            clear_comm_cache()
            machine = Machine(8, mode=OperatingMode.VNM)
            return Job(machine, prog, 32, memoize=memoize).run()
        finally:
            set_vectorize(True)
            clear_comm_cache()

    scalar = run(False, False)
    vector = run(True, True)
    assert (json.dumps(scalar.to_dict(), sort_keys=True)
            == json.dumps(vector.to_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# MPI lowering: scalar triples vs batched arrays
# ---------------------------------------------------------------------------
def _comm_result_fingerprint(res):
    """Everything CommResult carries, including dict key orders."""
    return (
        res.cycles_per_rank,
        res.torus_events,
        [(node, list(events)) for node, events in res.torus_events.items()],
        res.collective_events,
        res.ddr_lines_per_node,
        list(res.ddr_lines_per_node),
        res.intra_node_bytes,
        res.inter_node_bytes,
    )


@st.composite
def comm_ops(draw):
    from repro.compiler.ir import CommKind, CommOp

    kind = draw(st.sampled_from([CommKind.ALLTOALL, CommKind.HALO,
                                 CommKind.PAIRWISE]))
    op_kwargs = {
        "bytes_per_rank": draw(st.integers(0, 1 << 20)),
        "repeats": draw(st.integers(1, 3)),
    }
    if kind is CommKind.HALO:
        op_kwargs["neighbors"] = draw(st.integers(1, 6))
    if kind is CommKind.PAIRWISE:
        op_kwargs["partner_stride"] = draw(
            st.sampled_from([1, 2, 4, 8, 16]))
    return CommOp(kind, **op_kwargs)


@settings(deadline=None, max_examples=30)
@given(op=comm_ops(),
       num_ranks=st.integers(1, 32),
       mode=st.sampled_from(list(OperatingMode)))
def test_mpi_comm_result_identity(op, num_ranks, mode):
    """The batched triple lowering matches the scalar loop byte-for-byte."""
    from repro.runtime.machine import Machine
    from repro.runtime.mpi import SimMPI
    from repro.runtime.process import place_ranks

    placement = place_ranks(num_ranks, mode)
    machine = Machine(max(placement.num_nodes, 2), mode=mode)

    def run(vectorize: bool):
        set_vectorize(vectorize)
        mpi = SimMPI(placement, machine.topology, machine.torus,
                     machine.collective, machine.barrier)
        return mpi.run(op)

    scalar = run(False)
    vector = run(True)
    assert _comm_result_fingerprint(scalar) == \
        _comm_result_fingerprint(vector)


def _mpi(num_ranks, mode, num_nodes=None):
    from repro.runtime.machine import Machine
    from repro.runtime.mpi import SimMPI
    from repro.runtime.process import place_ranks

    placement = place_ranks(num_ranks, mode, num_nodes)
    machine = Machine(max(placement.num_nodes, 2), mode=mode)
    return SimMPI(placement, machine.topology, machine.torus,
                  machine.collective, machine.barrier)


def _assert_engines_agree(op, num_ranks, mode, num_nodes=None):
    def run(vectorize: bool):
        set_vectorize(vectorize)
        return _mpi(num_ranks, mode, num_nodes).run(op)

    assert _comm_result_fingerprint(run(False)) == \
        _comm_result_fingerprint(run(True))


@pytest.mark.parametrize("num_ranks,mode,num_nodes", [
    # partly filled last node; a (1, 7, 13) torus: size-1 axis, odd rings
    (361, OperatingMode.VNM, 91),
    # even rings with forward/backward ties, an empty spare node
    (250, OperatingMode.VNM, 64),
    # size-2 axes: (4, 2, 2)
    (31, OperatingMode.DUAL, 16),
])
def test_mpi_identity_at_scale(num_ranks, mode, num_nodes):
    """Flow lowering == scalar loop on partitions the hypothesis draw
    above never builds."""
    from repro.compiler.ir import CommKind, CommOp

    for op in (CommOp(CommKind.ALLTOALL, bytes_per_rank=90_001,
                      repeats=2),
               CommOp(CommKind.HALO, bytes_per_rank=60_000, neighbors=6),
               CommOp(CommKind.PAIRWISE, bytes_per_rank=4096,
                      partner_stride=8)):
        _assert_engines_agree(op, num_ranks, mode, num_nodes)


@pytest.mark.parametrize("num_ranks,mode,num_nodes", [
    (12, OperatingMode.VNM, 3),
    (7, OperatingMode.VNM, 2),
    (361, OperatingMode.VNM, 91),
    (9, OperatingMode.DUAL, 6),
    (5, OperatingMode.SMP1, 5),
    (3, OperatingMode.VNM, 1),
])
def test_mpi_alltoall_flows_group_triples(num_ranks, mode, num_nodes):
    """ALLTOALL flows are _messages_for's inter-node triples grouped by
    node pair, in first-occurrence order."""
    from repro.compiler.ir import CommKind, CommOp
    from repro.runtime.mpi import CommResult

    mpi = _mpi(num_ranks, mode, num_nodes)
    node_of = mpi.placement.node_of
    for n_bytes in (0, 7, 4096, 1 << 20):
        op = CommOp(CommKind.ALLTOALL, bytes_per_rank=n_bytes)
        grouped = {}
        for src, dst, size in mpi._messages_for(op):
            pair = (node_of(src), node_of(dst))
            if size and pair[0] != pair[1]:
                grouped.setdefault(pair, []).append(size)
        expect = [(a, b, sizes[0], len(sizes))
                  for (a, b), sizes in grouped.items()]
        assert all(len(set(sizes)) == 1 for sizes in grouped.values())
        flows, _ = mpi._alltoall_flows(op, CommResult())
        assert list(zip(*(col.tolist() for col in flows))) == expect


def test_mpi_alltoall_scales_in_node_pairs():
    """FT's 2048-rank all-to-all on 512 nodes (VNM) costs O(node-pair)
    memory: a per-rank-pair or per-hop expansion of its 4.2M messages
    would trace gigabytes."""
    import tracemalloc

    from repro.compiler.ir import CommKind
    from repro.npb import build_benchmark

    op = next(op for op in build_benchmark("ft", 2048, "C").comms()
              if op.kind is CommKind.ALLTOALL)
    mpi = _mpi(2048, OperatingMode.VNM, 512)
    set_vectorize(True)
    tracemalloc.start()
    try:
        result = mpi.run(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.inter_node_bytes > 0
    assert peak < 100 * 2**20, f"traced peak {peak / 2**20:.0f} MB"


# ---------------------------------------------------------------------------
# Aggregation: batched per-mode statistics vs the per-value loop
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       n_dumps=st.integers(1, 8),
       with_huge=st.booleans())
def test_aggregation_vector_identity(seed, n_dumps, with_huge):
    """Batched stats match the scalar loop, including the >=2**53 means."""
    from repro.core.dump import NodeDump
    from repro.core.postprocess import Aggregation

    rng = np.random.RandomState(seed)
    dumps = []
    for node_id in range(n_dumps):
        values = rng.randint(0, 1 << 31, size=256).astype(np.uint64)
        if with_huge:
            # push some columns' exact totals past 2**53 so the batched
            # engine exercises its np.mean fallback
            cols = rng.randint(0, 256, size=4)
            values[cols] = np.uint64(1) << np.uint64(
                rng.randint(53, 63, size=4))
        dumps.append(NodeDump(node_id=node_id,
                              mode=int(rng.randint(0, 4)),
                              clock_hz=850_000_000,
                              sets={0: values}))

    def run(vectorize: bool) -> Aggregation:
        set_vectorize(vectorize)
        return Aggregation(dumps, set_id=0)

    scalar = run(False)
    vector = run(True)
    assert list(scalar.stats) == list(vector.stats)
    assert scalar.nodes_by_mode == vector.nodes_by_mode
    for name, expect in scalar.stats.items():
        assert vector.stats[name] == expect
