"""Unit + integration tests for the simulator metrics registry."""

import json

import pytest

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _reset_global_registry():
    metrics.reset()
    yield
    metrics.reset()


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
def test_counter_inc():
    r = MetricsRegistry()
    c = r.counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_gauge_last_value_wins():
    r = MetricsRegistry()
    g = r.gauge("x")
    g.set(3.5)
    g.set(1.25)
    assert g.value == 1.25


def test_histogram_streaming_stats():
    r = MetricsRegistry()
    h = r.histogram("x")
    for v in (2.0, 8.0, 5.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == 15.0
    assert h.mean == 5.0
    assert h.min == 2.0 and h.max == 8.0


def test_empty_histogram_snapshot_is_finite():
    r = MetricsRegistry()
    r.histogram("x")
    snap = r.snapshot()["histograms"]["x"]
    assert snap == {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}


def test_histogram_percentiles_exact_when_under_capacity():
    r = MetricsRegistry()
    h = r.histogram("x")
    for v in range(1, 101):  # 1..100, arrival order irrelevant
        h.observe(float(v))
    snap = h.to_dict()
    assert snap["p50"] == 50.0
    assert snap["p90"] == 90.0
    assert snap["p99"] == 99.0


def test_histogram_percentiles_survive_reservoir_decimation():
    r = MetricsRegistry()
    h = r.histogram("x")
    n = 4 * h.MAX_SAMPLES  # forces at least two decimation rounds
    for v in range(n):
        h.observe(float(v))
    assert len(h._samples) < h.MAX_SAMPLES
    assert h.count == n
    # decimation keeps an evenly spaced subsample: percentiles stay
    # within a stride of the exact answer
    assert abs(h.percentile(50) - n * 0.50) <= 2 * h._stride
    assert abs(h.percentile(90) - n * 0.90) <= 2 * h._stride


def test_histogram_reset_clears_reservoir():
    r = MetricsRegistry()
    h = r.histogram("x")
    for v in range(10):
        h.observe(float(v))
    r.reset()
    assert h._samples == [] and h._stride == 1
    assert h.percentile(50) is None


def test_histogram_percentiles_on_empty_reservoir_return_none():
    h = MetricsRegistry().histogram("x")
    assert h.count == 0
    for pct in (50, 90, 99):
        assert h.percentile(pct) is None
    # the snapshot form stays numeric (JSON consumers expect floats)
    assert h.to_dict() == {"count": 0, "total": 0.0, "mean": 0.0,
                           "min": 0.0, "max": 0.0,
                           "p50": 0.0, "p90": 0.0, "p99": 0.0}


def test_histogram_percentiles_with_one_sample():
    h = MetricsRegistry().histogram("x")
    h.observe(7.5)
    # every tail collapses onto the single observation
    assert h.percentile(50) == 7.5
    assert h.percentile(90) == 7.5
    assert h.percentile(99) == 7.5
    d = h.to_dict()
    assert d["p50"] == d["p90"] == d["p99"] == 7.5
    assert d["count"] == 1 and d["min"] == d["max"] == 7.5


def test_get_or_create_returns_same_instance():
    r = MetricsRegistry()
    assert r.counter("a") is r.counter("a")
    assert r.gauge("b") is r.gauge("b")
    assert r.histogram("c") is r.histogram("c")


def test_reset_zeroes_in_place_keeping_bindings():
    """Hot modules bind instruments at import; reset must not orphan
    those bindings by replacing the objects."""
    r = MetricsRegistry()
    c = r.counter("a")
    h = r.histogram("b")
    c.inc(7)
    h.observe(1.0)
    r.reset()
    assert r.counter("a") is c and c.value == 0
    assert r.histogram("b") is h and h.count == 0
    c.inc()  # the old binding still feeds the registry
    assert r.snapshot()["counters"]["a"] == 1


def test_export_json(tmp_path):
    r = MetricsRegistry()
    r.counter("runs").inc(3)
    r.gauge("depth").set(2.0)
    path = r.export_json(str(tmp_path / "metrics.json"))
    doc = json.load(open(path))
    assert doc["counters"]["runs"] == 3
    assert doc["gauges"]["depth"] == 2.0


# ---------------------------------------------------------------------------
# the instrumented hot paths feed the global registry
# ---------------------------------------------------------------------------
def test_memory_model_evaluations_are_counted():
    from repro.mem import NodeMemoryModel
    from repro.mem.address import StreamAccess

    model = NodeMemoryModel()
    loops = [((StreamAccess(array="a", footprint_bytes=4096),), 2)]
    model.analyze([loops])
    snap = metrics.snapshot()["counters"]
    assert snap["mem.node_analyses"] == 1
    # derive_profile analyses at the fair and unbounded shares, then the
    # final pass re-analyses at the allocated share: >= 3 loop evals
    assert snap["mem.loop_evals"] >= 3
    assert snap["mem.stream_evals"] >= snap["mem.loop_evals"]


def test_ddr_contention_resolution_counted():
    from repro.mem import NodeMemoryModel
    from repro.mem.address import StreamAccess

    model = NodeMemoryModel()
    loops = [((StreamAccess(array="a", footprint_bytes=1 << 20),), 4)]
    result = model.analyze([loops])
    model.contention(result, window_cycles=1e6)
    snap = metrics.snapshot()
    assert snap["counters"]["mem.ddr_contention_resolutions"] == 1
    assert snap["histograms"]["mem.ddr_queue_delay_cycles"]["count"] == 1


def test_network_charges_counted():
    from repro.net import CollectiveNetwork
    from repro.net.topology import TorusTopology
    from repro.net.torus import Message, TorusNetwork

    topo = TorusTopology.for_nodes(8)
    torus = TorusNetwork(topo)
    torus.run_phase([Message(src=0, dst=1, size_bytes=1024)])
    CollectiveNetwork(8).allreduce(512)
    snap = metrics.snapshot()["counters"]
    assert snap["net.torus_phases"] == 1
    assert snap["net.torus_packets"] == 4  # 1024 B / 256 B packets
    assert snap["net.collective_ops"] == 1


def test_job_run_counts_bsp_phases():
    from repro.compiler.ir import CommKind, CommOp, Loop, Phase, Program
    from repro.isa import InstructionMix, OpClass
    from repro.node import OperatingMode
    from repro.runtime import run_job

    loop = Loop(name="l", body=InstructionMix({OpClass.FP_ADDSUB: 1}),
                trip_count=8)
    program = Program(name="T", phases=[
        Phase(loops=(loop,),
              comm=CommOp(kind=CommKind.BARRIER)),
        Phase(comm=CommOp(kind=CommKind.ALLREDUCE, bytes_per_rank=8)),
    ])
    run_job(program, num_ranks=1, num_nodes=1, mode=OperatingMode.SMP1)
    snap = metrics.snapshot()["counters"]
    assert snap["runtime.jobs"] == 1
    assert snap["runtime.bsp_phases"] == 2
    assert snap["node.runs"] == 1
