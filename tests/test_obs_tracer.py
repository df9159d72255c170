"""Unit + integration tests for the simulator span tracer."""

import json

import pytest

from repro.compiler.ir import CommKind, CommOp, Loop, Phase, Program
from repro.isa import InstructionMix, OpClass
from repro.mem.address import StreamAccess
from repro.node import OperatingMode
from repro.obs import tracer
from repro.runtime import run_job


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Never leak an installed tracer into other tests."""
    tracer.uninstall()
    yield
    tracer.uninstall()


# ---------------------------------------------------------------------------
# disabled-by-default behaviour
# ---------------------------------------------------------------------------
def test_disabled_returns_shared_null_span():
    assert not tracer.enabled()
    s = tracer.span("anything", key="value")
    assert s is tracer.NULL_SPAN
    assert tracer.marker("m") is tracer.NULL_SPAN
    # the null span supports the whole Span protocol as no-ops
    with s as inner:
        assert inner is s
    assert s.set("k", 1) is s
    s.end()


def test_install_uninstall_roundtrip():
    t = tracer.install()
    assert tracer.enabled()
    assert tracer.get() is t
    assert tracer.uninstall() is t
    assert not tracer.enabled()
    assert tracer.uninstall() is None


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------
def test_nested_spans_record_parent_and_depth():
    with tracer.recording() as t:
        with tracer.span("outer", a=1):
            with tracer.span("inner"):
                pass
    inner, outer = t.spans  # close order: inner first
    assert inner.name == "inner" and outer.name == "outer"
    assert outer.parent_id is None and outer.depth == 0
    assert inner.parent_id == outer.span_id and inner.depth == 1
    assert outer.attrs == {"a": 1}
    assert inner.dur_us is not None and outer.dur_us >= inner.dur_us


def test_span_set_and_end_idempotent():
    with tracer.recording() as t:
        s = tracer.span("s")
        s.set("cycles", 42.0)
        s.end()
        s.end()  # idempotent: no double record
    assert len(t.spans) == 1
    assert t.spans[0].attrs["cycles"] == 42.0


def test_interleaved_marker_spans_are_not_parents():
    with tracer.recording() as t:
        m1 = tracer.marker("BGP_set1")
        m2 = tracer.marker("BGP_set2")
        with tracer.span("work"):
            pass
        m1.end()
        m2.end()
    by_name = {s.name: s for s in t.spans}
    assert by_name["work"].parent_id is None
    assert by_name["BGP_set1"].parent_id is None
    assert by_name["BGP_set2"].parent_id is None


def test_close_open_spans_force_closes():
    t = tracer.install()
    tracer.span("left-open")
    assert t.close_open_spans() == 1
    assert t.spans[0].dur_us is not None


def test_summary_aggregates_count_time_cycles():
    with tracer.recording() as t:
        tracer.span("x", cycles=10).end()
        tracer.span("x", cycles=5).end()
        tracer.span("y").end()
    summary = t.summary()
    assert summary["x"]["count"] == 2
    assert summary["x"]["cycles"] == 15.0
    assert summary["y"]["count"] == 1
    assert summary["x"]["total_us"] >= summary["x"]["max_us"] > 0.0


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
def test_export_chrome_trace_loads(tmp_path):
    with tracer.recording() as t:
        with tracer.span("parent", program="EP"):
            tracer.span("child", cycles=7).end()
    path = t.export_chrome(str(tmp_path / "trace.json"))
    doc = json.load(open(path))
    events = doc["traceEvents"]
    names = [e["name"] for e in events]
    assert "parent" in names and "child" in names
    complete = [e for e in events if e.get("ph") == "X"]
    for e in complete:
        assert set(e) >= {"name", "ph", "ts", "dur", "pid", "tid"}
    child = next(e for e in complete if e["name"] == "child")
    assert child["args"]["cycles"] == 7


def test_export_jsonl_one_span_per_line(tmp_path):
    with tracer.recording() as t:
        with tracer.span("a"):
            tracer.span("b").end()
    path = t.export_jsonl(str(tmp_path / "spans.jsonl"))
    lines = [json.loads(line) for line in open(path)]
    assert [rec["name"] for rec in lines] == ["a", "b"]  # start order
    assert lines[1]["parent"] == lines[0]["id"]
    assert lines[1]["depth"] == 1


# ---------------------------------------------------------------------------
# the instrumented stack
# ---------------------------------------------------------------------------
def _tiny_program() -> Program:
    loop = Loop(
        name="axpy",
        body=InstructionMix({OpClass.FP_FMA: 2, OpClass.LOAD: 2,
                             OpClass.STORE: 1, OpClass.INT_ALU: 1}),
        trip_count=64,
        executions=2,
        streams=(StreamAccess(array="x", footprint_bytes=64 * 8),),
    )
    return Program(name="TINY", phases=[
        Phase(loops=(loop,),
              comm=CommOp(kind=CommKind.ALLREDUCE, bytes_per_rank=64)),
    ])


def test_job_run_produces_nested_job_phase_spans():
    with tracer.recording() as t:
        run_job(_tiny_program(), num_ranks=2, num_nodes=2,
                mode=OperatingMode.SMP1)
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s.name, []).append(s)
    job = by_name["job"][0]
    assert job.attrs["program"] == "TINY"
    assert job.attrs["cycles"] > 0
    phases = {s.name for s in t.spans if s.parent_id == job.span_id}
    assert {"phase.compute", "phase.comm", "phase.dump"} <= phases
    # node-model spans nest under the compute phase; the two nodes
    # form one equivalence class, so exactly one is simulated and its
    # counter deltas are replicated to the other
    compute = by_name["phase.compute"][0]
    node_runs = [s for s in by_name["node.run"]
                 if s.parent_id == compute.span_id]
    assert len(node_runs) == 1
    assert compute.attrs["classes"] == 1
    assert compute.attrs["replicated"] == 1
    # communication charge spans exist under the comm phase
    comm = by_name["phase.comm"][0]
    assert comm.attrs["kind"] == "allreduce"
    assert comm.attrs["cycles"] > 0
    # Job.run keeps counters as in-memory rows: no per-node interface
    assert "BGP_set0" not in by_name
    # the BGP_Start/Stop marker spans line up with the counter regions
    # of a CounterSession, one per instrumented node
    from repro.core import CounterSession
    from repro.node import ComputeNode

    nodes = [ComputeNode(node_id=i) for i in range(2)]
    with tracer.recording() as t:
        with CounterSession(nodes, primary_mode=0, secondary_mode=2):
            for node in nodes:
                node.pulse_events({"BGP_PU0_FPU_FMA": 5,
                                   "BGP_L3_MISS": 3})
    markers = [s for s in t.spans if s.name == "BGP_set0"]
    assert len(markers) == 2  # one per node
    assert all(m.attrs["kind"] == "marker" for m in markers)
    assert all(m.attrs["events"] > 0 for m in markers)


def test_dump_span_counts_the_files_finalize_wrote(tmp_path):
    """phase.dump records one file per node that hosts a rank, and
    none unless the caller asked for dumps."""
    from repro.runtime import Job, Machine

    with tracer.recording() as t:
        machine = Machine(4, mode=OperatingMode.SMP1)
        result = Job(machine, _tiny_program(), 3).run(
            dump_dir=str(tmp_path))
    (dump,) = [s for s in t.spans if s.name == "phase.dump"]
    assert dump.attrs["files"] == len(result.dump_paths) == 3

    with tracer.recording() as t:
        result = run_job(_tiny_program(), num_ranks=3, num_nodes=4,
                         mode=OperatingMode.SMP1)
    (dump,) = [s for s in t.spans if s.name == "phase.dump"]
    assert dump.attrs["files"] == 0
    assert result.dump_paths == []


def test_traced_experiment_span_wraps_runner():
    from repro.harness import fig03_modes

    with tracer.recording() as t:
        result = fig03_modes()
    assert result.experiment_id == "fig03"
    assert [s.name for s in t.spans] == ["experiment:fig03"]


def test_job_run_without_tracer_records_nothing():
    run_job(_tiny_program(), num_ranks=2, num_nodes=2,
            mode=OperatingMode.SMP1)
    assert tracer.get() is None
