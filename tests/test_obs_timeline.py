"""Tests for the job-level telemetry pipeline (repro.obs.timeline)."""

import json

import pytest

from repro.compiler import O5, compile_program
from repro.node import OperatingMode
from repro.npb import build_benchmark
from repro.obs import timeline as tl
from repro.runtime import Job, Machine
from repro.runtime.machine import clear_comm_cache


@pytest.fixture(scope="module")
def small_mg():
    """A small MG job (class A, 16 ranks) that runs in milliseconds."""
    return compile_program(build_benchmark("MG", num_ranks=16,
                                           problem_class="A"), O5())


@pytest.fixture(autouse=True)
def _no_global_sampling():
    tl.uninstall_sampling()
    tl.clear_recorded()
    yield
    tl.uninstall_sampling()
    tl.clear_recorded()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
def test_config_validates_period_and_events():
    with pytest.raises(ValueError, match="positive"):
        tl.TimelineConfig(sample_every=0)
    with pytest.raises(ValueError, match="unknown event"):
        tl.TimelineConfig(sample_every=100, events=("NOT_AN_EVENT",))


def test_config_filters_events_per_mode():
    config = tl.TimelineConfig(sample_every=100)
    mode0 = config.events_in_mode(0)
    mode2 = config.events_in_mode(2)
    assert "BGP_PU0_CYCLES" in mode0
    assert "BGP_L3_MISS" in mode2
    assert not set(mode0) & set(mode2)
    assert config.events_in_mode(3) == []  # defaults skip network


def test_resolve_config_precedence():
    assert tl.resolve_config(None) is None  # nothing installed: off
    explicit = tl.resolve_config(500)
    assert explicit.sample_every == 500
    installed = tl.install_sampling(tl.TimelineConfig(
        sample_every=1000, thresholds={"BGP_L3_MISS": 7}))
    assert tl.resolve_config(None) is installed
    # per-job override keeps the installed thresholds, changes period
    merged = tl.resolve_config(250)
    assert merged.sample_every == 250
    assert merged.thresholds == {"BGP_L3_MISS": 7}


# ---------------------------------------------------------------------------
# the per-node sampler
# ---------------------------------------------------------------------------
def _sampler(period=100, events=("BGP_PU0_CYCLES",
                                 "BGP_PU0_INST_COMPLETED"),
             thresholds=None):
    config = tl.TimelineConfig(sample_every=period, events=events,
                               thresholds=thresholds or {})
    return tl.NodeTimelineSampler(node_id=0, mode=0, config=config)


def test_feed_distributes_events_smoothly_and_exactly():
    s = _sampler(period=100)
    s.feed("compute", {"BGP_PU0_INST_COMPLETED": 1000}, 400)
    node = s.finish()
    series = node.samples["BGP_PU0_INST_COMPLETED"]
    # 4 boundaries inside the phase, 250 events each — not one lump
    assert [delta for _, delta in series] == [250, 250, 250, 250]
    assert [cycle for cycle, _ in series] == [100, 200, 300, 400]
    assert node.totals()["BGP_PU0_INST_COMPLETED"] == 1000


def test_feed_preserves_totals_with_uneven_division():
    s = _sampler(period=100)
    s.feed("compute", {"BGP_PU0_INST_COMPLETED": 7}, 350)
    node = s.finish()
    assert node.totals()["BGP_PU0_INST_COMPLETED"] == 7
    deltas = [d for _, d in node.samples["BGP_PU0_INST_COMPLETED"]]
    # cumulative floor rounding: monotone shares, exact total
    assert sum(deltas) == 7
    assert max(deltas) - min(deltas) <= 1


def test_feed_rejects_negative_span():
    s = _sampler()
    with pytest.raises(ValueError, match="negative"):
        s.feed("compute", {}, -1)


def test_sampler_requires_events_in_mode():
    config = tl.TimelineConfig(sample_every=100,
                               events=("BGP_L3_MISS",))  # mode 2 only
    with pytest.raises(ValueError, match="mode 0"):
        tl.NodeTimelineSampler(node_id=0, mode=0, config=config)


def test_threshold_crossing_records_alert():
    s = _sampler(period=100,
                 thresholds={"BGP_PU0_INST_COMPLETED": 500})
    s.feed("compute", {"BGP_PU0_INST_COMPLETED": 1000}, 400)
    node = s.finish()
    assert len(node.alerts) == 1
    alert = node.alerts[0]
    assert alert.event == "BGP_PU0_INST_COMPLETED"
    assert alert.threshold == 500
    assert alert.value >= 500
    assert alert.cycle in (200, 300)  # crossed mid-phase, not at start


def test_branch_shares_history_then_diverges():
    rep = _sampler(period=100)
    rep.feed("compute", {"BGP_PU0_INST_COMPLETED": 400}, 400)
    twin = rep.branch(node_id=7)
    rep.feed("comm", {"BGP_PU0_INST_COMPLETED": 100}, 100)
    twin.feed("comm", {"BGP_PU0_INST_COMPLETED": 900}, 100)
    a, b = rep.finish(), twin.finish()
    assert b.node_id == 7
    sa = a.samples["BGP_PU0_INST_COMPLETED"]
    sb = b.samples["BGP_PU0_INST_COMPLETED"]
    assert sa[:4] == sb[:4]            # shared compute history
    assert sa[4] == (500, 100)
    assert sb[4] == (500, 900)         # divergent comm phases


def test_branch_replays_identically_when_fed_identically():
    rep = _sampler(period=64)
    rep.feed("compute", {"BGP_PU0_CYCLES": 12345}, 1000)
    twin = rep.branch(node_id=1)
    rep.feed("comm", {"BGP_PU0_CYCLES": 777}, 300)
    twin.feed("comm", {"BGP_PU0_CYCLES": 777}, 300)
    assert rep.finish().samples == twin.finish().samples


# ---------------------------------------------------------------------------
# rate-jump detection
# ---------------------------------------------------------------------------
def test_detect_rate_jumps_flags_phase_change():
    samples = [(100, 10), (200, 10), (300, 100), (400, 100)]
    assert tl.detect_rate_jumps(samples, factor=4.0) == [300]


def test_detect_rate_jumps_skips_idle_gaps():
    samples = [(100, 50), (200, 0), (300, 50)]
    assert tl.detect_rate_jumps(samples, factor=4.0) == []


def test_detect_rate_jumps_validates_factor():
    with pytest.raises(ValueError):
        tl.detect_rate_jumps([], factor=1.0)


# ---------------------------------------------------------------------------
# identity: memoized engine == legacy engine, per node, byte for byte
# ---------------------------------------------------------------------------
def _sampled_series(program, memoize):
    clear_comm_cache()
    machine = Machine(4, mode=OperatingMode.VNM)
    # 14 ranks on 4 VNM nodes: two equivalence classes (4,4,4,2), so
    # the memoized engine actually exercises representative branching
    result = Job(machine, program, 14, memoize=memoize,
                 sample_every=150_000).run()
    timeline = result.timeline
    assert timeline is not None
    return {
        node_id: {
            "mode": node.mode,
            "samples": node.samples,
            "alerts": [a.to_dict() for a in node.alerts],
            "phases": node.phases,
        }
        for node_id, node in timeline.nodes.items()
    }


def test_memoized_series_identical_to_legacy(small_mg):
    memoized = _sampled_series(small_mg, memoize=True)
    legacy = _sampled_series(small_mg, memoize=False)
    assert set(memoized) == set(legacy) == {0, 1, 2, 3}
    blob_a = json.dumps(memoized, sort_keys=True, default=str)
    blob_b = json.dumps(legacy, sort_keys=True, default=str)
    assert blob_a == blob_b


def test_sampling_leaves_counter_dumps_untouched(tmp_path, small_mg):
    """The shadow samplers must never perturb the real UPC pulses."""
    def dump_bytes(tag, sample_every):
        clear_comm_cache()
        directory = tmp_path / tag
        directory.mkdir()
        machine = Machine(4, mode=OperatingMode.VNM)
        Job(machine, small_mg, 14,
            sample_every=sample_every).run(dump_dir=str(directory))
        return b"".join(sorted(
            p.read_bytes() for p in directory.iterdir()))

    assert dump_bytes("plain", None) == dump_bytes("sampled", 150_000)


# ---------------------------------------------------------------------------
# the job-level rollup
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def mg_timeline(small_mg):
    clear_comm_cache()
    machine = Machine(4, mode=OperatingMode.VNM)
    result = Job(machine, small_mg, 16, sample_every=200_000).run()
    return result.timeline


def test_job_timeline_covers_both_counter_modes(mg_timeline):
    modes = {node.mode for node in mg_timeline.nodes.values()}
    assert modes == {0, 2}  # even/odd node-card split


def test_bands_aggregate_across_nodes(mg_timeline):
    bands = mg_timeline.bands()
    rows = bands["BGP_PU0_CYCLES"]
    assert rows, "cycle counter must have samples"
    for row in rows:
        assert row["min"] <= row["mean"] <= row["max"]
        assert row["p10"] <= row["p90"]
        assert row["nodes"] >= 1


def test_derived_timeline_reuses_core_metrics(mg_timeline):
    rows = mg_timeline.derived_timeline()
    assert rows
    assert any(row["mflops"] > 0 for row in rows)
    assert any(row["ddr_bytes_per_sec"] > 0 for row in rows)
    fractions = [row["simd_fraction"] for row in rows]
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_imbalance_zero_for_symmetric_spmd(mg_timeline):
    stats = mg_timeline.imbalance()
    cycles = stats["BGP_PU0_CYCLES"]
    # full nodes perform identical work: no cross-node imbalance
    assert cycles["imbalance"] == pytest.approx(0.0)


def test_to_records_has_all_kinds(mg_timeline):
    records = mg_timeline.to_records()
    kinds = {r["kind"] for r in records}
    assert {"job", "sample", "node"} <= kinds
    job = next(r for r in records if r["kind"] == "job")
    assert job["sampled_nodes"] == 4
    assert job["sample_every"] == 200_000
    sample = next(r for r in records if r["kind"] == "sample")
    assert sample["events"]
    node = next(r for r in records if r["kind"] == "node")
    assert node["phases"][0]["label"] == "compute"


def test_perfetto_counter_events_shape(mg_timeline):
    events = mg_timeline.perfetto_counter_events()
    assert events
    assert all(e["ph"] == "C" for e in events)
    ts = [e["ts"] for e in events if "mflops" in e["name"]]
    assert ts == sorted(ts)  # counter track must be time-ordered


def test_export_jsonl_roundtrips(tmp_path, mg_timeline):
    path = tl.export_jsonl(str(tmp_path / "timeline.jsonl"),
                           [mg_timeline])
    lines = [json.loads(line) for line in open(path)]
    assert lines[0]["kind"] == "job"
    assert len(lines) == len(mg_timeline.to_records())


# ---------------------------------------------------------------------------
# the global recorder + engine integration
# ---------------------------------------------------------------------------
def test_installed_config_records_timelines(small_mg):
    clear_comm_cache()
    tl.install_sampling(250_000)
    machine = Machine(4, mode=OperatingMode.VNM)
    result = Job(machine, small_mg, 16).run()  # no per-job argument
    assert result.timeline is not None
    recorded = tl.uninstall_sampling()
    assert result.timeline in recorded
    assert recorded[-1].label.startswith("MG")


def test_sampling_off_by_default(small_mg):
    clear_comm_cache()
    machine = Machine(4, mode=OperatingMode.VNM)
    result = Job(machine, small_mg, 16).run()
    assert result.timeline is None
    assert tl.recorded() == []


def test_job_thresholds_surface_as_alert_stream(small_mg):
    clear_comm_cache()
    tl.install_sampling(tl.TimelineConfig(
        sample_every=200_000,
        thresholds={"BGP_PU0_INST_COMPLETED": 1_000_000}))
    machine = Machine(4, mode=OperatingMode.VNM)
    result = Job(machine, small_mg, 16).run()
    alerts = result.timeline.alerts()
    assert alerts, "a class-A MG run passes 1M instructions"
    assert all(a.event == "BGP_PU0_INST_COMPLETED" for a in alerts)
    assert alerts == sorted(alerts, key=lambda a: (a.cycle, a.node_id))
