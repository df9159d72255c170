"""Cross-point batched sweep engine vs the per-point oracle.

PR 5's discipline — every batched path keeps its scalar loop as the
oracle and must match it *byte-identically* — applied one level up:
``repro.harness.batch`` evaluates a whole sweep (many points, many L3
geometries, mixed kernels and modes) as one stacked pass, and every
test here compares it against the per-point path it replaces, down to
the JSON bytes, the CSV bytes, the shared-tier record files and the
telemetry counters.
"""

import json
import os
import random

import pytest

from repro import faults as faults_mod
from repro import markers as _markers
from repro.checkpoint import (
    SharedCacheTier,
    install_shared_tier,
    uninstall_shared_tier,
)
from repro.compiler import O3, O5
from repro.groups import set_active_group
from repro.harness import (
    attach_runner_store,
    clear_caches,
    detach_resume,
    pin_figure_working_set,
)
from repro.harness.batch import available, figure_working_set
from repro.harness.experiments import fig11_l3_sweep
from repro.harness.sweep import run_scaled_vnm, run_smp1, run_vnm
from repro.obs import metrics as _metrics
from repro.obs import timeline as obs_timeline
from repro.parallel import set_batch_sweep, set_vectorize, warm

KERNELS = ("cg", "mg", "ft", "lu", "sp", "is", "ep", "bt")


@pytest.fixture(autouse=True)
def _isolate():
    """Every test leaves the process-wide switches as it found them."""
    clear_caches()
    yield
    set_batch_sweep(False)
    set_vectorize(True)
    detach_resume()
    set_active_group("BGP_BASE")
    _markers.clear()
    clear_caches()


def _fingerprint(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _run_calls(calls):
    """Warm + collect one mixed batch of memo calls, in request order.

    ``calls`` is a list of ``(runner, args)``; warming first is what
    routes the whole set through the batched engine when it is on.
    """
    by_runner = {}
    for runner, args in calls:
        by_runner.setdefault(runner, []).append(args)
    for runner, argsets in by_runner.items():
        warm(runner, argsets)
    return [_fingerprint(runner(*args)) for runner, args in calls]


def _sample_calls(rng: random.Random):
    """A randomized mixed sweep: kernels x L3 geometries x run kinds."""
    calls = []
    for code in rng.sample(KERNELS, 3):
        for l3_mb in rng.sample((0, 2, 4, 6, 8), 2):
            calls.append((run_vnm, (code, O5(), l3_mb, "A")))
    calls.append((run_smp1, (rng.choice(KERNELS), O5(), 2, "A")))
    # odd rank counts force mixed-residents node classes (e.g. 4+2);
    # sp/bt insist on square process counts, so scale the others
    for _ in range(2):
        calls.append((run_scaled_vnm,
                      (rng.choice(("cg", "mg", "ft", "lu", "is", "ep")),
                       rng.choice((O3(), O5())),
                       rng.randrange(2, 26), rng.choice((0, 4, 8)), "S")))
    calls.append((run_scaled_vnm,
                  ("sp", O5(), rng.choice((9, 25)), 4, "S")))
    return calls


# ---------------------------------------------------------------------------
# identity: batched engine vs scalar per-point oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0xB6, 0xB7])
def test_randomized_cross_point_identity(seed):
    """Batched cross-point pass == per-point *scalar* oracle, byte-wise."""
    calls = _sample_calls(random.Random(seed))
    set_batch_sweep(True)
    batched = _run_calls(calls)

    clear_caches()
    set_batch_sweep(False)
    set_vectorize(False)
    try:
        oracle = _run_calls(calls)
    finally:
        set_vectorize(True)
    assert batched == oracle


def test_group_context_identity():
    """Under --group BGP_MEM the engines still agree byte-for-byte."""
    set_active_group("BGP_MEM")
    calls = [(run_vnm, ("cg", O5(), l3, "A")) for l3 in (0, 8)]
    calls.append((run_smp1, ("cg", O5(), 2, "A")))
    set_batch_sweep(True)
    batched = _run_calls(calls)
    clear_caches()
    set_batch_sweep(False)
    oracle = _run_calls(calls)
    assert batched == oracle


def test_experiment_csv_and_report_byte_identity(tmp_path):
    """A whole paper figure: rendered table, JSON and CSV bytes agree."""
    from repro.__main__ import _write_csv

    def run(batch: bool):
        clear_caches()
        set_batch_sweep(batch)
        result = fig11_l3_sweep()
        directory = tmp_path / ("batch" if batch else "oracle")
        path = _write_csv(result, str(directory))
        with open(path, "rb") as fh:
            csv_bytes = fh.read()
        return result.render(), result.to_json(), csv_bytes

    assert run(True) == run(False)


def test_counter_parity_with_per_point_path():
    """report.md telemetry lines agree: the batched engine mirrors the
    per-point path's runtime counters (jobs, phases, class/comm hits)."""
    parity = ("runtime.jobs", "runtime.bsp_phases",
              "runtime.node_classes", "runtime.node_class_hits",
              "runtime.comm_cache_hits", "runtime.comm_cache_misses",
              "node.runs")
    calls = _sample_calls(random.Random(7))

    def deltas(batch: bool):
        clear_caches()
        set_batch_sweep(batch)
        before = {n: _metrics.counter(n).value for n in parity}
        _run_calls(calls)
        return {n: _metrics.counter(n).value - before[n] for n in parity}

    assert deltas(True) == deltas(False)


# ---------------------------------------------------------------------------
# store/tier integration: identical cache keys either engine
# ---------------------------------------------------------------------------
def _tier_records(directory):
    records = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if not name.endswith(".json"):
                continue
            path = os.path.join(root, name)
            with open(path) as fh:
                records[os.path.relpath(path, directory)] = fh.read()
    return records


def test_shared_tier_record_set_identical(tmp_path):
    """Both engines persist the same record files with the same bytes —
    a tier warmed by one run resumes the other, fault-free."""
    calls = [(run_vnm, ("cg", O5(), l3, "A")) for l3 in (0, 8)]
    calls.append((run_smp1, ("mg", O5(), 2, "A")))

    def populate(directory, batch: bool):
        clear_caches()
        set_batch_sweep(batch)
        tier = install_shared_tier(str(directory))
        attach_runner_store(tier)
        try:
            results = _run_calls(calls)
        finally:
            detach_resume()
            uninstall_shared_tier()
        return results, _tier_records(directory)

    batched_results, batched = populate(tmp_path / "batched", True)
    oracle_results, oracle = populate(tmp_path / "oracle", False)
    assert batched_results == oracle_results
    assert sorted(batched) == sorted(oracle)
    assert batched == oracle

    # a tier written by the per-point path serves the batched engine:
    # rerunning over the oracle's directory simulates no node classes
    clear_caches()
    set_batch_sweep(True)
    tier = install_shared_tier(str(tmp_path / "oracle"))
    attach_runner_store(tier)
    try:
        runs_before = _metrics.counter("node.runs").value
        rerun = _run_calls(calls)
    finally:
        detach_resume()
        uninstall_shared_tier()
    assert _metrics.counter("node.runs").value == runs_before
    assert rerun == oracle_results
    assert _tier_records(tmp_path / "oracle") == oracle


# ---------------------------------------------------------------------------
# pin policy: the figure working set survives LRU pressure
# ---------------------------------------------------------------------------
def test_pinned_records_survive_byte_cap_stress(tmp_path):
    tier = SharedCacheTier(str(tmp_path), max_records=4, max_bytes=2048,
                           sweep_every=1)
    tier.put("memo.run_vnm", ("cg", "O5", 8), {"figure": "11"})
    tier.pin("memo.run_vnm", ("cg", "O5", 8))
    # flood far past both bounds; every put triggers an eviction sweep
    for i in range(60):
        tier.put("memo.run_vnm", ("flood", i), {"i": i, "pad": "x" * 64})
    assert tier.get("memo.run_vnm", ("cg", "O5", 8)) == {"figure": "11"}
    usage = tier.usage()
    assert usage["records"] <= tier.max_records
    # the pin is persisted: a fresh tier over the same directory still
    # refuses to evict the record
    fresh = SharedCacheTier(str(tmp_path), max_records=1, max_bytes=256,
                            sweep_every=1)
    for i in range(10):
        fresh.put("memo.run_vnm", ("flood2", i), {"i": i})
    assert fresh.get("memo.run_vnm", ("cg", "O5", 8)) == {"figure": "11"}


def test_pin_figure_working_set_counts_and_binds(tmp_path):
    tier = SharedCacheTier(str(tmp_path))
    pinned = pin_figure_working_set(tier)
    assert pinned == len(figure_working_set())
    # idempotent: a second pin adds nothing
    assert pin_figure_working_set(tier) == 0
    assert len(tier.pinned()) == pinned


# ---------------------------------------------------------------------------
# gating: anything that observes runs point-by-point disables batching
# ---------------------------------------------------------------------------
def test_available_gating():
    assert not available()          # off by default
    set_batch_sweep(True)
    assert available()
    injector = faults_mod.install(
        faults_mod.FaultConfig.parse("seed=3,link_stall_rate=0.5"))
    try:
        assert injector is not None
        assert not available()
    finally:
        faults_mod.uninstall()
    assert available()
    obs_timeline.install_sampling(50_000)
    try:
        assert not available()
    finally:
        obs_timeline.uninstall_sampling()
    assert available()
    with _markers.region("phase"):
        assert not available()
    assert available()


def test_warm_falls_back_when_engine_unavailable():
    """A declined batch is a no-op warm; the per-point path then
    computes the exact same result."""
    set_batch_sweep(True)
    obs_timeline.install_sampling(50_000)
    try:
        assert warm(run_scaled_vnm, [("cg", O5(), 6, 8, "S")]) == 0
    finally:
        obs_timeline.uninstall_sampling()
    sampled = run_scaled_vnm("cg", O5(), 6, 8, "S")
    assert sampled.elapsed_cycles > 0
