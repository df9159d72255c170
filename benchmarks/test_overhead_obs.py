"""Bench: the observability layer must be ~free when disabled.

The no-op tracer guard: with no tracer installed, every instrumentation
point costs one global load + compare (span) or one integer add
(metrics counter).  The guard measures that per-call cost, counts how
many obs calls a small experiment run actually performs, and asserts
the total stays under 5% of the run's wall time — i.e. tracing
disabled-at-import and the shipped no-op default are indistinguishable
within noise.
"""

import time

from repro import markers
from repro.compiler import O5
from repro.harness import clear_caches
from repro.harness.sweep import run_vnm
from repro.npb import BENCHMARK_ORDER
from repro.obs import timeline, tracer

CALIBRATION_CALLS = 200_000


def _noop_span_cost_s() -> float:
    """Per-call wall cost of span() with tracing disabled."""
    assert not tracer.enabled()
    span = tracer.span
    start = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        span("calibration")
    return (time.perf_counter() - start) / CALIBRATION_CALLS


def test_noop_span_is_shared_and_cheap(benchmark):
    tracer.uninstall()
    result = benchmark(tracer.span, "x")
    assert result is tracer.NULL_SPAN


def _run_every_kernel() -> None:
    """One VNM run of each of the eight NAS kernels."""
    for code in BENCHMARK_ORDER:
        run_vnm(code, O5())


def test_noop_tracer_overhead_under_5_percent(fresh_caches):
    tracer.uninstall()

    # 1) wall time of the eight kernels' runs on the no-op tracer
    clear_caches()
    start = time.perf_counter()
    _run_every_kernel()
    wall = time.perf_counter() - start

    # 2) how many spans those runs open (count with a real tracer)
    clear_caches()
    with tracer.recording() as t:
        _run_every_kernel()
    spans_per_run = len(t.spans) + t.close_open_spans()

    # 3) the no-op path's total bill must be < 5% of the run
    per_call = _noop_span_cost_s()
    # enter+exit+set: charge three calls per span, generously
    obs_bill = spans_per_run * 3 * per_call
    assert spans_per_run > 50  # the run is genuinely instrumented
    assert obs_bill < 0.05 * wall, (
        f"no-op tracing would cost {obs_bill * 1e3:.3f} ms against a "
        f"{wall * 1e3:.1f} ms run ({obs_bill / wall:.1%})")


def _sampling_off_check_cost_s() -> float:
    """Per-call wall cost of the disabled-sampling gate in Job.run.

    With no config installed and no per-job override, every hook the
    sampler adds to the engine reduces to ``resolve_config(None)`` (one
    global load, returns None) or a cheaper is-None / empty-dict check.
    Charging the resolve cost for all of them over-bills the real path.
    """
    assert timeline.get_config() is None
    resolve = timeline.resolve_config
    start = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        resolve(None)
    return (time.perf_counter() - start) / CALIBRATION_CALLS


def test_sampling_off_job_run_overhead_under_5_percent(fresh_caches):
    """Job.run with sampling off must not pay for the telemetry hooks."""
    timeline.uninstall_sampling()
    tracer.uninstall()

    clear_caches()
    start = time.perf_counter()
    result = run_vnm("EP", O5())
    wall = time.perf_counter() - start
    assert result.timeline is None  # the off path really was taken

    # Hooks on the off path: one resolve_config per job, one is-None
    # check per node, one empty-dict check per BSP phase and one at
    # dump.  Bill every one of them at the (dearest) resolve cost.
    from repro.harness.sweep import compiled_benchmark, paper_ranks

    nodes = result.placement.num_nodes
    phases = len(compiled_benchmark("EP", O5(), "C").comms())
    checks = 1 + nodes + phases + 1
    assert paper_ranks("EP") // 4 == nodes  # VNM: the run we billed
    per_call = _sampling_off_check_cost_s()
    sampling_bill = checks * per_call
    assert sampling_bill < 0.05 * wall, (
        f"disabled sampling would cost {sampling_bill * 1e6:.1f} us "
        f"against a {wall * 1e3:.1f} ms run ({sampling_bill / wall:.1%})")


def _markers_off_check_cost_s() -> float:
    """Per-call wall cost of the no-open-region gate in Job.run."""
    assert not markers.active()
    active = markers.active
    start = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        active()
    return (time.perf_counter() - start) / CALIBRATION_CALLS


def test_markers_off_job_run_overhead_under_5_percent(fresh_caches):
    """Job.run with no open region pays one bool check, nothing more.

    The marker hook in ``Job.run`` is a single ``markers.active()``
    call; crediting only happens inside an open region.  Bill that
    check per job (generously: per job *and* per node) and require the
    total to stay under 5% of a real run — in practice it is orders of
    magnitude below.
    """
    markers.clear()
    timeline.uninstall_sampling()
    tracer.uninstall()

    clear_caches()
    start = time.perf_counter()
    result = run_vnm("EP", O5())
    wall = time.perf_counter() - start
    assert not markers.recorded()  # the off path really was taken

    per_call = _markers_off_check_cost_s()
    checks = 1 + result.placement.num_nodes  # one is real; over-bill
    markers_bill = checks * per_call
    assert markers_bill < 0.05 * wall, (
        f"disabled markers would cost {markers_bill * 1e6:.2f} us "
        f"against a {wall * 1e3:.1f} ms run ({markers_bill / wall:.1%})")
