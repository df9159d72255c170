"""Smoke tests: the CLI entry point and the runnable examples."""

import subprocess
import sys

import pytest

from repro.__main__ import main as cli_main
from repro.harness import model_validation


def run_cli(*args):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(args))
    return code, buf.getvalue()


def test_cli_list():
    code, out = run_cli("--list")
    assert code == 0
    for name in ("fig06", "fig11", "overhead", "abl-prefetch",
                 "characterize", "validate"):
        assert name in out


def test_cli_single_experiment():
    code, out = run_cli("fig03")
    assert code == 0
    assert "Virtual Node Mode" in out


def test_cli_overhead_experiment():
    code, out = run_cli("overhead")
    assert code == 0
    assert "196" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        run_cli("fig99")


def test_cli_and_service_import_no_process_pool():
    """Every simulation runs in the calling process: importing the CLI
    and the service loads neither multiprocessing nor the process-pool
    executor."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, repro.__main__, repro.serve.server; "
             "print(sorted(m for m in ('multiprocessing', "
             "'concurrent.futures.process') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_harness_wrapper():
    result = model_validation(benchmarks=("EP", "MG"))
    assert result.summary["agrees_EP"] == 1.0
    assert result.summary["agrees_MG"] == 1.0
    assert result.summary["worst_error"] < 0.35


# ---------------------------------------------------------------------------
# job telemetry: --sample-every and the report subcommand
# ---------------------------------------------------------------------------
def test_cli_sample_every_exports_telemetry(tmp_path):
    out = str(tmp_path)
    code, _ = run_cli("smoke", "--trace", out, "--sample-every",
                      "200000", "-q")
    assert code == 0
    import json
    import os

    timeline = [json.loads(line)
                for line in open(os.path.join(out, "timeline.jsonl"))]
    jobs = [r for r in timeline if r["kind"] == "job"]
    assert {j["program"] for j in jobs} == {"MG", "EP"}
    assert all(j["sample_every"] == 200000 for j in jobs)
    trace = json.load(open(os.path.join(out, "trace.json")))
    phases = {e["ph"] for e in trace["traceEvents"]}
    assert "C" in phases and "X" in phases  # counter tracks + spans

    # and the report subcommand renders from those artifacts
    code, printed = run_cli("report", out)
    assert code == 0
    assert "report.md" in printed and "report.json" in printed
    report = open(os.path.join(out, "report.md")).read()
    assert "# Run report" in report
    assert "### Phases" in report


def test_cli_sample_every_rejects_nonpositive(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("smoke", "--trace", str(tmp_path), "--sample-every", "0")


def test_cli_report_requires_timeline(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("report", str(tmp_path))


# ---------------------------------------------------------------------------
# fast examples run end to end as subprocesses
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("script,needle", [
    ("quickstart.py", "interface overhead"),
    ("custom_counters.py", "events monitored in one run: 512"),
    ("online_monitoring.py", "threshold interrupts fired"),
    ("marker_regions.py", "derived metrics (BGP_BASE group)"),
])
def test_example_runs(script, needle):
    proc = subprocess.run(
        [sys.executable, f"examples/{script}"],
        capture_output=True, text=True, timeout=300,
        cwd=__file__.rsplit("/tests/", 1)[0])
    assert proc.returncode == 0, proc.stderr
    assert needle in proc.stdout


def test_online_monitoring_detects_phase_change_and_interrupt():
    """The example's telemetry must actually trigger, not just print.

    The app switches from compute-bound to memory-bound: the monitor
    has to flag the rate jump, and the L1-miss thresholding interrupt
    has to fire (with its advisory line) exactly once.
    """
    proc = subprocess.run(
        [sys.executable, "examples/online_monitoring.py"],
        capture_output=True, text=True, timeout=300,
        cwd=__file__.rsplit("/tests/", 1)[0])
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "[irq] BGP_PU0_L1D_READ_MISS crossed 2,000,000" in out
    # at least one phase change detected, at a concrete cycle
    import re

    match = re.search(r"phase changes detected at cycles: \[(.+)\]",
                      out)
    assert match and match.group(1).strip(), \
        "the compute->memory transition must be flagged"
    fired = re.search(r"threshold interrupts fired: (\d+)", out)
    assert fired and int(fired.group(1)) == 1
