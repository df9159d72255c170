"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest e2ebench/tests -q

The end-to-end cases run the real benchmark with ``--seconds 1``, which
still makes the minimum number of passes; the whole file takes a few
minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402
from common import ROOT, canonical_json, load_reference  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "e2ebench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, inputs.HELD_BACK, 1000])
def test_jobs_inputs_repeat_for_a_seed_and_share_nothing(seed):
    first, second = inputs.jobs_distinct(seed), inputs.jobs_distinct(seed)
    assert first == second
    triples = {(j["code"], j["mode"], j["ranks"]) for j in first}
    assert len(triples) == len(first) == 32
    sampled = [j for j in first if j["sample_every"]]
    assert len(sampled) == len(inputs.KERNELS)
    assert all(j["region"] for j in sampled)


def test_seeds_give_other_inputs():
    assert inputs.jobs_distinct(0) != inputs.jobs_distinct(1)
    assert inputs.serve_stream(0) != inputs.serve_stream(1)
    assert inputs.serve_stream(3) == inputs.serve_stream(3)


def test_reference_covers_every_shipped_input_set():
    reference = load_reference()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.serve.protocol import SweepPoint

    assert set(reference["figures"]) == {
        "fig03", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
        "fig12", "fig13", "fig14", "overhead"}
    for index in range(inputs.NUM_INPUT_SETS):
        for job in inputs.jobs_distinct(index):
            assert inputs.job_key(job) in reference["jobs"]
        for raw in inputs.stream_points(inputs.serve_stream(index)):
            key = canonical_json(SweepPoint.from_dict(raw, 0).canonical())
            assert key in reference["points"]


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------
def _corrupt(reference, workload):
    if workload == "figures":
        table, key = reference["figures"], "fig11"
    elif workload == "jobs-distinct":
        table = reference["jobs"]
        key = inputs.job_key(inputs.jobs_distinct(0)[5])
    else:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.serve.protocol import SweepPoint
        table = reference["points"]
        raw = inputs.serve_stream(0)[0][1]["points"][0]
        key = canonical_json(SweepPoint.from_dict(raw, 0).canonical())
    table[key] = "0" * 64


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_digest_fails_an_operation(workload, monkeypatch,
                                                       capsys):
    reference = load_reference()
    _corrupt(reference, workload)
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    status = run.main(["--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", "0"])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


#: Per-layer metrics that must be non-zero, by workload: each layer on
#: the workloads where it does work.
RUNS_ON = {
    "figures": ["compiler.", "runtime.", "node.", "mem.", "cpu.",
                "net.phase_s", "net.phases", "core.", "groups.",
                "parallel.memo_calls", "harness.render_s",
                "import.numpy_ms", "import.repro.compiler_ms",
                "import.repro.mem_ms", "import.repro.harness_ms",
                "import.repro.obs_ms", "trace.pass_s"],
    "jobs-distinct": ["compiler.", "runtime.", "node.", "mem.", "cpu.",
                      "net.phase_s", "net.phases", "core.", "obs.",
                      "import.numpy_ms", "trace.pass_s"],
    "serve-mixed": ["compiler.", "runtime.", "node.", "mem.", "cpu.",
                    "net.phase_s", "net.phases", "core.", "parallel.",
                    "checkpoint.", "serve.self_ms",
                    "import.repro.serve_ms", "trace.pass_s"],
}
#: ... and the layers that do no work there, so must read zero.
ZERO_ON = {
    "figures": ["obs.", "checkpoint.", "serve.", "harness.batch_s"],
    "jobs-distinct": ["checkpoint.", "serve.", "parallel.",
                      "harness."],
    "serve-mixed": ["obs.", "harness."],
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, lines = _result(_run("--workload", workload, "--seed", "0",
                                 "--seconds", "1", "--trace", "1"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for name, value in metrics.items():
        if any(name.startswith(p) for p in RUNS_ON[workload]):
            assert value > 0, name
        if any(name.startswith(p) for p in ZERO_ON[workload]):
            assert value == 0, name
    # the self-time table is stated against the traced pass's wall time,
    # which its root spans cover (for the service: the pass's summed
    # client-side latencies, which the server's spans do not match, as
    # it still logs a request after replying), and leaves little of it
    # unattributed
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("self time by layer"))
    total, spans = map(float, re.search(
        r"total ([0-9.]+) s, root spans '[^']+' ([0-9.]+) s",
        lines[start]).groups())
    rows = {}
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        rows[line.split()[0]] = float(line.split()[1])
    if workload != "serve-mixed":
        assert total == pytest.approx(metrics["trace.pass_s"], abs=1e-6)
        assert abs(spans - total) < 5e-3
    unattributed = metrics["trace.unattributed_s"]
    assert rows["unattributed"] == pytest.approx(unattributed, abs=1e-4)
    assert 0 <= unattributed <= UNATTRIBUTED_SHARE[workload] * total
    assert any(line.startswith("tracing overhead:") for line in lines)


#: Largest share of the traced pass (request latency) that the layers
#: may leave unattributed: the pass's own glue code, and for the
#: service its HTTP handling and the client's side of each request.
UNATTRIBUTED_SHARE = {"figures": 0.1, "jobs-distinct": 0.1,
                      "serve-mixed": 0.25}


def test_timing_basis_check_catches_parallel_blocked_and_live_work():
    sys.path.insert(0, str(ROOT / "src"))
    import pass_worker

    start = (0.0, 0.0, 0.0, 0.0)
    # one thread, on the CPU or queued or stolen the whole time
    assert pass_worker._basis_errors(start, (0.9, 1.0, 0.06, 0.04)) == []
    # two seconds of CPU in one second of wall time
    (error,) = pass_worker._basis_errors(start, (2.0, 1.0, 0.0, 0.0))
    assert "parallel" in error
    # half the pass waiting on something the CPU time does not see
    (error,) = pass_worker._basis_errors(start, (0.5, 1.0, 0.0, 0.0))
    assert "blocked" in error
    # a child process still running: its CPU time is not counted yet
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        (error,) = pass_worker._basis_errors(start, (1.0, 1.0, 0.0, 0.0))
        assert "child" in error
    finally:
        child.kill()
        child.wait()


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero and
    print no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "figures", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
