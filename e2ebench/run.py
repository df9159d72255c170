"""The repository's benchmark: the real entry points, end to end.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

``figures``
    ``python -m repro --csv DIR`` with default flags: every paper
    experiment.  The ``req_*`` latencies are per experiment's table.
``jobs-distinct``
    Independent ``Job.run`` calls that share no node class and no comm
    phase (``inputs.jobs_distinct``).  ``req_*`` are per job.
``serve-mixed``
    A live ``python -m repro serve --jobs 1`` replaying a seeded stream
    of repeated, recombined, L3-variant and new requests
    (``inputs.serve_stream``).  ``req_*`` are per request.

Every pass of ``figures`` and ``jobs-distinct`` runs in a fresh
interpreter and is followed, in the same interpreter, by warm repeats
(``WARM_REPEATS``); their times after the import are CPU time of that
worker and its reaped children, and a pass whose CPU time is not its
wall time less queueing and steal (work in parallel, blocked, or in a
child still running) has failed.  Every ``serve-mixed`` pass starts its
own server on a fresh cache and is timed in wall time.  Passes repeat
until ``--seconds`` are spent; the metrics are medians (one a tail
percentile) over the run's passes or requests.  Each run gets a fresh
``TMPDIR`` on tmpfs (``/dev/shm``, else a directory in the checkout)
for the per-node counter dumps the program writes, removed at the end.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose layers are wrapped by ``tracing.py``
and prints the per-layer metrics, a self-time table whose rows add up
to the traced pass (or request) time, and the tracing overhead.

Every output is checked against ``reference.json`` (digests made by
``make_reference.py``).  ``attempted`` and ``failed`` count passes
(cold and warm) for the CLI workloads and requests for the service; one
whose output differs from the reference, or that errors, has failed.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from common import (
    BENCH_DIR,
    SRC,
    child_env,
    count_files,
    digest,
    load_reference,
    median,
    median_low,
    tail,
)

import inputs
import serve_load
import tracing

WORKLOADS = ("figures", "jobs-distinct", "serve-mixed")
#: Fewest passes a run makes, even when they overrun ``--seconds`` (a
#: traced run makes at least one untraced and one traced pass).
MIN_PASSES = 3
PASS_TIMEOUT_S = 150.0
#: Warm repeats after each cold CLI pass.  A warm figures pass takes a
#: few tens of milliseconds, so its median needs several of them.
WARM_REPEATS = {"figures": 5, "jobs-distinct": 1}

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "req_per_s": "1/s", "req_p50_ms": "ms", "req_tail_ms": "ms",
    "cold_p50_ms": "ms", "warm_p50_ms": "ms",
}
IMPORT_PACKAGES = ("numpy", "repro.compiler", "repro.mem", "repro.harness",
                   "repro.obs", "repro.serve", "repro.fleet")


def _per_layer_units() -> Dict[str, str]:
    units = {}
    for name in tracing.layer_metrics({}):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_ratio", "_reuse")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units.update({"core.dump_bytes": "bytes", "core.dump_files_left": "count",
                  "serve.self_ms": "ms", "trace.pass_s": "s",
                  "trace.overhead_pass_s": "s",
                  "trace.overhead_req_p50_ms": "ms",
                  "trace.unattributed_s": "s"})
    units.update({f"import.{pkg}_ms": "ms" for pkg in IMPORT_PACKAGES})
    return units


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# host record and run isolation
# ---------------------------------------------------------------------------
def _cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies from /proc/stat, or (0, 0) without it."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes: the host's speed now.

    Neighbours on a shared machine can change it severalfold within
    minutes without any CPU steal showing, so every pass records it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def _filesystem(path: Path) -> str:
    """The filesystem type holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if (str(path) == mount or str(path).startswith(
                        mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def _scratch_dir() -> Path:
    """A fresh per-run directory: on tmpfs when possible.

    Where the per-node dumps land decides whether a pass time can be
    trusted: on a disk filesystem a figures pass slows down and drifts
    from pass to pass, on tmpfs it does not.
    """
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return Path(tempfile.mkdtemp(prefix="e2ebench-", dir=shm))
    local = BENCH_DIR.parent / ".bench_tmp"
    local.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=local))


def _numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "absent"


# ---------------------------------------------------------------------------
# figures and jobs-distinct: one fresh interpreter per pass
# ---------------------------------------------------------------------------
def _cli_pass(scratch: Path, index: int, workload: str, jobs,
              traced: bool, warm_repeats: int) -> Dict:
    pass_dir = scratch / f"pass-{index}"
    tmp = pass_dir / "tmp"
    tmp.mkdir(parents=True)
    spec = {"workload": workload, "jobs": jobs, "traced": traced,
            "warm_repeats": warm_repeats, "csv_dir": str(pass_dir / "csv"),
            "warm_csv_dir": str(pass_dir / "csv-warm"),
            "spans_out": str(pass_dir / "spans.json")}
    spec_path, out_path = pass_dir / "spec.json", pass_dir / "out.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.perf_counter()
    with open(pass_dir / "stderr.log", "wb") as err:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "pass_worker.py"),
             str(spec_path), str(out_path)],
            stdout=subprocess.DEVNULL, stderr=err, env=child_env(str(tmp)),
            cwd=str(pass_dir), timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass worker exited {proc.returncode}: "
                           + (pass_dir / "stderr.log").read_text()[-2000:])
    out = json.loads(out_path.read_text())
    # perf_counter is CLOCK_MONOTONIC, shared with the worker
    out["cold"]["done_wall_s"] = out["cold"]["done_wall"] - spawned
    out["dump_files_left"] = count_files(tmp)
    if traced:
        out["trace"] = json.loads(Path(spec["spans_out"]).read_text())
    shutil.rmtree(pass_dir)
    return out


def _check_cli_pass(workload: str, out: Dict, reference: Dict,
                    jobs) -> List[str]:
    """One line per pass of this interpreter that failed: its outputs
    differ from the reference, or its CPU time did not measure its wait
    (``pass_worker._basis_errors``)."""
    if workload == "figures":
        expected = reference["figures"]
    else:
        expected = [reference["jobs"].get(inputs.job_key(job))
                    for job in jobs]
    runs = [("cold", out["cold"])] + [
        (f"warm {i + 1}", warm) for i, warm in enumerate(out["warm"])]
    if workload != "figures" and out["inputs_digest"] != digest(jobs):
        return [f"{label}: pass received other inputs" for label, _ in runs]
    errors = []
    for label, measured in runs:
        problems = list(measured["basis_errors"])
        got = measured["digests"]
        if got != expected:
            if workload == "figures":
                bad = sorted(k for k in set(expected) | set(got)
                             if expected.get(k) != got.get(k))
            else:
                bad = [inputs.job_key(j) for j, e, g
                       in zip(jobs, expected, got) if e != g]
            problems.append(f"outputs differ from the reference: {bad}")
        if problems:
            errors.append(f"{label}: " + "; ".join(problems))
    return errors


def _repeat(one_pass: Callable, seconds: float, traced_run: bool) -> Dict:
    """Run passes until ``seconds`` are spent, and at least the minimum.

    ``one_pass(index, traced)`` returns ``(out or None, attempted,
    failed)``.  In a traced run every second pass is traced, so traced
    and untraced passes share the host's conditions.
    """
    deadline = time.perf_counter() + seconds
    least = 2 if traced_run else MIN_PASSES
    passes: List[Dict] = []
    durations: List[float] = []
    calibration: List[float] = []
    attempted = failed = 0
    while True:
        index = len(durations)
        traced = traced_run and index % 2 == 1
        calibration.append(_calibrate())
        started = time.perf_counter()
        out, tried, bad = one_pass(index, traced)
        attempted += tried
        failed += bad
        if out is not None:
            out["traced"] = traced
            passes.append(out)
        durations.append(time.perf_counter() - started)
        if len(durations) >= least and (
                time.perf_counter() + median(durations) / 2 >= deadline):
            return {"passes": passes, "attempted": attempted,
                    "failed": failed, "calibration": calibration}


def _run_cli(workload: str, seed: int, seconds: float, traced_run: bool,
             scratch: Path, reference: Dict) -> Dict:
    jobs = (inputs.jobs_distinct(seed) if workload == "jobs-distinct"
            else None)
    # a traced run measures only cold passes: warm latencies are an
    # end-to-end metric, and the overhead compares like with like
    repeats = 0 if traced_run else WARM_REPEATS[workload]

    def one_pass(index: int, traced: bool):
        try:
            out = _cli_pass(scratch, index, workload, jobs, traced, repeats)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"pass {index} failed: {exc}", file=sys.stderr)
            return None, 1 + repeats, 1 + repeats
        errors = _check_cli_pass(workload, out, reference, jobs)
        for error in errors:
            print(f"pass {index}, {error}", file=sys.stderr)
        return out, 1 + repeats, len(errors)

    return _repeat(one_pass, seconds, traced_run)


def _cli_end_to_end(result: Dict) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics of a CLI workload.

    Set-up is wall time, like the service's.  Everything after the
    import is CPU time of the worker and its reaped children, which is
    the pass's host time minus what the hypervisor stole as long as the
    work stays on one thread and does not block; every pass checks that
    it does (``pass_worker._basis_errors``).  The wall times are printed
    beside them.
    """
    passes = result["passes"]
    ops = [op for p in passes for op in p["cold"]["ops"]]
    pct, tail_s = tail(ops)
    metrics = {
        "setup_s": median([p["import_wall_s"] for p in passes]),
        "pass_s": median([p["cold"]["cpu_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "req_per_s": len(ops) / sum(p["cold"]["cpu_s"] for p in passes),
        "req_p50_ms": median(ops) * 1000.0,
        "req_tail_ms": tail_s * 1000.0,
        "cold_p50_ms": median([p["cold"]["done_cpu_s"]
                               for p in passes]) * 1000.0,
        "warm_p50_ms": median([w["cpu_s"] for p in passes
                               for w in p["warm"]]) * 1000.0,
    }
    op_name = "experiment" if "inputs_digest" not in passes[0] else "job"
    notes = [
        f"samples: {len(passes)} passes, {len(ops)} {op_name}s; "
        f"req_tail_ms is p{pct:g}",
        "times after set-up are CPU time of the worker and its reaped "
        "children, checked to match the wall time less queueing and "
        f"steal in every pass; an operation (req_*) is one {op_name}; "
        "cold = interpreter start to the end of the first pass, warm = "
        "the pass repeated in that interpreter",
        "wall time medians: "
        + ", ".join(f"{name} {median([p['cold'][key] for p in passes]):.4f} s"
                    for name, key in (("pass", "wall_s"),
                                      ("cold", "done_wall_s")))
        + f", warm {median([w['wall_s'] for p in passes for w in p['warm']]):.4f} s",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# serve-mixed: one server per pass
# ---------------------------------------------------------------------------
def _serve_pass(scratch: Path, index: int, stream, reference: Dict,
                traced: bool) -> Dict:
    pass_dir = scratch / f"pass-{index}"
    pass_dir.mkdir()
    spans_out = pass_dir / "spans.json" if traced else None
    server = serve_load.Server(pass_dir, inputs.SERVE_MAX_RECORDS,
                               spans_out)
    try:
        setup_s = server.wait_healthy()
        started = time.perf_counter()
        records = serve_load.replay(server.port, stream, reference)
        pass_s = time.perf_counter() - started
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    if server.proc.returncode != 0:
        raise RuntimeError(f"server exited {server.proc.returncode}: "
                           f"{server.log_tail()}")
    out = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": peak,
           "records": records,
           "dump_files_left": count_files(pass_dir / "tmp"),
           "traced": traced}
    if traced:
        out["trace"] = json.loads(spans_out.read_text())
    shutil.rmtree(pass_dir)
    return out


def _run_serve(seed: int, seconds: float, traced_run: bool, scratch: Path,
               reference: Dict) -> Dict:
    stream = inputs.serve_stream(seed)

    def one_pass(index: int, traced: bool):
        try:
            out = _serve_pass(scratch, index, stream, reference["points"],
                              traced)
        except (RuntimeError, OSError) as exc:
            print(f"pass {index} failed: {exc}", file=sys.stderr)
            return None, len(stream), len(stream)
        bad = [rec["error"] for rec in out["records"] if not rec["ok"]]
        for error in bad:
            print(f"pass {index}: {error}", file=sys.stderr)
        return out, len(out["records"]), len(bad)

    return _repeat(one_pass, seconds, traced_run)


def _serve_end_to_end(result: Dict) -> Tuple[Dict[str, float], List[str]]:
    passes = result["passes"]
    records = [r for p in passes for r in p["records"] if r["ok"]]
    lat = [r["latency_s"] for r in records]
    cold = [r["latency_s"] for r in records if r["cache"] == "miss"]
    warm = [r["latency_s"] for r in records if r["cache"] == "hit"]
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": median([p["setup_s"] for p in passes]),
        "pass_s": median([p["pass_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "req_per_s": len(lat) / sum(p["pass_s"] for p in passes),
        "req_p50_ms": median(lat) * 1000.0,
        "req_tail_ms": tail_s * 1000.0,
        "cold_p50_ms": median(cold) * 1000.0,
        "warm_p50_ms": median(warm) * 1000.0,
    }
    by_kind: Dict[str, List[Dict]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    notes = [f"samples: {len(passes)} passes of "
             f"{len(passes[0]['records'])} requests, {len(lat)} replies ({len(cold)} cache: miss, "
             f"{len(warm)} cache: hit); req_tail_ms is p{pct:g}",
             "p50 by request kind (an assumed mix): "
             + ", ".join(
                 f"{kind} {median([r['latency_s'] for r in rs]) * 1000:.2f}"
                 f" ms ({len(rs)}, "
                 f"{sum(r['cache'] == 'hit' for r in rs)} cache: hit)"
                 for kind, rs in sorted(by_kind.items())),
             f"load: closed loop, {serve_load.CLIENT_THREADS} client "
             f"threads, server --jobs 1 --max-records "
             f"{inputs.SERVE_MAX_RECORDS}"]
    return metrics, notes


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------
def _import_breakdown(workload: str, scratch: Path) -> Dict[str, float]:
    """``import.<pkg>_ms``: cumulative ``-X importtime`` of a fresh
    interpreter importing what the workload's process imports (0 for a
    package it does not import)."""
    modules = "repro.__main__"
    if workload == "serve-mixed":
        modules += ", repro.serve.server"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {modules}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=child_env(str(scratch)), cwd=str(scratch), timeout=60,
        check=True)
    cumulative = {}
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
    return {f"import.{pkg}_ms": cumulative.get(pkg, 0.0)
            for pkg in IMPORT_PACKAGES}


def _traced_metrics(workload: str, result: Dict, scratch: Path
                    ) -> Tuple[Dict[str, float], List[str]]:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        spans = p["trace"]["spans"]
        agg = tracing.summarize(spans)
        layers = tracing.layer_metrics(agg)
        layers["core.dump_bytes"] = p["trace"]["dump_bytes"]
        layers["core.dump_files_left"] = p["dump_files_left"]
        self_ms = tracing.request_self_ms(spans)
        layers["serve.self_ms"] = median(self_ms) if self_ms else 0.0
        per_pass.append((agg, layers))
    metrics = {name: median([layers[name] for _, layers in per_pass])
               for name in per_pass[0][1]}
    # the overhead compares like with like: wall time for the service,
    # CPU time for the CLI workers (whose scored metrics are CPU time)
    if workload == "serve-mixed":
        def wall(p):
            return p["pass_s"]

        def scored(p):
            return p["pass_s"]

        def op_latencies(p):
            return [r["latency_s"] for r in p["records"]]
    else:
        def wall(p):
            return p["cold"]["wall_s"]

        def scored(p):
            return p["cold"]["cpu_s"]

        def op_latencies(p):
            return p["cold"]["ops"]

    def op_ms(group):
        return median([op for p in group for op in op_latencies(p)]) * 1000.0

    # a traced pass's own wall time, so the self-time table below is
    # stated against exactly this number
    metrics["trace.pass_s"] = median_low([wall(p) for p in traced])
    metrics["trace.overhead_pass_s"] = (median([scored(p) for p in traced])
                                        - median([scored(p) for p in plain]))
    metrics["trace.overhead_req_p50_ms"] = op_ms(traced) - op_ms(plain)
    metrics.update(_import_breakdown(workload, scratch))

    # attribution of that traced pass
    chosen = next(i for i, p in enumerate(traced)
                  if wall(p) == metrics["trace.pass_s"])
    agg = per_pass[chosen][0]
    if workload == "serve-mixed":
        total = sum(op_latencies(traced[chosen]))
        root = "serve.request"
        basis = ("client-side request latencies of the traced pass whose "
                 "wall time is trace.pass_s, summed")
    else:
        total = metrics["trace.pass_s"]
        root = "pass"
        basis = "the traced pass's wall time, trace.pass_s"
    attributed = sum(v["self_s"] for k, v in agg.items() if k != root)
    unattributed = total - attributed
    metrics["trace.unattributed_s"] = unattributed
    lines = [f"self time by layer ({basis}): total {total:.6f} s, "
             f"root spans '{root}' {agg[root]['total_s']:.6f} s"]
    for name, v in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        if name == root:
            continue
        lines.append(f"  {name:28s} {v['self_s']:9.4f} s  "
                     f"{v['calls']:7d} calls")
    lines.append(f"  {'unattributed':28s} {unattributed:9.4f} s  "
                 f"(self time of '{root}' and time outside spans)")
    lines.append(f"  {'total':28s} {total:9.4f} s")
    lines.append(f"tracing overhead: pass_s {metrics['trace.overhead_pass_s']:+.4f} s, "
                 f"req_p50_ms {metrics['trace.overhead_req_p50_ms']:+.3f} ms "
                 f"({len(traced)} traced vs {len(plain)} untraced passes)")
    return metrics, lines


# ---------------------------------------------------------------------------
def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    reference = load_reference()
    steal0, total0 = _cpu_times()
    scratch = _scratch_dir()
    try:
        if args.workload == "serve-mixed":
            result = _run_serve(args.seed, args.seconds, bool(args.trace),
                                scratch, reference)
        else:
            result = _run_cli(args.workload, args.seed, args.seconds,
                              bool(args.trace), scratch, reference)
        if not result["passes"]:
            print("error: every pass failed", file=sys.stderr)
            return 1
        if args.trace:
            metrics, lines = _traced_metrics(args.workload, result, scratch)
            units = PER_LAYER_UNITS
        elif args.workload == "serve-mixed":
            metrics, lines = _serve_end_to_end(result)
            units = END_TO_END_UNITS
        else:
            metrics, lines = _cli_end_to_end(result)
            units = END_TO_END_UNITS
        filesystem = _filesystem(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    steal1, total1 = _cpu_times()
    steal_pct = (100.0 * (steal1 - steal0) / (total1 - total0)
                 if total1 > total0 else 0.0)
    print(f"host: cpus={os.cpu_count()} python={platform.python_version()} "
          f"numpy={_numpy_version()} tmpdir={scratch.parent} "
          f"({filesystem}) seed={args.seed} "
          f"input_set={inputs.input_set(args.seed)} "
          f"cpu_steal={steal_pct:.2f}% "
          f"calibration_ms={median(result['calibration']):.2f} "
          f"({min(result['calibration']):.2f}-"
          f"{max(result['calibration']):.2f})")
    print(f"workload: {args.workload}  trace={args.trace}  "
          f"failed_frac={result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']} operations)")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
