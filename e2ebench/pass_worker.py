"""One pass of the ``figures`` or ``jobs-distinct`` workload.

Run by ``run.py`` in a fresh interpreter, because users pay the
program's import and its cold in-process caches on every CLI run::

    python3 pass_worker.py SPEC.json OUT.json

SPEC holds the workload, the generated inputs and the output
directories; OUT receives the import time, and for the cold pass and
each warm repeat its time, per-operation latencies, output digests and
timing-basis check, then the peak memory.  With ``"traced": true`` the
layer wrappers of ``tracing.py`` are installed after the import and the
program's work runs inside root spans named ``pass``; the outputs are
digested outside them.  The spans go to ``spans_out``.

Every time is taken twice: as wall time and as CPU time, which the
scored metrics use.  CPU time here is this process's, all threads, plus
that of every child process it has reaped.  On a shared virtual machine
the wall time also holds whatever the hypervisor stole, which a kernel
with paravirtual steal accounting keeps out of CPU time.  CPU time is
the time a user waits only while the program works on one thread and
does not block, so every pass checks that (:func:`_basis_errors`).  A
pass that breaks it has failed: its times no longer measure the wait.
"""

import time

_wall0 = time.perf_counter()
import repro.__main__ as cli  # noqa: E402  (the import is what is timed)

IMPORT_WALL_S = time.perf_counter() - _wall0

import contextlib  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from common import digest  # noqa: E402

MB = 1024 * 1024
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: How far, as a share of a pass's wall time plus two ticks of
#: ``/proc/stat``, CPU time may exceed wall time, or time off the CPU
#: may go unexplained, before the pass's timing basis counts as broken.
BASIS_SLACK = 0.05

tracing = None   # the module, once a traced pass installs it


def _cpu() -> float:
    """CPU seconds of this process (all threads) and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _clocks():
    return _cpu(), time.perf_counter()


def _scheduler():
    """(cpu, wall, queued, stolen) seconds so far.

    ``queued`` is this thread's time runnable but waiting for a CPU
    (``/proc/self/schedstat``); ``stolen`` is the host's steal summed
    over its CPUs (``/proc/stat``), at least this process's share.  Both
    are None where the files are missing.
    """
    cpu, wall = _clocks()
    try:
        with open("/proc/self/schedstat") as fh:
            queued = int(fh.read().split()[1]) / 1e9
        with open("/proc/stat") as fh:
            stolen = int(fh.readline().split()[8]) / CLOCK_TICKS
    except (OSError, ValueError, IndexError):
        queued = stolen = None
    return cpu, wall, queued, stolen


def _live_children() -> int:
    count = 0
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            count += len(fh.read().split())
    return count


def _basis_errors(before, after):
    """Why CPU time did not measure this pass's wait, if it did not.

    It does not when work ran in parallel (CPU time above wall time),
    when the process was off the CPU for longer than the scheduler and
    the hypervisor account for (blocked on I/O or on work done
    elsewhere), or when a child process still runs, whose CPU time is
    counted only once it is reaped.
    """
    cpu, wall = after[0] - before[0], after[1] - before[1]
    slack = BASIS_SLACK * wall + 2.0 / CLOCK_TICKS
    errors = []
    if cpu > wall + slack:
        errors.append(f"{cpu:.3f} s of CPU in {wall:.3f} s: "
                      "work ran in parallel")
    if before[2] is not None and after[2] is not None:
        blocked = (wall - cpu - (after[2] - before[2])
                   - (after[3] - before[3]))
        if blocked > slack:
            errors.append(f"{blocked:.3f} s of {wall:.3f} s off the CPU, "
                          "neither queued nor stolen: blocked")
    live = _live_children()
    if live:
        errors.append(f"{live} child processes still running")
    return errors


class _Timer:
    """Adds up the stretches of a pass in which the program works.

    In a traced pass each stretch is also a root span ``pass`` of the
    process's one trace, so the benchmark's checking stays outside.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.trace = None
        self.stretches = []     # (cpu, wall) seconds per stretch

    @contextlib.contextmanager
    def stretch(self):
        if self.traced:
            rec, token = tracing.begin("pass", root=True, trace=self.trace)
            self.trace = rec[5]
        start = _clocks()
        try:
            yield start
        finally:
            cpu, wall = _clocks()
            self.stretches.append((cpu - start[0], wall - start[1]))
            if self.traced:
                tracing.end(rec, token)

    def total(self):
        return (sum(cpu for cpu, _ in self.stretches),
                sum(wall for _, wall in self.stretches))


def _figures_pass(csv_dir: str, timer: _Timer):
    """``python -m repro --csv DIR`` in-process; one op per experiment.

    An experiment's latency runs from the previous table's CSV (or the
    pass start) to its own CSV: the wait a CLI user sees per table.
    """
    done = []
    write_csv = cli._write_csv

    def capture(result, directory):
        path = write_csv(result, directory)
        done.append((_cpu(), result, path))
        return path

    cli._write_csv = capture
    try:
        with timer.stretch() as start:
            status = cli.main(["--csv", csv_dir])
    finally:
        cli._write_csv = write_csv
    if status != 0:
        raise RuntimeError(f"python -m repro exited {status}")
    ops, digests, previous = [], {}, start[0]
    for stamp, result, path in done:
        ops.append(stamp - previous)
        previous = stamp
        data = result.to_dict()
        with open(path) as fh:
            csv_text = fh.read()
        digests[result.experiment_id] = digest(
            {"headers": data["headers"], "rows": data["rows"],
             "summary": data["summary"], "csv": csv_text})
    return ops, digests


def _jobs_pass(jobs, timer: _Timer):
    """Every generated job as an independent ``Job.run``; one op per job.

    Each result is digested and dropped before the next job, outside the
    job's stretch, so the peak memory is one job's, not the pass's.
    """
    from repro import compiler, markers, npb
    from repro.mem import NodeMemoryConfig
    from repro.node import OperatingMode
    from repro.runtime import Job, Machine

    flag_sets = {flags.label: flags for flags in compiler.compiler_sweep()}
    digests = []
    for spec in jobs:
        with timer.stretch():
            program = compiler.compile_program(
                npb.build_benchmark(spec["code"], num_ranks=spec["ranks"],
                                    problem_class=spec["problem_class"]),
                flag_sets[spec["flags"]])
            machine = Machine(spec["nodes"],
                              mode=OperatingMode[spec["mode"]],
                              mem_config=NodeMemoryConfig().with_l3_size(
                                  spec["l3_mb"] * MB))
            job = Job(machine, program, spec["ranks"],
                      sample_every=spec["sample_every"])
            counter_modes = tuple(spec["counter_modes"])
            if spec["region"]:
                with markers.region(spec["region"]):
                    result = job.run(counter_modes=counter_modes)
            else:
                result = job.run(counter_modes=counter_modes)
        digests.append(digest(result.to_dict()))
        del program, machine, job, result
    return [cpu for cpu, _ in timer.stretches], digests


def _measure(run_pass, arg, traced: bool):
    """One pass: its times, operations, digests and basis check."""
    timer = _Timer(traced)
    before = _scheduler()
    ops, digests = run_pass(arg, timer)
    cpu, wall = timer.total()
    return {"cpu_s": cpu, "wall_s": wall, "ops": ops, "digests": digests,
            "started": before[:2],
            "basis_errors": _basis_errors(before, _scheduler())}


def main(argv) -> int:
    global tracing
    spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    figures = spec["workload"] == "figures"
    run_pass = _figures_pass if figures else _jobs_pass
    out = {"import_wall_s": IMPORT_WALL_S}
    if spec["jobs"] is not None:
        out["inputs_digest"] = digest(spec["jobs"])
    if spec["traced"]:
        import tracing
        tracing.install()
    try:
        cold = _measure(run_pass, spec["csv_dir"] if figures else spec["jobs"],
                        spec["traced"])
    finally:
        if spec["traced"]:
            tracing.dump(spec["spans_out"])
    # cold latency: interpreter start, import and pass, as the CLI user
    # waits for them (the parent turns the wall stamp into spawn-to-done)
    cold["done_cpu_s"] = cold["started"][0] + cold["cpu_s"]
    cold["done_wall"] = cold["started"][1] + cold["wall_s"]
    out["cold"] = cold
    # the same pass again in this interpreter: every in-process cache
    # the cold pass filled is now warm
    out["warm"] = [
        _measure(run_pass,
                 spec["warm_csv_dir"] if figures else spec["jobs"], False)
        for _ in range(spec["warm_repeats"])]
    peak = sum(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out["peak_rss_mb"] = peak / 1024.0
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
