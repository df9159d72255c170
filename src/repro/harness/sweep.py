"""Parameter-sweep scaffolding shared by the experiment runners.

The run helpers here are memoized through
:class:`repro.parallel.MemoizedFunction`, so a figure runner that needs
the same (benchmark, flags, L3) point as an earlier figure gets it for
free — and, when the cross-point batched sweep engine is on (the
``--batch-sweep`` CLI flag), the :func:`warm_runs` / :func:`warm_pairs`
helpers pre-fill those caches with every missing sweep point in one
stacked pass.  Otherwise nothing is pre-computed and every consumer
takes the per-point path; both give byte-identical results.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence, Tuple

from ..checkpoint import CheckpointStore
from ..compiler import FlagSet, Program, compile_program
from ..mem import NodeMemoryConfig
from ..node import OperatingMode
from ..npb import build_benchmark, paper_ranks
from ..parallel import memoized, warm
from ..runtime import Job, JobResult, Machine
from ..runtime.machine import clear_comm_cache

MB = 1024 * 1024

#: The paper's standard partition: 128 processes on 32 nodes in Virtual
#: Node Mode (121 processes for SP/BT; 31 nodes hold them).
PAPER_L3_SIZES_MB = (0, 2, 4, 6, 8)


def vnm_nodes(num_ranks: int) -> int:
    """Nodes needed to hold ``num_ranks`` ranks in VNM."""
    return -(-num_ranks // 4)


@lru_cache(maxsize=256)
def compiled_benchmark(code: str, flags: FlagSet,
                       problem_class: str = "C") -> Program:
    """Build + compile one benchmark (memoised across experiments)."""
    return compile_program(build_benchmark(code,
                                           problem_class=problem_class),
                           flags)


@memoized
def run_vnm(code: str, flags: FlagSet, l3_mb: int = 8,
            problem_class: str = "C",
            counter_modes: Tuple[int, int] = (0, 2)) -> JobResult:
    """Run a benchmark in the paper's VNM configuration (memoised).

    ``counter_modes`` picks the two 256-event sets split across the
    node cards; the default covers FPU/pipe/L1 + L3/DDR.  A second run
    with ``(1, 3)`` collects the L2/snoop + network events — exactly
    the multi-run campaign a real 1024-event study needs.
    """
    program = compiled_benchmark(code, flags, problem_class)
    ranks = paper_ranks(code)
    machine = Machine(vnm_nodes(ranks), mode=OperatingMode.VNM,
                      mem_config=NodeMemoryConfig().with_l3_size(
                          l3_mb * MB))
    return Job(machine, program, ranks).run(counter_modes=counter_modes)


@memoized
def run_smp1(code: str, flags: FlagSet, l3_mb: int = 2,
             problem_class: str = "C") -> JobResult:
    """Run a benchmark in the paper's fair SMP/1 configuration.

    One rank per node, with the L3 shrunk to 2 MB "to perform a fair
    comparison" (paper, Section VIII).
    """
    program = compiled_benchmark(code, flags, problem_class)
    ranks = paper_ranks(code)
    machine = Machine(ranks, mode=OperatingMode.SMP1,
                      mem_config=NodeMemoryConfig().with_l3_size(
                          l3_mb * MB))
    return Job(machine, program, ranks).run()


@memoized
def run_scaled_vnm(code: str, flags: FlagSet, num_ranks: int,
                   l3_mb: int = 8,
                   problem_class: str = "C") -> JobResult:
    """Run a benchmark at an arbitrary VNM scale (memoised).

    The figure runners use the paper's fixed partition; scaling studies
    and the parallel-speedup benchmark sweep this one across rank
    counts and L3 sizes instead.
    """
    program = compile_program(
        build_benchmark(code, num_ranks=num_ranks,
                        problem_class=problem_class), flags)
    machine = Machine(vnm_nodes(num_ranks), mode=OperatingMode.VNM,
                      mem_config=NodeMemoryConfig().with_l3_size(
                          l3_mb * MB))
    return Job(machine, program, num_ranks).run()


def run_small_vnm(code: str, flags: FlagSet, num_ranks: int = 16,
                  problem_class: str = "A",
                  sample_every: int = None) -> JobResult:
    """A small class-A VNM run, deliberately **not** memoised.

    The telemetry smoke experiment (and CI's instrumented smoke step)
    runs this with sampling enabled; a memo cache would hand back a
    stale ``JobResult`` whose timeline reflects the *first* call's
    sampling configuration, so every call simulates fresh.
    """
    program = compile_program(
        build_benchmark(code, num_ranks=num_ranks,
                        problem_class=problem_class), flags)
    machine = Machine(vnm_nodes(num_ranks), mode=OperatingMode.VNM)
    return Job(machine, program, num_ranks,
               sample_every=sample_every).run()


def vnm_smp_pair(code: str, flags: FlagSet,
                 problem_class: str = "C") -> Tuple[JobResult, JobResult]:
    """The Figure 12/13/14 comparison pair for one benchmark."""
    return (run_vnm(code, flags, problem_class=problem_class),
            run_smp1(code, flags, problem_class=problem_class))


def warm_runs(calls: Iterable[Tuple]) -> int:
    """Pre-fill ``run_vnm``'s cache with the given argument tuples."""
    return warm(run_vnm, calls)


def warm_pairs(codes: Sequence[str], flags: FlagSet,
               problem_class: str = "C") -> int:
    """Pre-fill both sides of the Figure 12/13/14 comparison pairs."""
    warmed = warm(run_vnm, [(code, flags, 8, problem_class)
                            for code in codes])
    warmed += warm(run_smp1, [(code, flags, 2, problem_class)
                              for code in codes])
    return warmed


def clear_caches() -> None:
    """Drop all memoised runs (tests use this for isolation)."""
    compiled_benchmark.cache_clear()
    run_vnm.cache_clear()
    run_smp1.cache_clear()
    run_scaled_vnm.cache_clear()
    clear_comm_cache()


# ---------------------------------------------------------------------------
# checkpoint/resume (the --resume DIR layer)
# ---------------------------------------------------------------------------
#: Every memoised sweep-point runner, i.e. everything worth persisting.
_RESUMABLE = (run_vnm, run_smp1, run_scaled_vnm)


def attach_runner_store(store) -> None:
    """Back every memoised sweep runner with ``store``.

    ``store`` is any :class:`~repro.checkpoint.CheckpointStore`
    (including the service's LRU-bounded
    :class:`~repro.checkpoint.SharedCacheTier`).  Persisted keys are
    context-qualified by the memo layer — active performance group,
    ``set_vectorize`` state, cache schema version — so one directory
    can safely serve many processes and configurations at once.
    """
    for runner in _RESUMABLE:
        runner.attach_store(store, encode=lambda r: r.to_dict(),
                            decode=JobResult.from_dict)


def attach_resume(directory) -> CheckpointStore:
    """Back every memoised sweep runner with an on-disk store.

    From here on, each completed sweep point is persisted atomically as
    it finishes, and cache misses consult the store before simulating —
    so a run interrupted by SIGINT or a killed process picks up where
    it left off when restarted with the same directory.  Returns the store
    (the CLI also checkpoints whole experiment results into it).
    """
    store = CheckpointStore(directory)
    attach_runner_store(store)
    return store


def detach_resume() -> None:
    """Disconnect the sweep runners from any attached store."""
    for runner in _RESUMABLE:
        runner.detach_store()


# ---------------------------------------------------------------------------
# cross-point batched engine (the --batch-sweep layer)
# ---------------------------------------------------------------------------
# each runner's warm() evaluates all missing points in one stacked
# pass; the handlers decline (and the consumers take the per-point
# path) whenever fault injection, sampling or marker regions make the
# batched clean-run semantics inapplicable
from . import batch as _batch  # noqa: E402  (import cycle: batch uses us lazily)

run_vnm.attach_batch(_batch.vnm_batch)
run_smp1.attach_batch(_batch.smp1_batch)
run_scaled_vnm.attach_batch(_batch.scaled_vnm_batch)
