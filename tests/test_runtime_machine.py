"""Integration tests for the whole-machine job engine."""

import pytest

from repro.compiler import O5, O_base, compile_program
from repro.mem import NodeMemoryConfig
from repro.node import OperatingMode
from repro.npb import build_benchmark
from repro.runtime import Job, Machine, run_job

MB = 1024 * 1024


@pytest.fixture(scope="module")
def small_mg():
    """A small MG job (class A, 16 ranks) that runs in milliseconds."""
    return compile_program(build_benchmark("MG", num_ranks=16,
                                           problem_class="A"), O5())


def test_machine_validation():
    with pytest.raises(ValueError):
        Machine(0)


def test_job_rejects_overcommit(small_mg):
    machine = Machine(2, mode=OperatingMode.VNM)  # 8 slots
    with pytest.raises(ValueError, match="exceed"):
        Job(machine, small_mg, 16)


def test_job_produces_counters_and_time(small_mg):
    result = run_job(small_mg, 16, 4, OperatingMode.VNM)
    assert result.elapsed_cycles > 0
    assert result.comm_cycles_per_rank > 0
    assert len(result.compute_cycles_per_rank) == 16
    assert result.mode is OperatingMode.VNM
    assert result.program_name == "MG"
    assert result.flags_label == "-O5 -qarch=440d"


def test_counter_modes_split_across_node_cards(small_mg):
    """Even node cards get mode 0 (FPU), odd get mode 2 (L3/DDR)."""
    result = run_job(small_mg, 16, 4, OperatingMode.VNM)
    modes = result.aggregation.nodes_by_mode
    assert set(modes) == {0, 2}
    # both halves are sampled
    assert modes[0] and modes[2]


def test_scaled_totals_extrapolate_means(small_mg):
    result = run_job(small_mg, 16, 4, OperatingMode.VNM)
    totals = result.scaled_totals()
    stats = result.aggregation.stats["BGP_PU0_FPU_SIMD_FMA"]
    assert totals["BGP_PU0_FPU_SIMD_FMA"] == int(round(stats.mean * 4))


def test_mflops_positive_and_below_peak(small_mg):
    result = run_job(small_mg, 16, 4, OperatingMode.VNM)
    rate = result.mflops_per_node()
    assert 0 < rate < 13_600  # node peak is 13.6 GFLOPS


def test_ddr_traffic_recorded(small_mg):
    result = run_job(small_mg, 16, 4, OperatingMode.VNM)
    assert result.ddr_traffic_lines() > 0
    assert result.ddr_traffic_bytes() == result.ddr_traffic_lines() * 128


def test_fp_profile_sums_to_one(small_mg):
    result = run_job(small_mg, 16, 4, OperatingMode.VNM)
    assert sum(result.fp_profile().values()) == pytest.approx(1.0)


def test_elapsed_includes_comm(small_mg):
    result = run_job(small_mg, 16, 4, OperatingMode.VNM)
    assert result.elapsed_cycles == pytest.approx(
        max(result.compute_cycles_per_rank)
        + result.comm_cycles_per_rank)


def test_dumps_written_per_node(tmp_path, small_mg):
    machine = Machine(4, mode=OperatingMode.VNM)
    result = Job(machine, small_mg, 16).run(dump_dir=str(tmp_path))
    assert len(result.dump_paths) == 4
    from repro.core import load_dumps

    dumps = load_dumps(str(tmp_path))
    assert [d.node_id for d in dumps] == [0, 1, 2, 3]


def test_optimization_speeds_up_jobs():
    base = compile_program(build_benchmark("MG", num_ranks=16,
                                           problem_class="A"), O_base())
    opt = compile_program(build_benchmark("MG", num_ranks=16,
                                          problem_class="A"), O5())
    t_base = run_job(base, 16, 4, OperatingMode.VNM).elapsed_cycles
    t_opt = run_job(opt, 16, 4, OperatingMode.VNM).elapsed_cycles
    assert t_opt < t_base


def test_smaller_l3_means_more_ddr_traffic(small_mg):
    big = run_job(small_mg, 16, 4, OperatingMode.VNM,
                  mem_config=NodeMemoryConfig().with_l3_size(8 * MB))
    tiny = run_job(small_mg, 16, 4, OperatingMode.VNM,
                   mem_config=NodeMemoryConfig().with_l3_size(0))
    assert tiny.ddr_traffic_lines() > big.ddr_traffic_lines()


def test_vnm_beats_smp1_throughput_per_chip(small_mg):
    vnm = run_job(small_mg, 16, 4, OperatingMode.VNM)
    smp = run_job(small_mg, 16, 16, OperatingMode.SMP1,
                  mem_config=NodeMemoryConfig().with_l3_size(2 * MB))
    assert vnm.mflops_per_node() > smp.mflops_per_node()
    # but each process runs no faster than it did alone
    assert vnm.elapsed_cycles >= smp.elapsed_cycles * 0.99


# ---------------------------------------------------------------------------
# memoized execution engine
# ---------------------------------------------------------------------------
def _dump_bytes(result):
    out = []
    for path in sorted(result.dump_paths):
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def _run_engine(small_mg, tmp_path, tag, memoize, ranks=14):
    from repro.runtime.machine import clear_comm_cache

    clear_comm_cache()
    machine = Machine(4, mode=OperatingMode.VNM)
    d = tmp_path / tag
    d.mkdir()
    return Job(machine, small_mg, ranks, memoize=memoize).run(
        dump_dir=str(d))


def test_memoized_engine_matches_legacy_exactly(small_mg, tmp_path):
    """Equivalence-class simulation replicates the per-node dumps and
    totals byte-for-byte; 14 ranks on 4 VNM nodes gives two classes
    (three 4-resident nodes + one 2-resident node)."""
    legacy = _run_engine(small_mg, tmp_path, "legacy", memoize=False)
    memo = _run_engine(small_mg, tmp_path, "memo", memoize=True)
    assert _dump_bytes(memo) == _dump_bytes(legacy)
    assert memo.elapsed_cycles == legacy.elapsed_cycles
    assert memo.compute_cycles_per_rank == legacy.compute_cycles_per_rank
    assert memo.comm_cycles_per_rank == legacy.comm_cycles_per_rank
    assert memo.scaled_totals() == legacy.scaled_totals()


@pytest.mark.parametrize("fault", [
    {"sram_flip_rate": 1.0},
    {"wrap_storm_rate": 1.0},
    {"ddr_error_rate": 1.0},
    {"node_failure_rate": 0.1},
], ids=["sram_flip", "wrap_storm", "ddr_error", "node_failure"])
def test_engines_agree_under_node_faults(fault):
    """Every node-level fault lands after the node's compute counts on
    both engines, so memoized and per-node runs give the same stats
    (or the same validation offenders, or the same failed node) and
    the same RAS log.  XOR and overwrite faults do not commute with the
    replicated counter deltas, so landing them before would differ."""
    from repro import faults
    from repro.core import ValidationError
    from repro.faults import FaultConfig, NodeFailure
    from repro.runtime.machine import clear_comm_cache

    program = compile_program(build_benchmark("MG", num_ranks=64,
                                              problem_class="A"), O5())

    def run(memoize):
        clear_comm_cache()
        injector = faults.install(FaultConfig(seed=7, **fault))
        try:
            result = Job(Machine(16, mode=OperatingMode.VNM), program, 64,
                         memoize=memoize).run()
            outcome = {name: (s.minimum, s.maximum, s.mean, s.total)
                       for name, s in result.aggregation.stats.items()}
        except ValidationError as exc:
            outcome = str(exc)
        except NodeFailure as exc:
            outcome = exc.node_id
        finally:
            faults.uninstall()
            clear_comm_cache()
        return outcome, injector.events

    memo, memo_log = run(True)
    legacy, legacy_log = run(False)
    assert memo_log and memo_log == legacy_log
    assert memo == legacy


def test_comm_cache_hit_is_exact(small_mg, tmp_path):
    """A job replaying cached comm phases produces identical results."""
    from repro.runtime.machine import _COMM_CACHE

    miss = _run_engine(small_mg, tmp_path, "miss", memoize=True)
    assert len(_COMM_CACHE) == 1
    machine = Machine(4, mode=OperatingMode.VNM)
    d = tmp_path / "hit"
    d.mkdir()
    hit = Job(machine, small_mg, 14).run(dump_dir=str(d))
    assert len(_COMM_CACHE) == 1  # replayed, not recomputed
    assert _dump_bytes(hit) == _dump_bytes(miss)
    assert hit.elapsed_cycles == miss.elapsed_cycles


def test_legacy_engine_bypasses_comm_cache(small_mg, tmp_path):
    from repro.runtime.machine import _COMM_CACHE

    _run_engine(small_mg, tmp_path, "bypass", memoize=False)
    assert _COMM_CACHE == {}
