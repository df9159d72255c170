"""The in-memory counter path of ``Job.run`` against the Section IV one.

``Job.run`` builds every used node's counters as one ``uint64`` row and
aggregates the row matrix in memory; per-node dump files appear only
when the caller passes ``dump_dir``.  These tests pin that path to the
paper's dump -> validate -> aggregate pipeline, to digests of the dump
bytes and of fault-injected campaigns recorded before the row path
existed, and to an empty TMPDIR.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.compiler import O5, compile_program
from repro.core import (
    Aggregation,
    CounterSession,
    ValidationError,
    load_dumps,
)
from repro.faults import FaultConfig, NodeFailure
from repro.node import ComputeNode, OperatingMode
from repro.npb import build_benchmark
from repro.runtime import Job, Machine
from repro.runtime.machine import clear_comm_cache

ROOT = Path(__file__).resolve().parents[1]

#: sha256 of every dump file (name + bytes, in name order) a 30-rank MG
#: job on 8 VNM nodes wrote, per counter-mode pair
DUMP_DIGESTS = {
    (0, 2):
        "800e12826e9700ff0fb9905f4a579c9c25560ced701fede747d90ded8bfad8c6",
    (1, 3):
        "d28028a6691d598d3525f32f7f5da25777cfe60d89996961eeac2170f304c99b",
}

#: sha256 of (stats or ValidationError text or failed node, RAS log)
#: per fault campaign, engine and counter-mode pair
FAULT_DIGESTS = {
    "node_failure": {
        ("memo", (0, 2)):
            "c89c4cd387f841ae46f48ac171bff9f65ecde8d30af03a0b17b47d7dfb9bec5f",
        ("memo", (1, 3)):
            "c89c4cd387f841ae46f48ac171bff9f65ecde8d30af03a0b17b47d7dfb9bec5f",
        ("legacy", (0, 2)):
            "c89c4cd387f841ae46f48ac171bff9f65ecde8d30af03a0b17b47d7dfb9bec5f",
        ("legacy", (1, 3)):
            "c89c4cd387f841ae46f48ac171bff9f65ecde8d30af03a0b17b47d7dfb9bec5f",
    },
    "sram_flip": {
        ("memo", (0, 2)):
            "1756065cc065a8eccb61cba948df1699059b8b7ed387179ea26250630def9c10",
        ("memo", (1, 3)):
            "ebfad333b1658c376bee184c73efd64209841052572ea49fe5ea62289c96bec6",
        ("legacy", (0, 2)):
            "1756065cc065a8eccb61cba948df1699059b8b7ed387179ea26250630def9c10",
        ("legacy", (1, 3)):
            "ebfad333b1658c376bee184c73efd64209841052572ea49fe5ea62289c96bec6",
    },
    "wrap_storm": {
        ("memo", (0, 2)):
            "435f96045b34a890fac9d5f6da9bb5b951ff3d1aada621cc3a5c38b4f2fb2fae",
        ("memo", (1, 3)):
            "796f4a9e3f53445a87670e04f6776b443e471504271ae5ed39e5780b123889f2",
        ("legacy", (0, 2)):
            "435f96045b34a890fac9d5f6da9bb5b951ff3d1aada621cc3a5c38b4f2fb2fae",
        ("legacy", (1, 3)):
            "796f4a9e3f53445a87670e04f6776b443e471504271ae5ed39e5780b123889f2",
    },
    "ddr_error": {
        ("memo", (0, 2)):
            "69e5e542d8f1636a4176cc0513c0e3890ce3305eff7d4a3e5ac025803d284fdc",
        ("memo", (1, 3)):
            "45b85ce1b01f678cedb3dd598ca23b4523f4f54840ddd5c0a3afc28b921287c7",
        ("legacy", (0, 2)):
            "69e5e542d8f1636a4176cc0513c0e3890ce3305eff7d4a3e5ac025803d284fdc",
        ("legacy", (1, 3)):
            "45b85ce1b01f678cedb3dd598ca23b4523f4f54840ddd5c0a3afc28b921287c7",
    },
    "mixed": {
        ("memo", (0, 2)):
            "2ce6e1c70aa659a1ac26814578bd062635f6fe6652705735addce859706ce606",
        ("memo", (1, 3)):
            "323df22fb04a1132d04d938ff176de10a9ba7f3d9fd2e66f6be1ef4af9717926",
        ("legacy", (0, 2)):
            "2ce6e1c70aa659a1ac26814578bd062635f6fe6652705735addce859706ce606",
        ("legacy", (1, 3)):
            "323df22fb04a1132d04d938ff176de10a9ba7f3d9fd2e66f6be1ef4af9717926",
    },
}

FAULT_CAMPAIGNS = {
    "node_failure": {"node_failure_rate": 0.15},
    "sram_flip": {"sram_flip_rate": 1.0},
    "wrap_storm": {"wrap_storm_rate": 0.5},
    "ddr_error": {"ddr_error_rate": 1.0},
    "mixed": {"sram_flip_rate": 0.5, "ddr_error_rate": 0.5,
              "wrap_storm_rate": 0.2, "link_stall_rate": 0.5},
}

COUNTER_MODES = [(0, 2), (1, 3)]


@pytest.fixture(autouse=True)
def clean_state():
    faults.uninstall()
    clear_comm_cache()
    yield
    faults.uninstall()
    clear_comm_cache()


@pytest.fixture(scope="module")
def mg30():
    """MG class A on 30 ranks: 8 VNM nodes in two node classes."""
    return compile_program(build_benchmark("MG", num_ranks=30,
                                           problem_class="A"), O5())


def _run(program, counter_modes, memoize=True, dump_dir=None):
    machine = Machine(8, mode=OperatingMode.VNM)
    return Job(machine, program, 30, memoize=memoize).run(
        counter_modes=counter_modes, dump_dir=dump_dir)


def _stats_view(agg):
    return {"nodes_by_mode": [[mode, nodes] for mode, nodes
                              in agg.nodes_by_mode.items()],
            "stats": [[name, s.minimum, s.maximum, repr(s.mean), s.total,
                       s.node_count] for name, s in agg.stats.items()]}


def _sha(doc):
    text = json.dumps(doc, sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Section IV round trip: dump_dir -> load_dumps -> Aggregation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("counter_modes", COUNTER_MODES, ids=str)
def test_dumps_round_trip_to_the_in_memory_aggregation(mg30, tmp_path,
                                                       counter_modes):
    result = _run(mg30, counter_modes, dump_dir=str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    assert [os.path.join(str(tmp_path), n) for n in names] == \
        result.dump_paths
    assert names == [f"bgp_counters_node{i:05d}.bin" for i in range(8)]

    offline = Aggregation(load_dumps(str(tmp_path)))
    assert offline.nodes_by_mode == result.aggregation.nodes_by_mode
    assert list(offline.stats) == list(result.aggregation.stats)
    assert offline.stats == result.aggregation.stats
    assert set(offline.nodes_by_mode) == set(counter_modes)

    blob = hashlib.sha256()
    for name in names:
        blob.update(name.encode())
        blob.update((tmp_path / name).read_bytes())
    assert blob.hexdigest() == DUMP_DIGESTS[counter_modes]


def test_dumps_only_on_request(mg30, tmp_path):
    with_files = _run(mg30, (0, 2), dump_dir=str(tmp_path))
    clear_comm_cache()
    without = _run(mg30, (0, 2))
    assert without.dump_paths == []
    assert len(with_files.dump_paths) == 8
    assert without.dump_io_cycles == with_files.dump_io_cycles
    assert without.to_dict() == with_files.to_dict()


# ---------------------------------------------------------------------------
# fault pin: campaigns digested at the commit before the row path
# ---------------------------------------------------------------------------
def _campaign(program, fault, memoize, counter_modes):
    injector = faults.install(FaultConfig(seed=11, **fault))
    try:
        result = _run(program, counter_modes, memoize=memoize)
        outcome = _stats_view(result.aggregation)
    except ValidationError as exc:
        outcome = str(exc)
    except NodeFailure as exc:
        outcome = exc.node_id
    finally:
        faults.uninstall()
        clear_comm_cache()
    return _sha({"outcome": outcome,
                 "ras": [event.to_dict() for event in injector.events]})


@pytest.mark.parametrize("counter_modes", COUNTER_MODES, ids=str)
@pytest.mark.parametrize("engine", ["memo", "legacy"])
@pytest.mark.parametrize("campaign", sorted(FAULT_CAMPAIGNS))
def test_fault_campaigns_match_pinned_digests(mg30, campaign, engine,
                                              counter_modes):
    digest = _campaign(mg30, FAULT_CAMPAIGNS[campaign], engine == "memo",
                       counter_modes)
    assert digest == FAULT_DIGESTS[campaign][(engine, counter_modes)]


# ---------------------------------------------------------------------------
# no leak: nothing lands in TMPDIR without dump_dir
# ---------------------------------------------------------------------------
def _entries(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("bgp_counters_"))


def test_job_without_dump_dir_writes_nothing(mg30, tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    result = _run(mg30, (0, 2))
    assert result.dump_paths == []
    assert _entries(tmp_path) == []


def test_counter_session_without_dump_dir_writes_nothing(tmp_path,
                                                         monkeypatch):
    import tempfile

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    nodes = [ComputeNode(node_id=i) for i in range(4)]
    session = CounterSession(nodes, primary_mode=0, secondary_mode=2)
    session.mpi_init()
    for node in nodes:
        node.pulse_events({"BGP_PU0_FPU_FMA": 7, "BGP_L3_MISS": 3})
    assert session.mpi_finalize() == []
    agg = session.aggregation()
    assert agg["BGP_PU0_FPU_FMA"].total == 14
    assert agg["BGP_L3_MISS"].total == 6
    with pytest.raises(RuntimeError, match="dump_dir"):
        session.dumps()
    assert _entries(tmp_path) == []


def test_counter_session_dumps_aggregate_like_its_rows(tmp_path):
    nodes = [ComputeNode(node_id=i) for i in range(4)]
    session = CounterSession(nodes, primary_mode=0, secondary_mode=2,
                             dump_dir=str(tmp_path))
    with session:
        for i, node in enumerate(nodes):
            node.pulse_events({"BGP_PU0_FPU_FMA": 7 + i,
                               "BGP_L3_MISS": 3 * i})
    assert len(session.dump_paths) == 4
    from_files = Aggregation(session.dumps())
    assert from_files.stats == session.aggregation().stats
    assert from_files.nodes_by_mode == session.aggregation().nodes_by_mode


def test_custom_counters_example_leaves_no_dumps(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "custom_counters.py")],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "events monitored in one run: 512" in proc.stdout
    assert _entries(tmp_path) == []


def test_quickstart_example_leaves_tmpdir_empty(tmp_path):
    """The Section IV walk-through removes its dump directory."""
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "quickstart.py")],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "interface overhead" in proc.stdout
    assert os.listdir(tmp_path) == []
