"""End-to-end pins of the sampled timelines, and what a sampled run builds.

``JobResult.to_dict()`` drops the timeline, so no result digest covers
it; these digests do.  Each one hashes ``to_records()`` plus every
node's samples, alerts and phases, and was recorded with the
register-file sampler (a shadow UPC unit read by a counter monitor per
sampled node) that ``tests/timeline_oracle.py`` keeps.
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.__main__ import main as cli_main
from repro.compiler import O5, compile_program
from repro.core import counters, monitor
from repro.mem import NodeMemoryConfig
from repro.node import ComputeNode, OperatingMode
from repro.npb import build_benchmark
from repro.obs import timeline as tl
from repro.runtime import Job, Machine
from repro.runtime.machine import clear_comm_cache

MB = 1024 * 1024

#: the sampled jobs of the jobs-distinct benchmark workload: class C,
#: -O5 -qarch=440d, 8 MB L3, counter modes (0, 2), one sample every 8M
#: cycles; (kernel, mode, ranks, nodes) -> digest
SAMPLED_JOBS = {
    ("MG", "DUAL", 64, 32):
        "0111cff6088711e2086fca984ed497ec9a92c4a0b6dca7d039346c7483acc121",
    ("FT", "VNM", 64, 16):
        "1c70abfbe628d98fa0bd41d943098e875b165b3b68290584a38bce2bd1b4a3dd",
    ("EP", "SMP4", 32, 32):
        "16b12f0046c0452528f59afdb7d44e23520d6fcb14bda36355648f4d9a371470",
    ("CG", "SMP1", 32, 32):
        "f335dc8f16c9c3ba2fd5c0cc699dcbd3377b1825377fcd91e6a51999acc16524",
    ("IS", "DUAL", 64, 32):
        "62696cc7500574f9324faa82118862784528c4dff8b2f21d8b3df76ce1def818",
    ("LU", "VNM", 128, 32):
        "3ca2cc63a91cce88a711a48355b514d5005487235446c92f765059e82eb9cf57",
    ("SP", "SMP4", 25, 25):
        "3e073503b64b721e304fd1e1e3964f8b632c163fd07714a8f51a5f024f3ae4ce",
    ("BT", "SMP1", 25, 25):
        "66cb00930fafeec773bf2d711b32d9e4fd6893af0df52fb3e2e57639323ae7c6",
}

#: thresholds crossed in the compute phase (mid-phase and in its tail),
#: in comm phases, on both counter modes, and register-masked ones:
#: 2**64 + 100 arms at 100, -5 at 2**64 - 5, 2**64 not at all
THRESHOLDS = {
    "BGP_PU0_CYCLES": 470_000_000,
    "BGP_PU0_INST_COMPLETED": 163_095_270,
    "BGP_PU1_INST_COMPLETED": 100_000_000,
    "BGP_DDR0_WRITE": 2_000_000,
    "BGP_L3_MISS": 10**7,
    "BGP_PU0_FPU_MUL": 2**64 + 100,
    "BGP_PU0_FPU_FMA": -5,
    "BGP_PU0_FPU_ADDSUB": 2**64,
}
THRESHOLD_JOB = ("FT", "VNM", 64, 16)
THRESHOLD_DIGEST = (
    "b1edb578510cdeebee216b39082dfab43991e0889a7440e24a36d7c477bbfa82")

#: sha256 of ``timeline.jsonl`` from ``python -m repro <id> --json DIR
#: --sample-every 50000``
SMOKE_JSONL = {
    "smoke":
        "05d4ac3d04416026752c428eeed38dc384e86ee2ed93ef51a67a1877233fe26d",
    "smoke-markers":
        "5f391ed35ac426d5b46de113693b0c8f584b9d6da73792311634bc32ff2ddef9",
}


@pytest.fixture(autouse=True)
def _no_global_sampling():
    tl.uninstall_sampling()
    tl.clear_recorded()
    yield
    tl.uninstall_sampling()
    tl.clear_recorded()


def timeline_digest(timeline):
    blob = {
        "records": timeline.to_records(),
        "nodes": [[node_id, node.mode, node.samples,
                   [a.to_dict() for a in node.alerts], node.phases]
                  for node_id, node in sorted(timeline.nodes.items())],
    }
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()


def _sampled_job(code, mode, ranks, nodes, memoize=True):
    clear_comm_cache()
    program = compile_program(build_benchmark(code, num_ranks=ranks,
                                              problem_class="C"), O5())
    machine = Machine(nodes, mode=OperatingMode[mode],
                      mem_config=NodeMemoryConfig().with_l3_size(8 * MB))
    return Job(machine, program, ranks, memoize=memoize,
               sample_every=8_000_000).run(counter_modes=(0, 2))


@pytest.mark.parametrize("spec", list(SAMPLED_JOBS),
                         ids=lambda spec: "-".join(map(str, spec)))
def test_sampled_job_timeline_matches_pin(spec):
    timeline = _sampled_job(*spec).timeline
    assert timeline_digest(timeline) == SAMPLED_JOBS[spec]


def test_legacy_engine_timeline_matches_pin():
    spec = ("MG", "DUAL", 64, 32)
    timeline = _sampled_job(*spec, memoize=False).timeline
    assert timeline_digest(timeline) == SAMPLED_JOBS[spec]


def test_threshold_alerts_match_pin():
    tl.install_sampling(tl.TimelineConfig(sample_every=8_000_000,
                                          thresholds=THRESHOLDS))
    timeline = _sampled_job(*THRESHOLD_JOB).timeline
    alerts = timeline.alerts()
    assert {a.event for a in alerts} == {
        "BGP_PU0_CYCLES", "BGP_PU0_INST_COMPLETED",
        "BGP_PU1_INST_COMPLETED", "BGP_DDR0_WRITE", "BGP_L3_MISS",
        "BGP_PU0_FPU_MUL"}
    assert {a.threshold for a in alerts
            if a.event == "BGP_PU0_FPU_MUL"} == {100}
    assert timeline_digest(timeline) == THRESHOLD_DIGEST


@pytest.mark.parametrize("experiment", list(SMOKE_JSONL))
def test_smoke_timeline_jsonl_matches_pin(tmp_path, experiment):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([experiment, "--json", str(tmp_path),
                         "--sample-every", "50000"])
    assert code == 0
    data = (tmp_path / "timeline.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SMOKE_JSONL[experiment]


def test_sampled_run_builds_no_upc_unit_or_monitor(monkeypatch):
    """The only UPC units a sampled run builds are the node models' own
    (one per simulated node class); the samplers build none, and no
    counter monitor."""
    built = {"upc": 0, "node": 0, "monitor": 0}

    def counting(cls, key):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            built[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    counting(counters.UPCUnit, "upc")
    counting(ComputeNode, "node")
    counting(monitor.CounterMonitor, "monitor")
    clear_comm_cache()
    program = compile_program(build_benchmark("MG", num_ranks=14,
                                              problem_class="A"), O5())
    # 14 ranks on 4 VNM nodes: two node classes, two counter modes
    result = Job(Machine(4, mode=OperatingMode.VNM), program, 14,
                 sample_every=150_000).run()
    assert len(result.timeline.nodes) == 4
    assert built["upc"] == built["node"]
    assert built["monitor"] == 0
