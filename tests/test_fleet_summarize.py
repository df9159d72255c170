"""End-to-end fleet summarization over a real generated corpus."""

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.fleet import (
    create_datasource,
    generate_corpus,
    summarize_fleet,
)
from repro.fleet.plugin import discover_plugins
from repro.runtime.machine import clear_comm_cache

RUNS = 6
FAULT_RUN = "run-001-mg"
INTERRUPTED_RUN = "run-003-ft"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small generated corpus: 6 real runs, one faulty, one truncated."""
    root = tmp_path_factory.mktemp("fleet")
    clear_comm_cache()
    created = generate_corpus(str(root), runs=RUNS, seed=7)
    assert len(created) == RUNS
    return root


def test_corpus_layout(corpus):
    run_dirs = sorted(os.listdir(str(corpus)))
    assert len([d for d in run_dirs if d.startswith("run-")]) == RUNS
    assert os.path.exists(str(corpus / FAULT_RUN / "ras.jsonl"))
    manifest = json.load(open(str(corpus / "corpus.json")))
    assert manifest["fault_runs"] == [1]
    assert manifest["interrupted_runs"] == [3]


def test_summarize_fleet_full_pass(corpus, tmp_path):
    summary = summarize_fleet(
        str(corpus), datasource=f"jsonl:{tmp_path / 'ds'}",
        out_dir=str(tmp_path))
    assert summary.delta["added"] == RUNS
    assert set(summary.plugins) >= {"cpi", "flops", "l3", "ddr",
                                    "torus", "imbalance", "ras"}

    cpi_rows = {row["run"]: row for row in summary.tables["cpi"]}
    assert len(cpi_rows) == RUNS
    healthy = [r for run, r in cpi_rows.items()
               if run != INTERRUPTED_RUN]
    assert all(r["status"] == "ok" and r["cpi"] > 0 for r in healthy)
    # the interrupted run degrades to a skip row, never an error/crash
    assert cpi_rows[INTERRUPTED_RUN]["status"].startswith("skipped")

    ras_rows = {row["run"]: row for row in summary.tables["ras"]}
    assert ras_rows[FAULT_RUN]["ras_events"] > 0
    assert ras_rows[FAULT_RUN]["ras_ddr_correctable"] > 0
    clean = [run for run, row in ras_rows.items()
             if row["status"] == "ok" and row["ras_events"] == 0]
    assert len(clean) == RUNS - 1

    # torus rows: only mode-(0,3) runs (every third) have packets
    torus_ok = [row["run"] for row in summary.tables["torus"]
                if row["status"] == "ok"]
    assert torus_ok == ["run-002-cg", "run-005-lu"]

    report = summary.report
    assert report["runs"] == RUNS
    assert INTERRUPTED_RUN in report["partial_runs"]
    assert report["plugins"]["cpi"]["columns"]["cpi"]["count"] == RUNS - 1
    for path in summary.report_paths.values():
        assert os.path.exists(path)
    on_disk = json.load(open(summary.report_paths["json"]))
    assert on_disk == report


def test_group_rows_match_legacy_formulas(corpus, tmp_path):
    """cpi/flops/l3/ddr rows through BGP_BASE == the old arithmetic.

    The summarizers now evaluate the BGP_BASE performance group; this
    pins their rows, byte for byte after the shared rounding, to the
    closed-form formulas they computed before the group engine
    existed.
    """
    from repro.core.metrics import FLOP_WEIGHTS, L3_LINE_BYTES
    from repro.isa import CORE_CLOCK_HZ

    summary = summarize_fleet(
        str(corpus), datasource=f"jsonl:{tmp_path / 'ds'}",
        write_report=False)

    def load(run):
        totals, elapsed = {}, 0.0
        for line in open(str(corpus / run / "timeline.jsonl")):
            rec = json.loads(line)
            if rec.get("kind") == "job":
                elapsed += float(rec.get("elapsed_cycles", 0.0) or 0.0)
            elif rec.get("kind") == "node":
                for name, value in (rec.get("totals") or {}).items():
                    totals[name] = totals.get(name, 0) + int(value)
        return totals, elapsed

    def rnd(value):
        return round(value, 6)

    checked = 0
    for row in summary.tables["cpi"]:
        if row["status"] != "ok":
            continue
        totals, _ = load(row["run"])
        cycles = sum(v for k, v in totals.items()
                     if k.startswith("BGP_PU") and k.endswith("_CYCLES"))
        instructions = sum(v for k, v in totals.items()
                           if k.endswith("_INST_COMPLETED"))
        assert row["cycles"] == cycles
        assert row["instructions"] == instructions
        assert row["cpi"] == rnd(cycles / instructions)
        checked += 1
    for row in summary.tables["flops"]:
        if row["status"] != "ok":
            continue
        totals, elapsed = load(row["run"])
        flops = float(sum(
            weight * sum(totals.get(f"BGP_PU{c}_{sfx}", 0)
                         for c in range(4))
            for sfx, weight in FLOP_WEIGHTS.items()))
        seconds = elapsed / CORE_CLOCK_HZ
        assert row["flops"] == rnd(flops)
        assert row["flops_per_cycle"] == rnd(flops / elapsed)
        assert row["mflops"] == rnd(flops / seconds / 1e6)
        checked += 1
    for row in summary.tables["l3"]:
        if row["status"] != "ok":
            continue
        totals, _ = load(row["run"])
        reads, misses = totals["BGP_L3_READ"], totals.get(
            "BGP_L3_MISS", 0)
        assert row["l3_reads"] == reads
        assert row["l3_misses"] == misses
        assert row["l3_hit_rate"] == rnd(1.0 - misses / reads)
        checked += 1
    for row in summary.tables["ddr"]:
        if row["status"] != "ok":
            continue
        totals, elapsed = load(row["run"])
        lines = sum(totals.get(f"BGP_DDR{p}_{d}", 0)
                    for p in (0, 1) for d in ("READ", "WRITE"))
        ddr_bytes = lines * L3_LINE_BYTES
        seconds = elapsed / CORE_CLOCK_HZ
        assert row["ddr_bytes"] == ddr_bytes
        assert row["ddr_bytes_per_sec"] == rnd(ddr_bytes / seconds)
        assert row["ddr_bytes_per_kcycle"] == rnd(
            ddr_bytes / elapsed * 1e3)
        checked += 1
    # interrupted run skips everywhere; mode-(0,3) runs skip l3/ddr
    assert checked >= 2 * (RUNS - 1) + 2 * (RUNS - 3)


def test_backends_agree_byte_for_byte(corpus, tmp_path):
    jsonl_dir = str(tmp_path / "jsonl")
    sqlite_path = str(tmp_path / "fleet.sqlite")
    summarize_fleet(str(corpus), datasource=f"jsonl:{jsonl_dir}",
                    write_report=False)
    summarize_fleet(str(corpus), datasource=f"sqlite:{sqlite_path}",
                    write_report=False)
    with create_datasource(f"jsonl:{jsonl_dir}") as a, \
            create_datasource(f"sqlite:{sqlite_path}") as b:
        dump = a.dump_canonical()
        assert dump == b.dump_canonical()
        assert dump.count("\n") >= RUNS * 8  # catalog + 7 plugin tables


def test_third_party_plugin_module_via_env(corpus, tmp_path,
                                           monkeypatch):
    site = tmp_path / "site"
    site.mkdir()
    (site / "myplugins.py").write_text(
        "from repro.fleet.plugin import SummarizerPlugin, register\n"
        "@register\n"
        "class NodeCount(SummarizerPlugin):\n"
        "    name = 'nodecount'\n"
        "    def process(self, run, artifacts):\n"
        "        self.check_requirements(run, artifacts)\n"
        "        return {'nodes': run.nodes}\n")
    monkeypatch.syspath_prepend(str(site))
    discover_plugins(extra_modules=("myplugins",))
    summary = summarize_fleet(
        str(corpus), datasource=f"jsonl:{tmp_path / 'ds'}",
        plugins=["nodecount"], write_report=False)
    rows = summary.tables["nodecount"]
    assert len(rows) == RUNS
    assert all(row["nodes"] >= 2 for row in rows
               if row["status"] == "ok")


def test_cli_round_trip(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["summarize-fleet", str(corpus),
                     "--datasource", f"sqlite:{tmp_path / 'f.sqlite'}",
                     "--out", str(out), "--plugins", "cpi,ras", "-q"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"{RUNS} run(s) indexed via sqlite" in stdout
    assert os.path.exists(str(out / "fleet_report.md"))
    assert os.path.exists(str(out / "fleet_report.json"))
    report = json.load(open(str(out / "fleet_report.json")))
    assert sorted(report["plugins"]) == ["cpi", "ras"]


def test_cli_gen_corpus(tmp_path, capsys):
    clear_comm_cache()
    code = cli_main(["gen-corpus", str(tmp_path / "c"), "--runs", "2",
                     "-q"])
    assert code == 0
    assert "2 run(s)" in capsys.readouterr().out
    assert os.path.exists(str(tmp_path / "c" / "run-000-ep"
                              / "timeline.jsonl"))


def test_cli_rejects_bad_inputs(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["summarize-fleet", str(tmp_path / "missing")])
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit):
        cli_main(["summarize-fleet", str(tmp_path / "empty"),
                  "--plugins", "bogus", "-q"])
