"""Tests for the incremental artifact catalog (repro.fleet.catalog)."""

import os

import pytest

from repro.fleet.catalog import Catalog, discover_runs
from repro.fleet.datasource import JsonlDataSource
from repro.fleet.plugin import available_plugins, process_counter
from repro.fleet.summarize import summarize_fleet
from tests.fleetutil import write_synthetic_run


def _bump_mtime(run_dir):
    """Force a visibly newer mtime (rewrites within one ns tick exist)."""
    path = os.path.join(run_dir, "timeline.jsonl")
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns + 10_000_000,
                       stat.st_mtime_ns + 10_000_000))


def _corpus(root, count=4):
    return [write_synthetic_run(str(root), f"run-{i:02d}",
                                cycles=2_000_000 + i * 250_000)
            for i in range(count)]


def test_discover_runs_finds_nested_dirs_and_skips_dotdirs(tmp_path):
    write_synthetic_run(str(tmp_path), "2026/week1/run-a")
    write_synthetic_run(str(tmp_path), "run-b")
    hidden = tmp_path / ".fleet" / "tables"
    hidden.mkdir(parents=True)
    (hidden / "timeline.jsonl").write_text("{}\n")
    (tmp_path / "not-a-run").mkdir()
    assert [r.run_id for r in discover_runs(str(tmp_path))] == \
        ["2026/week1/run-a", "run-b"]


def test_refresh_classifies_and_commit_persists(tmp_path):
    _corpus(tmp_path)
    with JsonlDataSource(str(tmp_path / ".fleet")) as source:
        catalog = Catalog(source)
        delta = catalog.refresh(str(tmp_path))
        assert delta.counts() == {"added": 4, "changed": 0,
                                  "unchanged": 0, "removed": 0,
                                  "total": 4}
        # refresh alone must not persist anything: a crashed scan must
        # not mark work as done
        assert catalog.rows() == []
        catalog.commit(delta)
        again = catalog.refresh(str(tmp_path))
        assert again.counts()["unchanged"] == 4
        record = again.unchanged[0]
        assert record.workload == "EP"
        assert record.ranks == 8
        assert "timeline.jsonl" in record.artifacts


def test_refresh_delta_add_mutate_delete(tmp_path):
    runs = _corpus(tmp_path)
    with JsonlDataSource(str(tmp_path / ".fleet")) as source:
        catalog = Catalog(source)
        catalog.commit(catalog.refresh(str(tmp_path)))

        write_synthetic_run(str(tmp_path), "run-99")       # add
        write_synthetic_run(str(tmp_path), "run-01",        # mutate
                            cycles=9_999_999)
        _bump_mtime(runs[1])
        for name in os.listdir(runs[3]):                    # delete
            os.unlink(os.path.join(runs[3], name))
        os.rmdir(runs[3])

        delta = catalog.refresh(str(tmp_path))
        assert [r.run_id for r in delta.added] == ["run-99"]
        assert [r.run_id for r in delta.changed] == ["run-01"]
        assert delta.removed == ["run-03"]
        assert sorted(r.run_id for r in delta.unchanged) == \
            ["run-00", "run-02"]
        catalog.commit(delta)
        assert sorted(row["run"] for row in catalog.rows()) == \
            ["run-00", "run-01", "run-02", "run-99"]


def _process_counts():
    return {name: process_counter(name).value
            for name in available_plugins()}


def test_incremental_rescan_reprocesses_exactly_the_delta(tmp_path):
    """The acceptance scenario: index, perturb, re-scan, compare.

    After adding one run, mutating one and deleting one, a re-scan
    must re-process exactly the two touched runs (verified via the
    per-plugin process-call counters) yet leave tables byte-identical
    to a from-scratch scan of the same corpus state.
    """
    corpus = tmp_path / "corpus"
    runs = _corpus(corpus)
    summarize_fleet(str(corpus), write_report=False)

    write_synthetic_run(str(corpus), "run-new", cycles=5_000_000)
    write_synthetic_run(str(corpus), "run-00", cycles=7_777_777)
    _bump_mtime(runs[0])
    for name in os.listdir(runs[2]):
        os.unlink(os.path.join(runs[2], name))
    os.rmdir(runs[2])

    before = _process_counts()
    summary = summarize_fleet(str(corpus), write_report=False)
    calls = {name: process_counter(name).value - before[name]
             for name in before}
    assert summary.delta == {"added": 1, "changed": 1, "unchanged": 2,
                             "removed": 1, "total": 4}
    # exactly the added + changed runs, per plugin — nothing else
    assert calls == {name: 2 for name in before}

    # the incremental state must be indistinguishable from starting over
    mirror = tmp_path / "mirror"
    scratch = summarize_fleet(
        str(corpus), datasource=f"jsonl:{mirror}",
        write_report=False)
    with JsonlDataSource(str(corpus / ".fleet" / "tables")) as a, \
            JsonlDataSource(str(mirror)) as b:
        assert a.dump_canonical() == b.dump_canonical()
    assert scratch.report == summary.report


def test_rescan_after_adding_one_run_processes_one_run(tmp_path):
    _corpus(tmp_path, count=3)
    summarize_fleet(str(tmp_path), write_report=False)
    write_synthetic_run(str(tmp_path), "run-late")
    before = _process_counts()
    summary = summarize_fleet(str(tmp_path), write_report=False)
    assert summary.delta["added"] == 1
    assert summary.delta["unchanged"] == 3
    assert {n: process_counter(n).value - before[n]
            for n in before} == {n: 1 for n in before}


def test_unknown_plugin_fails_before_scanning(tmp_path):
    _corpus(tmp_path, count=1)
    with pytest.raises(KeyError, match="unknown summarizer"):
        summarize_fleet(str(tmp_path), plugins=["nope"])
