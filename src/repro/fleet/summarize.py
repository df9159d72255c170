"""The fleet summarization engine behind ``summarize-fleet``.

One pass: refresh the incremental catalog, work out which (run,
plugin) pairs actually need processing, summarize those runs one by
one (a broken plugin or run records an error row instead of sinking
the scan), commit the per-run rows into the datasource's summary
tables, and render the cross-run fleet report.

Incrementality is per (run, plugin):

* new or changed runs are processed by every requested plugin;
* unchanged runs are processed only by plugins that have no stored row
  for them (a plugin added after the last scan) or whose stored row
  carries a stale ``schema`` version;
* removed runs are dropped from the catalog and every summary table.

The scan itself is a first-class observable job: it runs under
``fleet.*`` tracer spans, counts runs/rows/process-calls on the
metrics registry, and logs structured progress — so ``--trace`` on the
CLI yields a Perfetto timeline *of the summarization*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs import metrics as _metrics
from ..obs.logging import get_logger, kv
from ..obs.tracer import span as _span
from .catalog import Catalog, RunRecord
from .datasource import DataSource, create_datasource
from .plugin import (
    SkipRun,
    available_plugins,
    get_plugin,
    process_counter,
)
from .report import build_fleet_report, write_fleet_report

_log = get_logger("fleet.summarize")

_RUNS_PROCESSED = _metrics.counter("fleet.runs_processed")
_RUNS_REUSED = _metrics.counter("fleet.runs_reused")
_PLUGIN_ERRORS = _metrics.counter("fleet.plugin_errors")
_RUNS_INDEXED = _metrics.gauge("fleet.runs_indexed")


def _table_name(plugin_name: str) -> str:
    return f"summary.{plugin_name}"


def _summarize_run(root: str, row: Dict[str, Any],
                   plugin_names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Run the named plugins over one archived run.

    Loads the run's artifacts once (leniently — partial runs yield
    rows, not crashes) and returns one committed-shape row per plugin.
    A plugin raising :class:`SkipRun` records a skip row; any other
    plugin exception records an error row, because a single broken
    summarizer or run must not fail the fleet scan.
    """
    record = RunRecord.from_row(row, root)
    out: Dict[str, Dict[str, Any]] = {}
    with _span("fleet.run", run=record.run_id,
               plugins=len(plugin_names)):
        artifacts = record.load_artifacts()
        for name in plugin_names:
            plugin = get_plugin(name)()
            process_counter(name).inc()
            base = {"run": record.run_id, "status": "ok",
                    "schema": plugin.schema_version}
            try:
                base.update(plugin.process(record, artifacts))
            except SkipRun as exc:
                base["status"] = f"skipped: {exc}"
            except Exception as exc:
                _PLUGIN_ERRORS.inc()
                base["status"] = (f"error: {type(exc).__name__}: "
                                  f"{exc}")
                _log.warning(kv("fleet.plugin_error", run=record.run_id,
                                plugin=name,
                                error=f"{type(exc).__name__}: {exc}"))
            out[name] = base
    _RUNS_PROCESSED.inc()
    return out


@dataclass
class FleetSummary:
    """Everything one ``summarize-fleet`` pass produced."""

    root: str
    datasource_kind: str
    delta: Dict[str, int]
    #: number of (run, plugin) process calls this pass performed
    processed: int
    plugins: List[str] = field(default_factory=list)
    tables: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    report_paths: Dict[str, str] = field(default_factory=dict)


def summarize_fleet(root: str,
                    datasource: Union[DataSource, str, None] = None,
                    plugins: Optional[Sequence[str]] = None,
                    out_dir: Optional[str] = None,
                    write_report: bool = True) -> FleetSummary:
    """Index ``root`` and summarize the delta; returns the fleet state.

    ``datasource`` is a spec string (see
    :func:`~repro.fleet.datasource.create_datasource`), an open
    :class:`DataSource`, or None for the JSONL default under
    ``<root>/.fleet``.  ``plugins`` defaults to every discovered
    summarizer.  The fleet report lands in ``out_dir`` (default: the
    fleet root) unless ``write_report`` is off.
    """
    own_source = not isinstance(datasource, DataSource)
    source = (create_datasource(datasource, base=root)
              if own_source else datasource)
    try:
        names = (sorted(plugins) if plugins
                 else sorted(available_plugins()))
        for name in names:
            get_plugin(name)  # unknown names fail before any work
        with _span("fleet.summarize", root=root,
                   plugins=len(names)) as fleet_span:
            catalog = Catalog(source)
            delta = catalog.refresh(root)
            _RUNS_INDEXED.set(delta.total)

            # ---- per-(run, plugin) work list --------------------------
            work: Dict[str, List[str]] = {}
            for record in delta.to_process:
                work[record.run_id] = list(names)
            by_id = {record.run_id: record
                     for record in delta.to_process + delta.unchanged}
            for name in names:
                stored = {
                    row["run"]: row.get("schema")
                    for row in source.read_table(_table_name(name))}
                schema = get_plugin(name).schema_version
                for record in delta.unchanged:
                    if stored.get(record.run_id) != schema:
                        work.setdefault(record.run_id, []).append(name)
            _RUNS_REUSED.inc(delta.total - len(work))
            _log.info(kv("fleet.work", runs=len(work),
                         reused=delta.total - len(work),
                         removed=len(delta.removed)))

            # ---- summarize each run that has work ---------------------
            outputs = [_summarize_run(root, by_id[run_id].to_row(),
                                      tuple(work[run_id]))
                       for run_id in sorted(work)]

            # ---- commit rows, drop removed runs, save the catalog -----
            per_plugin: Dict[str, List[Dict[str, Any]]] = {}
            for rows in outputs:
                for name, row in rows.items():
                    per_plugin.setdefault(name, []).append(row)
            for name in names:
                rows = per_plugin.get(name, [])
                if rows:
                    source.upsert(_table_name(name), rows)
                if delta.removed:
                    source.delete(_table_name(name), delta.removed)
            catalog.commit(delta)

            # ---- cross-run report -------------------------------------
            tables = {name: source.read_table(_table_name(name))
                      for name in names}
            with _span("fleet.report"):
                report = build_fleet_report(catalog.rows(), tables)
            paths: Dict[str, str] = {}
            if write_report:
                paths = write_fleet_report(report, out_dir or root)
                for path in paths.values():
                    _log.info(kv("fleet.artifact", path=path))
            processed = sum(len(p) for p in work.values())
            fleet_span.set("runs", delta.total)
            fleet_span.set("processed", processed)
            return FleetSummary(
                root=root,
                datasource_kind=source.kind,
                delta=delta.counts(),
                processed=processed,
                plugins=names,
                tables=tables,
                report=report,
                report_paths=paths,
            )
    finally:
        if own_source:
            source.close()
