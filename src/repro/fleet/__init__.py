"""Fleet-scale run analytics: catalog, summarizer plugins, datasources.

One traced + sampled run exports an artifact directory
(``timeline.jsonl``, ``report.json``, ``ras.jsonl``, ...); a *fleet* is
a tree of hundreds of such directories accumulated by CI, sweeps and
production monitoring.  This package turns the single-run tooling of
:mod:`repro.obs` into batch analytics over that corpus, in the style of
SUPReMM/XDMoD job summarization:

* :mod:`repro.fleet.catalog` — walks the tree, fingerprints every run
  (config hash, workload, node count, artifact stat signature) and
  keeps an **incremental index**: a re-scan touches only new, changed
  or removed runs;
* :mod:`repro.fleet.plugin` / :mod:`repro.fleet.summarizers` — a
  plugin architecture where each derived-metric summarizer (CPI,
  flops/cycle, L3 hit rate, DDR bandwidth, torus link utilization,
  cross-node imbalance, RAS/fault counts) declares the artifacts and
  counters it needs and processes one run at a time;
* :mod:`repro.fleet.datasource` — the catalog and the per-plugin
  summary tables live behind one ``create_datasource`` factory with a
  JSONL-directory backend and a SQLite backend that produce identical
  tables;
* :mod:`repro.fleet.summarize` — the engine: refresh the catalog,
  summarize the delta run by run, commit rows, and render
  ``fleet_report.md``/``fleet_report.json`` with cross-run percentile
  bands and outlier-run flags;
* :mod:`repro.fleet.corpus` — a deterministic small-run corpus
  generator (CI's fleet job and the test suite use it).

CLI::

    python -m repro gen-corpus FLEET --runs 20
    python -m repro summarize-fleet FLEET --datasource sqlite
"""

from .catalog import ARTIFACT_FILES, Catalog, CatalogDelta, RunRecord
from .datasource import (
    DataSource,
    JsonlDataSource,
    SqliteDataSource,
    create_datasource,
)
from .plugin import (
    SkipRun,
    SummarizerPlugin,
    available_plugins,
    discover_plugins,
    register,
)
from .report import build_fleet_report, render_fleet_markdown
from .summarize import FleetSummary, summarize_fleet
from .corpus import generate_corpus

__all__ = [
    "ARTIFACT_FILES",
    "Catalog",
    "CatalogDelta",
    "RunRecord",
    "DataSource",
    "JsonlDataSource",
    "SqliteDataSource",
    "create_datasource",
    "SkipRun",
    "SummarizerPlugin",
    "available_plugins",
    "discover_plugins",
    "register",
    "build_fleet_report",
    "render_fleet_markdown",
    "FleetSummary",
    "summarize_fleet",
    "generate_corpus",
]
