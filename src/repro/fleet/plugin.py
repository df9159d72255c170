"""Summarizer plugin protocol, registry and discovery.

Each derived-metric summarizer is a :class:`SummarizerPlugin` subclass
that *declares* what it needs — artifact files
(``requires_artifacts``) and counter events (``requires_events``) —
and implements ``process(run, artifacts) -> row``.  The engine
instantiates one plugin per (run, plugin) pair, counts every ``process`` call on a metrics counter
(``fleet.process.<name>``; the incremental-rescan acceptance test
reads it), and commits the returned row into the plugin's summary
table.  A plugin that cannot summarize a run raises :class:`SkipRun`
with a reason; the engine records a skip row instead of failing the
scan (cf. supremm's ``ProcessingError``).

Discovery is entry-point-style without requiring an installed
distribution: built-ins self-register on import, third-party modules
named in the ``REPRO_FLEET_PLUGINS`` environment variable (or passed
to :func:`discover_plugins`) are imported so their ``@register``
decorators run, and genuine ``repro.fleet.plugins`` entry points are
honoured when ``importlib.metadata`` finds any.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Dict, Iterable, List, Optional, Type

from ..obs import metrics as _metrics
from ..obs.logging import get_logger, kv

_log = get_logger("fleet.plugin")

#: entry-point group third-party distributions can publish plugins under
ENTRY_POINT_GROUP = "repro.fleet.plugins"

#: environment variable naming extra plugin modules (comma-separated)
PLUGIN_MODULES_ENV = "REPRO_FLEET_PLUGINS"


class SkipRun(Exception):
    """Raised by ``process`` when a run lacks what the plugin needs."""


class SummarizerPlugin:
    """Base class: declare requirements, summarize one run at a time."""

    #: unique summarizer name; also the summary table suffix
    name: str = ""
    #: artifact files that must be present in the run directory
    requires_artifacts: tuple = ("timeline.jsonl",)
    #: event names (or ``*``-free prefixes via ``requires_event_prefixes``)
    #: that must appear in the run's sampled node totals
    requires_events: tuple = ()
    #: event-name prefixes, any match satisfies the requirement
    requires_event_prefixes: tuple = ()
    #: bumped when a plugin's row schema changes; stored on every row so
    #: stale rows can be re-processed after an upgrade
    schema_version: int = 1

    # ------------------------------------------------------------------
    def process(self, run: Any,
                artifacts: Dict[str, Any]) -> Dict[str, Any]:
        """Summarize one run into a flat row (numbers + short strings).

        ``run`` is the catalog's :class:`~repro.fleet.catalog.RunRecord`
        and ``artifacts`` the lenient
        :func:`~repro.obs.report.load_artifacts` dict.  Raise
        :class:`SkipRun` when the run cannot be summarized.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers for the artifact shapes every summarizer reads
    # ------------------------------------------------------------------
    def check_requirements(self, run: Any,
                           artifacts: Dict[str, Any]) -> None:
        """Raise :class:`SkipRun` unless the declared needs are met."""
        present = set(getattr(run, "artifacts", ()) or ())
        missing = [name for name in self.requires_artifacts
                   if name not in present]
        if missing:
            raise SkipRun(f"missing artifact(s) {', '.join(missing)}")
        if self.requires_events or self.requires_event_prefixes:
            totals = self.machine_totals(artifacts)
            absent = [name for name in self.requires_events
                      if name not in totals]
            if absent:
                raise SkipRun(f"events not sampled: {', '.join(absent)}")
            for prefix in self.requires_event_prefixes:
                if not any(name.startswith(prefix) for name in totals):
                    raise SkipRun(f"no {prefix}* events sampled")

    @staticmethod
    def job_records(artifacts: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [r for r in artifacts["records"]
                if r.get("kind") == "job"]

    @staticmethod
    def node_totals(artifacts: Dict[str, Any]
                    ) -> Dict[int, Dict[str, int]]:
        """Per-node whole-run event totals across every job in the run."""
        out: Dict[int, Dict[str, int]] = {}
        for record in artifacts["records"]:
            if record.get("kind") != "node":
                continue
            node = out.setdefault(int(record.get("node", -1)), {})
            for name, value in (record.get("totals") or {}).items():
                node[name] = node.get(name, 0) + int(value)
        return out

    @classmethod
    def machine_totals(cls, artifacts: Dict[str, Any]) -> Dict[str, int]:
        """Machine-wide event totals summed over the sampled nodes."""
        merged: Dict[str, int] = {}
        for totals in cls.node_totals(artifacts).values():
            for name, value in totals.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    @classmethod
    def elapsed_cycles(cls, artifacts: Dict[str, Any]) -> float:
        """Run-level elapsed cycles (summed across the run's jobs)."""
        return float(sum(
            float(j.get("elapsed_cycles", 0.0) or 0.0)
            for j in cls.job_records(artifacts)))

    @staticmethod
    def ratio(numerator: float, denominator: float) -> Optional[float]:
        """A guarded division: ``None`` instead of a fabricated 0/0."""
        return numerator / denominator if denominator else None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Type[SummarizerPlugin]] = {}


def register(cls: Type[SummarizerPlugin]) -> Type[SummarizerPlugin]:
    """Class decorator: add a summarizer to the process-wide registry.

    Re-registering the same name is last-write-wins (module reloads in
    tests), but two *different* classes colliding on a name is a bug.
    """
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing.__qualname__ != cls.__qualname__:
        raise ValueError(
            f"plugin name {cls.name!r} already registered by "
            f"{existing.__module__}.{existing.__qualname__}")
    _REGISTRY[cls.name] = cls
    return cls


def get_plugin(name: str) -> Type[SummarizerPlugin]:
    discover_plugins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown summarizer {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def available_plugins() -> Dict[str, Type[SummarizerPlugin]]:
    """Name -> class of every discovered summarizer."""
    discover_plugins()
    return dict(sorted(_REGISTRY.items()))


def process_counter(name: str) -> _metrics.Counter:
    """The per-plugin process-call counter."""
    return _metrics.counter(f"fleet.process.{name}")


_discovered = False


def discover_plugins(extra_modules: Iterable[str] = ()) -> List[str]:
    """Import every plugin source so ``@register`` decorators run.

    Sources, in order: the built-in :mod:`repro.fleet.summarizers`;
    modules named in ``REPRO_FLEET_PLUGINS`` (comma-separated import
    paths); ``extra_modules``; and any installed ``repro.fleet.plugins``
    entry points.  Import failures are logged and skipped — a broken
    third-party plugin must not take the whole fleet scan down.
    """
    global _discovered
    modules: List[str] = []
    if not _discovered:
        _discovered = True
        modules.append("repro.fleet.summarizers")
        env = os.environ.get(PLUGIN_MODULES_ENV, "")
        modules.extend(m.strip() for m in env.split(",") if m.strip())
    modules.extend(extra_modules)
    imported: List[str] = []
    for module in modules:
        try:
            importlib.import_module(module)
            imported.append(module)
        except Exception as exc:
            _log.warning(kv("fleet.plugin.import_failed", module=module,
                            error=f"{type(exc).__name__}: {exc}"))
    if modules and imported != ["repro.fleet.summarizers"]:
        _log.debug(kv("fleet.plugin.discovered", modules=imported))
    _load_entry_points()
    return imported


_entry_points_loaded = False


def _load_entry_points() -> None:
    """Honour genuine packaging entry points when any are installed."""
    global _entry_points_loaded
    if _entry_points_loaded:
        return
    _entry_points_loaded = True
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py3.8 fallback territory
        return
    try:
        found = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - pre-3.10 selectable API
        found = entry_points().get(ENTRY_POINT_GROUP, [])
    for entry in found:
        try:
            entry.load()
        except Exception as exc:  # pragma: no cover - env dependent
            _log.warning(kv("fleet.plugin.entry_point_failed",
                            name=entry.name,
                            error=f"{type(exc).__name__}: {exc}"))
