"""Atomic on-disk checkpoints for interrupted runs (``--resume DIR``)
and the always-on service's shared cross-request cache tier.

A sweep over class-C NPB kernels is minutes of simulation; a SIGINT,
a killed process or a batch-system preemption at minute nine should not
cost the first eight.  :class:`CheckpointStore` persists every
completed unit of work — a memoized sweep point, a finished
experiment's row table — as its own small JSON file, written atomically
(temp file + fsync + ``os.replace``) so a crash mid-write can never
leave a half-written checkpoint that a resumed run would trust.

Layout: ``<dir>/<category>/<sha256(repr(key))[:40]>.json``, each file
holding ``{"key": repr(key), "payload": ...}``.  The recorded ``repr``
guards against digest collisions and makes the files self-describing;
a file whose recorded key disagrees, or that fails to parse, is treated
as absent (with a logged warning) rather than poisoning the resume.

Concurrency: the store is shared by *processes*, not just threads —
every ``python -m repro serve`` instance and ``--shared-cache``
offline run may point at one directory.  Two
protections make that safe:

* :meth:`CheckpointStore.save` serialises same-record writers through a
  per-record ``O_CREAT|O_EXCL`` lockfile (stale locks left by killed
  writers are stolen after a grace period), so concurrent writers to
  one ``(category, key)`` cannot interleave their temp-file renames;
* :meth:`CheckpointStore.load` treats a corrupt or truncated record —
  the droppings of a killed writer — as absent: it logs a structured
  warning, *quarantines* the file (renamed to ``*.corrupt``) so it is
  preserved for debugging but never re-read, and returns ``None`` so
  the caller recomputes.

:class:`SharedCacheTier` builds the service's cache on top: an
LRU-bounded (record-count and byte caps, hits refresh recency) store
whose keys are expected to be *context-qualified* — the memo layer in
:mod:`repro.parallel` folds the active performance group, the
``set_vectorize`` engine switch and :data:`CACHE_SCHEMA_VERSION` into
every persisted key, so a schema bump or an engine toggle can never
serve a stale payload.  One process-wide tier can be installed
(:func:`install_shared_tier`); the job engine consults it for comm
phases and node classes, and the serve layer for whole responses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional

from .obs import metrics as _metrics
from .obs.logging import get_logger, kv

_log = get_logger("checkpoint")

_SAVES = _metrics.counter("checkpoint.saves")
_LOADS = _metrics.counter("checkpoint.loads")
_QUARANTINED = _metrics.counter("checkpoint.quarantined")
_LOCK_WAITS = _metrics.counter("checkpoint.lock_waits")
_LOCK_STEALS = _metrics.counter("checkpoint.lock_steals")
_TIER_HITS = _metrics.counter("checkpoint.tier.hits")
_TIER_MISSES = _metrics.counter("checkpoint.tier.misses")
_TIER_EVICTIONS = _metrics.counter("checkpoint.tier.evictions")
_TIER_PINNED = _metrics.counter("checkpoint.tier.pins")

#: Version of the persisted-record key schema.  Folded into every
#: context-qualified cache key (see ``repro.parallel.cache_context``),
#: so changing what a payload means only requires bumping this — old
#: records simply stop matching instead of being misread.
CACHE_SCHEMA_VERSION = 1

#: Seconds a writer waits for a contended per-record lock before
#: giving up (a record write is milliseconds; this is ~1000x slack).
LOCK_TIMEOUT_SECONDS = 10.0
#: Seconds after which a lockfile is presumed abandoned (its holder
#: was killed between acquire and release) and may be stolen.
LOCK_STALE_SECONDS = 30.0


def digest(key: Any) -> str:
    """Stable filename stem for a cache key (hash of its ``repr``).

    ``repr`` rather than ``hash()``: Python's string hashing is
    PYTHONHASHSEED-salted per process, while the key types used here
    (str/int/tuple/frozen dataclasses) all have stable, faithful reprs.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:40]


class CheckpointStore:
    """A directory of atomically-written, self-describing JSON records."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, category: str, key: Any) -> Path:
        return self.directory / category / f"{digest(key)}.json"

    # ------------------------------------------------------------------
    # per-record cross-process locking
    # ------------------------------------------------------------------
    def _acquire_lock(self, target: Path,
                      timeout: float = LOCK_TIMEOUT_SECONDS) -> Path:
        """Take the per-record writer lock (``O_CREAT|O_EXCL``).

        Writers to *different* records never contend (one lockfile per
        record); same-record writers serialise, so a reader can never
        observe two writers' temp-file renames interleaving.  A lock
        whose mtime is older than :data:`LOCK_STALE_SECONDS` belonged
        to a killed writer and is stolen with a logged warning.
        """
        lock = target.with_name(target.name + ".lock")
        deadline = time.monotonic() + timeout
        waited = False
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # released between open and stat: retry now
                if age > LOCK_STALE_SECONDS:
                    _LOCK_STEALS.inc()
                    _log.warning(kv("checkpoint.lock_stolen",
                                    path=str(lock), age_seconds=age))
                    try:
                        lock.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"checkpoint record lock {lock} held for more "
                        f"than {timeout}s by another writer")
                if not waited:
                    waited = True
                    _LOCK_WAITS.inc()
                time.sleep(0.002)
            else:
                try:
                    os.write(fd, str(os.getpid()).encode("ascii"))
                finally:
                    os.close(fd)
                return lock

    @staticmethod
    def _release_lock(lock: Path) -> None:
        try:
            lock.unlink()
        except OSError:  # pragma: no cover - stolen or FS hiccup
            pass

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def save(self, category: str, key: Any, payload: Any) -> Path:
        """Persist one record; atomic even against a crash mid-write,
        and serialised against concurrent same-record writers."""
        target = self.path(category, key)
        target.parent.mkdir(parents=True, exist_ok=True)
        lock = self._acquire_lock(target)
        try:
            fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump({"key": repr(key), "payload": payload},
                              handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        finally:
            self._release_lock(lock)
        _SAVES.inc()
        return target

    def _quarantine(self, target: Path, reason: str) -> None:
        """Move a broken record aside so it is kept but never re-read."""
        quarantined = target.with_name(target.name + ".corrupt")
        try:
            os.replace(target, quarantined)
        except OSError:  # pragma: no cover - already gone or read-only
            quarantined = None
        _QUARANTINED.inc()
        _log.warning(kv("checkpoint.quarantined", path=str(target),
                        moved_to=str(quarantined), reason=reason))

    def load(self, category: str, key: Any) -> Optional[Any]:
        """The saved payload, or None if absent/corrupt/mismatched.

        A corrupt or truncated record — a writer killed mid-write on a
        filesystem without atomic rename, or plain disk rot — is
        quarantined (renamed to ``*.corrupt``) and reported as absent,
        so the caller recomputes instead of crashing and the next load
        does not re-parse the same garbage.
        """
        target = self.path(category, key)
        try:
            with open(target) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            self._quarantine(target, type(exc).__name__)
            return None
        except OSError as exc:
            _log.warning(kv("checkpoint.unreadable", path=str(target),
                            error=type(exc).__name__))
            return None
        if not isinstance(record, dict):
            self._quarantine(target, "not_a_record")
            return None
        if record.get("key") != repr(key):
            _log.warning(kv("checkpoint.key_mismatch", path=str(target),
                            expected=repr(key)))
            return None
        _LOADS.inc()
        return record.get("payload")

    def count(self, category: Optional[str] = None) -> int:
        """Number of records on disk (optionally within one category)."""
        root = self.directory / category if category else self.directory
        if not root.is_dir():
            return 0
        return sum(1 for _ in root.rglob("*.json"))


class SharedCacheTier(CheckpointStore):
    """A cross-request, cross-process cache: bounded, recency-evicting.

    The persistent tier behind ``python -m repro serve`` (and the
    ``--shared-cache DIR`` offline flag): comm phases, node-class
    simulations, memoized sweep points and whole serve responses all
    land here, so the second identical request — from any process —
    is a disk read instead of a simulation.

    Bounds: at most ``max_records`` records / ``max_bytes`` payload
    bytes; when either is exceeded, the least-recently-*used* records
    go first (:meth:`get` refreshes a record's mtime, making the scan
    order true LRU rather than FIFO).  The eviction sweep runs every
    ``sweep_every`` puts, so its directory walk amortises away.
    """

    def __init__(self, directory, max_records: int = 4096,
                 max_bytes: int = 512 * 1024 * 1024,
                 sweep_every: int = 16):
        super().__init__(directory)
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, "
                             f"got {max_records}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if sweep_every < 1:
            raise ValueError(f"sweep_every must be >= 1, "
                             f"got {sweep_every}")
        self.max_records = max_records
        self.max_bytes = max_bytes
        self.sweep_every = sweep_every
        self._puts_since_sweep = 0

    # ------------------------------------------------------------------
    def get(self, category: str, key: Any) -> Optional[Any]:
        """Load one cached payload; a hit refreshes its LRU recency."""
        payload = self.load(category, key)
        if payload is None:
            _TIER_MISSES.inc()
            return None
        try:
            os.utime(self.path(category, key))
        except OSError:  # pragma: no cover - evicted under our feet
            pass
        _TIER_HITS.inc()
        return payload

    def put(self, category: str, key: Any, payload: Any) -> Path:
        """Persist one payload, then enforce the LRU bounds."""
        target = self.save(category, key, payload)
        self._puts_since_sweep += 1
        if self._puts_since_sweep >= self.sweep_every:
            self.evict()
        return target

    # ------------------------------------------------------------------
    # pin policy: the paper-figure working set must never be evicted
    # ------------------------------------------------------------------
    def _pins_path(self) -> Path:
        # deliberately NOT *.json: the rglob scans in usage()/evict()
        # must never mistake the index for a cache record
        return self.directory / "pins.index"

    def _load_pins(self) -> set:
        """The pinned record paths (relative), re-read on every call.

        Never cached in memory: several service processes share one
        directory, and a pin written by any of them must bind the
        others' next eviction sweep.
        """
        try:
            with open(self._pins_path()) as handle:
                return {line.strip() for line in handle if line.strip()}
        except FileNotFoundError:
            return set()
        except OSError:  # pragma: no cover - unreadable index
            return set()

    def _write_pins(self, pins: set) -> None:
        target = self._pins_path()
        lock = self._acquire_lock(target)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write("\n".join(sorted(pins)))
                    if pins:
                        handle.write("\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        finally:
            self._release_lock(lock)

    def _relative(self, category: str, key: Any) -> str:
        return str(self.path(category, key).relative_to(self.directory))

    def pin(self, category: str, key: Any) -> None:
        """Exempt one record from LRU eviction (idempotent).

        Pinned records still count toward the usage bounds — pinning
        shrinks the budget the unpinned records compete for — but the
        eviction sweep will never delete them.  The pin is persisted to
        ``pins.index`` in the cache directory, so it binds every
        process sharing the tier and survives restarts.
        """
        self.pin_many([(category, key)])

    def pin_many(self, records) -> int:
        """Pin a batch of ``(category, key)`` records in one index write."""
        pins = self._load_pins()
        added = {self._relative(category, key)
                 for category, key in records} - pins
        if added:
            self._write_pins(pins | added)
            _TIER_PINNED.inc(len(added))
        return len(added)

    def unpin(self, category: str, key: Any) -> bool:
        """Remove one pin; True when it existed."""
        pins = self._load_pins()
        relative = self._relative(category, key)
        if relative not in pins:
            return False
        self._write_pins(pins - {relative})
        return True

    def pinned(self) -> set:
        """The current pinned record paths, relative to the directory."""
        return self._load_pins()

    # ------------------------------------------------------------------
    def usage(self) -> Dict[str, int]:
        """Current record count and payload bytes on disk."""
        records = 0
        total = 0
        for path in self.directory.rglob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            records += 1
        return {"records": records, "bytes": total}

    def evict(self) -> int:
        """Drop least-recently-used records until within bounds.

        Pinned records (:meth:`pin`) are skipped: they keep counting
        toward the record/byte totals, but never enter the eviction
        candidate list — the paper-figure working set stays resident
        no matter how much churn the service sees.
        """
        self._puts_since_sweep = 0
        pins = self._load_pins()
        entries = []
        records = 0
        total = 0
        for path in self.directory.rglob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            records += 1
            total += stat.st_size
            if str(path.relative_to(self.directory)) in pins:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        evicted = 0
        entries.sort()  # oldest mtime first == least recently used
        for _, size, path in entries:
            if records <= self.max_records and total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            records -= 1
            total -= size
            evicted += 1
        if evicted:
            _TIER_EVICTIONS.inc(evicted)
            _log.info(kv("checkpoint.tier_evicted", records=evicted,
                         kept=records, bytes=total))
        return evicted


# ---------------------------------------------------------------------------
# process-wide shared tier (installed by `serve` / --shared-cache)
# ---------------------------------------------------------------------------
_shared_tier: Optional[SharedCacheTier] = None


def install_shared_tier(directory, max_records: int = 4096,
                        max_bytes: int = 512 * 1024 * 1024,
                        sweep_every: int = 16) -> SharedCacheTier:
    """Install the process-wide shared cache tier (idempotent per dir).

    Once installed, the job engine persists/reuses comm phases and
    node-class simulations through it (``repro.runtime.machine``), and
    the serve layer keys whole responses on it.  Returns the tier.
    """
    global _shared_tier
    _shared_tier = SharedCacheTier(directory, max_records=max_records,
                                   max_bytes=max_bytes,
                                   sweep_every=sweep_every)
    return _shared_tier


def get_shared_tier() -> Optional[SharedCacheTier]:
    """The installed process-wide tier, or None (the default)."""
    return _shared_tier


def uninstall_shared_tier() -> None:
    """Remove the process-wide tier (tests and server shutdown)."""
    global _shared_tier
    _shared_tier = None


def pin(category: str, key: Any) -> bool:
    """Pin one record on the installed tier; False when none installed."""
    tier = get_shared_tier()
    if tier is None:
        return False
    tier.pin(category, key)
    return True
