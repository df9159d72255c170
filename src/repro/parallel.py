"""Memoized execution and the process-wide engine switches.

The paper's evaluation sweeps class-C NPB kernels across node counts,
L3 sizes and node modes; every sweep point is an independent simulation
and most of them repeat work (SPMD placement gives most nodes
byte-identical compute).  This module supplies the **memoization
layer** (:func:`memoized` + :func:`warm`) that caches whole simulation
results by argument tuple, can pre-fill its cache through the
cross-point batched sweep engine, and can be backed by an on-disk
:class:`~repro.checkpoint.CheckpointStore` so an interrupted sweep
resumes from the points that already finished.  Every simulation runs
in the process that asks for it.

It also holds the process-wide model-engine switches
(:func:`set_vectorize`, :func:`set_batch_sweep`) and
:func:`cache_context`, the fingerprint folded into every persisted
cache key.  Memo caches record their hits and misses in ``repro.obs``.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .obs import metrics as _metrics


def _vectorize_from_env() -> bool:
    """The ``REPRO_VECTORIZE`` default (on unless explicitly disabled)."""
    raw = os.environ.get("REPRO_VECTORIZE", "").strip().lower()
    return raw not in ("0", "false", "off", "no")


#: Process-wide model-engine switch: True routes the analytical memory
#: hierarchy, torus phase accounting and pipeline timing through their
#: batched NumPy implementations; False keeps the scalar oracles (the
#: pre-vectorization behaviour, used for baselines and identity tests).
#: Both engines are byte-identical by construction — the identity
#: suites in ``tests/test_machine_vec.py`` enforce it.
_vectorize = _vectorize_from_env()


def set_vectorize(on: bool) -> None:
    """Select the model engine: vectorized (True) or scalar oracle."""
    global _vectorize
    _vectorize = bool(on)


def get_vectorize() -> bool:
    """Whether the vectorized model engines are active."""
    return _vectorize


def _batch_sweep_from_env() -> bool:
    """The ``REPRO_BATCH_SWEEP`` default (off unless explicitly on)."""
    raw = os.environ.get("REPRO_BATCH_SWEEP", "").strip().lower()
    return raw in ("1", "true", "on", "yes")


#: Process-wide sweep-engine switch: True routes memo warm-ups through
#: the cross-point batched sweep engine (``repro.harness.batch``), which
#: dedupes node classes *across* sweep points and advances every point
#: through each model stage in one stacked matrix pass; False keeps the
#: per-point path (the identity oracle).  Results are byte-identical by
#: construction — ``tests/test_harness_batch.py`` enforces it.
_batch_sweep = _batch_sweep_from_env()


def set_batch_sweep(on: bool) -> None:
    """Select the sweep engine: cross-point batched (True) or per-point."""
    global _batch_sweep
    _batch_sweep = bool(on)


def get_batch_sweep() -> bool:
    """Whether the cross-point batched sweep engine is active."""
    return _batch_sweep


def cache_context() -> Tuple:
    """Fingerprint of the process state that shapes simulation output.

    Folded into every key persisted to a checkpoint store or the
    shared cache tier, so a record written under one configuration can
    never be served under another: the cache-record schema version
    (bumped when payload semantics change), the active performance
    group (``--group`` changes what a sampled run produces), and the
    model-engine switch (``set_vectorize`` / ``REPRO_VECTORIZE``).
    In-memory memo dicts stay keyed by plain argument tuples — they
    die with the process, where the context cannot silently change
    between writer and reader.
    """
    from .checkpoint import CACHE_SCHEMA_VERSION
    from .groups import get_active_group_name
    return (("schema", CACHE_SCHEMA_VERSION),
            ("group", get_active_group_name()),
            ("vectorize", _vectorize))


class MemoizedFunction:
    """A memoizing wrapper whose cache can be pre-filled in one batch.

    Unlike ``functools.lru_cache`` the cache is a plain dict keyed by
    the *normalised* positional argument tuple (defaults applied), so
    ``f(x)`` and ``f(x, l3_mb=8)`` share an entry and :func:`warm` can
    seed results computed by a batch handler.  :meth:`attach_store`
    additionally backs the cache with an on-disk checkpoint store, so
    completed entries survive the process (``--resume DIR``).
    """

    def __init__(self, fn: Callable):
        self.fn = fn
        self.cache: Dict[Tuple, Any] = {}
        self._signature = inspect.signature(fn)
        self._store = None
        self._encode: Optional[Callable[[Any], Any]] = None
        self._decode: Optional[Callable[[Any], Any]] = None
        self.batch_handler: Optional[Callable] = None
        functools.update_wrapper(self, fn)
        name = fn.__name__
        self.hits = _metrics.counter(f"memo.{name}.hits")
        self.misses = _metrics.counter(f"memo.{name}.misses")
        self.disk_hits = _metrics.counter(f"memo.{name}.disk_hits")

    def key(self, *args: Any, **kwargs: Any) -> Tuple:
        """The cache key of one call: all arguments, defaults applied.

        Variadic parameters are normalised into hashable shapes —
        ``*args`` to a tuple, ``**kwargs`` to a name-sorted item tuple —
        and any remaining unhashable argument raises a ``TypeError``
        naming the offenders instead of a bare ``unhashable type``.
        """
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        parts: List[Any] = []
        for name, value in bound.arguments.items():
            kind = self._signature.parameters[name].kind
            if kind is inspect.Parameter.VAR_KEYWORD:
                value = tuple(sorted(value.items()))
            elif kind is inspect.Parameter.VAR_POSITIONAL:
                value = tuple(value)
            parts.append(value)
        key = tuple(parts)
        try:
            hash(key)
        except TypeError:
            bad = []
            for name, part in zip(bound.arguments, parts):
                try:
                    hash(part)
                except TypeError:
                    bad.append(f"{name} ({type(part).__name__})")
            raise TypeError(
                f"memoized function {self.__name__!r} requires hashable "
                f"arguments for its cache key; unhashable: "
                f"{', '.join(bad)} — pass tuples instead of "
                f"lists/dicts/sets") from None
        return key

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        key = self.key(*args, **kwargs)
        if key in self.cache:
            self.hits.inc()
            return self.cache[key]
        if self._store is not None and self.load_cached(key):
            return self.cache[key]
        self.misses.inc()
        result = self.cache[key] = self.fn(*args, **kwargs)
        self._persist(key, result)
        return result

    def seed(self, key: Tuple, value: Any) -> None:
        """Insert one precomputed result (used by :func:`warm`)."""
        self.cache[key] = value
        self._persist(key, value)

    def cache_clear(self) -> None:
        self.cache.clear()

    # ------------------------------------------------------------------
    # disk-seedable cache (the --resume layer)
    # ------------------------------------------------------------------
    def attach_store(self, store, encode: Optional[Callable] = None,
                     decode: Optional[Callable] = None) -> None:
        """Back the cache with an on-disk checkpoint store.

        Every computed (or :meth:`seed`-ed) result is persisted
        atomically as it lands, and misses consult the store before
        simulating — so a sweep interrupted by SIGINT or a killed
        process resumes from the points that already finished.  ``encode`` maps
        a result to a JSON-serialisable payload and ``decode`` inverts
        it; both default to identity.
        """
        self._store = store
        self._encode = encode or (lambda value: value)
        self._decode = decode or (lambda payload: payload)

    def detach_store(self) -> None:
        self._store = None
        self._encode = None
        self._decode = None

    def attach_batch(self, handler: Callable) -> None:
        """Register a cross-point batch evaluator for :func:`warm`.

        ``handler(keys)`` receives the list of missing cache keys and
        either returns one result per key (computed by the batched
        sweep engine in a single stacked pass) or ``None`` to decline —
        e.g. when fault injection or timeline sampling is active — in
        which case the consumers compute point by point.
        """
        self.batch_handler = handler

    @property
    def store(self):
        return self._store

    def _category(self) -> str:
        return f"memo.{self.__name__}"

    def _store_key(self, key: Tuple) -> Tuple:
        """The on-disk record key: context-qualified.

        The persisted key folds in :func:`cache_context` — the active
        performance group, the ``set_vectorize`` engine state and the
        cache schema version — so a disk-seeded cache can never serve
        a record written under ``--group BGP_MEM`` or a different
        engine toggle to a run that would produce something else.
        """
        return (cache_context(), key)

    def load_cached(self, key: Tuple) -> bool:
        """True when ``key`` is resident (pulled from disk if needed)."""
        if key in self.cache:
            return True
        if self._store is None:
            return False
        # an LRU tier exposes get/put (hit counters + recency touch);
        # a plain checkpoint store only load/save
        loader = getattr(self._store, "get", self._store.load)
        payload = loader(self._category(), self._store_key(key))
        if payload is None:
            return False
        self.disk_hits.inc()
        self.cache[key] = self._decode(payload)
        return True

    def _persist(self, key: Tuple, value: Any) -> None:
        if self._store is not None:
            writer = getattr(self._store, "put", self._store.save)
            writer(self._category(), self._store_key(key),
                   self._encode(value))


def memoized(fn: Callable) -> MemoizedFunction:
    """Decorator form of :class:`MemoizedFunction`."""
    return MemoizedFunction(fn)


def warm(memo: MemoizedFunction, calls: Iterable[Tuple]) -> int:
    """Pre-fill a memoized function's cache in one batched pass.

    ``calls`` is an iterable of positional-argument tuples.  Unless the
    cross-point batched sweep engine is active (:func:`set_batch_sweep`)
    and the memo has a registered batch handler
    (:meth:`MemoizedFunction.attach_batch`), this is a no-op: every
    consumer then computes lazily through the per-point path.
    Otherwise the missing keys (duplicates collapsed, keys already
    resident in memory or on an attached checkpoint store skipped) are
    evaluated in one stacked pass and seeded into the cache; returns
    the number of entries warmed.  A handler that declines (returns
    ``None``) warms nothing, and the consumers compute point by point.
    """
    if memo.batch_handler is None or not _batch_sweep:
        return 0
    missing: List[Tuple] = []
    seen = set(memo.cache)
    for args in calls:
        key = memo.key(*args)
        if key in seen:
            continue
        seen.add(key)
        if memo.load_cached(key):
            continue
        missing.append(key)
    if not missing:
        return 0
    results = memo.batch_handler(missing)
    if results is None:
        return 0
    for key, result in zip(missing, results):
        memo.seed(key, result)
        memo.misses.inc()
    return len(missing)
