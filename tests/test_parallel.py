"""Unit tests for the memoized execution layer."""

import pytest

from repro.parallel import (
    MemoizedFunction,
    get_batch_sweep,
    memoized,
    set_batch_sweep,
    warm,
)


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------
def test_memoized_caches_by_normalized_key():
    calls = []

    @memoized
    def probe(a, b=10):
        calls.append((a, b))
        return a + b

    assert probe(1) == 11
    assert probe(1, b=10) == 11  # default applied: same cache entry
    assert probe(1, 10) == 11
    assert calls == [(1, 10)]
    assert probe(1, b=11) == 12
    assert len(calls) == 2


def test_memoized_exposes_wrapper_metadata():
    @memoized
    def probe(a):
        """Docstring survives."""
        return a

    assert isinstance(probe, MemoizedFunction)
    assert probe.__name__ == "probe"
    assert probe.__doc__ == "Docstring survives."


def test_memoized_seed_and_clear():
    @memoized
    def probe(a):
        raise AssertionError("must not be called")

    probe.seed(probe.key(5), 50)
    assert probe(5) == 50
    probe.cache_clear()
    with pytest.raises(AssertionError):
        probe(5)


# ---------------------------------------------------------------------------
# cache warming (through a registered batch handler)
# ---------------------------------------------------------------------------
@pytest.fixture
def batch_probe():
    """A memoized probe with a batch handler, the batch engine on.

    Yields ``(probe, calls, batches)``: the per-point calls the probe
    ran itself, and the key lists its handler was asked for.
    """
    calls, batches = [], []

    @memoized
    def probe(x):
        calls.append(x)
        return x * x

    def handler(keys):
        batches.append(list(keys))
        return [key[0] * key[0] for key in keys]

    probe.attach_batch(handler)
    before = get_batch_sweep()
    set_batch_sweep(True)
    yield probe, calls, batches
    set_batch_sweep(before)


def test_warm_is_noop_at_one_worker(batch_probe):
    """Without a batch handler, or with the batch engine off, warm()
    computes nothing: the consumers take the per-point path."""
    probe, calls, batches = batch_probe

    @memoized
    def plain(x):
        return x

    assert warm(plain, [(2,), (3,)]) == 0
    assert plain.cache == {}
    set_batch_sweep(False)
    assert warm(probe, [(2,), (3,)]) == 0
    assert batches == [] and probe.cache == {}


def test_warm_fills_cache_from_batch_handler(batch_probe):
    probe, calls, batches = batch_probe
    misses = probe.misses.value
    warmed = warm(probe, [(2,), (3,), (2,)])
    assert warmed == 2  # duplicate call collapsed
    assert batches == [[(2,), (3,)]]  # one batched pass
    assert probe.misses.value - misses == 2
    # consumers now hit the cache without running the function
    assert probe(2) == 4
    assert probe(3) == 9
    assert calls == []


def test_warm_skips_already_cached_keys(batch_probe):
    probe, calls, batches = batch_probe
    probe(4)
    assert warm(probe, [(4,)]) == 0
    assert batches == []
    assert warm(probe, [(4,), (5,)]) == 1
    assert batches == [[(5,)]]
    assert calls == [4]


def test_warm_seeds_and_persists_to_attached_store(batch_probe, tmp_path):
    from repro.checkpoint import CheckpointStore

    probe, calls, batches = batch_probe
    probe.attach_store(CheckpointStore(tmp_path))
    try:
        assert warm(probe, [(6,), (7,)]) == 2
        probe.cache.clear()  # "new process", same disk
        # the persisted keys come back from disk, only 8 is computed
        assert warm(probe, [(6,), (7,), (8,)]) == 1
        assert batches == [[(6,), (7,)], [(8,)]]
        assert probe(6) == 36 and probe(7) == 49 and probe(8) == 64
        assert calls == []
    finally:
        probe.detach_store()


def test_warm_with_declining_handler_leaves_cache_empty(batch_probe):
    probe, calls, batches = batch_probe
    probe.attach_batch(lambda keys: batches.append(list(keys)))
    assert warm(probe, [(1,), (2,)]) == 0
    assert batches == [[(1,), (2,)]]  # asked, and it declined
    assert probe.cache == {}
    assert probe(1) == 1 and calls == [1]  # the per-point path


# ---------------------------------------------------------------------------
# satellite: memo keys for variadic / unhashable arguments
# ---------------------------------------------------------------------------
def test_memoized_normalises_variadic_arguments():
    calls = []

    @memoized
    def probe(a, *extra, **options):
        calls.append(a)
        return (a, extra, tuple(sorted(options.items())))

    first = probe(1, 2, 3, beta=4, alpha=5)
    again = probe(1, 2, 3, alpha=5, beta=4)  # kwarg order is irrelevant
    assert first == again
    assert calls == [1]
    hash(probe.key(1, 2, 3, beta=4, alpha=5))  # plain-hashable key


def test_memoized_rejects_unhashable_with_clear_error():
    @memoized
    def probe(a, b=0):
        return a

    with pytest.raises(TypeError, match=r"unhashable: a \(list\)"):
        probe([1, 2])
    with pytest.raises(TypeError, match=r"b \(dict\)"):
        probe(1, b={"x": 1})


# ---------------------------------------------------------------------------
# context-qualified persisted keys (the stale-hit regression)
# ---------------------------------------------------------------------------
def test_cache_context_reflects_group_vectorize_and_schema():
    from repro import groups
    from repro.checkpoint import CACHE_SCHEMA_VERSION
    from repro.parallel import cache_context, get_vectorize, set_vectorize

    base = dict(cache_context())
    assert base["schema"] == CACHE_SCHEMA_VERSION
    assert base["group"] == "BGP_BASE"
    assert base["vectorize"] is get_vectorize()

    original = get_vectorize()
    try:
        set_vectorize(not original)
        assert dict(cache_context())["vectorize"] is not original
    finally:
        set_vectorize(original)

    groups.set_active_group("BGP_MEM")
    try:
        assert dict(cache_context())["group"] == "BGP_MEM"
    finally:
        groups.set_active_group("BGP_BASE")


def _attach_probe(store):
    calls = []

    @memoized
    def probe(a):
        calls.append(a)
        return {"value": a * 2}

    probe.attach_store(store, encode=dict, decode=dict)
    return probe, calls


def test_disk_record_invisible_after_vectorize_toggle(tmp_path):
    """A payload persisted under one engine toggle must be a *miss*
    under the other — the stale-hit bug this PR fixes."""
    from repro.checkpoint import CheckpointStore
    from repro.parallel import get_vectorize, set_vectorize

    store = CheckpointStore(tmp_path)
    probe, calls = _attach_probe(store)
    original = get_vectorize()
    try:
        assert probe(3) == {"value": 6}
        probe.cache.clear()  # "new process", same disk
        assert probe(3) == {"value": 6}
        assert calls == [3]  # disk hit, not recomputed

        set_vectorize(not original)
        probe.cache.clear()
        assert probe(3) == {"value": 6}
        assert calls == [3, 3]  # other context: recomputed

        # and flipping back finds the original record again
        set_vectorize(original)
        probe.cache.clear()
        assert probe(3) == {"value": 6}
        assert calls == [3, 3]
    finally:
        set_vectorize(original)
        probe.detach_store()


def test_disk_record_invisible_under_other_group(tmp_path):
    from repro import groups
    from repro.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path)
    probe, calls = _attach_probe(store)
    try:
        assert probe(5) == {"value": 10}
        groups.set_active_group("BGP_MEM")
        probe.cache.clear()
        assert probe(5) == {"value": 10}
        assert calls == [5, 5]  # BGP_MEM never sees the BGP_BASE record
    finally:
        groups.set_active_group("BGP_BASE")
        probe.detach_store()
