"""The integer node sampler against the register-file oracle.

:class:`repro.obs.timeline.NodeTimelineSampler` keeps counter values,
last-sample values and series as plain ints;
:class:`tests.timeline_oracle.OracleNodeSampler` pulses a shadow UPC unit
and reads it back with a counter monitor.  Fed the same phases and
branched the same way, the two must freeze the same timelines: samples,
alerts (order, cycles, values, thresholds) and phases.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import timeline as tl
from tests.timeline_oracle import OracleNodeSampler

WRAP = 1 << 64
#: the default event set (counter modes 0 and 2), plus two events of
#: modes 3 and 1 that a feed may name and both samplers must ignore
EVENTS = tl.DEFAULT_SAMPLE_EVENTS
FOREIGN = ("BGP_TORUS_XP_PACKETS", "BGP_PU0_L2_PREFETCH_HIT")

periods = st.one_of(st.integers(1, 10), st.integers(1, 10**7),
                    st.sampled_from([1, 10**7]))
counts = st.one_of(st.integers(-3, 20), st.integers(-3, 1000),
                   st.integers(0, WRAP - 1),
                   st.integers(WRAP - 1000, WRAP - 1))
thresholds = st.one_of(st.just(0), st.integers(-WRAP, -1),
                       st.integers(1, 40), st.integers(1, 5000), st.integers(1, WRAP - 1),
                       st.integers(WRAP - 5000, WRAP + 5000),
                       st.integers(WRAP, 4 * WRAP))


def _span(data, period):
    """A phase span: zero, below one period, a multiple of the period,
    a .5 float (banker's rounding), any float, or negative."""
    kind = data.draw(st.sampled_from(
        ["zero", "below", "multiple", "half", "float", "negative"]))
    if kind == "zero":
        return data.draw(st.sampled_from([0, 0.0, 0.4, -0.5]))
    if kind == "below":
        return data.draw(st.integers(1, max(1, period - 1)))
    if kind == "multiple":
        return period * data.draw(st.integers(1, 12))
    if kind == "half":
        return data.draw(st.integers(0, 12 * period)) + 0.5
    if kind == "float":
        return data.draw(st.floats(0.0, 12.0 * period))
    return data.draw(st.one_of(st.integers(-10**6, -1),
                               st.floats(-1e6, -0.51)))


def _frozen(node):
    return (node.node_id, node.mode, list(node.samples.items()),
            [a.to_dict() for a in node.alerts], node.phases,
            node.anomaly_factor)


def _both(call):
    """``call`` on (integer, oracle): the same result or the same error."""
    outcomes = []
    for side in (0, 1):
        try:
            outcomes.append(("ok", call(side)))
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0][0] == outcomes[1][0], outcomes
    if outcomes[0][0] == "error":
        assert outcomes[0] == outcomes[1]
    return outcomes[0]


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), period=periods, mode=st.sampled_from([0, 2]))
def test_sampler_matches_register_file_oracle(data, period, mode):
    events = data.draw(st.lists(st.sampled_from(EVENTS), min_size=1,
                                max_size=8, unique=True))
    armed = data.draw(st.dictionaries(st.sampled_from(events), thresholds,
                                      max_size=3))
    config = tl.TimelineConfig(sample_every=period, events=tuple(events),
                               thresholds=armed)
    pairs = []
    status = _both(lambda side: pairs.append(
        (tl.NodeTimelineSampler, OracleNodeSampler)[side](7, mode, config)))
    if status[0] == "error":  # no sampled event in this mode
        return
    pairs = [tuple(pairs)]
    names = list(events) + list(FOREIGN)
    for _ in range(data.draw(st.integers(0, 6))):
        index = data.draw(st.integers(0, len(pairs) - 1))
        if data.draw(st.integers(0, 3)) == 0:
            node_id = data.draw(st.integers(0, 1000))
            pairs.append(tuple(sampler.branch(node_id)
                               for sampler in pairs[index]))
            continue
        label = data.draw(st.sampled_from(["compute", "comm.halo", "dump"]))
        fed = data.draw(st.dictionaries(st.sampled_from(names), counts,
                                        max_size=6))
        cycles = _span(data, period)
        pair = pairs[index]
        _both(lambda side: pair[side].feed(label, fed, cycles))
    for fast, oracle in pairs:
        a, b = fast.finish(), oracle.finish()
        assert _frozen(a) == _frozen(b)
        assert repr(_frozen(a)) == repr(_frozen(b))


def _pair(period=100, events=("BGP_PU0_INST_COMPLETED",), thresholds=None):
    config = tl.TimelineConfig(sample_every=period, events=events,
                               thresholds=thresholds or {})
    return (tl.NodeTimelineSampler(0, 0, config),
            OracleNodeSampler(0, 0, config))


@pytest.mark.parametrize("threshold,armed_at", [
    (0, None), (-5, WRAP - 5), (WRAP, None), (WRAP + 100, 100),
    (WRAP - 1, WRAP - 1), (3 * WRAP + 7, 7)])
def test_thresholds_are_register_values(threshold, armed_at):
    """Masked to 64 bits like the threshold register; 0 means off."""
    pair = _pair(thresholds={"BGP_PU0_INST_COMPLETED": threshold})
    for sampler in pair:
        sampler.feed("compute", {"BGP_PU0_INST_COMPLETED": WRAP - 1}, 400)
        sampler.feed("comm", {"BGP_PU0_INST_COMPLETED": 200}, 100)
    fast, oracle = (sampler.finish() for sampler in pair)
    assert _frozen(fast) == _frozen(oracle)
    assert {a.threshold for a in fast.alerts} == (
        set() if armed_at is None else {armed_at})


def test_wrapped_counter_raises_alert_past_threshold():
    """A counter wrapping past 2**64 fires every threshold above its
    old value (the UPC unit's wrap rule), with the wrapped value."""
    pair = _pair(thresholds={"BGP_PU0_INST_COMPLETED": WRAP - 10})
    for sampler in pair:
        # a zero span puts the whole total in at cycle 0, unsampled
        sampler.feed("compute", {"BGP_PU0_INST_COMPLETED": WRAP - 20}, 0)
        sampler.feed("comm", {"BGP_PU0_INST_COMPLETED": 30}, 100)
    fast, oracle = (sampler.finish() for sampler in pair)
    assert _frozen(fast) == _frozen(oracle)
    (alert,) = fast.alerts
    assert (alert.cycle, alert.value) == (100, 10)
    assert fast.samples["BGP_PU0_INST_COMPLETED"] == [(100, 10)]


def test_branch_of_branch_matches_oracle():
    pair = _pair(period=64, thresholds={"BGP_PU0_INST_COMPLETED": 500})
    chains = []
    for sampler in pair:
        sampler.feed("compute", {"BGP_PU0_INST_COMPLETED": 1000}, 400)
        child = sampler.branch(3)
        child.feed("comm", {"BGP_PU0_INST_COMPLETED": 70}, 90)
        grandchild = child.branch(4)
        grandchild.feed("comm", {"BGP_PU0_INST_COMPLETED": 5}, 10)
        chains.append([s.finish() for s in (sampler, child, grandchild)])
    fast, oracle = chains
    assert [_frozen(n) for n in fast] == [_frozen(n) for n in oracle]
    for root, child, grandchild in chains:
        # every alert, inherited ones included, carries its own node id
        assert root.alerts and {a.node_id for a in root.alerts} == {0}
        assert {a.node_id for a in child.alerts} == {3}
        assert {a.node_id for a in grandchild.alerts} == {4}


def test_negative_span_raises_and_leaves_state():
    pair = _pair()
    for sampler in pair:
        sampler.feed("compute", {"BGP_PU0_INST_COMPLETED": 10}, 150)
        with pytest.raises(ValueError, match="negative phase span"):
            sampler.feed("comm", {"BGP_PU0_INST_COMPLETED": 5}, -1)
        sampler.feed("comm", {"BGP_PU0_INST_COMPLETED": 5}, 60)
    fast, oracle = (sampler.finish() for sampler in pair)
    assert _frozen(fast) == _frozen(oracle)
