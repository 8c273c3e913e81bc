"""Unit tests for monitors/statistics."""

import math

import pytest

from repro.obs.registry import MetricsRegistry
from repro.simcore import Counter, Histogram, Tally, TimeWeighted


def test_counter_add_and_reset():
    c = Counter("ops")
    c.add()
    c.add(5)
    assert c.value == 6
    c.reset()
    assert c.value == 0


def test_tally_basic_stats():
    t = Tally("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        t.observe(v)
    assert t.count == 4
    assert t.mean == 2.5
    assert t.minimum == 1.0
    assert t.maximum == 4.0
    assert t.total == 10.0
    assert math.isclose(t.stdev, math.sqrt(5.0 / 3.0))


def test_tally_empty_stats_are_nan():
    t = Tally()
    assert math.isnan(t.mean)
    assert math.isnan(t.minimum)
    assert math.isnan(t.maximum)
    assert math.isnan(t.percentile(50))
    # an out-of-range q is still a caller bug, samples or not
    with pytest.raises(ValueError):
        t.percentile(-1)


def test_tally_percentiles():
    t = Tally()
    for v in range(1, 101):
        t.observe(float(v))
    assert t.percentile(0) == 1.0
    assert t.percentile(100) == 100.0
    assert t.percentile(50) == 50.5
    with pytest.raises(ValueError):
        t.percentile(101)


def test_tally_single_sample_percentile():
    t = Tally()
    t.observe(7.0)
    assert t.percentile(50) == 7.0
    assert t.stdev == 0.0


def test_time_weighted_mean():
    tw = TimeWeighted(initial=0.0)
    tw.update(10.0, 4.0)  # 0 for [0,10)
    tw.update(20.0, 0.0)  # 4 for [10,20)
    # mean over [0,30): (0*10 + 4*10 + 0*10)/30
    assert math.isclose(tw.mean(30.0), 4.0 / 3.0)


def test_time_weighted_rejects_backwards_time():
    tw = TimeWeighted()
    tw.update(5.0, 1.0)
    with pytest.raises(ValueError):
        tw.update(4.0, 2.0)


def test_time_weighted_zero_span():
    tw = TimeWeighted(initial=3.0)
    assert tw.mean(0.0) == 3.0


def test_histogram_buckets():
    h = Histogram([10, 100, 1000])
    for v in (5, 10, 11, 100, 5000):
        h.observe(v)
    assert h.counts == [2, 2, 0, 1]
    assert h.total == 5


def test_histogram_bucket_of():
    h = Histogram([128, 256, 512])
    assert h.bucket_of(1) == 0
    assert h.bucket_of(128) == 0
    assert h.bucket_of(129) == 1
    assert h.bucket_of(513) == 3  # overflow


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram([])
    with pytest.raises(ValueError):
        Histogram([10, 10])
    with pytest.raises(ValueError):
        Histogram([10, 5])


def test_histogram_items_labels():
    h = Histogram([10, 20])
    h.observe(15)
    labels = dict(h.items())
    assert labels == {"<=10": 0, "<=20": 1, ">20": 0}


# The metrics registry (repro.obs) hands out these monitors by name.
def test_registry_reuses_monitors():
    reg = MetricsRegistry()
    assert isinstance(reg.counter("a"), Counter)
    assert reg.counter("a") is reg.counter("a")
    assert reg.tally("b") is reg.tally("b")
    assert reg.histogram("c", [1, 2]) is reg.histogram("c", [1, 2])
    assert reg.counter("a", node="n1") is not reg.counter("a")


def test_registry_snapshot():
    reg = MetricsRegistry()
    reg.counter("rpc.calls").add(3)
    reg.tally("rpc.latency").observe(10.0)
    snap = reg.snapshot()
    assert snap["rpc.calls"] == {"type": "counter", "value": 3}
    assert snap["rpc.latency"]["mean"] == 10.0
    assert snap["rpc.latency"]["count"] == 1
