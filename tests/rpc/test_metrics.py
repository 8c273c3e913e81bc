"""Unit tests for RPC metrics aggregation."""

import math

import pytest

from repro.obs.registry import MetricsRegistry
from repro.rpc.metrics import RpcMetrics


def record(metrics, method="m", adjustments=2, ser=50.0, send=20.0, size=128):
    metrics.record_call(
        "P",
        method,
        adjustments=adjustments,
        serialization_us=ser,
        send_us=send,
        message_bytes=size,
    )


def test_aggregation_by_kind():
    metrics = RpcMetrics()
    record(metrics, adjustments=2, ser=40, send=10, size=100)
    record(metrics, adjustments=4, ser=60, send=30, size=300)
    agg = metrics.kind("P", "m")
    assert agg.calls == 2
    assert agg.avg_adjustments == 3.0
    assert agg.avg_serialization_us == 50.0
    assert agg.avg_send_us == 20.0
    assert agg.message_sizes == [100, 300]


def test_averages_are_running_sums_in_record_order():
    """Table I's averages divide a left-to-right running sum by the
    count — not ``math.fsum``, whose correctly rounded total differs in
    the last bits and would move the Table I golden."""
    values = [0.1, 0.2, 0.3]
    metrics = RpcMetrics()
    for v in values:
        record(metrics, ser=v)
    agg = metrics.kind("P", "m")
    assert agg.avg_serialization_us == ((0.1 + 0.2) + 0.3) / 3
    assert agg.avg_serialization_us != math.fsum(values) / 3


def test_kinds_sorted_and_distinct():
    metrics = RpcMetrics()
    record(metrics, method="zz")
    record(metrics, method="aa")
    kinds = metrics.kinds()
    assert [k.method for k in kinds] == ["aa", "zz"]


def test_unknown_kind_is_none():
    assert RpcMetrics().kind("X", "y") is None


def test_message_size_trace():
    metrics = RpcMetrics()
    for size in (100, 150, 90):
        record(metrics, size=size)
    assert metrics.message_size_trace("P", "m") == [100, 150, 90]
    assert metrics.message_size_trace("P", "other") == []


def test_receive_profile_alloc_ratio():
    metrics = RpcMetrics()
    metrics.record_receive(alloc_us=30.0, receive_total_us=100.0)
    assert metrics.mean_alloc_ratio() == pytest.approx(0.3)
    zero = RpcMetrics()
    zero.record_receive(alloc_us=1.0, receive_total_us=0.0)
    assert zero.alloc_ratio.count == 1
    assert zero.mean_alloc_ratio() == 0.0


def test_mean_alloc_ratio():
    metrics = RpcMetrics()
    metrics.record_receive(10.0, 100.0)
    metrics.record_receive(30.0, 100.0)
    assert metrics.mean_alloc_ratio() == pytest.approx(0.2)
    assert RpcMetrics().mean_alloc_ratio() == 0.0


def test_failures_counted_separately():
    """The registry counts completed and failed calls apart; only a
    completed call is added to its kind."""
    from repro.io.writables import Text
    from repro.rpc.call import RemoteException
    from tests.rpc.conftest import RpcHarness

    harness = RpcHarness()

    def caller(env):
        yield harness.proxy.echo(Text("x"))
        with pytest.raises(RemoteException):
            yield harness.proxy.boom()

    harness.run(caller)
    reg = harness.fabric.metrics
    completed = reg.find("rpc.client.calls_completed")
    failed = reg.find("rpc.client.calls_failed")
    assert [c.value for c in completed.values()] == [1]
    assert [c.value for c in failed.values()] == [1]
    assert [(k.method, k.calls) for k in harness.client.metrics.kinds()] == [
        ("echo", 1)
    ]


def test_reset_clears_state():
    metrics = RpcMetrics()
    record(metrics)
    metrics.record_receive(1.0, 2.0)
    metrics.reset()
    assert metrics.kinds() == []
    assert metrics.alloc_ratio.count == 0
    assert metrics.mean_alloc_ratio() == 0.0


def test_memory_grows_with_kinds_not_calls():
    """10,000 calls and receives leave one Fig. 3 size per call and
    nothing else per call: the per-call lists stay empty, and each
    tally (the Fig. 1 ratio, a registry latency tally) stays within the
    sketch's buffer and centroid bounds."""
    metrics = RpcMetrics()
    latency = MetricsRegistry().tally(
        "rpc.client.latency_us", protocol="P", method="m"
    )
    for i in range(10_000):
        record(metrics, ser=float(i % 97), size=100 + i % 13)
        metrics.record_receive(float(i % 7), 10.0 + i % 11)
        latency.observe(40.0 + (i * 7919) % 1000 / 10.0)
    assert metrics.call_profiles == []
    assert metrics.receive_profiles == []
    assert [k.calls for k in metrics.kinds()] == [10_000]
    assert len(metrics.message_size_trace("P", "m")) == 10_000
    for sketch in (metrics.alloc_ratio, latency):
        assert sketch.count == 10_000
        assert len(sketch._buffer) <= 5 * sketch.compression
        assert len(sketch._means) <= sketch.compression
