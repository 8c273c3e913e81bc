"""Unit tests for RPC metrics aggregation."""

import pytest

from repro.rpc.metrics import CallProfile, ReceiveProfile, RpcMetrics


def profile(method="m", adjustments=2, ser=50.0, send=20.0, lat=100.0, size=128):
    return CallProfile(
        protocol="P",
        method=method,
        mem_adjustments=adjustments,
        serialization_us=ser,
        send_us=send,
        latency_us=lat,
        message_bytes=size,
    )


def test_aggregation_by_kind():
    metrics = RpcMetrics()
    metrics.record_call(profile(adjustments=2, ser=40, send=10, lat=80, size=100))
    metrics.record_call(profile(adjustments=4, ser=60, send=30, lat=120, size=300))
    agg = metrics.kind("P", "m")
    assert agg.calls == 2
    assert agg.avg_adjustments == 3.0
    assert agg.avg_serialization_us == 50.0
    assert agg.avg_send_us == 20.0
    assert agg.avg_latency_us == 100.0
    assert agg.message_sizes == [100, 300]


def test_kinds_sorted_and_distinct():
    metrics = RpcMetrics()
    metrics.record_call(profile(method="zz"))
    metrics.record_call(profile(method="aa"))
    kinds = metrics.kinds()
    assert [k.method for k in kinds] == ["aa", "zz"]


def test_unknown_kind_is_none():
    assert RpcMetrics().kind("X", "y") is None


def test_message_size_trace():
    metrics = RpcMetrics()
    for size in (100, 150, 90):
        metrics.record_call(profile(size=size))
    assert metrics.message_size_trace("P", "m") == [100, 150, 90]
    assert metrics.message_size_trace("P", "other") == []


def test_receive_profile_alloc_ratio():
    p = ReceiveProfile("P", "m", alloc_us=30.0, receive_total_us=100.0, payload_bytes=10)
    assert p.alloc_ratio == pytest.approx(0.3)
    zero = ReceiveProfile("P", "m", alloc_us=1.0, receive_total_us=0.0, payload_bytes=0)
    assert zero.alloc_ratio == 0.0


def test_mean_alloc_ratio():
    metrics = RpcMetrics()
    metrics.record_receive(ReceiveProfile("P", "m", 10.0, 100.0, 1))
    metrics.record_receive(ReceiveProfile("P", "m", 30.0, 100.0, 1))
    assert metrics.mean_alloc_ratio() == pytest.approx(0.2)
    assert RpcMetrics().mean_alloc_ratio() == 0.0


def test_mean_latency_requires_calls():
    with pytest.raises(ValueError):
        RpcMetrics().mean_latency_us()


def test_failures_counted_separately():
    """The registry counts completed and failed calls apart; only a
    completed call leaves a profile behind."""
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
    assert len(harness.client.metrics.call_profiles) == 1


def test_reset_clears_state():
    metrics = RpcMetrics()
    metrics.record_call(profile())
    metrics.record_receive(ReceiveProfile("P", "m", 1.0, 2.0, 3))
    metrics.reset()
    assert metrics.call_profiles == []
    assert metrics.kinds() == []
    assert metrics.receive_profiles == []
