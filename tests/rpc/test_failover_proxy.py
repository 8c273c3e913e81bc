"""FailoverProxy unit tests: stickiness, rotation, retry policy."""

import pytest

from repro.rpc.call import RemoteException, RetriesExhaustedError
from repro.rpc.failover import FailoverProxy
from repro.rpc.microbench import PingPongProtocol

from tests.ha.conftest import HaHarness, faulted_ha_harness


def _call(harness, proxy, n=1):
    results = []

    def caller():
        for _ in range(n):
            value = yield proxy.pingpong(harness.payload())
            results.append(bytes(value.value))

    harness.env.run(harness.env.process(caller(), name="caller"))
    return results


def test_proxy_requires_at_least_one_address():
    harness = HaHarness(controller=False)
    client_node = harness.fabric.add_node("cx")
    from repro.calibration import IPOIB_QDR
    from repro.rpc import RPC

    client = RPC.get_client(harness.fabric, client_node, IPOIB_QDR)
    with pytest.raises(ValueError):
        FailoverProxy(client, [], PingPongProtocol)


def test_proxy_rejects_unknown_methods():
    harness = HaHarness(controller=False)
    proxy = harness.proxy()
    with pytest.raises(AttributeError):
        proxy.not_a_method


def test_sticky_on_first_active_no_failover_when_healthy():
    harness = HaHarness(controller=False)
    proxy = harness.proxy()
    results = _call(harness, proxy, n=3)
    assert len(results) == 3
    assert proxy.failovers == 0
    assert harness.services[0].applied_ops == 3
    assert harness.services[1].applied_ops == 0


def test_standby_exception_rotates_to_the_active():
    # Swap roles *before* any call: the proxy starts on the standby,
    # gets a typed StandbyException over the wire, rotates, succeeds.
    harness = HaHarness(controller=False)
    epoch = harness.journal.new_epoch("svc1")
    harness.services[1].transition_to_active(epoch)
    proxy = harness.proxy()
    results = _call(harness, proxy)
    assert len(results) == 1
    assert proxy.failovers == 1
    assert harness.services[0].standby_rejections == 1
    assert harness.services[1].applied_ops == 1
    # Stickiness: the follow-up call goes straight to the new active.
    _call(harness, proxy)
    assert proxy.failovers == 1


def test_non_standby_remote_exceptions_are_not_retried():
    harness = HaHarness(controller=False)

    def broken(payload):
        raise RuntimeError("handler exploded")

    harness.services[0].pingpong = broken
    proxy = harness.proxy()
    with pytest.raises(RemoteException) as exc_info:
        _call(harness, proxy)
    assert exc_info.value.class_name == "RuntimeError"
    assert proxy.failovers == 0


def test_exhausted_attempts_raise_retries_exhausted():
    with faulted_ha_harness(
        {"kind": "node_crash", "at": 0, "node": "svc0"},
        {"kind": "node_crash", "at": 0, "node": "svc1"},
        controller=False,
    ) as harness:
        proxy = harness.proxy()
        with pytest.raises(RetriesExhaustedError) as exc_info:
            _call(harness, proxy)
    max_attempts = harness.conf.get_int("ipc.client.failover.max.attempts")
    assert exc_info.value.attempts == max_attempts + 1
    assert isinstance(exc_info.value.cause, ConnectionError)
    assert proxy.failovers == max_attempts
    # RetriesExhaustedError *is* a ConnectionError: callers catching
    # transport failures see exhausted failover the same way.
    assert isinstance(exc_info.value, ConnectionError)


def test_retry_policy_is_hot_reloadable():
    with faulted_ha_harness(
        {"kind": "node_crash", "at": 0, "node": "svc0"},
        {"kind": "node_crash", "at": 0, "node": "svc1"},
        controller=False,
    ) as harness:
        proxy = harness.proxy()
        # Tighten the budget mid-run via a Configuration write: the
        # proxy re-parses on the version bump (no cache-at-init).
        harness.conf.set("ipc.client.failover.max.attempts", 1)
        with pytest.raises(RetriesExhaustedError) as exc_info:
            _call(harness, proxy)
    assert exc_info.value.attempts == 2
    assert proxy.failovers == 1


def test_failovers_counted_in_fabric_registry():
    harness = HaHarness(controller=False)
    epoch = harness.journal.new_epoch("svc1")
    harness.services[1].transition_to_active(epoch)
    proxy = harness.proxy()
    _call(harness, proxy)
    counters = harness.fabric.metrics.find("rpc.client.failovers")
    assert sum(c.value for c in counters.values()) == 1


def test_fixed_policy_uses_base_delay():
    harness = HaHarness(
        controller=False,
        conf_overrides={
            "ipc.client.failover.retry.policy": "fixed",
            "ipc.client.failover.jitter": 0.0,
        },
    )
    epoch = harness.journal.new_epoch("svc1")
    harness.services[1].transition_to_active(epoch)
    proxy = harness.proxy()
    start = harness.env.now
    _call(harness, proxy)
    elapsed = harness.env.now - start
    base = harness.conf.get_float("ipc.client.failover.sleep.base")
    # one standby bounce + one fixed backoff + two served round-trips.
    assert elapsed >= base


def test_unknown_failover_retry_policy_is_rejected():
    """Any value but fixed or exponential used to mean fixed."""
    harness = HaHarness(
        controller=False,
        conf_overrides={"ipc.client.failover.retry.policy": "Expo"},
    )
    proxy = harness.proxy()
    with pytest.raises(ValueError, match="ipc.client.failover.retry.policy"):
        _call(harness, proxy)
    # case and spacing do not matter for a known policy
    harness.conf.set("ipc.client.failover.retry.policy", " FIXED")
    assert len(_call(harness, proxy)) == 1
