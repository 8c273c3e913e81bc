"""Hadoop RPC failure semantics on the client: retries, timeouts,
pings, idle teardown, and server backpressure."""

import pytest

from repro.calibration import IPOIB_QDR
from repro.config import Configuration
from repro.io.writables import IntWritable, Text
from repro.net import Fabric
from repro.rpc import RPC
from repro.rpc.call import RetriesExhaustedError, RpcTimeoutError
from repro.simcore import Environment

from tests.faults.conftest import faulted_harness
from tests.rpc.conftest import EchoProtocol, EchoService, RpcHarness

CONNECT_CONF = {
    "ipc.client.connect.max.retries": 20,
    "ipc.client.connect.retry.interval": 30_000.0,
}


def test_connect_retries_ride_out_a_crash_restart():
    with faulted_harness(
        {"kind": "node_crash", "at": 0, "node": "server"},
        {"kind": "node_restart", "at": 200_000, "node": "server"},
        conf=CONNECT_CONF,
    ) as h:
        def caller(env):
            yield env.timeout(50_000)  # start refused, mid-crash
            got = yield h.proxy.echo(Text("back"))
            return got, env.now

        got, finished_at = h.run(caller)
        assert got == Text("back")
        assert finished_at > 200_000  # could only succeed post-restart


def test_connect_retries_exhaust_against_a_dead_server():
    with faulted_harness(
        {"kind": "node_crash", "at": 0, "node": "server"},
        conf={
            "ipc.client.connect.max.retries": 3,
            "ipc.client.connect.retry.interval": 10_000.0,
        },
    ) as h:
        def caller(env):
            yield env.timeout(1_000)
            try:
                yield h.proxy.echo(Text("x"))
            except RetriesExhaustedError as exc:
                return exc

        exc = h.run(caller)
        assert isinstance(exc, RetriesExhaustedError)
        assert exc.attempts == 4  # initial try + 3 retries
        assert isinstance(exc.cause, ConnectionError)


def _exhausted_connect_us(policy):
    """How long a connect with 3 retries 100 ms apart takes to give up.

    A stashed listener refuses instantly, so the elapsed time of an
    exhausted connect is exactly the sum of the backoff sleeps.
    """
    with faulted_harness(
        {"kind": "node_crash", "at": 0, "node": "server"},
        conf={
            "ipc.client.connect.max.retries": 3,
            "ipc.client.connect.retry.interval": 100_000.0,
            "ipc.client.connect.retry.policy": policy,
        },
    ) as h:
        def caller(env):
            yield env.timeout(1_000)
            start = env.now
            try:
                yield h.proxy.echo(Text("x"))
            except RetriesExhaustedError:
                return env.now - start

        return h.run(caller)


@pytest.mark.parametrize(
    "policy, expected_backoff_us",
    [
        ("fixed", 3 * 100_000.0),
        ("exponential", (1 + 2 + 4) * 100_000.0),
        (" Exponential ", (1 + 2 + 4) * 100_000.0),
    ],
)
def test_connect_backoff_policies(policy, expected_backoff_us):
    assert _exhausted_connect_us(policy) == pytest.approx(expected_backoff_us)


def test_unknown_connect_retry_policy_is_rejected():
    """Any value but fixed or exponential used to mean fixed."""
    with pytest.raises(ValueError, match="ipc.client.connect.retry.policy"):
        _exhausted_connect_us("expo")


# The keeper's semantics do not depend on the dispatch policy: a
# windowed connection touches ``last_activity`` and re-arms the keeper
# on wire I/O, as a direct one does, so both expect the same times.
DISPATCH = pytest.mark.parametrize(
    "windowed", [False, True], ids=["direct", "windowed"]
)


def keeper_harness(windowed: bool) -> RpcHarness:
    harness = RpcHarness(ib=False)
    harness.conf.set("ipc.client.async.enabled", windowed)
    return harness


@DISPATCH
def test_call_timeout_fires_while_handler_is_slow(windowed):
    harness = keeper_harness(windowed)
    harness.conf.set("ipc.client.call.timeout", 100_000.0)
    harness.conf.set("ipc.client.call.max.retries", 0)
    harness.service.delay_us = 500_000.0

    def caller(env):
        yield harness.proxy.slow(Text("x"))

    with pytest.raises(RpcTimeoutError, match="timed out after 100000us"):
        harness.run(caller)
    assert harness.env.now < 500_000.0  # gave up well before the handler


@DISPATCH
def test_ping_keepalive_during_a_long_call(windowed):
    harness = keeper_harness(windowed)
    harness.conf.set("ipc.ping.interval", 50_000.0)
    harness.service.delay_us = 300_000.0

    def caller(env):
        return (yield harness.proxy.slow(Text("alive")))

    assert harness.run(caller) == Text("alive")
    # One ping per 50 ms of wire silence during the 300 ms call.
    assert harness.server.ping_counter.value == 6


@DISPATCH
def test_ping_disabled_by_config(windowed):
    harness = keeper_harness(windowed)
    harness.conf.set("ipc.ping.interval", 50_000.0)
    harness.conf.set("ipc.client.ping", False)
    harness.service.delay_us = 300_000.0

    def caller(env):
        return (yield harness.proxy.slow(Text("quiet")))

    assert harness.run(caller) == Text("quiet")
    assert harness.server.ping_counter.value == 0


@DISPATCH
def test_idle_connection_torn_down_and_lazily_rebuilt(monkeypatch, windowed):
    harness = keeper_harness(windowed)
    harness.conf.set("ipc.client.connection.maxidletime", 100_000.0)
    dropped_at = []
    original_drop = type(harness.client)._drop_connection

    def timed_drop(client, conn):
        dropped_at.append(harness.env.now)
        original_drop(client, conn)

    monkeypatch.setattr(type(harness.client), "_drop_connection", timed_drop)

    def caller(env):
        yield harness.proxy.echo(Text("a"))
        answered_at = env.now
        first = list(harness.client._connections.values())
        yield env.timeout(300_000)  # > maxidletime of silence
        idle_dropped = len(harness.client._connections) == 0
        got = yield harness.proxy.echo(Text("b"))
        second = list(harness.client._connections.values())
        return answered_at, first, idle_dropped, got, second

    answered_at, first, idle_dropped, got, second = harness.run(caller)
    assert idle_dropped
    # The response was the last wire I/O; teardown came maxidletime later.
    assert first[0].last_activity == answered_at
    assert dropped_at == [answered_at + 100_000.0]
    assert got == Text("b")
    assert second and second[0] is not first[0]  # a genuinely new connection


def test_call_queue_overflow_pushes_back_and_recovers():
    env = Environment()
    fabric = Fabric(env)
    server_node = fabric.add_node("server")
    client_node = fabric.add_node("client")
    conf = Configuration({
        "ipc.server.handler.count": 1,
        "ipc.server.callqueue.size": 1,  # capacity 1 * 1 handler
        "ipc.client.call.retry.interval": 50_000.0,
        "ipc.client.call.max.retries": 20,
    })
    service = EchoService(env, delay_us=20_000.0)
    server = RPC.get_server(
        fabric, server_node, 9000, service, EchoProtocol, IPOIB_QDR, conf=conf
    )
    client = RPC.get_client(fabric, client_node, IPOIB_QDR, conf=conf)
    proxy = RPC.get_proxy(EchoProtocol, server.address, client)
    results = []

    def one(env, i):
        got = yield proxy.slow(IntWritable(i))
        results.append(got.value)

    def caller(env):
        yield env.all_of([env.process(one(env, i)) for i in range(5)])

    env.run(env.process(caller(env)))
    assert sorted(results) == [0, 1, 2, 3, 4]  # nobody was lost
    assert server.overload_counter.value >= 1  # and the queue did overflow
