"""End-to-end RPC behaviour, run against both engines (see conftest)."""

import pytest

from repro.io.writables import BytesWritable, IntWritable, Text
from repro.rpc import RemoteException
from repro.rpc.engine import RpcProxy
from repro.simcore.process import Process


def test_echo_roundtrip(harness):
    def caller(env):
        result = yield harness.proxy.echo(BytesWritable(b"hello rpc"))
        return result

    result = harness.run(caller)
    assert result == BytesWritable(b"hello rpc")
    assert harness.service.calls == 1


def test_multiple_params(harness):
    def caller(env):
        return (yield harness.proxy.add(IntWritable(19), IntWritable(23)))

    assert harness.run(caller) == IntWritable(42)


def test_sequential_calls_reuse_connection(harness):
    def caller(env):
        for i in range(5):
            got = yield harness.proxy.add(IntWritable(i), IntWritable(i))
            assert got.value == 2 * i
        return len(harness.client._connections)

    assert harness.run(caller) == 1  # one connection for all five calls


def test_server_exception_propagates(harness):
    def caller(env):
        yield harness.proxy.boom()

    with pytest.raises(RemoteException, match="deliberate failure"):
        harness.run(caller)
    assert harness.server.calls_errored == 1


def test_call_after_exception_still_works(harness):
    def caller(env):
        try:
            yield harness.proxy.boom()
        except RemoteException:
            pass
        return (yield harness.proxy.echo(Text("alive")))

    assert harness.run(caller) == Text("alive")


def test_unknown_method_rejected_at_proxy(harness):
    with pytest.raises(AttributeError):
        harness.proxy.no_such_method


def test_unknown_method_at_server_is_remote_error(harness):
    # Bypass the proxy check by calling the client directly.
    from tests.rpc.conftest import EchoProtocol

    def caller(env):
        yield harness.client.call(
            harness.server.address, EchoProtocol, "phantom", []
        )

    with pytest.raises(RemoteException, match="NoSuchMethod"):
        harness.run(caller)


def test_simulated_slow_method_holds_handler(harness):
    def caller(env):
        start = env.now
        yield harness.proxy.slow(BytesWritable(b"x"))
        return env.now - start

    elapsed = harness.run(caller)
    assert elapsed >= harness.service.delay_us


def test_method_body_runs_in_the_handler_process(harness, monkeypatch):
    """The handler thread runs a simulated method body: no process of
    its own."""
    started = []
    original = Process.__init__

    def recording(self, env, generator, name=""):
        started.append(getattr(generator, "__name__", ""))
        original(self, env, generator, name)

    monkeypatch.setattr(Process, "__init__", recording)

    def caller(env):
        yield harness.proxy.slow(BytesWritable(b"x"))

    harness.run(caller)
    assert started and "slow" not in started


def _raising_body(env, exc):
    """A simulated method body that fails after holding the handler."""
    yield env.timeout(100.0)
    raise exc


def test_raising_method_body_reaches_the_caller(harness):
    harness.service.boom = lambda: _raising_body(
        harness.env, ValueError("body failed")
    )

    def caller(env):
        yield harness.proxy.boom()

    with pytest.raises(RemoteException, match="body failed"):
        harness.run(caller)
    assert harness.server.calls_errored == 1


def test_assertion_in_method_body_crashes_the_run(harness):
    """An engine error in a body is not serialized to the caller."""
    harness.service.boom = lambda: _raising_body(
        harness.env, AssertionError("invariant broken")
    )

    def caller(env):
        yield harness.proxy.boom()

    with pytest.raises(AssertionError, match="invariant broken"):
        harness.run(caller)
    assert harness.server.calls_errored == 0


def test_concurrent_callers_multiplex_one_connection(harness):
    results = []

    def one_call(env, i):
        got = yield harness.proxy.add(IntWritable(i), IntWritable(100))
        results.append(got.value)

    def caller(env):
        procs = [env.process(one_call(env, i)) for i in range(10)]
        yield env.all_of(procs)
        return len(harness.client._connections)

    conns = harness.run(caller)
    assert conns == 1
    assert sorted(results) == [100 + i for i in range(10)]


def test_concurrent_calls_faster_than_sequential(harness):
    """Handlers overlap the simulated method bodies."""

    def concurrent(env):
        procs = [
            env.process(
                (lambda env: (yield harness.proxy.slow(BytesWritable(b"x"))))(env)
            )
            for _ in range(4)
        ]
        start = env.now
        yield env.all_of(procs)
        return env.now - start

    elapsed = harness.run(concurrent)
    # 4 x 500us bodies on 4 handlers: ~1 body deep, far below 4x.
    assert elapsed < 4 * harness.service.delay_us


def test_metrics_record_calls(harness):
    def caller(env):
        yield harness.proxy.echo(BytesWritable(b"z" * 100))
        yield harness.proxy.echo(BytesWritable(b"z" * 100))

    harness.run(caller)
    agg = harness.client.metrics.kind("EchoProtocol", "echo")
    assert agg is not None
    assert agg.calls == 2
    assert agg.avg_serialization_us > 0
    assert agg.message_sizes[0] > 100
    # Per-kind latency lives in the fabric's registry.
    latency = harness.fabric.metrics.tally(
        "rpc.client.latency_us", protocol="EchoProtocol", method="echo"
    )
    assert latency.count == 2
    assert latency.mean > 0


def test_server_counts_handled_calls(harness):
    def caller(env):
        for _ in range(3):
            yield harness.proxy.echo(Text("x"))

    harness.run(caller)
    assert harness.server.calls_handled == 3


def test_proxy_repr_and_type(harness):
    assert isinstance(harness.proxy, RpcProxy)
    assert "EchoProtocol" in repr(harness.proxy)


def test_latency_is_positive_and_bounded(harness):
    def caller(env):
        start = env.now
        yield harness.proxy.echo(BytesWritable(b"x"))
        return env.now - start

    first = harness.run(caller)
    assert 0 < first < 50_000  # setup included, still well under 50ms
