"""Multiplexed-client regression tests: shared connection, one keeper,
a keeper that follows wire I/O, whole-window close semantics,
hot-reloadable window, batching stats.

The hypothesis suite (test_mux_properties) fuzzes the invariants;
these are the deterministic regressions for the specific bugs the mux
must not reintroduce — most importantly keeper proliferation (one
keeper per *mux*, not per caller) and stranded callers on ``close()``.
"""

import sys

import pytest

from repro.io.writables import Text
from repro.net.verbs import QueuePair
from repro.obs.runtime import obs_session
from repro.rpc.call import Call, RetriesExhaustedError, RpcTimeoutError
from repro.rpc.client import BaseConnection
from repro.rpc.mux import ConnectionMux, MuxIBConnection, MuxSocketConnection
from repro.simcore import Environment
from repro.simcore import sanitizer as sim_sanitizer

from tests.rpc.conftest import RpcHarness


def mux_harness(ib: bool, window: int = 8) -> RpcHarness:
    harness = RpcHarness(ib=ib)
    harness.conf.set("ipc.client.async.enabled", True)
    harness.conf.set("ipc.client.async.max-inflight", window)
    return harness


def the_mux(harness) -> ConnectionMux:
    (conn,) = harness.client._connections.values()
    assert isinstance(conn, ConnectionMux)
    return conn


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
def test_many_callers_share_one_connection_and_one_keeper(monkeypatch, ib):
    keeper_starts = []
    original = BaseConnection._start_keeper

    def counting_start(self):
        keeper_starts.append(self)
        original(self)

    monkeypatch.setattr(BaseConnection, "_start_keeper", counting_start)
    harness = mux_harness(ib)
    results = []

    def caller(i):
        got = yield harness.proxy.echo(Text(f"m{i}"))
        results.append((i, got))

    procs = [
        harness.env.process(caller(i), name=f"caller{i}") for i in range(32)
    ]
    harness.env.run(harness.env.all_of(procs))

    assert sorted(results) == [(i, Text(f"m{i}")) for i in range(32)]
    # One shared connection for all 32 callers, one keeper for the mux.
    assert len(harness.client._connections) == 1
    the_mux(harness)
    assert len(keeper_starts) == 1


class WindowOfOne:
    """A window of 1 in front of a slow handler, with callers that start
    ``gap_us`` apart once the connection is up: every call but the
    first enqueues while an older one is in flight, so enqueues, flushes
    and received frames all fall at distinct times.  Records when the
    keeper arms a timer and when the connection does wire I/O (a flush
    ends or a frame settles)."""

    def __init__(self, monkeypatch, ib, callers=8, gap_us=100.0):
        self.keeper_timers = []
        self.flushes = []
        self.frames = []
        keeper_code = BaseConnection._keeper_loop.__code__
        original_timeout = Environment.timeout

        def counting_timeout(env, delay, value=None):
            if sys._getframe(1).f_code is keeper_code:
                self.keeper_timers.append(env.now)
            return original_timeout(env, delay, value)

        mux_cls = MuxIBConnection if ib else MuxSocketConnection
        original_send_batch = mux_cls._send_batch
        original_complete = mux_cls._complete

        def timed_send_batch(conn, batch):
            yield from original_send_batch(conn, batch)
            self.flushes.append(conn.env.now)

        def timed_complete(conn, call_id, *args):
            self.frames.append(conn.env.now)
            original_complete(conn, call_id, *args)

        monkeypatch.setattr(Environment, "timeout", counting_timeout)
        monkeypatch.setattr(mux_cls, "_send_batch", timed_send_batch)
        monkeypatch.setattr(mux_cls, "_complete", timed_complete)
        self.harness = mux_harness(ib, window=1)
        self.harness.service.delay_us = 2_000.0
        self.callers = callers
        self.gap_us = gap_us

    def run(self, probe=None):
        """Connect with one echo, then run the staggered callers; returns
        the connection.  Flushes and frames include the echo's."""
        env = self.harness.env

        def caller(i):
            yield env.timeout(i * self.gap_us)
            yield self.harness.proxy.slow(Text(f"q{i}"))

        def scenario():
            yield self.harness.proxy.echo(Text("connect"))
            procs = [
                env.process(caller(i), name=f"caller{i}")
                for i in range(self.callers)
            ]
            if probe is not None:
                env.process(probe(env), name="probe")
            yield env.all_of(procs)

        env.run(env.process(scenario(), name="scenario"))
        return the_mux(self.harness)


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
def test_queued_calls_do_not_re_arm_the_keeper(monkeypatch, ib):
    """The keeper arms one timer when it starts, then at most one per
    flush and one per received frame: an enqueue without a deadline
    does not re-arm it."""
    window = WindowOfOne(monkeypatch, ib)
    conn = window.run()
    # A window of 1: each flush carries one call, each frame one response.
    assert conn.batches_sent == len(window.flushes) == 1 + window.callers
    assert len(window.frames) == 1 + window.callers
    assert len(window.keeper_timers) <= 1 + len(window.flushes) + len(
        window.frames
    )


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
def test_last_activity_is_the_last_wire_io_not_the_last_enqueue(
    monkeypatch, ib
):
    window = WindowOfOne(monkeypatch, ib)
    samples = []  # (now, last_activity, last flush or settled frame)

    def probe(env):
        yield env.timeout(window.gap_us / 2)
        while len(window.frames) <= window.callers:
            wire = window.flushes + window.frames
            if wire:
                samples.append((env.now, the_mux(window.harness).last_activity,
                                max(wire)))
            yield env.timeout(window.gap_us)

    window.run(probe)
    # Most samples fall after an enqueue and before the next wire I/O.
    assert len(samples) > window.callers
    assert all(last == wire for _, last, wire in samples), samples


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
@pytest.mark.parametrize("reload", [False, True], ids=["fixed", "reloaded"])
def test_a_queued_call_expires_at_its_own_deadline(monkeypatch, ib, reload):
    """A call with a deadline, queued behind a full window on a stalled
    server, fails at exactly ``started_at + timeout`` — also when the
    timeout was reloaded shorter while the older call is in flight, so
    its deadline comes before the keeper's armed wake (the older call's
    deadline): the enqueue's kick is what re-arms the keeper."""
    timeout_us = 100_000.0
    failures = []  # (call id, started_at, deadline, failed at, exception)
    original_error = Call.error

    def logging_error(call, exc):
        failures.append(
            (call.id, call.started_at, call.deadline, harness.env.now, exc)
        )
        original_error(call, exc)

    monkeypatch.setattr(Call, "error", logging_error)
    harness = mux_harness(ib, window=1)
    harness.conf.set("ipc.client.call.max.retries", 0)
    harness.conf.set(
        "ipc.client.call.timeout", 10 * timeout_us if reload else timeout_us
    )
    harness.service.delay_us = 100 * timeout_us  # stalled
    env = harness.env
    raised = []

    def caller(i):
        yield env.timeout(i * 1_000.0)
        if reload and i == 1:
            harness.conf.set("ipc.client.call.timeout", timeout_us)
        try:
            yield harness.proxy.slow(Text(f"d{i}"))
        except RpcTimeoutError:
            raised.append(i)

    def scenario():
        yield harness.proxy.echo(Text("connect"))
        yield env.all_of([env.process(caller(i)) for i in range(2)])

    env.run(env.process(scenario()))
    (older, queued) = sorted(failures, key=lambda f: f[0])
    _, started_at, deadline, failed_at, exc = queued
    assert isinstance(exc, RpcTimeoutError)
    assert deadline == started_at + timeout_us
    assert failed_at == deadline
    assert older[3] == older[2]  # the older call expires on time too
    assert sorted(raised) == [0, 1]
    if reload:
        assert older[2] > deadline  # the queued call's deadline came first


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
def test_close_fails_whole_window_exactly_once_no_stranded_waiters(
    monkeypatch, ib
):
    """``close()`` with queued + in-flight callers: every caller settles
    with an error exactly once, the mux state drains, and the sanitizer
    sees no stranded process or leaked buffer."""
    failed_ids = []
    original_error = Call.error

    def counting_error(self, exc):
        if not self.done.triggered:
            failed_ids.append(self.id)
        original_error(self, exc)

    monkeypatch.setattr(Call, "error", counting_error)

    session = sim_sanitizer.SimSanitizer(label="mux-close")
    sim_sanitizer.install(session)
    try:
        harness = mux_harness(ib, window=4)
        harness.conf.set("ipc.client.call.max.retries", 0)
        harness.service.delay_us = 300_000.0
        outcomes = []

        def caller(i):
            try:
                yield harness.proxy.slow(Text(f"w{i}"))
            except RetriesExhaustedError as exc:
                outcomes.append((i, exc))

        env = harness.env
        # 12 callers against a window of 4: at close time some calls are
        # in flight, the rest still queued on the mux.
        procs = [env.process(caller(i), name=f"caller{i}") for i in range(12)]

        def closer():
            yield env.timeout(50_000.0)
            conn = the_mux(harness)
            assert conn._inflight_ids and conn._send_queue  # both populated
            conn.close()

        procs.append(env.process(closer(), name="closer"))
        env.run(env.all_of(procs))
    finally:
        sim_sanitizer.uninstall()

    # Every caller settled, each exactly once, none hung (env.run
    # returned with all caller processes finished).
    assert len(outcomes) == 12
    assert len(failed_ids) == len(set(failed_ids)) == 12
    assert session.clean, session.report_lines()


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
def test_window_is_hot_reloadable_on_a_live_connection(ib):
    harness = mux_harness(ib, window=2)
    env = harness.env

    def wave(n):
        def caller(i):
            yield harness.proxy.echo(Text(f"v{i}"))

        return [env.process(caller(i), name=f"caller{i}") for i in range(n)]

    env.run(env.all_of(wave(32)))
    conn = the_mux(harness)
    assert conn.max_inflight_seen == 2

    # Retune the live connection — no reconnect, same mux object.
    harness.conf.set("ipc.client.async.max-inflight", 16)
    env.run(env.all_of(wave(32)))
    assert the_mux(harness) is conn
    assert conn.max_inflight_seen == 16


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
def test_sender_batches_and_responder_merges(ib):
    harness = mux_harness(ib, window=8)
    env = harness.env

    def caller(i):
        yield harness.proxy.echo(Text(f"b{i}"))

    procs = [env.process(caller(i), name=f"caller{i}") for i in range(32)]
    env.run(env.all_of(procs))
    conn = the_mux(harness)
    assert conn.calls_batched == 32  # every call flushed exactly once
    assert conn.batches_sent < 32  # ...and not one wire op per call
    assert conn.max_batch > 1
    assert conn.max_inflight_seen <= 8
    # The server's responder saw a batch-aware connection and merged.
    assert harness.server.responses_merged > 0


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
def test_mux_queue_wait_is_a_traced_span(ib):
    with obs_session(trace=True):
        harness = mux_harness(ib, window=2)
    env = harness.env

    def caller(i):
        yield harness.proxy.echo(Text(f"t{i}"))

    procs = [env.process(caller(i), name=f"caller{i}") for i in range(8)]
    env.run(env.all_of(procs))
    tracer = harness.fabric.tracer
    queue_spans = [
        s for root in tracer.roots()
        for s in tracer.trace(root.trace_id)
        if s.name == "rpc.mux.queue"
    ]
    assert len(queue_spans) == 8  # one queue-wait stage per call
    assert all(s.finished for s in queue_spans)
    assert {s.attrs["window"] for s in queue_spans} == {2}
    assert any(s.attrs["batch_size"] > 1 for s in queue_spans)


def test_merged_rpcoib_responses_follow_a_hot_reloaded_rdma_threshold(
    monkeypatch,
):
    """Lowering ``rpc.ib.rdma.threshold`` mid-run reaches the merged
    responses too: after the reload every server post goes RDMA, batch
    or single (a responder that cached the threshold at start kept
    posting merged batches eager)."""
    harness = mux_harness(ib=True, window=32)
    env = harness.env
    reload_at = 2_000.0
    posts = []  # (post time, queue pair, eager) — logged at post time
    original = QueuePair._send_proc

    def logging_send_proc(self, payload, choice, context, trace=None):
        posts.append((env.now, self, choice.eager))
        return original(self, payload, choice, context, trace)

    monkeypatch.setattr(QueuePair, "_send_proc", logging_send_proc)
    merged_at_reload = []

    def caller(i):
        for k in range(4):
            yield harness.proxy.echo(Text(f"{i}:{k}:" + "x" * 64))

    def operator():
        yield env.timeout(reload_at)
        merged_at_reload.append(harness.server.responses_merged)
        harness.conf.set("rpc.ib.rdma.threshold", 16)

    procs = [env.process(caller(i), name=f"caller{i}") for i in range(64)]
    env.process(operator(), name="operator")
    env.run(env.all_of(procs))

    server_qps = {conn.qp for conn in harness.server.ib_connections}
    after = [eager for at, qp, eager in posts if qp in server_qps and at > reload_at]
    assert merged_at_reload and harness.server.responses_merged > merged_at_reload[0]
    assert after and not any(after)
