"""Property-based tests for the multiplexed client (hypothesis).

The three mux invariants from the PR acceptance list:

* the in-flight count never exceeds ``ipc.client.async.max-inflight``,
  whatever the caller interleaving or window size;
* every accepted call settles exactly once — completed or raised —
  even under a mid-stream QP-break fault schedule;
* the batched wire frame is byte-identical to the concatenation of the
  per-call frames the call-at-a-time path would have sent (checked
  both on the pure helpers and against the real encoders' wire bytes,
  on sockets and on RPCoIB).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.io.writables import Text
from repro.net.verbs import QueuePair
from repro.rpc.call import BATCH_CALL_ID, Call
from repro.rpc.client import IBConnection, SocketConnection
from repro.rpc.mux import (
    ConnectionMux,
    batch_frame_chunks,
    call_frame_bytes,
)

from tests.faults.conftest import faulted_harness
from tests.rpc.conftest import RpcHarness


def _mux_harness(ib: bool, window: int) -> RpcHarness:
    harness = RpcHarness(ib=ib)
    harness.conf.set("ipc.client.async.enabled", True)
    harness.conf.set("ipc.client.async.max-inflight", window)
    return harness


def _settle_counter():
    """Patch Call.complete/.error to count settle transitions per call;
    returns (counts dict, restore fn)."""
    counts = {}
    original_complete, original_error = Call.complete, Call.error

    # keyed by the Call object itself (not id(): addresses get reused
    # once a completed Call is garbage-collected mid-run)
    def counting_complete(self, value):
        if not self.done.triggered:
            counts[self] = counts.get(self, 0) + 1
        original_complete(self, value)

    def counting_error(self, exc):
        if not self.done.triggered:
            counts[self] = counts.get(self, 0) + 1
        original_error(self, exc)

    Call.complete, Call.error = counting_complete, counting_error

    def restore():
        Call.complete, Call.error = original_complete, original_error

    return counts, restore


@given(
    window=st.integers(min_value=1, max_value=16),
    delays=st.lists(
        st.integers(min_value=0, max_value=3_000), min_size=1, max_size=20
    ),
    ib=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_inflight_bounded_and_every_call_settles_once(window, delays, ib):
    """Random interleavings x window sizes: the window bound holds and
    each accepted call settles exactly once."""
    harness = _mux_harness(ib, window)
    env = harness.env
    done = []
    counts, restore = _settle_counter()
    try:

        def caller(i, delay):
            yield env.timeout(float(delay))
            got = yield harness.proxy.echo(Text(f"p{i}"))
            yield env.timeout(float((i * 7) % 11))
            got = yield harness.proxy.echo(Text(f"q{i}"))
            done.append((i, got))

        procs = [
            env.process(caller(i, delay), name=f"caller{i}")
            for i, delay in enumerate(delays)
        ]
        env.run(env.all_of(procs))
    finally:
        restore()

    assert sorted(i for i, _ in done) == list(range(len(delays)))
    assert all(got == Text(f"q{i}") for i, got in done)
    (conn,) = harness.client._connections.values()
    assert isinstance(conn, ConnectionMux)
    assert conn.max_inflight_seen <= window
    assert conn.calls_batched == 2 * len(delays)
    # exactly-once settlement, and nothing left registered or queued
    assert sorted(counts.values()) == [1] * (2 * len(delays))
    assert not conn.calls and not conn._inflight_ids and not conn._send_queue


@given(
    window=st.integers(min_value=1, max_value=12),
    ncallers=st.integers(min_value=1, max_value=16),
    break_at=st.integers(min_value=5_000, max_value=400_000),
    service_us=st.integers(min_value=1_000, max_value=300_000),
)
@settings(max_examples=10, deadline=None)
def test_every_call_settles_once_under_qp_break_schedules(
    window, ncallers, break_at, service_us
):
    """Random fault schedules: a QP break at any time — before, during,
    or after the window is in flight — leaves no caller hanging and no
    call settled twice (the fallback path re-issues, Call pre-defuses
    duplicates)."""
    counts, restore = _settle_counter()
    try:
        with faulted_harness(
            {"kind": "qp_break", "at": break_at, "node": "server"},
            ib=True,
        ) as harness:
            harness.conf.set("ipc.client.async.enabled", True)
            harness.conf.set("ipc.client.async.max-inflight", window)
            harness.service.delay_us = float(service_us)
            env = harness.env
            settled = []

            def caller(i):
                try:
                    got = yield harness.proxy.slow(Text(f"f{i}"))
                except Exception as exc:
                    settled.append((i, exc))
                else:
                    settled.append((i, got))

            procs = [
                env.process(caller(i), name=f"caller{i}")
                for i in range(ncallers)
            ]
            env.run(env.all_of(procs))
    finally:
        restore()

    # every caller got exactly one outcome; every Call object that was
    # ever settled was settled exactly once
    assert sorted(i for i, _ in settled) == list(range(ncallers))
    assert set(counts.values()) <= {1}


@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=2_048), min_size=1, max_size=64
    )
)
@settings(max_examples=50, deadline=None)
def test_batch_frame_is_concatenation_of_call_frames(payloads):
    wire = b"".join(bytes(c) for c in batch_frame_chunks(payloads))
    # 12-byte header: total length, BATCH_CALL_ID, count.
    total = int.from_bytes(wire[:4], "big", signed=True)
    assert total == len(wire) - 4
    assert int.from_bytes(wire[4:8], "big", signed=True) == BATCH_CALL_ID
    assert int.from_bytes(wire[8:12], "big", signed=True) == len(payloads)
    # body == the per-call frames, concatenated, in order
    assert wire[12:] == b"".join(call_frame_bytes(p) for p in payloads)


@given(nc=st.integers(min_value=2, max_value=12), ib=st.booleans())
@example(nc=4, ib=False)
@example(nc=4, ib=True)
@settings(max_examples=8, deadline=None)
def test_real_encoder_matches_the_canonical_batch_bytes(nc, ib):
    """The sender's actual framing produces byte-identical output to the
    pure ``batch_frame_chunks`` helper fed the same encoded call
    payloads: the socket flush (DataOutputStream/VectorSink) carries the
    whole image, the aggregated RPCoIB post the image after its 4-byte
    total (a verbs completion delimits itself)."""
    harness = _mux_harness(ib=ib, window=max(2, nc))
    env = harness.env
    captured = []
    transport = IBConnection if ib else SocketConnection
    original_send_batch = transport._send_batch

    def capturing_send_batch(self, batch):
        sent_before = 0 if ib else self.sock.bytes_sent
        yield from original_send_batch(self, batch)
        captured.append((
            [bytes(entry[1][: entry[2]]) for entry in batch],
            None if ib else self.sock.bytes_sent - sent_before,
        ))

    sends = []
    transport._send_batch = capturing_send_batch
    try:

        def caller(i):
            yield harness.proxy.echo(Text(f"e{i}"))

        procs = [
            env.process(caller(i), name=f"caller{i}") for i in range(nc)
        ]
        # capture the joined wire image of every batch frame
        from repro.net import sockets as simsockets

        original_send = simsockets.SimSocket.send
        original_post = QueuePair.post_send

        def capturing_send(self, data, trace=None):
            # batch frames are the only sends carrying a list trace
            # (one ref slot per sub-call)
            if type(data) is list and type(trace) is list:
                sends.append(b"".join(bytes(c) for c in data))
            return original_send(self, data, trace=trace)

        def capturing_post(self, data, length=None, rdma_threshold=4096,
                           context=None, trace=None, choice=None):
            # likewise the only verbs posts carrying a list trace
            if type(trace) is list:
                with memoryview(data) as view:
                    sends.append(bytes(view[:length]))
            return original_post(
                self, data, length, rdma_threshold, context, trace, choice
            )

        simsockets.SimSocket.send = capturing_send
        QueuePair.post_send = capturing_post
        try:
            env.run(env.all_of(procs))
        finally:
            simsockets.SimSocket.send = original_send
            QueuePair.post_send = original_post
    finally:
        transport._send_batch = original_send_batch

    assert captured and len(sends) >= len(captured)
    batch_sends = [w for w in sends if len(w) >= 8]
    for (payloads, nbytes), wire in zip(captured, batch_sends):
        expected = b"".join(bytes(c) for c in batch_frame_chunks(payloads))
        if ib:
            assert wire == expected[4:]
        else:
            assert wire == expected
            assert nbytes == len(expected)
