"""The window dispatch policy: shared connections + adaptive batching.

Every connection runs one pipeline — encode, dispatch, transport
(:mod:`repro.rpc.client`).  Its default dispatch policy is direct: the
caller that encoded a call transmits it.  That keeps the wire busy per
caller but scales badly under incast: a thousand callers mean a
thousand serialized send operations, and the server's single Reader
pays full per-frame decode cost for each tiny call.

This module is the ``ipc.client.async.*`` opt-in policy, modeled on the
aggregation designs of Ibdxnet and RDMAbox (PAPERS.md) and the
32-in-flight sessions of SNIPPETS.md Snippet 2.  :class:`ConnectionMux`
is mixed into the same transport classes (``MuxSocketConnection``,
``MuxIBConnection``) and contributes only the window:

* **One connection per (address, transport)** — all callers and all
  protocols on a node share it, with the connection's keeper process
  running exactly once per mux (deadlines, keepalive pings, idle
  teardown — unchanged semantics, shared enforcement).  Its activity
  is wire I/O, as on a direct connection: each flush and each received
  frame touches ``last_activity`` and re-arms the keeper once, however
  many calls it carries; an enqueue touches nothing and kicks the
  keeper only for a call with a deadline.
* **A queue and one sender** — each caller still encodes its own call
  on its own simulated thread; the connection's ``send_call`` then
  enqueues the payload here.  One sender process drains the queue under
  a bounded in-flight window (``ipc.client.async.max-inflight``,
  hot-reloadable) and hands *every* queued call to the transport's
  batch send as one ``BATCH_CALL_ID`` frame — N small calls cost one
  wire operation.  Each call's time between enqueue and send is
  recorded as an ``rpc.mux.queue`` span so batching is visible in
  traces.
* **Window bookkeeping** — the connection's receive loop settles plain
  or server-merged responses; settling frees window slots, deadlines
  expire queued and in-flight calls alike, ``close()`` fails every
  outstanding caller exactly once, and a QP break migrates the entire
  unacknowledged window to the sockets path through the client's
  existing fallback machinery.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set, Tuple

from repro.net.sockets import SocketClosed
from repro.net.verbs import QPBrokenError
from repro.rpc.call import BATCH_CALL_ID, Call
from repro.rpc.client import (
    IBConnection,
    MUX_CONNECTION_KEY,
    SocketConnection,
)


class ConnectionMux:
    """The window policy, mixed in *before* a transport class.

    ``MuxSocketConnection(ConnectionMux, SocketConnection)``: the
    transport keeps setup, encoding, framing, pings and the receive
    loop; the queue, the sender and the window accounting live here.
    """

    #: the connection's send_call queues each encoded call for the sender.
    WINDOWED = True

    def __init__(self, client, address, protocol):
        super().__init__(client, address, protocol)
        self.conn_key = (address, MUX_CONNECTION_KEY)
        #: encoded calls awaiting a window slot:
        #: (call, payload, length, enqueued_at).
        self._send_queue: Deque[Tuple[Call, object, int, float]] = deque()
        #: ids sent but not yet answered/expired — the in-flight window.
        self._inflight_ids: Set[int] = set()
        self._sender_kick = None
        # The sender re-reads the window before every batch, so a live
        # retune of ``ipc.client.async.max-inflight`` takes effect at
        # the next one.
        self._window = client.conf.view(
            lambda conf: max(1, conf.get_int("ipc.client.async.max-inflight"))
        )
        # batching statistics (read by the incast experiment and tests).
        self.batches_sent = 0
        self.calls_batched = 0
        self.max_batch = 0
        self.max_inflight_seen = 0

    def setup(self):
        yield from super().setup()
        self.env.process(
            self._sender_loop(), name=f"rpc-mux-send:{self.client.name}"
        )

    @property
    def window(self) -> int:
        """Current in-flight bound."""
        return self._window()

    # -- sender -----------------------------------------------------------
    def _wake_sender(self) -> None:
        if self._sender_kick is not None and not self._sender_kick.triggered:
            self._sender_kick.succeed()

    def _sender_loop(self):
        """Drain the queue under the window; one wire op per batch.

        Flush policy — *whole queue or full window*: flush when every
        queued call fits in the current budget, or when the window has
        drained completely.  Under light load the queue is shorter than
        the spare window, so calls go out the moment they are enqueued
        (no added latency).  Under incast the queue outgrows the window
        and the sender waits for the in-flight batch to resolve, then
        flushes a full window — keeping frames big even though the
        bottleneck (the server's serial Reader) releases window slots a
        trickle at a time.  Without the wait, batch size collapses to
        that trickle and the per-frame overheads come back; partial
        refills (e.g. at half the window) measure worse than waiting —
        they halve the merge size downstream while the interleaved
        frames of the *other* multiplexed clients already cover the
        turnaround gap.
        """
        while not self.closed:
            window = self.window
            budget = window - len(self._inflight_ids)
            pending = len(self._send_queue)
            if pending == 0 or (pending > budget and budget < window):
                self._sender_kick = self.env.event()
                yield self._sender_kick
                self._sender_kick = None
                continue
            batch = []
            while self._send_queue and len(batch) < budget:
                entry = self._send_queue.popleft()
                if entry[0].id not in self.calls:
                    continue  # expired or failed while queued
                batch.append(entry)
            if not batch:
                continue
            for entry in batch:
                self._inflight_ids.add(entry[0].id)
            inflight = len(self._inflight_ids)
            if inflight > self.max_inflight_seen:
                self.max_inflight_seen = inflight
            try:
                yield from self._send_batch(batch)
            except QPBrokenError:
                # _engine_failed already ran: the client's fallback
                # machinery re-issues the whole unacknowledged window
                # over sockets.  This engine — and its sender — is done.
                return
            except ConnectionError as exc:
                if not self.closed:
                    self._transport_failed(exc)
                return
            self.batches_sent += 1
            self.calls_batched += len(batch)
            if len(batch) > self.max_batch:
                self.max_batch = len(batch)
            self._note_activity()
            self._wake_keeper()

    def _stamp_batch(self, batch, tracer) -> List[object]:
        """Close each call's queue-wait span; collect per-call trace refs
        (one list entry per sub-call, in frame order)."""
        now = self.env.now
        size = len(batch)
        refs: List[object] = []
        for call, _, _, enqueued_at in batch:
            span = call.span
            ref = span.context if span is not None else None
            if ref is not None:
                tracer.complete(
                    "rpc.mux.queue", enqueued_at, now, parent=span,
                    node=self.client.node.name, category="rpc.client",
                    batch_size=size, window=self.window,
                )
                ref.sent_at = now
            refs.append(ref)
        return refs

    # -- window bookkeeping ------------------------------------------------
    def _complete(self, call_id, status, value, error_cls="", error_msg=""):
        super()._complete(call_id, status, value, error_cls, error_msg)
        if call_id in self._inflight_ids:
            self._inflight_ids.discard(call_id)
            self._wake_sender()

    def _expire_calls(self, now: float) -> None:
        super()._expire_calls(now)
        # Deadlines apply to the whole window: drop expired ids so the
        # window cannot leak shut, and purge dead queue entries.
        self._inflight_ids.intersection_update(self.calls)
        if self._send_queue:
            self._send_queue = deque(
                entry for entry in self._send_queue
                if entry[0].id in self.calls
            )
        self._wake_sender()

    def _fail_all(self, exc: Exception) -> None:
        super()._fail_all(exc)
        self._send_queue.clear()
        self._inflight_ids.clear()
        self._wake_sender()

    def _engine_failed(self, reason: str) -> None:
        super()._engine_failed(reason)
        # The fallback proc owns every registered call now (including
        # the ones still queued here — they were registered at enqueue);
        # drop the dead engine's queue and release the sender so it
        # exits instead of blocking on its kick event forever.
        self._send_queue.clear()
        self._inflight_ids.clear()
        self._wake_sender()

    def close(self) -> None:
        super().close()
        # Fail the whole window — queued and in-flight alike — exactly
        # once, so no caller is left stranded on a dead mux.  (Call.error
        # pre-defuses, and _fail_all clears the table, so a later
        # receive-loop teardown is a no-op.)
        self._fail_all(SocketClosed(f"{self.client.name}: mux closed"))


class MuxSocketConnection(ConnectionMux, SocketConnection):
    """Sockets engine under the window policy: batch frames through the
    vectored path, bulk reads on receive."""


class MuxIBConnection(ConnectionMux, IBConnection):
    """RPCoIB engine under the window policy: the window gathered into
    one verbs post."""


def batch_frame_chunks(payloads) -> List[object]:
    """The batch wire image as a chunk list (pure helper, no costs).

    ``[4-byte total][BATCH_CALL_ID][count]`` then, per call, the exact
    per-call frame (``[4-byte length][payload]``) the call-at-a-time
    path would have sent: the batch body after the 8-byte batch header
    is the *concatenation of the per-call frames* — the property the
    hypothesis suite pins down.
    """
    total = 8 + sum(4 + len(payload) for payload in payloads)
    chunks: List[object] = [
        total.to_bytes(4, "big", signed=True)
        + BATCH_CALL_ID.to_bytes(4, "big", signed=True)
        + len(payloads).to_bytes(4, "big", signed=True)
    ]
    for payload in payloads:
        chunks.append(len(payload).to_bytes(4, "big", signed=True))
        chunks.append(payload)
    return chunks


def call_frame_bytes(payload) -> bytes:
    """The call-at-a-time wire frame for one encoded call payload."""
    return len(payload).to_bytes(4, "big", signed=True) + bytes(payload)
