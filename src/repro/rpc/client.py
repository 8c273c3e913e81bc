"""Hadoop RPC client: caller threads over one connection pipeline.

Every call takes one path through its :class:`BaseConnection`:

1. **encode** — :meth:`~BaseConnection.send_call` serializes the call on
   the caller's own thread (Listing 1): into a ``DataOutputBuffer`` on
   the sockets engine, straight into a pooled registered buffer on
   RPCoIB;
2. **dispatch policy** — by default the caller then transmits its own
   call; with ``ipc.client.async.enabled`` the window policy of
   :mod:`repro.rpc.mux` queues it for the connection's shared sender,
   which flushes the queue as one batch frame;
3. **transport** — :class:`SocketConnection` length-prefixes frames
   through Listing 1's buffered stream and reads responses into per-frame
   heap buffers (Listing 2's client analogue); :class:`IBConnection`
   bootstraps an endpoint over the socket address, then posts verbs
   sends, eager or RDMA past the adaptive threshold.

One receive loop, the connection thread, pulls frames from the
transport and settles the plain or server-merged responses they carry.

Failure semantics mirror ``org.apache.hadoop.ipc.Client``: connect
retry with fixed/exponential backoff (``ipc.client.connect.max.retries``,
``ipc.client.connect.retry.interval``), per-call timeouts with ping
keepalive (``ipc.client.call.timeout``, ``ipc.ping.interval``) enforced
by a per-connection keeper process, idle-connection teardown
(``ipc.client.connection.maxidletime``) with lazy reconnect, and
backoff-and-retry on :class:`ServerOverloadedException`.  RPCoIB adds
the paper's graceful degradation: the sockets path is always present,
so a failed endpoint bootstrap or a QP that breaks mid-stream falls
back to :class:`SocketConnection` transparently — in-flight calls are
re-issued, the ``rpc.ib.fallbacks`` counter records the event, and the
active span is annotated.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.calibration import CostModel, NetworkSpec
from repro.config import Configuration
from repro.io.data_input import DataInputBuffer
from repro.io.data_output import DataOutputBuffer
from repro.io.rdma_streams import RDMAOutputStream
from repro.io.writable import ObjectWritable, Writable
from repro.mem.cost import CostLedger
from repro.mem.native_pool import NativeBufferPool
from repro.mem.shadow_pool import HistoryShadowPool
from repro.net import sockets as simsockets
from repro.net.fabric import Fabric, Node
from repro.net.sockets import SocketAddress, SocketClosed
from repro.net.verbs import (
    AdaptiveTransport,
    Endpoint,
    QPBreak,
    QPBrokenError,
    QueuePair,
)
from repro.obs.trace import NULL_SPAN
from repro.rpc.call import (
    BATCH_CALL_ID,
    Call,
    ConnectionHeader,
    Invocation,
    PING_CALL_ID,
    RemoteException,
    RetriableException,
    RetriesExhaustedError,
    RpcStatus,
    RpcTimeoutError,
    ServerOverloadedException,
    StandbyException,
    frame_chunks,
    stream_frame,
)
from repro.rpc.metrics import RpcMetrics
from repro.rpc.protocol import RpcProtocol
from repro.simcore.process import Process


class IBBootstrapError(ConnectionError):
    """The RPCoIB endpoint exchange failed; the sockets path remains."""


#: Connection-table key slot used instead of the protocol name when
#: ``ipc.client.async.enabled`` is on: a multiplexed connection is
#: shared per (address, transport) by *all* protocols on the node, so
#: it must never collide with a per-protocol key (protocol names are
#: dotted identifiers, never dunder strings).
MUX_CONNECTION_KEY = "__mux__"

#: initial capacity of the RPCoIB batch aggregation buffer — warm enough
#: that a typical window of small calls gathers without growth charges.
_IB_AGGREGATION_INITIAL = 4096


def retry_policy(conf: Configuration, key: str) -> str:
    """The backoff policy ``key`` sets: ``fixed`` or ``exponential``,
    in any case and spacing.  Any other value is an error, not a
    silently fixed backoff."""
    raw = conf.get(key)
    policy = str(raw).strip().lower()
    if policy not in ("fixed", "exponential"):
        raise ValueError(
            f"unknown {key} {raw!r}: expected fixed or exponential"
        )
    return policy


def _backoff_us(interval_us: float, attempt: int, policy: str) -> float:
    """Delay before retry ``attempt`` (1-based) under a backoff policy."""
    if policy == "exponential":
        return interval_us * (2.0 ** (attempt - 1))
    return interval_us


def _parse_call_conf(
    conf: Configuration,
) -> Tuple[float, int, float, int, bool, bool]:
    """(call timeout, max retries, retry interval, buffer initial,
    mux enabled, adaptive transport enabled)."""
    return (
        conf.get_float("ipc.client.call.timeout"),
        conf.get_int("ipc.client.call.max.retries"),
        conf.get_float("ipc.client.call.retry.interval"),
        conf.get_int("io.buffer.initial.size"),
        conf.get_bool("ipc.client.async.enabled"),
        conf.get_bool("ipc.ib.adaptive.enabled"),
    )


class Client:
    """RPC client bound to one node; shared by all callers on that node."""

    def __init__(
        self,
        fabric: Fabric,
        node: Node,
        spec: NetworkSpec,
        conf: Optional[Configuration] = None,
        metrics: Optional[RpcMetrics] = None,
        name: str = "",
    ):
        self.fabric = fabric
        self.env = fabric.env
        self.node = node
        self.spec = spec
        self.model: CostModel = fabric.model
        self.conf = conf or Configuration()
        self.metrics = metrics or RpcMetrics()
        self.name = name or f"client@{node.name}"
        self._call_ids = itertools.count(1)
        self._connections: Dict[Tuple[SocketAddress, str], "BaseConnection"] = {}
        self._connecting: Dict[Tuple[SocketAddress, str], object] = {}
        #: addresses where RPCoIB failed and the client fell back to the
        #: sockets engine — sticky, like Hadoop's per-address blacklists.
        self._ib_fallback: Set[SocketAddress] = set()
        # RPCoIB client-side pool, shared across connections (the
        # library-wide native pool of Section III-C).
        self._pool: Optional[HistoryShadowPool] = None
        # Registry instruments are get-or-create by (name, labels) — cache
        # them so the per-call hot path skips the label-key construction.
        # Created lazily on first use (not here) so the set of exported
        # instruments — and thus the metrics JSON — is unchanged.
        self._completed_counter = None
        self._failed_counter = None
        self._latency_tallies: Dict[Tuple[str, str], object] = {}
        # Per-call conf values, re-parsed after a Configuration write
        # (so ``conf.set`` after client creation still takes effect on
        # the next call), and call-process names built once per
        # (protocol, method).
        self._call_conf = self.conf.view(_parse_call_conf)
        self._call_names: Dict[Tuple[str, str], str] = {}
        # Per-size-class latency histograms (repro.obs.sizeclass):
        # armed only while the adaptive transport is enabled, so the
        # default metrics export is byte-identical.
        self._size_latency = None

    @property
    def ib_enabled(self) -> bool:
        return self.conf.get_bool("rpc.ib.enabled")

    @property
    def pool(self) -> HistoryShadowPool:
        if self._pool is None:
            self._pool = HistoryShadowPool(NativeBufferPool(self.model))
        return self._pool

    # -- public API -------------------------------------------------------
    def call(
        self,
        address: SocketAddress,
        protocol: Type[RpcProtocol],
        method: str,
        params: List[Writable],
    ) -> Process:
        """Invoke ``protocol.method(*params)`` at ``address``.

        Returns a Process whose value is the returned Writable; raises
        :class:`RemoteException` on server-side errors and
        :class:`ConnectionError` subclasses (:class:`RpcTimeoutError`,
        :class:`RetriesExhaustedError`, ...) on transport failures.
        """
        key = (protocol.protocol_name(), method)
        name = self._call_names.get(key)
        if name is None:
            name = self._call_names[key] = f"call:{key[0]}.{method}"
        return self.env.process(
            self._call_proc(address, protocol, method, params), name=name
        )

    def _call_proc(self, address, protocol, method, params):
        tracer = self.fabric.tracer
        span = tracer.start(
            "rpc.call",
            node=self.node.name,
            category="rpc.client",
            protocol=protocol.protocol_name(),
            method=method,
            engine="rpcoib" if self.ib_enabled else "socket",
        )
        call_timeout_us, max_retries, retry_interval_us = self._call_conf()[:3]
        attempts = 0
        while True:
            try:
                conn = yield from self._get_connection(address, protocol, parent=span)
            except ConnectionError as exc:
                # ConnectionRefused / RetriesExhausted / SocketClosed
                span.annotate("error", type(exc).__name__).end()
                raise
            except BaseException:
                # Anything else is a simulator bug, not a connect failure —
                # close the span so the trace stays well-formed, then let it
                # crash the run.
                span.annotate("error", "unexpected").end()
                raise
            call = Call(
                next(self._call_ids), protocol.protocol_name(), method, params,
                self.env,
                deadline=(
                    self.env.now + call_timeout_us if call_timeout_us > 0 else None
                ),
            )
            call.span = span
            # A failed attempt backs off and retries on a fresh
            # connection: (what failed, the exception, its error label).
            failure = None
            suggested_us = 0.0
            try:
                profile_info = yield from conn.send_call(call)
            except QPBrokenError:
                # The verbs engine died under the send.  The call is
                # already registered on the connection, so the engine
                # fallback re-issues it over sockets; wait for that
                # outcome below.  The send profile is lost.
                profile_info = None
            except SocketClosed as exc:
                # Transport reset mid-send.
                conn.calls.pop(call.id, None)
                failure = ("transport failed", exc, type(exc).__name__)
            if failure is None:
                try:
                    value = yield call.done
                    break
                except (ServerOverloadedException, RetriableException) as exc:
                    # A RetriableException carries the server's suggested
                    # backoff (priority-aware); otherwise exponential.
                    suggested_us = getattr(exc, "backoff_us", 0.0)
                    failure = ("server overloaded", exc, exc.CLASS_NAME)
                except RpcTimeoutError:
                    self._fail_call_metrics(span, "RpcTimeoutError")
                    raise
                except RemoteException as exc:
                    self._fail_call_metrics(span, exc.class_name)
                    raise
                except ConnectionError as exc:
                    # The connection died before a response arrived
                    # (socket reset, failed engine fallback, crashed
                    # server).
                    failure = ("no response", exc, type(exc).__name__)
            what, cause, label = failure
            attempts += 1
            if attempts > max_retries:
                self._fail_call_metrics(span, label)
                raise RetriesExhaustedError(
                    f"{method}: {what} after {attempts} attempt(s)",
                    attempts=attempts, cause=cause,
                ) from cause
            yield self.env.timeout(
                suggested_us if suggested_us > 0
                else _backoff_us(retry_interval_us, attempts, "exponential")
            )
        latency_us = self.env.now - call.started_at
        if profile_info is not None:
            self.metrics.record_call(call.protocol, call.method, **profile_info)
        counter = self._completed_counter
        if counter is None:
            counter = self._completed_counter = self.fabric.metrics.counter(
                "rpc.client.calls_completed", node=self.node.name
            )
        counter.add()
        tally_key = (call.protocol, call.method)
        tally = self._latency_tallies.get(tally_key)
        if tally is None:
            tally = self.fabric.metrics.tally(
                "rpc.client.latency_us", protocol=call.protocol, method=call.method
            )
            self._latency_tallies[tally_key] = tally
        tally.observe(latency_us)
        if profile_info is not None and self._call_conf()[5]:
            size_latency = self._size_latency
            if size_latency is None:
                from repro.obs.sizeclass import SizeClassLatency

                size_latency = self._size_latency = SizeClassLatency(
                    self.fabric.metrics, node=self.node.name
                )
            size_latency.observe(profile_info["message_bytes"], latency_us)
        span.annotate("latency_us", latency_us)
        if profile_info is not None:
            span.annotate("message_bytes", profile_info["message_bytes"])
        if attempts:
            span.annotate("retries", attempts)
        span.end()
        return value

    def _fail_call_metrics(self, span, label: str) -> None:
        counter = self._failed_counter
        if counter is None:
            counter = self._failed_counter = self.fabric.metrics.counter(
                "rpc.client.calls_failed", node=self.node.name
            )
        counter.add()
        span.annotate("error", label).end()

    def close(self) -> None:
        for conn in list(self._connections.values()):
            conn.close()
        self._connections.clear()

    # -- connection management -----------------------------------------------
    def _get_connection(
        self, address: SocketAddress, protocol: Type[RpcProtocol], parent=None
    ):
        if self._call_conf()[4]:
            # Multiplexed mode: one shared connection per (address,
            # transport), whatever the protocol.
            key = (address, MUX_CONNECTION_KEY)
        else:
            key = (address, protocol.protocol_name())
        while True:
            conn = self._connections.get(key)
            if conn is not None and not conn.closed:
                return conn
            pending = self._connecting.get(key)
            if pending is not None:
                yield pending  # someone else is establishing; wait
                continue
            gate = self.env.event()
            self._connecting[key] = gate
            cspan = self.fabric.tracer.start(
                "rpc.connect",
                parent=parent,
                node=self.node.name,
                category="rpc.client",
                address=str(address),
            )
            try:
                conn = yield from self._establish(address, protocol, cspan)
                self._connections[key] = conn
                return conn
            finally:
                cspan.end()
                del self._connecting[key]
                gate.succeed()

    def _establish(self, address, protocol, cspan):
        """Connect with Hadoop's retry policy; RPCoIB bootstrap failures
        degrade to the sockets engine instead of consuming retries."""
        conf = self.conf
        max_retries = conf.get_int("ipc.client.connect.max.retries")
        interval_us = conf.get_float("ipc.client.connect.retry.interval")
        policy = retry_policy(conf, "ipc.client.connect.retry.policy")
        if self._call_conf()[4]:
            # Imported lazily: repro.rpc.mux mixes its window policy into
            # the connection classes below, so a module-level import
            # would be circular.
            from repro.rpc import mux

            ib_cls: type = mux.MuxIBConnection
            sock_cls: type = mux.MuxSocketConnection
        else:
            ib_cls, sock_cls = IBConnection, SocketConnection
        attempt = 0
        while True:
            if self.ib_enabled and address not in self._ib_fallback:
                conn = ib_cls(self, address, protocol)
            else:
                conn = sock_cls(self, address, protocol)
            try:
                yield from conn.setup()
            except IBBootstrapError:
                # Graceful degradation (Section III-D): the socket
                # address is always serving, so fall back — sticky for
                # this address — without consuming connect retries.
                conn.close()
                self._note_ib_fallback(address, "bootstrap", span=cspan)
                continue
            except ConnectionError as exc:
                conn.close()
                attempt += 1
                if attempt > max_retries:
                    cspan.annotate("error", type(exc).__name__)
                    raise RetriesExhaustedError(
                        f"connect to {address} failed after {attempt} "
                        f"attempt(s): {exc}",
                        attempts=attempt, cause=exc,
                    ) from exc
                cspan.annotate("connect_retries", attempt)
                yield self.env.timeout(_backoff_us(interval_us, attempt, policy))
                continue
            return conn

    def _note_ib_fallback(self, address, reason: str, span=None) -> None:
        self._ib_fallback.add(address)
        self.fabric.metrics.counter(
            "rpc.ib.fallbacks", node=self.node.name, reason=reason
        ).add()
        if span is not None:
            span.annotate("ib_fallback", reason)

    def _forget(self, conn: "BaseConnection") -> None:
        key = conn.conn_key
        if self._connections.get(key) is conn:
            del self._connections[key]

    def _drop_connection(self, conn: "BaseConnection") -> None:
        """Idle teardown (``ipc.client.connection.maxidletime``); the
        next call reconnects lazily."""
        self._forget(conn)
        conn.close()

    # -- RPCoIB mid-stream fallback -------------------------------------------
    def _begin_fallback(self, conn: "IBConnection", reason: str) -> None:
        """A broken QP took the verbs engine down: migrate to sockets."""
        self.env.process(
            self._fallback_proc(conn, reason), name=f"rpc-fallback:{self.name}"
        )

    def _fallback_proc(self, conn, reason):
        pending = [c for c in conn.calls.values() if not c.done.triggered]
        conn.calls.clear()
        self._note_ib_fallback(conn.address, reason)
        try:
            newconn = yield from self._get_connection(conn.address, conn.protocol)
        except ConnectionError as exc:
            for call in pending:
                if not call.done.triggered:
                    call.error(exc)
            return
        for call in pending:
            if call.done.triggered:
                continue  # e.g. timed out while we were reconnecting
            if call.span is not None:
                call.span.annotate("engine_fallback", reason)
            try:
                yield from newconn.send_call(call)
            except ConnectionError as exc:
                newconn.calls.pop(call.id, None)
                if not call.done.triggered:
                    call.error(exc)


class BaseConnection:
    """One connection pipeline: encode → dispatch policy → transport.

    :meth:`send_call` and :meth:`_receive_loop` are the whole call path.
    A transport subclass supplies ``setup``, ``_encode``, ``_post`` (a
    direct send), ``_send_batch`` (a windowed flush), ``_pull`` (frame
    reads), ``_send_ping``, ``close`` and ``STREAM`` (whether messages
    are framed onto a byte stream).  The dispatch policy is the class's
    ``WINDOWED`` property — direct here, windowed in
    :class:`repro.rpc.mux.ConnectionMux`.

    Every established connection also runs a *keeper* process — the
    analogue of Hadoop's connection thread housekeeping: it enforces
    per-call deadlines, sends PING frames when the connection has been
    quiet too long with calls outstanding, and tears the connection down
    after ``ipc.client.connection.maxidletime`` without traffic.
    """

    #: dispatch policy: False — the caller transmits its own call; True —
    #: the window policy queues it for the connection's shared sender.
    WINDOWED = False

    def __init__(self, client: Client, address: SocketAddress, protocol):
        self.client = client
        self.env = client.env
        self.model = client.model
        self.address = address
        self.protocol = protocol
        self.protocol_name = protocol.protocol_name()
        #: the connection table key this connection lives under — the
        #: window policy re-keys it to (address, MUX_CONNECTION_KEY) so
        #: one connection serves every protocol on the transport.
        self.conn_key: Tuple[SocketAddress, str] = (address, self.protocol_name)
        self.calls: Dict[int, Call] = {}
        self.closed = False
        conf = client.conf
        self.max_idle_us = conf.get_float("ipc.client.connection.maxidletime")
        self.ping_interval_us = (
            conf.get_float("ipc.ping.interval")
            if conf.get_bool("ipc.client.ping")
            else 0.0
        )
        self.last_activity = self.env.now
        self._kick = None
        # The client-daemon heap every call's ledger folds into —
        # resolved once (dict lookup + on-demand creation per absorb
        # otherwise).
        self._heap = client.node.heap("rpc-client")

    # -- the send path -----------------------------------------------------
    def send_call(self, call: Call):
        """Encode the call on the caller's thread, then dispatch it.

        Returns the call's send profile.  Under the window policy the
        call is only queued: the caller's ``yield call.done`` covers the
        queue wait, and the ``rpc.mux.queue`` span records it when the
        shared sender flushes the call.
        """
        if self.WINDOWED and self.closed:
            raise SocketClosed(f"{self.client.name}: mux connection closed")
        tracer = self.client.fabric.tracer
        node = self.client.node.name
        parent = call.span if call.span is not None else NULL_SPAN
        sspan = tracer.start(
            "rpc.serialize", parent=parent, node=node, category="rpc.client",
        )
        ledger = CostLedger(self.model)
        out, message_bytes, adjustments, annotations = self._encode(call, ledger)
        serialization_us = ledger.total_us
        self.calls[call.id] = call
        yield self.env.timeout(ledger.drain())
        for key, value in annotations:
            sspan.annotate(key, value)
        sspan.annotate("adjustments", adjustments)
        sspan.annotate("message_bytes", message_bytes)
        sspan.end()
        if self.WINDOWED:
            # The shared sender owns the wire flush; the enqueue itself
            # costs the caller nothing beyond serialization.
            self._send_queue.append((call, out, message_bytes, self.env.now))
            self._wake_sender()
            send_us = 0.0
        else:
            send_start = self.env.now
            dspan = tracer.start(
                "rpc.send", parent=parent, node=node, category="rpc.client",
            )
            if self.STREAM:
                # Listing 1 lines 10-13, on the caller's thread.
                out = frame_chunks(out, ledger)
                yield self.env.timeout(ledger.drain())
            ref = parent.context  # None when tracing is disabled
            if ref is not None:
                ref.sent_at = self.env.now
            try:
                sent, tags = self._post(call, out, message_bytes, ref)
                yield sent  # completes at local send completion
            except QPBrokenError:
                out.release()
                dspan.annotate("error", "QPBrokenError").end()
                self._absorb(ledger)
                self._engine_failed("qp_break")
                raise
            send_us = self.env.now - send_start
            if not self.STREAM:
                out.release()  # buffer reusable: payload snapshotted at post
                yield self.env.timeout(ledger.drain())
            for key, value in tags:
                dspan.annotate(key, value)
            dspan.end()
        self._absorb(ledger)
        if not self.WINDOWED:
            self._note_activity()
            self._wake_keeper()
        elif call.deadline is not None:
            # Keeper activity is wire I/O, so the sender's flush touches
            # and kicks.  A deadline is all an enqueue can move earlier
            # than the keeper's armed wake (a shorter reloaded timeout).
            self._wake_keeper()
        return {
            "adjustments": adjustments,
            "serialization_us": serialization_us,
            "send_us": send_us,
            "message_bytes": message_bytes,
        }

    # -- the receive path --------------------------------------------------
    def _start(self, name: str) -> None:
        """Start the connection thread and the keeper."""
        self.env.process(self._receive_loop(), name=f"{name}:{self.client.name}")
        self._start_keeper()

    def _receive_loop(self):
        """Connection thread: pull a frame from the transport, then settle
        every response it carries — one, or a server-merged batch."""
        sw = self.model.software
        tracer = self.client.fabric.tracer
        node = self.client.node.name
        while not self.closed:
            try:
                frame = self._pull(None)
                while type(frame) is not tuple:  # a read to wait for
                    frame = self._pull((yield frame))
            except QPBrokenError:
                return  # the engine fallback owns the outstanding calls
            except SocketClosed:
                break
            receive_start, ledger, inp, nbytes, tags = frame
            call_id = inp.read_int()
            count, batch = 1, call_id == BATCH_CALL_ID
            if batch:
                count = inp.read_int()
            responses = []
            for _ in range(count):
                if batch:
                    inp.read_int()  # per-response frame length
                    call_id = inp.read_int()
                status = inp.read_byte()
                value = error_cls = error_msg = None
                if status == RpcStatus.SUCCESS:
                    value = ObjectWritable.read(inp)
                else:
                    error_cls = inp.read_utf()
                    error_msg = inp.read_utf()
                responses.append(
                    (call_id, status, value, error_cls or "", error_msg or "")
                )
            # One connection-thread wakeup settles the whole frame: the
            # window slots of a merged batch free *together*, so the
            # sender immediately refills them with an equally big batch
            # (this is what keeps adaptive batching self-sustaining).
            yield self.env.timeout(ledger.drain() + sw.thread_handoff_us)
            if self.WINDOWED:
                tags = {**tags, "batched": len(responses)}
            for call_id, status, value, error_cls, error_msg in responses:
                call = self.calls.get(call_id)
                if call is not None and call.span is not None:
                    tracer.complete(
                        "rpc.recv", receive_start, self.env.now,
                        parent=call.span, node=node, category="rpc.client",
                        response_bytes=nbytes, **tags,
                    )
                self._complete(call_id, status, value, error_cls, error_msg)
            self._absorb(ledger)
            self._note_activity()
            # Re-arm the keeper: its sleep was computed while these calls
            # were outstanding (ping cadence); idle teardown now applies.
            self._wake_keeper()
        if self.STREAM:
            # The stream ended: no response can arrive any more.
            self._transport_failed(SocketClosed("connection closed"))
            self._wake_keeper()

    def _complete(self, call_id: int, status: int, value, error_cls="", error_msg=""):
        call = self.calls.pop(call_id, None)
        if call is None:
            return  # late response to an abandoned call
        if status == RpcStatus.SUCCESS:
            call.complete(value)
        elif error_cls == ServerOverloadedException.CLASS_NAME:
            call.error(ServerOverloadedException(error_msg))
        elif error_cls == RetriableException.CLASS_NAME:
            call.error(RetriableException.from_wire(error_msg))
        elif error_cls == StandbyException.CLASS_NAME:
            call.error(StandbyException(error_msg))
        else:
            call.error(RemoteException(error_cls, error_msg))

    def _fail_all(self, exc: Exception) -> None:
        for call in list(self.calls.values()):
            if not call.done.triggered:
                call.error(exc)
        self.calls.clear()

    def _absorb(self, ledger: CostLedger) -> None:
        """Fold an activity's allocation churn into the node's heap."""
        self._heap.absorb(ledger)

    # -- keeper: timeouts, pings, idle teardown ---------------------------
    def _start_keeper(self) -> None:
        self.last_activity = self.env.now
        self.env.process(
            self._keeper_loop(), name=f"rpc-conn-keeper:{self.client.name}"
        )

    def _note_activity(self) -> None:
        self.last_activity = self.env.now

    def _wake_keeper(self) -> None:
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed()

    def _next_wakeup(self) -> float:
        """Earliest housekeeping deadline; inf when nothing is armed."""
        wake = math.inf
        if self.calls:
            deadlines = [
                c.deadline for c in self.calls.values() if c.deadline is not None
            ]
            if deadlines:
                wake = min(deadlines)
            if self.ping_interval_us > 0:
                wake = min(wake, self.last_activity + self.ping_interval_us)
        elif self.max_idle_us > 0:
            wake = self.last_activity + self.max_idle_us
        return wake

    def _keeper_loop(self):
        while not self.closed:
            now = self.env.now
            wake = self._next_wakeup()
            if wake > now:
                self._kick = self.env.event()
                if math.isinf(wake):
                    # Nothing armed: sleep until a send/close kicks us.
                    yield self._kick
                else:
                    yield self.env.any_of(
                        [self.env.timeout(wake - now), self._kick]
                    )
                self._kick = None
                continue
            if self.calls:
                self._expire_calls(now)
                # Same arithmetic as _next_wakeup (last + interval vs
                # now), so a due wakeup always takes a branch — the
                # subtraction form can disagree under float rounding
                # and spin the loop.
                if (
                    self.ping_interval_us > 0
                    and self.calls
                    and now >= self.last_activity + self.ping_interval_us
                ):
                    try:
                        yield from self._send_ping()
                    except QPBrokenError:
                        self._engine_failed("qp_break")
                        return
                    except ConnectionError as exc:
                        self._transport_failed(exc)
                        return
                    self._note_activity()
            elif self.max_idle_us > 0 and now >= self.last_activity + self.max_idle_us:
                self.client._drop_connection(self)
                return

    def _expire_calls(self, now: float) -> None:
        for call_id, call in list(self.calls.items()):
            if call.deadline is not None and now >= call.deadline:
                del self.calls[call_id]
                call.error(
                    RpcTimeoutError(
                        f"{call.protocol}.{call.method} (call #{call_id}) "
                        f"timed out after {now - call.started_at:.0f}us"
                    )
                )

    def _transport_failed(self, exc: Exception) -> None:
        self.closed = True
        self.client._forget(self)
        self._fail_all(exc)


class SocketConnection(BaseConnection):
    """Default engine: Writable serialization over a socket stream."""

    #: a byte stream: every message is length-prefixed through
    #: Listing 1's buffered stream before the write.
    STREAM = True

    def __init__(self, client, address, protocol):
        super().__init__(client, address, protocol)
        self.sock = None
        #: received bytes not yet settled, and the receive under way:
        #: when it started and the ledger charged for its buffers.
        self._rx = bytearray()
        self._rx_start = 0.0
        self._rx_ledger: Optional[CostLedger] = None

    def setup(self):
        self.sock = yield simsockets.connect(
            self.client.fabric, self.client.node, self.address, self.client.spec
        )
        # Connection header: protocol name + version, length-prefixed.
        ledger = CostLedger(self.model)
        buf = DataOutputBuffer(ledger)
        ConnectionHeader(self.protocol_name, self.protocol.VERSION).write(buf)
        frame = frame_chunks(buf.get_view(), ledger)
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        yield self.sock.send(frame)
        self._start("rpc-conn-recv")

    def _encode(self, call: Call, ledger: CostLedger):
        """Listing 1: serialize into a DataOutputBuffer."""
        buf = DataOutputBuffer(ledger, initial_size=self.client._call_conf()[3])
        buf.write_int(call.id)
        Invocation(call.method, call.params).write(buf)
        # the view stays valid: the buffer is never written again.
        return buf.get_view(), buf.get_length(), buf.adjustments, ()

    def _post(self, call: Call, frame: list, message_bytes: int, ref):
        """Write the frame; returns the send and its ``rpc.send`` tags."""
        # frame = 4-byte length prefix + serialized message.
        return self.sock.send(frame, trace=ref), (("frame_bytes", 4 + message_bytes),)

    def _send_batch(self, batch):
        """Frame a window of encoded calls into one flush through
        Listing 1's stream (run by the window policy's sender)."""
        ledger = CostLedger(self.model)
        header = (
            8 + sum(4 + length for _, _, length, _ in batch),
            BATCH_CALL_ID,
            len(batch),
        )
        frame = stream_frame(header, [entry[1] for entry in batch], ledger)
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        refs = self._stamp_batch(batch, self.client.fabric.tracer)
        yield self.sock.send(frame, trace=refs)

    def _send_ping(self):
        """Hadoop ``Client.sendPing``: a PING_CALL_ID frame, liveness only."""
        ledger = CostLedger(self.model)
        buf = DataOutputBuffer(ledger)
        buf.write_int(PING_CALL_ID)
        frame = frame_chunks(buf.get_view(), ledger)
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        yield self.sock.send(frame)

    def _pull(self, chunk):
        """Buffer what the last read returned (None at a frame boundary);
        return the next whole frame, or the read to wait for.

        Listing 2's reader reads the length prefix, then the body, and
        allocates the heap buffers — starting the receive — as soon as
        it has the prefix.  The window policy's bulk reader takes
        everything already delivered in one read, so a merged response
        batch costs one wakeup, and starts a frame once all of it is
        buffered.
        """
        pending = self._rx
        if chunk is not None:
            pending += chunk
        have = len(pending)
        if have < 4:
            need = 4 - have
        else:
            length = int.from_bytes(pending[:4], "big")
            need = 4 + length - have
            if self._rx_ledger is None and (need <= 0 or not self.WINDOWED):
                # Listing 2's client analogue: heap buffers for the
                # length and the whole response.
                self._rx_start = self.env.now
                self._rx_ledger = CostLedger(self.model)
                self._rx_ledger.charge_heap_alloc(4)
                self._rx_ledger.charge_heap_alloc(length)
            if need <= 0:
                ledger, self._rx_ledger = self._rx_ledger, None
                ledger.charge_copy(length)  # up from the native layer
                payload = bytes(memoryview(pending)[4 : 4 + length])
                del pending[: 4 + length]
                inp = DataInputBuffer(payload, ledger)
                return self._rx_start, ledger, inp, length, {}
        if self.WINDOWED:
            need = max(need, self.sock.available)
        return self.sock.recv(need)

    def close(self) -> None:
        self.closed = True
        if self.sock is not None:
            self.sock.close()
        self._wake_keeper()


class IBConnection(BaseConnection):
    """RPCoIB engine: endpoint bootstrap, then verbs/RDMA data path."""

    #: verbs posts the registered buffer the call was serialized into —
    #: no framing copy — and recycles it once the post has snapshotted it.
    STREAM = False

    def __init__(self, client, address, protocol):
        super().__init__(client, address, protocol)
        self.qp: Optional[QueuePair] = None
        self._adaptive: Optional[AdaptiveTransport] = None

    @property
    def adaptive(self) -> AdaptiveTransport:
        """Transport-choice policy, sharing the pool's size predictor."""
        if self._adaptive is None:
            self._adaptive = AdaptiveTransport(
                self.client.conf,
                self.client.pool.predictor,
                registry=self.client.fabric.metrics,
                node=self.client.node.name,
            )
        return self._adaptive

    def setup(self):
        """Section III-D: use the socket address to exchange endpoint
        information, then all communication goes through native IB."""
        fabric = self.client.fabric
        sock = yield simsockets.connect(
            fabric, self.client.node, self.address, self.client.spec
        )
        yield self.env.timeout(self.model.software.endpoint_exchange_us)
        if fabric.faults is not None and fabric.faults.ib_bootstrap_fails(
            self.client.node.name, self.address.node
        ):
            sock.close()
            raise IBBootstrapError(
                f"{self.address}: endpoint exchange failed (fault injected)"
            )
        service = fabric.listeners.get((self.address.node, self.address.port))
        server = getattr(service, "ib_service", None)
        if server is None:
            sock.close()
            raise IBBootstrapError(
                f"{self.address}: server is not RPCoIB-enabled"
            )
        endpoint = Endpoint(fabric, self.client.node, name=f"ep:{self.client.name}")
        self.qp = server.accept_ib(endpoint, self.protocol_name)
        sock.close()  # bootstrap channel no longer needed
        self._start("rpcoib-conn-recv")

    @property
    def rdma_threshold(self) -> int:
        return self.client.conf.get_int("rpc.ib.rdma.threshold")

    def _encode(self, call: Call, ledger: CostLedger):
        """JVM-bypass serialization straight into a pooled registered
        buffer."""
        pool = self.client.pool
        predicted = pool.predicted_size(self.protocol_name, call.method)
        out = RDMAOutputStream(pool, self.protocol_name, call.method, ledger)
        out.write_int(call.id)
        Invocation(call.method, call.params).write(out)
        # Section III-C pool behaviour as span annotations: whether the
        # size-history prediction held, and any pool-doubling growths
        # (RPCoIB's analogue of Algorithm-1 adjustments).
        annotations = (
            ("pool_predicted_bytes", predicted),
            ("pool_hit", out.grow_count == 0),
        )
        if not self.WINDOWED:
            return out, out.get_length(), out.grow_count, annotations
        # A queued call outlives its caller's send: hand off a snapshot
        # so the pooled buffer recycles immediately; the gather copy
        # into the aggregated post is charged at the sender.
        buffer, length = out.detach()
        with memoryview(buffer.data) as view:
            payload = bytes(view[:length])
        out.release()
        return payload, length, out.grow_count, annotations

    def _post(self, call: Call, out: RDMAOutputStream, message_bytes: int, ref):
        """Post the pooled buffer; returns the send and its ``rpc.send``
        tags."""
        buffer, length = out.detach()
        # One resolved decision feeds the post, the costs, and the trace
        # tag — the classify() hoist that keeps them from drifting.
        choice = self.adaptive.choose(self.protocol_name, call.method, length)
        tags = [("eager", choice.eager)]
        if choice.source != "static":
            tags += [("transport_source", choice.source), ("preposted", choice.preposted)]
        sent = self.qp.post_send(
            buffer, length, choice=choice, context=call.id, trace=ref,
        )
        return sent, tags

    def _send_batch(self, batch):
        """Gather a window of encoded calls into one post (Ibdxnet-style
        ORB), run by the window policy's sender."""
        ledger = CostLedger(self.model)
        buf = DataOutputBuffer(ledger, initial_size=_IB_AGGREGATION_INITIAL)
        buf.write_int(BATCH_CALL_ID)
        buf.write_int(len(batch))
        for _, payload, length, _ in batch:
            buf.write_int(length)
            buf.write(payload)  # the aggregation copy, charged here
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        refs = self._stamp_batch(batch, self.client.fabric.tracer)
        try:
            yield self.qp.post_send(
                buf.get_view(), buf.get_length(),
                rdma_threshold=self.rdma_threshold, trace=refs,
            )
        except QPBrokenError:
            self._engine_failed("qp_break")
            raise

    def _send_ping(self):
        """PING frame over the verbs engine (always eager-sized)."""
        ledger = CostLedger(self.model)
        out = RDMAOutputStream(
            self.client.pool, self.protocol_name, "__ping__", ledger
        )
        out.write_int(PING_CALL_ID)
        yield self.env.timeout(ledger.drain())
        buffer, length = out.detach()
        try:
            yield self.qp.post_send(
                buffer, length, rdma_threshold=self.rdma_threshold
            )
        finally:
            out.release()
        self._absorb(ledger)

    def _pull(self, message):
        """A polled completion is one whole frame (None: poll for the
        next one); a QPBreak takes the engine down."""
        if message is None:
            return self.qp.recv()
        if isinstance(message, QPBreak):
            if not self.closed:
                self._engine_failed(message.reason)
            raise QPBrokenError(message.reason)
        ledger = CostLedger(self.model)
        inp = DataInputBuffer(message.data, ledger)
        return self.env.now, ledger, inp, message.length, {"eager": message.eager}

    def _engine_failed(self, reason: str) -> None:
        """The QP broke: close this engine and migrate in-flight calls
        to the always-present sockets path (graceful degradation)."""
        if self.closed:
            return
        self.closed = True
        if self.qp is not None:
            self.qp.close()
        self.client._forget(self)
        self._wake_keeper()
        self.client._begin_fallback(self, reason)

    def close(self) -> None:
        self.closed = True
        if self.qp is not None:
            self.qp.close()
        self._wake_keeper()
