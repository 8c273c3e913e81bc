"""Hadoop RPC server: Listener, Reader, Handler pool, Responder.

Mirrors the thread structure the paper describes (Section III-D):
``Listener`` accepts connections; ``Reader`` threads (the 1.0.3-style
thread the paper adopts) decode incoming calls and feed the shared call
queue; ``Handler`` threads invoke the target method; ``Responder``
writes responses back.

Both engines run one pipeline per side of the queue: a Reader pulls a
frame from its transport — a socket read that executes Listing 2
verbatim (per-call heap ByteBuffer allocation, native->heap copy), or
a poll of the one completion queue every RPCoIB connection shares —
and one decode-and-admit path queues (or rejects) every call the frame
carries, single or batched.  Handlers serialize responses for the
connection's engine, and one respond path posts them: one at a time,
or merged into a batch frame for a multiplexed client.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Type, Union

from repro.calibration import CostModel, NetworkSpec
from repro.config import Configuration
from repro.io.data_input import DataInputBuffer
from repro.io.data_output import DataOutputBuffer
from repro.io.rdma_streams import RDMAOutputStream
from repro.io.writable import ObjectWritable, Writable
from repro.io.writables import NullWritable
from repro.mem.cost import CostLedger
from repro.mem.native_pool import NativeBufferPool
from repro.mem.shadow_pool import HistoryShadowPool
from repro.net.fabric import Fabric, Node
from repro.net.sockets import ListenerSocket, SimSocket, SocketAddress, SocketClosed
from repro.net.verbs import (
    AdaptiveTransport,
    Endpoint,
    QPBreak,
    QPBrokenError,
    QueuePair,
)
from repro.rpc.call import (
    BATCH_CALL_ID,
    ConnectionHeader,
    Invocation,
    PING_CALL_ID,
    RpcStatus,
    frame_chunks,
)
from repro.rpc.callqueue import CallQueue, build_call_queue
from repro.rpc.metrics import RpcMetrics
from repro.rpc.protocol import RpcProtocol
from repro.simcore import Store
from repro.simcore.process import Interrupt

#: Exceptions that mean the *simulator* (or its sanitizer) failed, not
#: the simulated handler — these must crash the run, never be
#: serialized back to the client as a RemoteException.
ENGINE_EXCEPTIONS = (Interrupt, AssertionError)  # SanitizerError is an AssertionError


class ServerConnection:
    """Server-side state of one connection: an accepted socket, or an
    RPCoIB queue pair (whose protocol is known from the bootstrap)."""

    def __init__(
        self,
        sock: Optional[SimSocket] = None,
        qp: Optional[QueuePair] = None,
        protocol_name: Optional[str] = None,
    ):
        self.sock = sock
        self.qp = qp
        #: None on a socket until its ConnectionHeader frame is read.
        self.protocol_name = protocol_name
        self.scheduled = False  # socket queued in the readable list
        #: the peer sent a BATCH_CALL_ID frame (a multiplexed client):
        #: the responder may merge responses to this connection.
        self.batch_aware = False


@dataclass(slots=True)
class ServerCall:
    """One decoded call waiting in the call queue."""

    conn: ServerConnection
    call_id: int
    invocation: Invocation
    received_at: float
    #: propagated client trace identity (repro.obs), None untraced.
    trace: object = None
    #: caller identity + priority level, assigned by the FairCallQueue's
    #: scheduler at admission (FIFO leaves the defaults untouched).
    caller: str = ""
    priority: int = 0


class Server:
    """An RPC server bound to (node, port), serving one instance.

    ``instance`` implements the union of the methods of ``protocols``
    (a NameNode serves ClientProtocol and DatanodeProtocol on one
    port).  With ``rpc.ib.enabled`` the server also accepts RPCoIB
    connections bootstrapped through the same socket address.
    """

    def __init__(
        self,
        fabric: Fabric,
        node: Node,
        port: int,
        instance: object,
        protocols: Union[Type[RpcProtocol], List[Type[RpcProtocol]]],
        spec: NetworkSpec,
        conf: Optional[Configuration] = None,
        metrics: Optional[RpcMetrics] = None,
        name: str = "",
    ):
        self.fabric = fabric
        self.env = fabric.env
        self.node = node
        self.port = port
        self.instance = instance
        self.protocols = protocols if isinstance(protocols, list) else [protocols]
        self.spec = spec
        self.model: CostModel = fabric.model
        self.conf = conf or Configuration()
        self.metrics = metrics or RpcMetrics()
        self.name = name or f"rpc-server@{node.name}:{port}"
        self.running = True

        handler_count = self.conf.get_int("ipc.server.handler.count")
        queue_size = self.conf.get_int("ipc.server.callqueue.size") * handler_count
        self.response_queue: Store = Store(self.env)
        self.readable: Store = Store(self.env)

        self.listener_socket = ListenerSocket(fabric, node, port)
        self.calls_handled = 0
        self.calls_errored = 0
        #: responses the Responder coalesced into another connection's
        #: batch frame instead of writing individually (incast metric).
        self.responses_merged = 0

        # Observability: spans come from the fabric tracer; queue and
        # throughput instruments live in the fabric-wide registry under
        # this server's name.
        self.tracer = fabric.tracer
        reg = fabric.metrics
        engine_label = "ib" if self.conf.get_bool("rpc.ib.enabled") else "socket"
        self.queue_depth = reg.gauge(
            "rpc.server.handler_queue_depth", server=self.name, fabric=engine_label
        )
        self.handlers_busy = reg.gauge(
            "rpc.server.handlers_busy", server=self.name, fabric=engine_label
        )
        self.handled_counter = reg.counter(
            "rpc.server.calls_handled", server=self.name, fabric=engine_label
        )
        self.errored_counter = reg.counter(
            "rpc.server.calls_errored", server=self.name, fabric=engine_label
        )
        self.queue_wait_tally = reg.tally(
            "rpc.server.queue_wait_us", server=self.name, fabric=engine_label
        )
        self.ping_counter = reg.counter(
            "rpc.server.pings_received", server=self.name, fabric=engine_label
        )
        self.overload_counter = reg.counter(
            "rpc.server.calls_rejected_overload", server=self.name,
            fabric=engine_label,
        )

        # Pluggable call queue (ipc.callqueue.impl): the default FIFO
        # wraps one Store exactly as before — no extra instruments, no
        # processes — so the default event schedule is unchanged; the
        # FairCallQueue brings a DecayRpcScheduler, per-priority gauges
        # and the QoS hot reload with it.
        self.call_queue: CallQueue = build_call_queue(
            self.env, self.conf, queue_size,
            registry=reg, server_name=self.name, fabric_label=engine_label,
        )

        # RPCoIB state (live regardless of the flag so that mixed
        # clusters — e.g. RPC(IPoIB) clients against an IB-capable
        # server — still work; the flag gates *client* behaviour).
        self.cq: Store = Store(self.env)  # shared completion queue
        self.ib_connections: List[ServerConnection] = []
        self._pool: Optional[HistoryShadowPool] = None
        self._adaptive: Optional[AdaptiveTransport] = None
        self.listener_socket.ib_service = self  # discoverable at bootstrap

        # Per-call hot-path caches: the server-daemon heap (dict lookup
        # per frame otherwise), handler methods resolved by name, and
        # the response-buffer initial size.
        self._heap = node.heap("rpc-server")
        self._method_cache: Dict[str, object] = {}
        self._resp_buf_initial = self.conf.view(
            lambda conf: conf.get_int("io.server.buffer.initial.size")
        )

        self._listener = self.env.process(self._listener_loop(), name=f"{self.name}:listener")
        self._readers = [
            self.env.process(
                self._reader_loop(self.readable), name=f"{self.name}:reader{i}"
            )
            for i in range(self.conf.get_int("ipc.server.reader.count"))
        ]
        self._ib_reader = self.env.process(
            self._reader_loop(self.cq), name=f"{self.name}:ib-reader"
        )
        self._handlers = [
            self.env.process(self._handler_loop(i), name=f"{self.name}:handler{i}")
            for i in range(handler_count)
        ]
        self._responder = self.env.process(
            self._responder_loop(), name=f"{self.name}:responder"
        )

    @property
    def address(self) -> SocketAddress:
        return SocketAddress(self.node.name, self.port)

    @property
    def pool(self) -> HistoryShadowPool:
        """Server-side RPCoIB buffer pool (lazy, like the JNI library)."""
        if self._pool is None:
            self._pool = HistoryShadowPool(NativeBufferPool(self.model))
        return self._pool

    @property
    def adaptive(self) -> AdaptiveTransport:
        """Response-path transport policy, sharing the pool predictor."""
        if self._adaptive is None:
            self._adaptive = AdaptiveTransport(
                self.conf,
                self.pool.predictor,
                registry=self.fabric.metrics,
                node=self.node.name,
            )
        return self._adaptive

    def stop(self) -> None:
        self.running = False
        self.call_queue.stop()
        self.listener_socket.close()

    # -- RPCoIB bootstrap ---------------------------------------------------
    def accept_ib(self, client_endpoint: Endpoint, protocol_name: str) -> QueuePair:
        """Complete an endpoint exchange: returns the client-side QP.

        Called by :class:`repro.rpc.client.IBConnection` after the
        socket-channel handshake; the server side registers its QP on
        the shared completion queue that the IB Reader polls.
        """
        server_endpoint = Endpoint(self.fabric, self.node, name=f"ep:{self.name}")
        client_qp, server_qp = QueuePair.pair(client_endpoint, server_endpoint)
        server_qp.cq = self.cq
        conn = ServerConnection(qp=server_qp, protocol_name=protocol_name)
        server_qp.owner = conn
        self.ib_connections.append(conn)
        return client_qp

    # -- Listener ------------------------------------------------------------
    def _listener_loop(self):
        while self.running:
            sock = yield self.listener_socket.accept()
            conn = ServerConnection(sock=sock)

            def on_data(s, conn=conn):
                if not conn.scheduled:
                    conn.scheduled = True
                    self.readable.put(conn)

            sock.on_data = on_data
            if sock.available:
                on_data(sock)

    # -- Readers -----------------------------------------------------------------
    def _reader_loop(self, source: Store):
        """A Reader thread: pull one frame, then decode and admit its calls.

        Socket Readers take ready connections off the selector
        (``readable``) and read one length-prefixed frame into per-call
        heap buffers (Listing 2); the verbs Reader polls the shared
        completion queue (``cq``) and deserializes straight from the
        registered buffer.  Ping, single and batch frames then share one
        decode-and-admit path.
        """
        sw = self.model.software
        verbs = source is self.cq
        # A verbs completion costs one CQ poll + one per-connection
        # event-poll scan; a socket read pays neither.
        poll_us = sw.cq_poll_us if verbs else 0.0
        scan_us = sw.server_ib_poll_scan_us if verbs else 0.0
        while self.running:
            got = yield source.get()
            if verbs:
                qp, message = got
                conn = qp.owner
                if isinstance(message, QPBreak):
                    # Error completion: the QP died (fault injection or a
                    # crashed peer).  Drop the server-side connection state.
                    if conn in self.ib_connections:
                        self.ib_connections.remove(conn)
                    continue
                receive_start = self.env.now
                ledger = CostLedger(self.model)
                inp = DataInputBuffer(message.data, ledger)
                nbytes, traces, eager = message.length, qp, message.eager
            else:
                conn = got
                receive_start = self.env.now
                ledger = CostLedger(self.model)
                try:
                    # ByteBuffer lenBuffer = ByteBuffer.allocate(4)
                    ledger.charge_heap_alloc(4)
                    header = yield conn.sock.recv(4)
                    nbytes = int.from_bytes(header, "big")
                    # ByteBuffer data = ByteBuffer.allocate(len)  <- Fig. 1
                    ledger.charge_heap_alloc(nbytes)
                    payload = yield conn.sock.recv(nbytes)
                    ledger.charge_copy(nbytes)  # native IO layer -> JVM heap
                except SocketClosed:
                    continue
                inp = DataInputBuffer(payload, ledger)
                traces, eager = conn.sock, None
            if conn.protocol_name is None:
                # First frame on a socket connection is the ConnectionHeader.
                hdr = ConnectionHeader()
                hdr.read_fields(inp)
                conn.protocol_name = hdr.protocol
                yield self.env.timeout(ledger.drain())
            elif (call_id := inp.read_int()) == PING_CALL_ID:
                # Keepalive frame (Hadoop Client.sendPing): consume and
                # discard — liveness only, never queued.
                yield self.env.timeout(ledger.drain() + poll_us)
                self.ping_counter.add()
            else:
                poll, scan = poll_us, scan_us
                count, sub_len = 1, nbytes
                batch = call_id == BATCH_CALL_ID
                if batch:
                    # A multiplexed client's window in one frame: one read
                    # — on verbs one completion, polled and scanned once —
                    # amortized over every sub-call.  Each sub-call still
                    # pays its own decode + dispatch and is queued (or
                    # rejected) individually: batching changes the wire
                    # and syscall schedule, never call semantics.
                    conn.batch_aware = True
                    count = inp.read_int()
                    if verbs:
                        yield self.env.timeout(ledger.drain() + poll + scan)
                        poll = scan = 0.0
                alloc_seen = 0.0
                for _ in range(count):
                    if batch:
                        sub_len = inp.read_int()
                        call_id = inp.read_int()
                    invocation = Invocation()
                    invocation.read_fields(inp)
                    yield self.env.timeout(
                        ledger.drain() + poll + scan + sw.handler_dispatch_us
                    )
                    # Listing 2's per-call heap buffers (len buffer, data
                    # buffer, the Writables' backing arrays), attributed to
                    # the sub-call that incurred them (the frame buffers
                    # land on the first one).  The JVM-bypass verbs receive
                    # allocates nothing.
                    alloc_us = 0.0
                    if not verbs:
                        alloc_total = ledger.category("alloc")
                        alloc_us = alloc_total - alloc_seen
                        alloc_seen = alloc_total
                    self.metrics.record_receive(
                        alloc_us, self.env.now - receive_start
                    )
                    ref = traces.pop_trace()
                    if ref is not None:
                        tags = {"batched": count} if batch else {}
                        if ref.sent_at:
                            self.tracer.complete(
                                "rpc.wire", ref.sent_at, receive_start,
                                parent=ref, node=self.node.name,
                                category="net", bytes=sub_len,
                                **({"eager": eager, **tags} if verbs else tags),
                            )
                        self.tracer.complete(
                            "rpc.server.receive", receive_start,
                            self.env.now, parent=ref, node=self.node.name,
                            category="rpc.server",
                            protocol=conn.protocol_name,
                            method=invocation.method, alloc_us=alloc_us,
                            payload_bytes=sub_len, **tags,
                        )
                    scall = ServerCall(
                        conn, call_id, invocation, self.env.now, trace=ref
                    )
                    rejection = self.call_queue.try_reserve(scall)
                    if rejection is None:
                        yield self.call_queue.put(scall)
                        self.queue_depth.inc()
                    else:
                        yield from self._reject_call(scall, rejection)
            if not verbs:
                self._heap.absorb(ledger)
                conn.scheduled = False
                if conn.sock.available > 0 and not conn.scheduled:
                    conn.scheduled = True
                    yield self.readable.put(conn)

    def _reject_call(self, scall: ServerCall, rejection):
        """Serialize a call-queue rejection back to the caller.

        Backpressure: a full queue rejects instead of queueing, so
        clients back off and retry (Hadoop's RetriableException on
        call-queue overflow).
        """
        self.overload_counter.add()
        response = yield from self._serialize_response(
            scall, RpcStatus.ERROR, None, rejection
        )
        yield self.response_queue.put(response)

    # -- Handlers -----------------------------------------------------------------
    def _handler_loop(self, index: int):
        sw = self.model.software
        # FIFO fast path: the queue exposes the Store's own bound
        # ``get`` and handlers yield its event directly — the identical
        # hot loop the server ran before the queue was pluggable.  The
        # FairCallQueue has no ``get``; its ``take`` generator consumes
        # a signal token and lets the WRR mux pick the sub-queue.
        queue_get = getattr(self.call_queue, "get", None)
        queue_take = self.call_queue.take
        while self.running:
            if queue_get is not None:
                scall = yield queue_get()
            else:
                scall = yield from queue_take()
            self.queue_depth.dec()
            self.handlers_busy.inc()
            queue_wait_us = self.env.now - scall.received_at
            self.queue_wait_tally.observe(queue_wait_us)
            if scall.trace is not None:
                self.tracer.complete(
                    "rpc.server.queue", scall.received_at, self.env.now,
                    parent=scall.trace, node=self.node.name,
                    category="rpc.server", depth_after=self.queue_depth.value,
                    **self.call_queue.span_tags(scall),
                )
            hspan = self.tracer.start(
                "rpc.server.handler", parent=scall.trace, node=self.node.name,
                category="rpc.server", method=scall.invocation.method,
                handler=index,
            ) if scall.trace is not None else None
            yield self.env.timeout(sw.thread_handoff_us + sw.reflection_invoke_us)
            status, result, error = RpcStatus.SUCCESS, None, None
            method_name = scall.invocation.method
            try:
                method = self._method_cache[method_name]
            except KeyError:
                method = getattr(self.instance, method_name, None)
                self._method_cache[method_name] = method
            if method is None:
                status = RpcStatus.ERROR
                error = (
                    "java.lang.NoSuchMethodException",
                    f"{method_name} not found",
                )
            else:
                try:
                    outcome = method(*scall.invocation.params)
                    if isinstance(outcome, Writable):
                        # Fast path: echo-style handlers return a
                        # Writable directly (never a generator).
                        result = outcome
                    else:
                        if hasattr(outcome, "send") and hasattr(outcome, "throw"):
                            # Simulated method body: run it on the clock.
                            outcome = yield self.env.process(outcome)
                        result = outcome if outcome is not None else NullWritable()
                        if not isinstance(result, Writable):
                            raise TypeError(
                                f"{method_name} returned non-Writable "
                                f"{type(result).__name__}"
                            )
                except ENGINE_EXCEPTIONS:
                    # Simulator bug or sanitizer violation — crash the
                    # run rather than serializing it to the client.
                    raise
                except Exception as exc:  # noqa: BLE001 - handler boundary
                    status = RpcStatus.ERROR
                    error = (type(exc).__name__, str(exc))
            if status == RpcStatus.SUCCESS:
                self.calls_handled += 1
                self.handled_counter.add()
            else:
                self.calls_errored += 1
                self.errored_counter.add()
            response = yield from self._serialize_response(scall, status, result, error)
            if hspan is not None:
                hspan.annotate("status", int(status))
                hspan.end()
            self.handlers_busy.dec()
            yield self.response_queue.put(response)

    def _serialize_response(self, scall: ServerCall, status, result, error):
        """Serialize a response for the connection's engine, charged to
        the handler: straight into a pooled registered buffer on RPCoIB,
        or a DataOutputBuffer framed for the socket stream."""
        conn = scall.conn
        ledger = CostLedger(self.model)
        if conn.qp is not None:
            out = RDMAOutputStream(
                self.pool, conn.protocol_name,
                scall.invocation.method + "#resp", ledger,
            )
        else:
            out = DataOutputBuffer(ledger, initial_size=self._resp_buf_initial())
        out.write_int(scall.call_id)
        out.write_byte(int(status))
        if status == RpcStatus.SUCCESS:
            ObjectWritable(result).write(out)
        else:
            out.write_utf(error[0])
            out.write_utf(error[1])
        if conn.qp is not None:
            yield self.env.timeout(ledger.drain())
            return conn, out, scall.trace
        # Chunk list (gather write): the socket joins it exactly once.
        frame = frame_chunks(out.get_view(), ledger)
        yield self.env.timeout(ledger.drain())
        self._heap.absorb(ledger)
        return conn, frame, scall.trace

    # -- Responder -------------------------------------------------------------------
    #: most responses the Responder folds into one wire frame for a
    #: batch-aware (multiplexed) connection — bounds the frame the
    #: client must buffer and the latency penalty of the last merge.
    RESPONSE_BATCH_MAX = 64

    def _take_merged(self, conn) -> list:
        """Pull every queued response bound for the same connection.

        The single Responder thread is the server's write bottleneck
        under incast; when it falls behind, responses for the same
        multiplexed connection pile up in its queue.  Draining them here
        — in queue order, up to ``RESPONSE_BATCH_MAX`` — turns that
        backlog into one batched write: adaptive by construction, since
        an idle Responder never finds anything to merge.
        """
        items = self.response_queue.items
        if not items:
            return []
        extras: list = []
        keep: list = []
        limit = self.RESPONSE_BATCH_MAX - 1
        for item in items:
            if len(extras) < limit and item[0] is conn:
                extras.append(item)
            else:
                keep.append(item)
        if extras:
            # In-place rebuild: Store.get aliases this deque.
            items.clear()
            items.extend(keep)
        return extras

    def _responder_loop(self):
        """Post each response on its connection's engine — or, for a
        batch-aware connection with a backlog, the merged batch.

        A merged batch mirrors the request side: ``[BATCH_CALL_ID][count]``
        then length-prefixed per-response frames, byte-identical to what
        each response would have carried alone.  The batch header rides
        in the same gather write or post, so no extra syscall or post is
        charged for it.
        """
        sw = self.model.software
        while self.running:
            first = yield self.response_queue.get()
            conn = first[0]
            # Merge-before-handoff: the backlog inspection happens in
            # the same scheduler step as the get, so one thread handoff
            # covers the whole merged group.
            entries = [first] + self._take_merged(conn) if conn.batch_aware else [first]
            yield self.env.timeout(sw.thread_handoff_us)
            count = len(entries)
            if count > 1:
                self.responses_merged += count - 1
            spans = []
            for _, _, ref in entries:
                spans.append(self.tracer.start(
                    "rpc.server.respond", parent=ref, node=self.node.name,
                    category="rpc.server",
                ) if ref is not None else None)
            sizes = None  # per-response bytes; socket singles count lazily
            tags = [("merged", count)] if count > 1 else []
            error = None
            try:
                if conn.qp is None and count == 1:
                    yield conn.sock.send(first[1])
                elif conn.qp is None:
                    sizes = [
                        sum(len(chunk) for chunk in frame) for _, frame, _ in entries
                    ]
                    chunks = [struct.pack(">iii", 8 + sum(sizes), BATCH_CALL_ID, count)]
                    for _, frame, _ in entries:
                        chunks.extend(frame)
                    yield conn.sock.send(chunks)
                elif count == 1:
                    stream = first[1]
                    buffer, length = stream.detach()
                    sizes = [length]
                    # Same hoisted decision as the client: the response's
                    # call kind ("method#resp") consults the server pool's
                    # size predictor, so confidently predicted-large
                    # responses pre-advertise their target buffer.
                    choice = self.adaptive.choose(stream.protocol, stream.method, length)
                    if choice.source != "static":
                        tags = [
                            ("eager", choice.eager),
                            ("transport_source", choice.source),
                            ("preposted", choice.preposted),
                        ]
                    yield conn.qp.post_send(buffer, length, choice=choice)
                else:
                    parts = [struct.pack(">ii", BATCH_CALL_ID, count)]
                    sizes = []
                    for _, stream, _ in entries:
                        buffer, length = stream.detach()
                        sizes.append(length)
                        parts.append(struct.pack(">i", length))
                        with memoryview(buffer.data) as view:
                            parts.append(bytes(view[:length]))
                        stream.release()  # pooled buffer recycles immediately
                    # The eager/RDMA threshold is read live, so a hot
                    # reload reaches merged posts as it does single ones.
                    yield conn.qp.post_send(
                        b"".join(parts),
                        rdma_threshold=self.conf.get_int("rpc.ib.rdma.threshold"),
                    )
            except (QPBrokenError, SocketClosed) as exc:
                error = type(exc).__name__
            if conn.qp is not None and count == 1:
                first[1].release()  # the post snapshotted the payload
            for i, rspan in enumerate(spans):
                if rspan is None:
                    continue
                if error is not None:
                    rspan.annotate("error", error).end()
                    continue
                rspan.annotate(
                    "response_bytes",
                    sizes[i] if sizes else sum(len(chunk) for chunk in first[1]),
                )
                for key, value in tags:
                    rspan.annotate(key, value)
                rspan.end()
