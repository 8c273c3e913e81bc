"""Java-sockets-over-TCP transport semantics on the simulated fabric.

Costs follow the default Hadoop RPC path the paper profiles: every
``write``/``read`` pays syscall + NIC host overhead + per-byte kernel
CPU, and the payload crosses the JVM-heap/native boundary with a
memcpy.  Stream framing is byte-accurate: receivers see a byte FIFO and
``recv(n)`` blocks until ``n`` bytes arrived, however the sender chunked
them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Optional

from repro.calibration import CostModel, NetworkSpec
from repro.net.fabric import Fabric, Node
from repro.simcore import Environment, Event, Process, Store, Timeout

#: One write()/read() syscall moves at most this much; bigger payloads
#: cost proportionally more syscalls (JVM SocketOutputStream loops).
SYSCALL_CHUNK = 64 * 1024


class SocketAddress(NamedTuple):
    """(node name, port) pair identifying a listening server."""

    node: str
    port: int


class ConnectionRefused(ConnectionError):
    """No listener at the requested address."""


class SocketClosed(ConnectionError):
    """Peer closed while bytes were still expected."""


class ListenerSocket:
    """Server-side accept queue bound to (node, port)."""

    def __init__(self, fabric: Fabric, node: Node, port: int):
        key = (node.name, port)
        if key in fabric.listeners:
            raise ValueError(f"port {port} already bound on {node.name}")
        self.fabric = fabric
        self.node = node
        self.port = port
        self.accept_queue: Store = Store(fabric.env)
        #: set by an RPCoIB-capable server so IB clients can bootstrap
        #: through this socket address (Section III-D).
        self.ib_service: Optional[object] = None
        fabric.listeners[key] = self

    @property
    def address(self) -> SocketAddress:
        return SocketAddress(self.node.name, self.port)

    def accept(self):
        """Event yielding the next accepted server-side SimSocket."""
        return self.accept_queue.get()

    def close(self) -> None:
        self.fabric.listeners.pop((self.node.name, self.port), None)


class SimSocket:
    """One end of an established, bidirectional byte-stream connection."""

    def __init__(
        self,
        fabric: Fabric,
        local: Node,
        remote: Node,
        spec: NetworkSpec,
        name: str = "",
    ):
        self.env: Environment = fabric.env
        self.fabric = fabric
        self.local = local
        self.remote = remote
        self.spec = spec
        self.model: CostModel = fabric.model
        self.name = name
        self.peer: Optional["SimSocket"] = None
        self._rx = bytearray()
        self._waiter = None  # (nbytes, Event) of the single blocked recv
        self._tx_queue: Optional[Store] = None
        self.closed = False
        self._peer_closed = False
        #: callback fired on every delivery (selector integration).
        self.on_data: Optional[Callable[["SimSocket"], None]] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        # Cost-model coefficients prebound once per socket: the
        # send/recv cost formulas run per message and the chained
        # ``self.model.software.<coef>`` lookups dominate them.
        sw = fabric.model.software
        self._syscall_us = sw.socket_syscall_us
        self._host_overhead_us = spec.host_overhead_us
        self._cpu_per_byte_us = spec.cpu_per_byte_us
        mem = fabric.model.memory
        self._copy_base_us = mem.memcpy_base_us
        self._copy_per_byte_us = mem.memcpy_per_byte_us
        if fabric.faults is not None:
            fabric.faults.register_socket(self)
        #: out-of-band trace refs travelling with frames (repro.obs):
        #: the sender appends to the *peer's* deque in frame order, the
        #: receiver pops one per decoded call frame.  Never serialized
        #: into the byte stream, so tracing cannot change wire costs.
        self._trace_refs: deque = deque()

    # -- sending ----------------------------------------------------------
    def send(self, data, trace=None) -> Timeout:
        """Write ``data`` to the peer; returns the local-completion event.

        ``data`` is bytes or a gather list of chunks (bytes / bytearray
        / memoryview): a list is joined into the wire image exactly once
        here, at the transport boundary — the zero-copy framing paths
        upstream never materialize the message themselves.

        The event fires when the *local* write is done (TCP semantics:
        the kernel accepted the bytes) — charged with syscalls (one per
        64 KB), per-message NIC host overhead, kernel per-byte CPU, and
        the JVM-heap -> native copy.  The per-socket tx loop then moves
        the bytes onto the wire in the background, strictly in order.

        ``trace`` (a :class:`repro.obs.TraceRef`) rides along out of
        band and is surfaced to the receiver via :meth:`pop_trace`.
        """
        if self.closed:
            raise SocketClosed(f"{self.name}: send on closed socket")
        kind = type(data)
        if kind is list:
            data = b"".join(data)
        elif kind is not bytes:
            # Snapshot mutable buffers at the send boundary.
            data = bytes(data)  # sim-lint: disable=SIM008
        nbytes = len(data)
        # ``-(-n // chunk)`` is exact integer ceil; SYSCALL_CHUNK is a
        # power of two so it matches the float-division form bit-for-bit.
        syscalls = -(-nbytes // SYSCALL_CHUNK) or 1
        # Grouping matters: the copy term is parenthesized exactly as the
        # unfolded ``memory.copy_us(nbytes)`` call computed it, keeping
        # float addition order — and thus the clock — bit-identical.
        cost = (
            syscalls * self._syscall_us
            + self._host_overhead_us
            + nbytes * self._cpu_per_byte_us
            + (self._copy_base_us + nbytes * self._copy_per_byte_us)
        )
        done = self.env.timeout(cost)
        done.callbacks.append(lambda _: self._queue_tx(data, trace))
        return done

    def pop_trace(self):
        """Next out-of-band trace ref (FIFO, one per traced frame)."""
        return self._trace_refs.popleft() if self._trace_refs else None

    def _queue_tx(self, data: bytes, trace) -> None:
        self.bytes_sent += len(data)
        if self._tx_queue is None:
            self._tx_queue = Store(self.env)
            self.env.process(self._tx_loop(), name=f"tx:{self.name}")
        if trace is not None and self.peer is not None:
            # Appended in the same step as the tx enqueue below, so the
            # peer's ref order always matches frame order.  A batched
            # frame (repro.rpc.mux) carries one ref per sub-call, in
            # sub-call order, as a list.
            if type(trace) is list:
                self.peer._trace_refs.extend(trace)
            else:
                self.peer._trace_refs.append(trace)
        self._tx_queue.put(data)

    #: wire-delivery granularity: big writes dribble into the receiver
    #: at network speed (TCP windowing), not as one instant delivery.
    WIRE_CHUNK = 64 * 1024

    def _tx_loop(self):
        """Drains the kernel send buffer onto the wire, in order."""
        while True:
            data = yield self._tx_queue.get()
            for start in range(0, len(data), self.WIRE_CHUNK):
                chunk = data[start : start + self.WIRE_CHUNK]
                faults = self.fabric.faults
                if faults is not None:
                    retransmit_us = faults.loss_delay(
                        self.local.name, self.remote.name
                    )
                    if retransmit_us > 0.0:
                        # Lost on the wire: TCP retransmits after an RTO.
                        yield self.env.timeout(retransmit_us)
                    if faults.corrupts(self.local.name, self.remote.name):
                        # Checksum failure past TCP's ability to mask —
                        # both ends see the connection reset.
                        peer = self.peer
                        self.close()
                        if peer is not None:
                            peer.close()
                        return
                delivered = yield self.fabric.transfer(
                    self.local, self.remote, len(chunk), self.spec
                )
                if delivered is False:
                    continue  # endpoint crashed mid-flight: bytes lost
                if self.peer is not None and not self.peer.closed:
                    self.peer._deliver(chunk)

    def _deliver(self, data: bytes) -> None:
        self._rx.extend(data)
        self._wake_waiter()
        if self.on_data is not None:
            self.on_data(self)

    def _wake_waiter(self) -> None:
        if self._waiter is None:
            return
        nbytes, event = self._waiter
        if len(self._rx) >= nbytes:
            self._waiter = None
            # Single-copy extraction: slicing the bytearray first would
            # copy twice.  Both views are released before the del (a
            # bytearray with live exports cannot shrink).
            with memoryview(self._rx) as rx_view:
                data = bytes(rx_view[:nbytes])  # sim-lint: disable=SIM008
            del self._rx[:nbytes]
            self.bytes_received += nbytes
            syscalls = -(-nbytes // SYSCALL_CHUNK) or 1
            cost = (
                syscalls * self._syscall_us
                + self._host_overhead_us
                + nbytes * self._cpu_per_byte_us
            )
            # Succeed ``cost`` from now, as a Timeout would.
            event._ok, event._value = True, data
            self.env.schedule(event, delay=cost)
        elif self._peer_closed:
            self._waiter = None
            event.fail(SocketClosed(
                f"{self.name}: peer closed with {len(self._rx)}/{nbytes} bytes"
            ))

    # -- receiving ---------------------------------------------------------
    @property
    def available(self) -> int:
        """Bytes currently readable without blocking."""
        return len(self._rx)

    def recv(self, nbytes: int) -> Event:
        """Read exactly ``nbytes``: an event whose value is the bytes.

        It fires once they are all buffered plus the read cost, charged
        on the caller's thread: syscalls + NIC host overhead + kernel
        per-byte CPU.  (The native->JVM-heap copy is *not* charged here
        — Listing 2's receive path performs it explicitly when it
        allocates the heap ByteBuffer, and the RPC server code models
        that step itself.)  It fails with SocketClosed if the peer
        closes first.
        """
        if nbytes < 0:
            raise ValueError(f"negative recv size {nbytes}")
        if self._waiter is not None:
            raise RuntimeError(f"{self.name}: concurrent recv on one socket")
        event = self.env.event()
        self._waiter = (nbytes, event)
        self._wake_waiter()
        return event

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.peer is not None:
            self.peer._peer_closed = True
            self.peer._wake_waiter()
            if self.peer.on_data is not None:
                self.peer.on_data(self.peer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimSocket {self.name} {self.local.name}->{self.remote.name}>"


def connect(
    fabric: Fabric,
    client_node: Node,
    address: SocketAddress,
    spec: NetworkSpec,
) -> Process:
    """Open a connection to ``address``; Process returns the client socket.

    Cost: TCP handshake + Hadoop connection header
    (``socket_connect_us``) plus one small round trip on the wire.
    """
    env = fabric.env

    def proc():
        listener = fabric.listeners.get((address.node, address.port))
        if listener is None:
            raise ConnectionRefused(f"no listener at {address}")
        server_node = listener.node
        if fabric.faults is not None and fabric.faults.blocked(
            client_node.name, server_node.name
        ):
            raise ConnectionRefused(f"{address}: unreachable (fault injected)")
        yield env.timeout(fabric.model.software.socket_connect_us)
        yield fabric.transfer(client_node, server_node, 128, spec)
        client_sock = SimSocket(
            fabric, client_node, server_node, spec, name=f"c:{client_node.name}"
        )
        server_sock = SimSocket(
            fabric, server_node, client_node, spec, name=f"s:{server_node.name}"
        )
        client_sock.peer = server_sock
        server_sock.peer = client_sock
        yield listener.accept_queue.put(server_sock)
        return client_sock

    return env.process(proc(), name=f"connect:{client_node.name}->{address.node}")
