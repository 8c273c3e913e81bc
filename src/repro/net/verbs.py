"""Native InfiniBand verbs transport: queue pairs over registered memory.

Models the communication layer RPCoIB sits on (Section III): eager
send/recv for messages at or below the adaptive threshold, RDMA for
larger ones.  The NIC moves bytes between *registered* buffers without
host CPU involvement — the sender pays only the JNI crossing and the
work-request post; the receiver pays a completion-queue poll.  Payload
bytes are snapshotted at delivery (the model's stand-in for the NIC
DMA into a pre-posted receive buffer), so the sender may recycle its
pooled buffer immediately after the send completes.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Union

from repro.calibration import CostModel, IB_EAGER, IB_RDMA
from repro.mem.native_pool import NativeBuffer
from repro.mem.predictor import SizePredictor
from repro.net.fabric import Fabric, Node
from repro.simcore import Store
from repro.simcore.process import Process


def classify(length: int, threshold: int) -> bool:
    """THE eager/rendezvous split (Section III-D): True = eager.

    Every layer that needs the protocol decision — the verbs post, the
    client's trace tags, the server responder — must come through
    here, so predictor-driven choice can never drift between what a
    trace says and what the clock was charged.
    """
    return length <= threshold


class ProtocolChoice(NamedTuple):
    """A resolved transport decision for one message.

    ``eager``     — send/recv vs RDMA (from :func:`classify`);
    ``preposted`` — rendezvous buffer advertisement was pre-posted
                    (predictor-driven; pays ``rdma_prepost_us`` instead
                    of the full ``rdma_rendezvous_us`` handshake);
    ``source``    — "static" (threshold only), "predictor" (confident
                    prediction), or "fallback" (predictor enabled but
                    not yet confident for this call kind).
    """

    eager: bool
    preposted: bool = False
    source: str = "static"


class QPBrokenError(ConnectionError):
    """A work request was posted on (or delivered to) a broken QP."""


class QPBreak:
    """Poison message delivered through a broken QP's completion path.

    A Store getter cannot be failed from outside, so a QP break is
    surfaced the way real verbs surface it: as an error completion
    polled off the CQ.  Receive loops must isinstance-check for it.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = "qp broken"):
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QPBreak {self.reason!r}>"


class VerbsMessage(NamedTuple):
    """A completed receive: payload snapshot + how it travelled."""

    data: bytes
    length: int
    eager: bool
    context: object = None  # opaque sender tag (e.g. call id)


class Endpoint:
    """One side's IB context on a node: identity + inbound completions."""

    _next_id = 0

    def __init__(self, fabric: Fabric, node: Node, name: str = ""):
        Endpoint._next_id += 1
        self.id = Endpoint._next_id
        self.fabric = fabric
        self.env = fabric.env
        self.node = node
        self.name = name or f"ep{self.id}@{node.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Endpoint {self.name}>"


class QueuePair:
    """One direction-pair of a connected QP; create both via ``pair``."""

    def __init__(self, local: Endpoint, remote: Endpoint):
        self.local = local
        self.remote = remote
        self.env = local.env
        self.fabric = local.fabric
        self.model: CostModel = local.fabric.model
        self.inbound: Store = Store(self.env)
        #: when set, completions are delivered as ``(qp, message)`` into
        #: this shared store instead of ``inbound`` — the server's single
        #: completion queue multiplexing many connections.
        self.cq: Optional[Store] = None
        self.peer: Optional["QueuePair"] = None
        self.closed = False
        self.broken = False
        if self.fabric.faults is not None:
            self.fabric.faults.register_qp(self)
        self._tx_queue: Optional[Store] = None
        self._tx_worker = None
        # Process names precomputed once (send/recv spawn per message).
        self._send_name = f"ibsend:{local.name}"
        self._recv_name = f"ibrecv:{local.name}"
        self.sends = 0
        self.eager_sends = 0
        self.rdma_sends = 0
        self.preposted_sends = 0
        #: opaque owner tag (e.g. the server-side connection object).
        self.owner: object = None
        #: out-of-band trace refs (repro.obs), mirroring SimSocket's
        #: side channel: senders append to the peer's deque in post
        #: order; the receiver pops one per traced message.
        self._trace_refs: deque = deque()

    @staticmethod
    def pair(a: Endpoint, b: Endpoint) -> tuple:
        """Connect two endpoints; returns (qp_at_a, qp_at_b)."""
        qa, qb = QueuePair(a, b), QueuePair(b, a)
        qa.peer, qb.peer = qb, qa
        return qa, qb

    # -- sending ---------------------------------------------------------
    def post_send(
        self,
        data: Union[bytes, NativeBuffer],
        length: Optional[int] = None,
        rdma_threshold: int = 4096,
        context: object = None,
        trace=None,
        choice: Optional[ProtocolChoice] = None,
    ) -> Process:
        """Send ``length`` bytes of a registered buffer to the peer.

        Messages of at most ``rdma_threshold`` bytes go eager
        (send/recv); larger ones go RDMA — the Section III-D adaptive
        switch (:func:`classify`).  Callers that already resolved the
        decision (the predictor-driven adaptive transport) pass a
        :class:`ProtocolChoice` instead; ``rdma_threshold`` is then
        ignored.  The returned Process completes at *local* send
        completion (work request posted, buffer reusable: the payload is
        snapshotted); wire transfer and remote delivery continue in the
        background, strictly in order.
        """
        if self.closed:
            raise RuntimeError("post_send on closed QP")
        if self.broken:
            raise QPBrokenError(
                f"{self.local.name}->{self.remote.name}: post_send on broken QP"
            )
        view = data.data if isinstance(data, NativeBuffer) else data
        if length is None:
            length = len(view)
        if length > len(view):
            raise ValueError(f"length {length} exceeds buffer {len(view)}")
        if type(view) is bytes and length == len(view):
            payload = view  # immutable and exact: no snapshot needed
        else:
            # Single-copy DMA snapshot (slicing a bytearray first would
            # copy twice); the sender may recycle its buffer immediately.
            with memoryview(view) as dma:
                payload = bytes(dma[:length])  # sim-lint: disable=SIM008
        if choice is None:
            choice = ProtocolChoice(classify(length, rdma_threshold))
        return self.env.process(
            self._send_proc(payload, choice, context, trace),
            name=self._send_name,
        )

    def pop_trace(self):
        """Next out-of-band trace ref (FIFO, one per traced message)."""
        return self._trace_refs.popleft() if self._trace_refs else None

    def _send_proc(
        self, payload: bytes, choice: ProtocolChoice, context: object, trace=None
    ):
        sw = self.model.software
        eager = choice.eager
        spec = IB_EAGER if eager else IB_RDMA
        self.sends += 1
        if eager:
            self.eager_sends += 1
        else:
            self.rdma_sends += 1
        cost = sw.jni_crossing_us + sw.verbs_post_us + spec.host_overhead_us
        if not eager:
            if choice.preposted:
                # Predictor pre-advertised the target buffer while the
                # message was still serializing: only the doorbell/
                # notify residue remains on the critical path.
                self.preposted_sends += 1
                cost += sw.rdma_prepost_us
            else:
                # rendezvous: advertise the target buffer before the RDMA
                cost += sw.rdma_rendezvous_us
        yield self.env.timeout(cost)
        if self._tx_queue is None:
            self._tx_queue = Store(self.env)
            self._tx_worker = self.env.process(
                self._tx_loop(), name=f"ibtx:{self.local.name}"
            )
        if trace is not None and self.peer is not None:
            # A batched post (repro.rpc.mux) carries one ref per
            # sub-call, in sub-call order, as a list.
            if type(trace) is list:
                self.peer._trace_refs.extend(trace)
            else:
                self.peer._trace_refs.append(trace)
        yield self._tx_queue.put((payload, eager, context, spec))

    def _tx_loop(self):
        """NIC work-queue drain: transfers and delivers in post order."""
        while True:
            payload, eager, context, spec = yield self._tx_queue.get()
            yield self.fabric.transfer(
                self.local.node, self.remote.node, len(payload), spec
            )
            peer = self.peer
            if peer is not None and not peer.closed and not peer.broken:
                message = VerbsMessage(payload, len(payload), eager, context)
                if peer.cq is not None:
                    yield peer.cq.put((peer, message))
                else:
                    yield peer.inbound.put(message)

    # -- receiving --------------------------------------------------------
    def recv(self) -> Process:
        """Take the next completed receive; Process returns VerbsMessage.

        Charged: one completion-queue poll/wakeup.
        """
        if self.closed:
            raise RuntimeError("recv on closed QP")
        return self.env.process(self._recv_proc(), name=self._recv_name)

    def _recv_proc(self):
        message = yield self.inbound.get()
        yield self.env.timeout(self.model.software.cq_poll_us)
        return message

    @property
    def pending(self) -> int:
        """Completed-but-unpolled receives."""
        return len(self.inbound)

    def close(self) -> None:
        self.closed = True

    def break_qp(self, reason: str = "qp broken") -> None:
        """Error both directions of the QP (fault injection).

        Each side's completion path receives a :class:`QPBreak` poison
        so blocked receivers wake; subsequent ``post_send`` raises
        :class:`QPBrokenError`.
        """
        for qp in (self, self.peer):
            if qp is None or qp.broken or qp.closed:
                continue
            qp.broken = True
            poison = QPBreak(reason)
            if qp.cq is not None:
                qp.cq.put((qp, poison))
            else:
                qp.inbound.put(poison)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueuePair {self.local.name}->{self.remote.name}>"


class AdaptiveTransport:
    """Predictor-driven eager/rendezvous selection with mispredict
    accounting — the tentpole of the message-size-adaptive transport.

    One instance per RPCoIB endpoint (client connection / server
    responder), sharing the endpoint's :class:`SizePredictor` with its
    buffer pool: the same Fig. 3 size history that sizes the
    serializer's buffer decides whether the rendezvous buffer
    advertisement can be pre-posted.

    The decision model (:meth:`choose`) runs at post time, when the
    actual serialized length is known, but scores itself against what
    the predictor said *before* serialization:

    * confident predicted-rendezvous + actual rendezvous → hit, and
      the advertisement was overlapped with serialization, so the send
      pays only ``rdma_prepost_us`` (``preposted=True``);
    * confident prediction on the wrong side of the threshold → miss
      (the actual length always wins the protocol choice — a mispredict
      costs the full handshake or a wasted advertisement, never a
      wrong-protocol send);
    * not yet confident → fall back to the static threshold, counted
      separately.

    Both ``ipc.ib.adaptive.*`` keys and the static threshold are read
    through a conf view on every decision, so an operator can arm or
    retune the adaptive transport mid-run.  Metrics
    (``net.predictor.hits`` / ``misses`` / ``fallbacks``, labelled by
    node) are created lazily on first use — with the default-off
    configuration the metrics JSON is unchanged.
    """

    def __init__(self, conf, predictor: SizePredictor, registry=None, node=""):
        self.predictor = predictor
        self.registry = registry
        self.node = node
        #: (adaptive enabled, confidence, eager/RDMA threshold)
        self._tunables = conf.view(lambda conf: (
            conf.get_bool("ipc.ib.adaptive.enabled"),
            conf.get_int("ipc.ib.adaptive.confidence"),
            conf.get_int("rpc.ib.rdma.threshold"),
        ))
        self._hits = None
        self._misses = None
        self._fallbacks = None

    @property
    def enabled(self) -> bool:
        return self._tunables()[0]

    def _count(self, which: str) -> None:
        if self.registry is None:
            return
        counter = getattr(self, f"_{which}")
        if counter is None:
            counter = self.registry.counter(
                f"net.predictor.{which}", node=self.node
            )
            setattr(self, f"_{which}", counter)
        counter.add()

    def choose(self, protocol: str, method: str, length: int) -> ProtocolChoice:
        """Resolve the transport decision for one serialized message."""
        enabled, confidence, threshold = self._tunables()
        actual_eager = classify(length, threshold)
        if not enabled:
            return ProtocolChoice(actual_eager)
        if not self.predictor.confident(protocol, method, confidence):
            self._count("fallbacks")
            return ProtocolChoice(actual_eager, source="fallback")
        predicted = self.predictor.predict(protocol, method)
        predicted_eager = classify(predicted, threshold)
        if predicted_eager == actual_eager:
            self._count("hits")
        else:
            self._count("misses")
        # Pre-posting helps only when the predictor committed to
        # rendezvous *and* the message really goes rendezvous; a
        # predicted-eager message that turns out large pays the full
        # handshake (nothing was advertised in advance).
        preposted = not predicted_eager and not actual_eager
        return ProtocolChoice(actual_eager, preposted, source="predictor")
