"""Pluggable RPC server call queues: FIFO and FairCallQueue.

The server's Reader threads admit decoded calls through a
:class:`CallQueue`; Handler threads drain it.  Two implementations:

* :class:`FifoCallQueue` — Hadoop's classic single shared queue.  It
  delegates to one :class:`repro.simcore.Store`, exactly the structure
  the server used before this subsystem existed, so the default
  configuration replays the same event schedule bit-for-bit.
* :class:`FairCallQueue` — HADOOP-9640: N priority sub-queues fed by a
  scheduler (per-caller priority, see
  :class:`repro.rpc.scheduler.DecayRpcScheduler`) and drained through a
  weighted round-robin multiplexer, so one abusive tenant can no longer
  starve everyone behind a single FIFO.

Admission is split in two so the server can keep its exact historical
operation order: ``try_reserve(scall)`` is pure bookkeeping that either
claims a slot (returning ``None``) or returns the ``(class_name,
message)`` rejection to serialize back; ``put(scall)`` then enqueues a
reserved call and returns the store event the Reader yields on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.rpc.call import RetriableException, ServerOverloadedException
from repro.rpc.scheduler import DecayRpcScheduler, RpcScheduler, default_thresholds
from repro.simcore import Store
from repro.simcore import sanitizer as _sanitizer

#: shared by every FIFO ``span_tags`` call — splatting it into the
#: queue-span ``tracer.complete`` adds zero keyword arguments, keeping
#: the default-path trace output byte-identical.
_NO_TAGS: Dict[str, object] = {}


def caller_of(conn) -> str:
    """Caller identity of a server-side connection: the peer node name.

    Works for both engines — socket connections expose the peer
    :class:`~repro.net.fabric.Node` as ``sock.remote``, RPCoIB
    connections as ``qp.remote.node``.
    """
    qp = getattr(conn, "qp", None)
    if qp is not None:
        return qp.remote.node.name
    return conn.sock.remote.name


def default_weights(levels: int) -> List[int]:
    """Hadoop's WRR defaults: priority ``i`` drains ``2**(levels-1-i)``
    calls per cycle — ``[8, 4, 2, 1]`` for four levels."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return [2 ** (levels - 1 - i) for i in range(levels)]


class CallQueue:
    """Interface between the server's Readers/Handlers and a queue impl."""

    #: the priority scheduler, or None (FIFO has no priorities).
    scheduler: Optional[RpcScheduler] = None
    capacity: int = 0

    def try_reserve(self, scall) -> Optional[Tuple[str, str]]:
        """Claim a slot for ``scall`` (pure bookkeeping, no sim events).

        Returns ``None`` when admitted — the Reader must follow up with
        ``put(scall)`` — or the ``(exception_class_name, message)`` to
        serialize back as the rejection.
        """
        raise NotImplementedError

    def put(self, scall):
        """Enqueue a reserved call; returns the event to yield on."""
        raise NotImplementedError

    def take(self):
        """Generator: yields until a call is available, returns it."""
        raise NotImplementedError

    def span_tags(self, scall) -> Dict[str, object]:
        """Extra annotations for the call's ``rpc.server.queue`` span."""
        return _NO_TAGS

    def stop(self) -> None:
        """Tear down scheduler housekeeping, if any."""

    def __len__(self) -> int:
        raise NotImplementedError


class FifoCallQueue(CallQueue):
    """The classic single shared FIFO, delegating to one Store.

    ``put``/``take`` forward to the Store's own put/get, and ``take``
    is a plain one-yield generator — delegated via ``yield from`` it
    produces the identical event sequence to the pre-subsystem
    ``yield store.get()``, which is what keeps fig5/chaos bit-identical
    under the default configuration.
    """

    def __init__(self, env, capacity: int):
        self.capacity = int(capacity)
        self._store = Store(env, capacity=self.capacity)
        # Hot-path aliases: put/get are the Store's own bound methods,
        # so admitting and draining cost exactly what they did when the
        # server held the Store directly.  ``get`` doubles as the
        # handler fast path — the server yields its event instead of
        # delegating into ``take`` (FairCallQueue deliberately has no
        # ``get``).
        self.put = self._store.put
        self.get = self._store.get

    @property
    def items(self) -> list:
        return self._store.items

    def try_reserve(self, scall) -> Optional[Tuple[str, str]]:
        if len(self._store.items) >= self.capacity:
            return (
                ServerOverloadedException.CLASS_NAME,
                f"call queue full ({self.capacity})",
            )
        return None

    def take(self):
        scall = yield self._store.get()
        return scall

    def __len__(self) -> int:
        return len(self._store.items)


class WeightedRoundRobinMux:
    """HADOOP-9640's WeightedRoundRobinMultiplexer.

    Each sub-queue ``i`` holds ``weights[i]`` credits per cycle; the
    mux serves the current sub-queue until its credits run out, then
    advances.  An *empty* sub-queue forfeits its remaining credits for
    the cycle — the handler never idles while lower-priority work
    waits.
    """

    def __init__(self, weights: List[int]):
        if not weights or any(int(w) < 1 for w in weights):
            raise ValueError(f"weights must all be >= 1, got {weights}")
        self.weights = [int(w) for w in weights]
        self._index = 0
        self._credit = self.weights[0]

    def next_index(self, occupancy) -> int:
        """Pick the sub-queue to drain; ``occupancy[i]`` is its length.

        At least one sub-queue must be non-empty (the caller holds a
        token proving it).
        """
        for _ in range(len(self.weights) + 1):
            if occupancy[self._index] > 0:
                self._credit -= 1
                index = self._index
                if self._credit <= 0:
                    self._advance()
                return index
            self._advance()
        raise LookupError("next_index with every sub-queue empty")

    def _advance(self) -> None:
        self._index = (self._index + 1) % len(self.weights)
        self._credit = self.weights[self._index]


class FairCallQueue(CallQueue):
    """N priority sub-queues drained by weighted round-robin.

    The scheduler charges each arriving call to its caller and returns
    the priority level; the call lands in that level's sub-queue (each
    sized ``capacity // levels``).  A full sub-queue rejects: with
    ``ipc.backoff.enable`` the rejection is a
    :class:`~repro.rpc.call.RetriableException` carrying the
    scheduler's suggested backoff, otherwise the familiar
    :class:`~repro.rpc.call.ServerOverloadedException`.

    Handlers block on a signal Store holding one token per queued call
    (the invariant the property tests pin down: tokens outstanding ==
    calls queued), so ``take`` wakes exactly when work exists and the
    mux decides *which* sub-queue to drain.

    Built with a ``conf``, the queue hot-reloads its QoS tunables: it
    applies a changed threshold ladder at its next admit, the only
    place priorities are decided, and changed weights at its next
    drain, the only place the mux is used.  Each change counts once in
    ``rpc.server.qos_reconfigured``.
    """

    def __init__(
        self,
        env,
        capacity: int,
        scheduler: RpcScheduler,
        *,
        conf=None,
        backoff_enabled: bool = False,
        weights: Optional[List[int]] = None,
        registry=None,
        server_name: str = "",
        fabric_label: str = "",
    ):
        self.env = env
        self.scheduler = scheduler
        self.levels = scheduler.levels
        self.subqueue_capacity = max(1, int(capacity) // self.levels)
        self.capacity = self.subqueue_capacity * self.levels
        self.backoff_enabled = bool(backoff_enabled)
        self._registry = registry
        self._server_name = server_name
        self._fabric_label = fabric_label
        self.mux = self._new_mux(weights or default_weights(self.levels))
        # Happens-before race tracking (SIM009 cross-check) of the
        # order-sensitive state the static rule baselines: the mux (each
        # replacement too, see _new_mux) and the scheduler's total.
        session = _sanitizer.current()
        if session is not None:
            session.track(
                scheduler, ("total",), label=f"{server_name}:decay-scheduler"
            )
        self._qos = None
        if conf is not None:
            levels = self.levels
            self._qos = conf.view(lambda conf: (
                conf.get_ints("ipc.callqueue.fair.weights")
                or default_weights(levels),
                conf.get_floats("decay-scheduler.thresholds")
                or default_thresholds(levels),
            ))
            self._qos_seen = self._qos()
        self._queues: List[deque] = [deque() for _ in range(self.levels)]
        self._signal = Store(env)  # unbounded; one token per queued call
        self._depth_gauges = None
        self._backoff_counter = None
        if registry is not None:
            self._depth_gauges = [
                registry.gauge(
                    "rpc.server.fair_queue_depth", server=server_name,
                    fabric=fabric_label, priority=str(level),
                )
                for level in range(self.levels)
            ]
            self._backoff_counter = registry.counter(
                "rpc.server.calls_backoff", server=server_name,
                fabric=fabric_label,
            )

    def try_reserve(self, scall) -> Optional[Tuple[str, str]]:
        if self._qos is not None:
            self.scheduler.set_thresholds(self._live_qos()[1])
        caller = caller_of(scall.conn)
        priority = self.scheduler.charge(caller)
        scall.caller = caller
        scall.priority = priority
        if len(self._queues[priority]) >= self.subqueue_capacity:
            if self._backoff_counter is not None:
                self._backoff_counter.add()
            if self.backoff_enabled:
                backoff_us = self.scheduler.suggested_backoff_us(priority)
                return (
                    RetriableException.CLASS_NAME,
                    RetriableException.wire_message(priority, backoff_us),
                )
            return (
                ServerOverloadedException.CLASS_NAME,
                f"priority {priority} call queue full "
                f"({self.subqueue_capacity})",
            )
        return None

    def put(self, scall):
        self._queues[scall.priority].append(scall)
        if self._depth_gauges is not None:
            self._depth_gauges[scall.priority].inc()
        return self._signal.put(True)

    def take(self):
        yield self._signal.get()
        if self._qos is not None:
            self.set_weights(self._live_qos()[0])
        index = self.mux.next_index([len(q) for q in self._queues])
        scall = self._queues[index].popleft()
        if self._depth_gauges is not None:
            self._depth_gauges[index].dec()
        return scall

    def _live_qos(self) -> Tuple[List[int], List[float]]:
        """(weights, thresholds) as the conf holds them now; the first
        admit or drain to see a changed value counts the reload."""
        qos = self._qos()
        if qos is not self._qos_seen:
            if qos != self._qos_seen and self._registry is not None:
                self._registry.counter(
                    "rpc.server.qos_reconfigured",
                    server=self._server_name, fabric=self._fabric_label,
                ).add()
            self._qos_seen = qos
        return qos

    def set_weights(self, weights: Optional[List[int]]) -> None:
        """Replace the WRR drain weights mid-run (``None`` = defaults).

        Queued calls stay where they are; only the drain ratio changes.
        Changed weights start a fresh credit cycle at sub-queue 0 — a
        deterministic re-synchronization, identical on every run; the
        same weights leave the running cycle alone.
        """
        if not weights:
            weights = default_weights(self.levels)
        if weights != self.mux.weights:
            self.mux = self._new_mux(weights)

    def _new_mux(self, weights: List[int]) -> WeightedRoundRobinMux:
        mux = WeightedRoundRobinMux(weights)
        if len(mux.weights) != self.levels:
            raise ValueError(
                f"{self.levels} levels need {self.levels} weights, "
                f"got {mux.weights}"
            )
        session = _sanitizer.current()
        if session is not None:
            session.track(
                mux, ("_credit", "_index"), label=f"{self._server_name}:wrr-mux"
            )
        return mux

    def span_tags(self, scall) -> Dict[str, object]:
        return {"priority": scall.priority, "caller": scall.caller}

    def stop(self) -> None:
        self.scheduler.stop()

    def depth(self, priority: int) -> int:
        return len(self._queues[priority])

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)


def build_call_queue(
    env,
    conf,
    capacity: int,
    *,
    registry=None,
    server_name: str = "",
    fabric_label: str = "",
) -> CallQueue:
    """Instantiate the queue ``ipc.callqueue.impl`` selects.

    ``fifo`` (the default) registers no new metrics instruments and
    spawns no processes — the metrics JSON and event schedule stay
    identical to a build without this subsystem.
    """
    impl = str(conf.get("ipc.callqueue.impl", "fifo")).strip().lower()
    if impl == "fifo":
        return FifoCallQueue(env, capacity)
    if impl != "fair":
        raise ValueError(f"unknown ipc.callqueue.impl {impl!r}")
    raw_thresholds = conf.get_floats("decay-scheduler.thresholds")
    scheduler = DecayRpcScheduler(
        env,
        levels=conf.get_int("scheduler.priority.levels"),
        period_us=conf.get_float("decay-scheduler.period"),
        decay_factor=conf.get_float("decay-scheduler.decay-factor"),
        thresholds=raw_thresholds or None,
        registry=registry,
        server_name=server_name,
    )
    return FairCallQueue(
        env,
        capacity,
        scheduler,
        conf=conf,
        backoff_enabled=conf.get_bool("ipc.backoff.enable"),
        weights=conf.get_ints("ipc.callqueue.fair.weights") or None,
        registry=registry,
        server_name=server_name,
        fabric_label=fabric_label,
    )
