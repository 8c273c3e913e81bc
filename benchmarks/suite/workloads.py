"""The four benchmark workloads: how each system is built, driven and checked.

Every workload is a closed loop: each simulated caller issues its next
call only after the previous reply arrived, as Hadoop RPC callers block
on their reply.  Callers are generator coroutines inside one
single-threaded simulation, so a workload uses one OS thread and no real
sockets.  Why each workload exists is recorded in ``BENCHMARK.json``.

All inputs (sizes, payload bytes, the call-kind mix and keys) come from
``random.Random`` streams seeded with ``"<seed>/<workload>/<label>"``;
string seeds hash the same way in every interpreter, so one seed always
gives the same inputs.  The program sees only the generated Writables.

A workload touches the program only through its public surface:
``RPC.get_server/get_client/get_proxy``, ``Environment``, ``Fabric``, the
Writables, ``build_hbase_stack`` + ``HTable.get/put``, ``events_total()``,
``fabric.metrics.find(...)``, server/pool/queue-pair counters, and
``RpcMetrics`` objects passed in through the public ``metrics=`` argument.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, Dict, List, Tuple

from repro.calibration import IPOIB_QDR
from repro.config import Configuration
from repro.experiments.clusters import build_hbase_stack
from repro.hbase.protocol import HRegionInterface
from repro.io.writables import BytesWritable, IntWritable
from repro.net.fabric import Fabric
from repro.rpc.call import RemoteException
from repro.rpc.engine import RPC
from repro.rpc.metrics import RpcMetrics
from repro.rpc.microbench import PingPongProtocol, PingPongService
from repro.rpc.protocol import RpcProtocol
from repro.simcore import Environment
from repro.simcore.environment import events_total

#: kind codes stored per recorded call.
ECHO, READ, WRITE = 0, 1, 2
KIND_NAMES = {ECHO: "echo", READ: "read", WRITE: "write"}

#: first failures kept verbatim for the report.
MAX_FAILURE_NOTES = 5


class Recorder:
    """Outcome of every call of one run, shared by all of its callers."""

    def __init__(self, env: Environment, callers: int):
        self.env = env
        #: fires when the last caller has finished its warm-up calls.
        self.warm = env.event()
        self._warming = callers
        self.stop = False
        self.issued = 0
        self.failed = 0
        self.notes: List[str] = []
        #: measured calls (after the caller's warm-up) that completed.
        self.completed = 0
        self.kinds = array("b")
        self.starts = array("d")
        self.ends = array("d")

    def warmed(self) -> None:
        self._warming -= 1
        if self._warming == 0:
            self.warm.succeed()

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)


#: one generated call: (kind, the call's Process, reply check).
NextCall = Callable[[], Tuple[int, object, Callable[[object], bool]]]


def closed_loop(rec: Recorder, next_call: NextCall, warmup: int):
    """One caller: ``warmup`` unrecorded calls, then recorded calls until
    the run stops.  Every reply is checked; a failed RPC or a wrong reply
    counts as a failure and the caller goes on."""
    env = rec.env
    kinds, starts, ends = rec.kinds, rec.starts, rec.ends
    n = 0
    while True:
        if n == warmup:
            rec.warmed()
        if n >= warmup and rec.stop:
            return
        kind, call, check = next_call()
        rec.issued += 1
        start = env.now
        try:
            reply = yield call
        except (RemoteException, ConnectionError) as exc:
            rec.fail(f"{KIND_NAMES[kind]}: {type(exc).__name__}: {exc}")
        else:
            if not check(reply):
                rec.fail(f"{KIND_NAMES[kind]}: wrong reply")
            elif n >= warmup:
                rec.completed += 1
                kinds.append(kind)
                starts.append(start)
                ends.append(env.now)
        n += 1


def counter_sum(fabric: Fabric, name: str) -> int:
    return int(sum(inst.value for inst in fabric.metrics.find(name).values()))


class Workload:
    """A built system plus its callers; subclasses fill in the specifics.

    ``build`` sets ``env``, ``fabric``, ``servers`` (where the benchmark's
    calls land) and ``clients``.
    """

    name = ""
    callers = 1
    #: calls per caller before the measured window opens.
    warmup = 0
    #: simulated length of the measured window (us); every simulated-clock
    #: metric and every per-layer count is taken over this window.
    window_us = 0.0
    #: the benchmark's client nodes and protocols: the ``rpc.call`` spans
    #: the latency budget is built from.
    client_nodes: Tuple[str, ...] = ()
    protocols: Tuple[str, ...] = ()
    #: RPCoIB workloads have verbs queue pairs and registered-buffer pools.
    rpcoib = False

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.window_us = self.window_us * scale
        self.warmup = max(1, round(self.warmup * scale))
        self.metrics = RpcMetrics()
        self.build()
        self.rec = Recorder(self.env, self.callers)

    def rng(self, label: object) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{label}")

    def new_fabric(self) -> None:
        self.env = Environment()
        self.fabric = Fabric(self.env)

    # -- per workload ------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def next_call_for(self, index: int) -> NextCall:
        raise NotImplementedError

    # -- driving -----------------------------------------------------------
    def start(self) -> None:
        self.procs = [
            self.env.process(
                closed_loop(self.rec, self.next_call_for(i), self.warmup),
                name=f"bench-{self.name}-{i}",
            )
            for i in range(self.callers)
        ]

    def handled(self) -> int:
        return sum(server.calls_handled for server in self.servers)

    def conservation(self) -> List[str]:
        """Problems with call conservation after the run has drained."""
        problems = []
        handled = self.handled()
        if handled != self.rec.issued:
            problems.append(
                f"servers handled {handled} calls, callers issued {self.rec.issued}"
            )
        rejected = counter_sum(self.fabric, "rpc.server.calls_rejected_overload")
        if rejected:
            problems.append(f"{rejected} calls rejected by a full call queue")
        return problems

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters, read at both edges of the window."""
        fabric = self.fabric
        out: Dict[str, float] = {
            "events": events_total(),
            "handled": self.handled(),
            "merged": sum(server.responses_merged for server in self.servers),
            "metrics_records": (
                len(self.metrics.call_profiles)
                + len(self.metrics.receive_profiles)
                + sum(len(kind.message_sizes) for kind in self.metrics.by_kind.values())
            ),
            "calls_failed": counter_sum(fabric, "rpc.client.calls_failed"),
            "calls_rejected": counter_sum(fabric, "rpc.server.calls_rejected_overload"),
            "ib_fallbacks": counter_sum(fabric, "rpc.ib.fallbacks"),
            "predictor_hits": counter_sum(fabric, "net.predictor.hits"),
            "predictor_misses": counter_sum(fabric, "net.predictor.misses"),
            "predictor_fallbacks": counter_sum(fabric, "net.predictor.fallbacks"),
        }
        sends = eager = preposted = 0
        predictions = prediction_hits = regcache_hits = regcache_misses = 0
        if self.rpcoib:
            # Both directions of every connection: the server-side queue
            # pair and its client-side peer.
            for server in self.servers:
                for conn in server.ib_connections:
                    for qp in (conn.qp, conn.qp.peer):
                        sends += qp.sends
                        eager += qp.eager_sends
                        preposted += qp.preposted_sends
            for pool in [s.pool for s in self.servers] + [c.pool for c in self.clients]:
                predictions += pool.predictions
                prediction_hits += pool.prediction_hits
                stats = getattr(pool.native, "regcache_stats", None)
                if stats is not None:
                    regcache_hits += stats()["hits"]
                    regcache_misses += stats()["misses"]
        out.update(
            sends=sends, eager_sends=eager, preposted_sends=preposted,
            pool_predictions=predictions, pool_prediction_hits=prediction_hits,
            regcache_hits=regcache_hits, regcache_misses=regcache_misses,
        )
        return out


def echo_call(proxy, block: bytes, size: int, offset: int):
    payload = block[offset:offset + size]
    return ECHO, proxy.pingpong(BytesWritable(payload)), (
        lambda reply: reply.value == payload
    )


class PingPong(Workload):
    name = "pingpong"
    callers = 1
    warmup = 200
    window_us = 1_000_000.0
    client_nodes = ("client",)
    protocols = (PingPongProtocol.protocol_name(),)
    rpcoib = True

    def build(self) -> None:
        self.new_fabric()
        server_node = self.fabric.add_node("server")
        client_node = self.fabric.add_node("client")
        conf = Configuration({"rpc.ib.enabled": True})
        self.server = RPC.get_server(
            self.fabric, server_node, 9000, PingPongService(), PingPongProtocol,
            IPOIB_QDR, conf=conf, metrics=self.metrics,
        )
        self.servers = [self.server]
        self.clients = [
            RPC.get_client(self.fabric, client_node, IPOIB_QDR, conf=conf, metrics=self.metrics)
        ]
        self.block = self.rng("block").randbytes(16384)

    def next_call_for(self, index: int) -> NextCall:
        proxy = RPC.get_proxy(PingPongProtocol, self.server.address, self.clients[0])
        rng = self.rng(f"caller{index}")

        def next_call():
            # Log-uniform 1 B - 4 KB: every size decade of Fig. 5(a), and
            # continuous sizes so no percentile sits on one size class.
            size = int(2.0 ** rng.uniform(0.0, 12.0))
            return echo_call(proxy, self.block, size, rng.randrange(len(self.block) - size))

        return next_call


class Incast(Workload):
    name = "incast"
    callers = 256
    warmup = 4
    window_us = 120_000.0
    nodes = 4
    client_nodes = tuple(f"cn{i}" for i in range(4))
    protocols = (PingPongProtocol.protocol_name(),)

    def build(self) -> None:
        self.new_fabric()
        server_node = self.fabric.add_node("nn")
        client_nodes = self.fabric.add_nodes("cn", self.nodes)
        conf = Configuration({
            "rpc.ib.enabled": False,
            "ipc.client.async.enabled": True,
            "ipc.client.async.max-inflight": 32,
            # One queue slot per caller: the incast must never be rejected.
            "ipc.server.callqueue.size": self.callers,
        })
        self.server = RPC.get_server(
            self.fabric, server_node, 9000, PingPongService(), PingPongProtocol,
            IPOIB_QDR, conf=conf, metrics=self.metrics,
        )
        self.servers = [self.server]
        self.clients = [
            RPC.get_client(self.fabric, node, IPOIB_QDR, conf=conf, metrics=self.metrics)
            for node in client_nodes
        ]
        self.block = self.rng("block").randbytes(4096)

    def next_call_for(self, index: int) -> NextCall:
        client = self.clients[index % self.nodes]
        proxy = RPC.get_proxy(PingPongProtocol, self.server.address, client)
        rng = self.rng(f"caller{index}")

        def next_call():
            size = rng.randint(64, 512)
            return echo_call(proxy, self.block, size, rng.randrange(len(self.block) - size))

        return next_call


class BulkProtocol(RpcProtocol):
    """Large-message protocol: the two directions of a bulk transfer."""

    VERSION = 1

    def write(self, data: BytesWritable) -> IntWritable:
        """Store ``data``; returns how many bytes arrived."""
        raise NotImplementedError

    def read(self, size: IntWritable) -> BytesWritable:
        """Return ``size`` bytes of the server's content."""
        raise NotImplementedError


class BulkContent:
    """What a ``read`` of each size must return, built once per size so
    neither the server nor the reply check copies 100 KB per call."""

    def __init__(self, block: bytes):
        self.block = block
        self._by_size: Dict[int, bytes] = {}

    def __call__(self, size: int) -> bytes:
        content = self._by_size.get(size)
        if content is None:
            offset = size % 4093
            content = self._by_size[size] = self.block[offset:offset + size]
        return content


class BulkService(BulkProtocol):
    def __init__(self, content: BulkContent):
        self.content = content

    def write(self, data: BytesWritable) -> IntWritable:
        return IntWritable(len(data.value))

    def read(self, size: IntWritable) -> BytesWritable:
        return BytesWritable(self.content(size.value))


class Bulk(Workload):
    name = "bulk"
    callers = 8
    warmup = 20
    window_us = 560_000.0
    nodes = 2
    client_nodes = ("cn0", "cn1")
    protocols = (BulkProtocol.protocol_name(),)
    rpcoib = True
    OUTLIER_BYTES = 4096
    OUTLIER_SHARE = 0.1

    def build(self) -> None:
        self.new_fabric()
        server_node = self.fabric.add_node("server")
        client_nodes = self.fabric.add_nodes("cn", self.nodes)
        conf = Configuration({
            "rpc.ib.enabled": True,
            "ipc.ib.adaptive.enabled": True,
            "rpc.ib.pool.impl": "buddy",
            # 64 KB slabs: requests fit pooled blocks, while 96-128 KB
            # responses are oversized and go through the registration cache.
            "rpc.ib.pool.slab.bytes": 64 * 1024,
        })
        self.block = self.rng("block").randbytes(128 * 1024 + 8192)
        self.content = BulkContent(self.block)
        self.server = RPC.get_server(
            self.fabric, server_node, 9000, BulkService(self.content), BulkProtocol,
            IPOIB_QDR, conf=conf, metrics=self.metrics,
        )
        self.servers = [self.server]
        self.clients = [
            RPC.get_client(self.fabric, node, IPOIB_QDR, conf=conf, metrics=self.metrics)
            for node in client_nodes
        ]

    def next_call_for(self, index: int) -> NextCall:
        client = self.clients[index % self.nodes]
        proxy = RPC.get_proxy(BulkProtocol, self.server.address, client)
        rng = self.rng(f"caller{index}")
        block = memoryview(self.block)

        def next_call():
            outlier = rng.random() < self.OUTLIER_SHARE
            if rng.random() < 0.5:
                size = self.OUTLIER_BYTES if outlier else rng.randint(48 * 1024, 64 * 1024)
                offset = rng.randrange(len(block) - size)
                # BytesWritable snapshots its value: one copy, in the program.
                data = BytesWritable(block[offset:offset + size])
                return WRITE, proxy.write(data), (lambda reply: reply.value == size)
            # Whole kilobytes: 33 distinct response sizes, each built once.
            size = self.OUTLIER_BYTES if outlier else 1024 * rng.randint(96, 128)
            expected = self.content(size)
            return READ, proxy.read(IntWritable(size)), (
                lambda reply: reply.value == expected
            )

        return next_call


class Ycsb(Workload):
    name = "ycsb"
    regionservers = 4
    nodes = 4
    threads_per_node = 4
    callers = 16
    warmup = 20
    window_us = 200_000.0
    records = 4000
    client_nodes = tuple(f"client{i}" for i in range(4))
    protocols = (HRegionInterface.PROTOCOL_NAME,)

    def build(self) -> None:
        stack = build_hbase_stack(
            regionservers=self.regionservers,
            clients=self.nodes,
            rpc_ib=False,
            rpc_network=IPOIB_QDR,
            payload_rdma=False,
            hdfs_rdma=False,
            seed=self.rng("cluster").getrandbits(32),
        )
        self.env, self.fabric, self.hbase = stack.env, stack.fabric, stack.hbase
        # The cluster-wide collector its region servers and tables share.
        self.metrics = self.hbase.metrics
        self.hbase.preload(self.records)
        self.servers = [rs.server for rs in self.hbase.regionservers]
        self.tables = [self.hbase.table(node) for node in stack.client_nodes]
        self.clients = [table.client for table in self.tables]
        # Record lengths uniform over 512-1536 B (1 KB on average; YCSB's
        # uniform field-length distribution).  With one fixed length every
        # Get would take the same simulated time and the median would read
        # the same for every seed.
        self.block = self.rng("block").randbytes(64 * 1024)
        rng = self.rng("records")
        self.layout = []
        for _ in range(self.records):
            length = rng.randint(512, 1536)
            self.layout.append((rng.randrange(len(self.block) - length), length))
        self.env.run(stack.hdfs.wait_ready())

    def value_for(self, key: int) -> bytes:
        """Every Put of a row writes the same value, so a Get must return it."""
        offset, length = self.layout[key]
        return self.block[offset:offset + length]

    def start(self) -> None:
        """YCSB's load phase first: every record is Put once, so each Get
        of the run phase finds its row in a memstore and the run is steady
        from its first call (the region servers' block caches start cold
        and would otherwise warm throughout the window)."""
        loaders = [
            self.env.process(self._load(index), name=f"bench-ycsb-load-{index}")
            for index in range(self.callers)
        ]
        self.env.run(self.env.all_of(loaders))
        super().start()

    def _load(self, index: int):
        table = self.tables[index // self.threads_per_node]
        for key in range(index, self.records, self.callers):
            self.rec.issued += 1
            try:
                reply = yield table.put(f"user{key:012d}", self.value_for(key))
            except (RemoteException, ConnectionError) as exc:
                self.rec.fail(f"load: {type(exc).__name__}: {exc}")
                continue
            if not reply.found:
                self.rec.fail("load: wrong reply")

    def next_call_for(self, index: int) -> NextCall:
        table = self.tables[index // self.threads_per_node]
        rng = self.rng(f"caller{index}")

        def next_call():
            key = rng.randrange(self.records)
            row = f"user{key:012d}"
            value = self.value_for(key)
            if rng.random() < 0.5:
                return READ, table.get(row), (
                    lambda reply: reply.found and reply.value == value
                )
            return WRITE, table.put(row, value), (lambda reply: reply.found)

        return next_call


WORKLOADS = {w.name: w for w in (PingPong, Incast, Bulk, Ycsb)}
