"""HTable: the HBase client, with the three Fig. 8 transport flavours."""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

from repro.calibration import IB_RDMA, NetworkSpec
from repro.config import Configuration
from repro.hbase.protocol import GetWritable, HRegionInterface, PutWritable
from repro.net.fabric import Fabric, Node
from repro.rpc.engine import RPC
from repro.rpc.metrics import RpcMetrics
from repro.simcore.rng import Random, named_stream


class HTable:
    """Client handle to one table spread over the region servers.

    Rows are routed by hash to the region server owning that key range
    (the region map is fetched from the master once and cached — we
    model it as a static registry, as YCSB's steady state sees it).
    """

    def __init__(
        self,
        fabric: Fabric,
        node: Node,
        regionservers: List,
        rpc_spec: NetworkSpec,
        conf: Optional[Configuration] = None,
        payload_rdma: bool = False,
        metrics: Optional[RpcMetrics] = None,
        rng: Optional[Random] = None,
        record_bytes: int = 1024,
    ):
        self.fabric = fabric
        self.env = fabric.env
        self.node = node
        self.regionservers = list(regionservers)
        if not self.regionservers:
            raise ValueError("HTable needs at least one region server")
        self.payload_rdma = payload_rdma
        self.record_bytes = record_bytes
        self.model = fabric.model
        self.rng = rng or named_stream(f"htable:{node.name}")
        self.client = RPC.get_client(
            fabric, node, rpc_spec, conf=conf, metrics=metrics,
            name=f"htable@{node.name}",
        )
        self._proxies: Dict[int, object] = {}

    def _region_for(self, row: str):
        # stable routing (Python's str hash is salted per process)
        index = zlib.crc32(row.encode()) % len(self.regionservers)
        return index, self.regionservers[index]

    def _proxy(self, index: int):
        if index not in self._proxies:
            self._proxies[index] = RPC.get_proxy(
                HRegionInterface, self.regionservers[index].address, self.client
            )
        return self._proxies[index]

    # ------------------------------------------------------------------
    def get(self, row: str):
        """Event: read one row; value is the ResultWritable."""
        if not self.payload_rdma:  # the RPC call itself
            return self._proxy(self._region_for(row)[0]).get(GetWritable(row))
        return self.env.process(self._get_proc(row), name=f"hget:{self.node.name}")

    def _get_proc(self, row: str):
        index, server = self._region_for(row)
        result = yield self._proxy(index).get(GetWritable(row))
        if result.detached_bytes:
            # HBaseoIB: the value arrives via RDMA from the server's
            # registered buffer — wire time on the IB RDMA path.
            yield self.fabric.transfer(
                server.node, self.node, result.detached_bytes, IB_RDMA
            )
            yield self.env.timeout(self.model.software.cq_poll_us)
        return result

    def put(self, row: str, value: Optional[bytes] = None):
        """Event: write one row; value defaults to ``record_bytes``."""
        payload = value if value is not None else b"\x5a" * self.record_bytes
        if not self.payload_rdma:  # the RPC call itself
            return self._proxy(self._region_for(row)[0]).put(PutWritable(row, payload))
        return self.env.process(
            self._put_proc(row, len(payload)), name=f"hput:{self.node.name}"
        )

    def _put_proc(self, row: str, nbytes: int):
        index, server = self._region_for(row)
        # Ship the payload through registered buffers first; the RPC
        # request carries only the envelope.
        sw = self.model.software
        yield self.env.timeout(sw.jni_crossing_us + sw.verbs_post_us)
        yield self.fabric.transfer(self.node, server.node, nbytes, IB_RDMA)
        request = PutWritable(row, b"", detached_bytes=nbytes)
        return (yield self._proxy(index).put(request))
