"""Hadoop RPC: the paper's system under study and its RPCoIB redesign.

Structure mirrors Hadoop 0.20.2 (plus the 1.0.3-style ``Reader`` thread
the paper adopts):

* client side — caller threads and a ``Connection`` per server address
  (:mod:`repro.rpc.client`),
* server side — ``Listener``, ``Reader``, ``Handler`` pool and
  ``Responder`` (:mod:`repro.rpc.server`),
* two interchangeable engines, selected by ``rpc.ib.enabled`` — the
  default Writable-over-sockets engine and **RPCoIB**: endpoint
  bootstrap over the socket address, JVM-bypass pooled buffers,
  message-size history, and the eager/RDMA threshold
  (:class:`~repro.rpc.client.IBConnection` and the server's verbs
  Reader),
* per-kind profiling (:mod:`repro.rpc.metrics`) feeding Table I,
  Figure 1 and Figure 3,
* the WBDB'13 micro-benchmark suite (:mod:`repro.rpc.microbench`)
  behind Figure 5.

Public entry point: :class:`repro.rpc.engine.RPC` —
``RPC.get_server(...)`` / ``RPC.get_proxy(...)``.
"""

from repro.rpc.call import (
    Call,
    ConnectionHeader,
    Invocation,
    RemoteException,
    RpcStatus,
)
from repro.rpc.protocol import RpcProtocol, VersionMismatch
from repro.rpc.metrics import RpcMetrics
from repro.rpc.client import Client
from repro.rpc.server import Server
from repro.rpc.engine import RPC

__all__ = [
    "Call",
    "Client",
    "ConnectionHeader",
    "Invocation",
    "RemoteException",
    "RPC",
    "RpcMetrics",
    "RpcProtocol",
    "RpcStatus",
    "Server",
    "VersionMismatch",
]
