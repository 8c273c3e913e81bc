"""Wire-level RPC objects: Invocation, Call, headers, status, errors."""

from __future__ import annotations

import enum
import re
from typing import List, Optional

from repro.io.buffered import BufferedOutputStream, VectorSink
from repro.io.data_input import DataInput
from repro.io.data_output import DataOutput, DataOutputStream
from repro.mem.cost import CostLedger
from repro.io.writable import ObjectWritable, Writable, writable_factory


class RpcStatus(enum.IntEnum):
    """Server response status byte."""

    SUCCESS = 0
    ERROR = 1
    FATAL = 2


class RemoteException(RuntimeError):
    """An exception raised inside the server, rethrown at the client."""

    def __init__(self, class_name: str, message: str):
        super().__init__(f"{class_name}: {message}")
        self.class_name = class_name
        self.message = message


class ServerOverloadedException(RemoteException):
    """The server's call queue was full; the client backs off and retries.

    Hadoop analogue: the ``RetriableException`` family the IPC server
    throws under call-queue pressure.
    """

    CLASS_NAME = "ServerOverloadedException"

    def __init__(self, message: str = "call queue full"):
        super().__init__(self.CLASS_NAME, message)


class StandbyException(RemoteException):
    """The call landed on the standby of an HA pair.

    Hadoop analogue: ``org.apache.hadoop.ipc.StandbyException``.  The
    operation is *not* retried on the same server — a
    :class:`~repro.rpc.failover.FailoverProxy` catches it and re-issues
    the call against the other NameNode of the pair.
    """

    CLASS_NAME = "StandbyException"

    def __init__(self, message: str = "operation not supported in state standby"):
        super().__init__(self.CLASS_NAME, message)


class RetriableException(RemoteException):
    """Priority-aware backoff rejection (Hadoop's ``RetriableException``).

    Thrown by the :class:`~repro.rpc.callqueue.FairCallQueue` with
    ``ipc.backoff.enable`` when an over-limit tenant's sub-queue is
    full.  Errors cross the wire as ``(class_name, message)`` strings
    only, so the server-suggested backoff rides inside the message text
    and :meth:`from_wire` parses it back out at the client.
    """

    CLASS_NAME = "RetriableException"

    _BACKOFF_RE = re.compile(r"retry after (\d+)us")

    def __init__(self, message: str, backoff_us: float = 0.0):
        super().__init__(self.CLASS_NAME, message)
        self.backoff_us = backoff_us

    @staticmethod
    def wire_message(priority: int, backoff_us: float) -> str:
        return (
            f"priority {priority} call queue full; "
            f"retry after {backoff_us:.0f}us"
        )

    @classmethod
    def from_wire(cls, message: str) -> "RetriableException":
        match = cls._BACKOFF_RE.search(message)
        backoff_us = float(match.group(1)) if match else 0.0
        return cls(message, backoff_us)


class RpcTimeoutError(ConnectionError):
    """A call exceeded ``ipc.client.call.timeout`` on the sim clock."""


class RetriesExhaustedError(ConnectionError):
    """Connect/call retries ran out; ``cause`` is the last failure."""

    def __init__(self, message: str, attempts: int = 0, cause=None):
        super().__init__(message)
        self.attempts = attempts
        self.cause = cause


#: Reserved call id for connection-keepalive ping frames (Hadoop's
#: ``Client.PING_CALL_ID``); never allocated to a real call.
PING_CALL_ID = -1

#: Reserved call id prefacing a *batched* frame from a multiplexed
#: client (:mod:`repro.rpc.mux`).  The frame payload carries
#: ``[BATCH_CALL_ID][count]`` followed by ``count`` length-prefixed
#: per-call frames, each byte-identical to what the call-at-a-time path
#: would have framed on its own.  A server that has decoded one marks
#: the connection batch-aware and may merge its responses the same way.
BATCH_CALL_ID = -2


def frame_chunks(message, ledger: CostLedger) -> list:
    """Length-prefix a serialized ``message`` view for a socket stream,
    through the buffered stream path (Listing 1 lines 10-13), charging
    its copies.

    Returns the frame as a list of chunks (gather write): the message
    travels as a zero-copy view and the transport materializes the wire
    image exactly once.
    """
    sink = VectorSink()
    buffered = BufferedOutputStream(sink, ledger)
    out = DataOutputStream(buffered, ledger)
    out.write_int(len(message))
    buffered.write_bytes(message)
    out.flush()
    return sink.chunks


@writable_factory
class Invocation(Writable):
    """A method invocation: method name + positional Writable params.

    This is Hadoop's ``WritableRpcEngine.Invocation``: the parameters
    travel as tagged :class:`ObjectWritable` envelopes so the server
    can rebuild them reflectively.
    """

    def __init__(self, method: str = "", params: Optional[List[Writable]] = None):
        self.method = method
        self.params: List[Writable] = list(params or [])

    def write(self, out: DataOutput) -> None:
        out.write_utf(self.method)
        out.write_int(len(self.params))
        for param in self.params:
            ObjectWritable(param).write(out)

    def read_fields(self, inp: DataInput) -> None:
        self.method = inp.read_utf()
        count = inp.read_int()
        if count < 0:
            raise ValueError(f"negative parameter count {count}")
        self.params = [ObjectWritable.read(inp) for _ in range(count)]


@writable_factory
class ConnectionHeader(Writable):
    """Sent once per connection: protocol name + version."""

    def __init__(self, protocol: str = "", version: int = 1):
        self.protocol = protocol
        self.version = version

    def write(self, out: DataOutput) -> None:
        out.write_utf(self.protocol)
        out.write_int(self.version)

    def read_fields(self, inp: DataInput) -> None:
        self.protocol = inp.read_utf()
        self.version = inp.read_int()


class Call:
    """Client-side bookkeeping for one outstanding RPC.

    ``done`` fires with the deserialized return Writable (or fails with
    :class:`RemoteException`).
    """

    __slots__ = (
        "id", "protocol", "method", "params", "done", "started_at",
        "deadline", "span",
    )

    def __init__(
        self, call_id: int, protocol: str, method: str, params, env,
        deadline: Optional[float] = None,
    ):
        self.id = call_id
        self.protocol = protocol
        self.method = method
        self.params = params
        self.done = env.event()
        self.started_at = env.now
        #: absolute sim time after which the call times out (None = no
        #: timeout); enforced by the connection's keeper process.
        self.deadline = deadline
        #: the call's root tracing span (repro.obs); NULL_SPAN when
        #: tracing is disabled so annotation sites stay branch-free.
        self.span = None

    def complete(self, value: Writable) -> None:
        self.done.succeed(value)

    def error(self, exc: Exception) -> None:
        # Pre-defuse: a failed call nobody is waiting on (the caller
        # already gave up, or the failure races the retry loop) must not
        # crash the scheduler.  Waiting processes still get the
        # exception thrown — delivery checks _ok, not _defused.
        self.done.fail(exc)
        self.done.defuse()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Call #{self.id} {self.protocol}.{self.method}>"
