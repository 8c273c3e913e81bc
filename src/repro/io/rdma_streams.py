"""RDMA-backed, Java-IO-compatible output stream — Section III-A.

``RDMAOutputStream`` serializes *directly* into a pooled, pre-registered
native buffer (wrapped as a DirectByteBuffer in the real system): no
JVM heap intermediates, no Algorithm-1 reallocation, no heap->native
copy before the NIC reads the data.  Growth, when the size-history
predictor under-shoots, doubles through the native pool
(:class:`~repro.mem.shadow_pool.HistoryShadowPool`).

The receive side (Section III-B) needs no stream class of its own: a
verbs completion carries the payload as ``bytes``, which
:class:`~repro.io.data_input.DataInputBuffer` decodes without copying.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.io.data_output import DataOutputBuffer
from repro.mem.cost import CostLedger
from repro.mem.native_pool import NativeBuffer
from repro.mem.shadow_pool import HistoryShadowPool


class RDMAOutputStream(DataOutputBuffer):
    """Serializer writing into a history-sized pooled native buffer.

    Lifecycle::

        out = RDMAOutputStream(pool, "ClientProtocol", "getFileInfo", ledger)
        ... writable.write(out) ...
        buffer, length = out.detach()     # hand to the transport
        ... transport sends; on completion ...
        out.release()                     # updates history, returns buffer

    The encoders are :class:`DataOutputBuffer`'s; only the backing
    buffer differs: it comes from the pool and :meth:`_grow` doubles it
    through the pool.  The stream auto-maintains the message length
    (one of the conveniences the paper credits the RDMA stream classes
    with).
    """

    def __init__(
        self,
        pool: HistoryShadowPool,
        protocol: str,
        method: str,
        ledger: CostLedger,
    ):
        self.pool = pool
        self.protocol = protocol
        self.method = method
        self.ledger = ledger
        self.buffer: Optional[NativeBuffer] = pool.acquire(protocol, method, ledger)
        self._data = self.buffer.data
        self.capacity = self.buffer.capacity
        self.count = 0
        self.grown = False
        #: number of pool-doubling events (RPCoIB's analogue of Table
        #: I's memory-adjustment count — near zero once history warms).
        self.grow_count = 0
        self._detached = False

    def _grow(self, new_count: int) -> None:
        """Pool-backed doubling: native-to-native copy only.

        :meth:`detach` and :meth:`release` set ``capacity`` to -1, so
        every later write lands here and is rejected.
        """
        if self.buffer is None:
            raise RuntimeError("stream is closed")
        if self._detached:
            raise RuntimeError("stream already detached")
        while new_count > self.buffer.capacity:
            self.buffer = self.pool.grow(self.buffer, self.count, self.ledger)
            self.grown = True
            self.grow_count += 1
        self._data = self.buffer.data
        self.capacity = self.buffer.capacity

    def detach(self) -> Tuple[NativeBuffer, int]:
        """Freeze and expose (buffer, length) for the transport to send."""
        if self.buffer is None:
            raise RuntimeError("stream is closed")
        self._detached = True
        self.capacity = -1
        return self.buffer, self.count

    def release(self) -> None:
        """Return the buffer to the pool and update the size history."""
        if self.buffer is None:
            raise RuntimeError("stream already released")
        self.pool.release(
            self.buffer,
            self.protocol,
            self.method,
            self.count,
            self.ledger,
            grown=self.grown,
        )
        self.buffer = None
        self.capacity = -1
