"""DataOutput: Java-compatible primitive encoding + Algorithm 1 buffers.

``DataOutputBuffer.write`` is the paper's Algorithm 1, verbatim: grow
by ``max(2*capacity, needed)``, copy old data, copy new data.  Its
adjustment counter is the source of Table I's "Avg. Mem Adjustment
Times" column.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.mem.cost import CostLedger

_INT = struct.Struct(">i")
_LONG = struct.Struct(">q")
_SHORT = struct.Struct(">h")
_FLOAT = struct.Struct(">f")
_DOUBLE = struct.Struct(">d")

#: Interned single-byte strings so byte-sized writes allocate nothing.
_BYTES = tuple(bytes((i,)) for i in range(256))  # sim-lint: disable=SIM008


def _jwrap(value: int, bits: int) -> int:
    """Java two's-complement wrap: keep the low ``bits`` of ``value``.

    Java's ``writeInt``/``writeLong``/``writeShort`` never range-check —
    an int that overflowed upstream simply truncates to its low bits.
    Python ints are unbounded, so emulate the truncation explicitly
    (``struct`` would raise instead).
    """
    masked = value & ((1 << bits) - 1)
    return masked - (1 << bits) if masked >= 1 << (bits - 1) else masked


class DataOutput:
    """Java ``DataOutput``'s shared encoders over an abstract raw ``write``.

    Subclasses implement :meth:`write` (raw bytes) and the fixed-width
    primitives (``write_int`` and the rest, which
    :class:`DataOutputBuffer` packs straight into its backing array);
    the encoders here build on both.  Every primitive charges one
    Writable write op to the ledger; bulk byte copies are charged by
    :meth:`write` implementations.
    """

    ledger: CostLedger

    # -- raw ------------------------------------------------------------
    def write(self, data: Union[bytes, bytearray, memoryview]) -> None:
        raise NotImplementedError

    def write_bytes_raw(self, data: bytes) -> None:
        """Bulk byte write counted as a single op (BytesWritable body)."""
        self.ledger.charge_write_op(len(data))
        self.write(data)

    def write_utf(self, text: str) -> None:
        """Java ``writeUTF``: 2-byte length + UTF-8 bytes."""
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"writeUTF string too long: {len(encoded)} bytes")
        self.write_short(len(encoded))
        self.ledger.charge_write_op(len(encoded))
        self.write(encoded)

    # -- Hadoop WritableUtils variable-length encodings -----------------------
    def write_vlong(self, value: int) -> None:
        """Hadoop ``WritableUtils.writeVLong`` encoding (1-9 bytes)."""
        self.ledger.charge_write_op(1)
        if -112 <= value <= 127:
            self.write(_BYTES[(value + 256) % 256])
            return
        length = -112
        if value < 0:
            value = ~value
            length = -120
        tmp = value
        while tmp != 0:
            tmp >>= 8
            length -= 1
        out = bytearray()
        out.append((length + 256) % 256)
        length = -(length + 120) if length < -120 else -(length + 112)
        for idx in range(length, 0, -1):
            shift = (idx - 1) * 8
            out.append((value >> shift) & 0xFF)
        self.write(out)

    def write_vint(self, value: int) -> None:
        self.write_vlong(value)


class DataOutputBuffer(DataOutput):
    """Growable in-memory output buffer — Listing 1's serialization target.

    Models a JVM heap ``byte[]`` with explicit capacity: the initial
    allocation and every Algorithm-1 growth charge heap-allocation
    (with zeroing + GC debt) and copy costs to the ledger.
    """

    def __init__(self, ledger: CostLedger, initial_size: int = 32):
        if initial_size < 1:
            raise ValueError(f"initial_size must be >= 1, got {initial_size}")
        self.ledger = ledger
        self.capacity = initial_size
        self.count = 0
        self._data = bytearray(initial_size)
        self.adjustments = 0
        ledger.charge_heap_alloc(initial_size)

    def write(self, data: Union[bytes, bytearray, memoryview]) -> None:
        """Algorithm 1: grow-if-needed (doubling), then copy new data."""
        length = len(data)
        new_count = self.count + length
        if new_count > self.capacity:
            self._grow(new_count)
        # copy new data
        self._data[self.count : new_count] = data
        self.ledger.charge_copy(length)
        self.count = new_count

    def _grow(self, new_count: int) -> None:
        """Algorithm-1 reallocation: ``max(double, needed)``, copy old data.

        A *new* backing bytearray is allocated every time (never an
        in-place resize): outstanding :meth:`get_view` exports keep the
        old buffer alive and valid, and resizing an exported bytearray
        would raise ``BufferError``.
        """
        new_capacity = max(self.capacity * 2, new_count)
        self.ledger.charge_heap_alloc(new_capacity)
        grown = bytearray(new_capacity)
        count = self.count
        with memoryview(self._data) as old:
            grown[:count] = old[:count]
        self.ledger.charge_copy(count)
        self._data = grown
        self.capacity = new_capacity
        self.adjustments += 1
        self.ledger.charge_adjustment()

    # -- zero-copy fixed-width primitives -------------------------------------
    # Each packs directly into the backing bytearray instead of
    # materializing a per-primitive bytes object.  Ledger charges follow
    # Java's order (write-op, growth charges if any, then the data copy)
    # — the ledger models the Java behaviour, not ours.

    def write_byte(self, value: int) -> None:
        self.ledger.charge_write_op(1)
        count = self.count
        new_count = count + 1
        if new_count > self.capacity:
            self._grow(new_count)
        self._data[count] = (value + 256) % 256
        self.ledger.charge_copy(1)
        self.count = new_count

    def write_boolean(self, value: bool) -> None:
        self.ledger.charge_write_op(1)
        count = self.count
        new_count = count + 1
        if new_count > self.capacity:
            self._grow(new_count)
        self._data[count] = 1 if value else 0
        self.ledger.charge_copy(1)
        self.count = new_count

    def write_short(self, value: int) -> None:
        self.ledger.charge_write_op(2)
        count = self.count
        new_count = count + 2
        if new_count > self.capacity:
            self._grow(new_count)
        _SHORT.pack_into(self._data, count, _jwrap(value, 16))
        self.ledger.charge_copy(2)
        self.count = new_count

    def write_int(self, value: int) -> None:
        self.ledger.charge_write_op(4)
        count = self.count
        new_count = count + 4
        if new_count > self.capacity:
            self._grow(new_count)
        _INT.pack_into(self._data, count, _jwrap(value, 32))
        self.ledger.charge_copy(4)
        self.count = new_count

    def write_long(self, value: int) -> None:
        self.ledger.charge_write_op(8)
        count = self.count
        new_count = count + 8
        if new_count > self.capacity:
            self._grow(new_count)
        _LONG.pack_into(self._data, count, _jwrap(value, 64))
        self.ledger.charge_copy(8)
        self.count = new_count

    def write_float(self, value: float) -> None:
        self.ledger.charge_write_op(4)
        count = self.count
        new_count = count + 4
        if new_count > self.capacity:
            self._grow(new_count)
        _FLOAT.pack_into(self._data, count, value)
        self.ledger.charge_copy(4)
        self.count = new_count

    def write_double(self, value: float) -> None:
        self.ledger.charge_write_op(8)
        count = self.count
        new_count = count + 8
        if new_count > self.capacity:
            self._grow(new_count)
        _DOUBLE.pack_into(self._data, count, value)
        self.ledger.charge_copy(8)
        self.count = new_count

    def get_data(self) -> bytes:
        """The serialized bytes written so far (Listing 1's ``getData``)."""
        with memoryview(self._data) as view:
            # A copy is this method's contract; hot paths use get_view().
            return bytes(view[: self.count])  # sim-lint: disable=SIM008

    def get_view(self) -> memoryview:
        """Zero-copy, length-bounded view of the serialized bytes.

        The view stays valid across later writes: growth allocates a new
        backing array (see :meth:`_grow`), so an exported view keeps
        observing the bytes it was taken over.  Charges nothing, exactly
        like :meth:`get_data` (Java's ``getData`` returns the backing
        array without copying).
        """
        return memoryview(self._data)[: self.count]

    def get_length(self) -> int:
        return self.count

    def reset(self) -> None:
        """Rewind for reuse (keeps the grown capacity, like Java)."""
        self.count = 0

