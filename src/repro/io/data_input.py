"""DataInput: Java-compatible primitive decoding over byte buffers."""

from __future__ import annotations

import struct
from typing import Union

from repro.mem.cost import CostLedger

_INT = struct.Struct(">i")
_LONG = struct.Struct(">q")
_SHORT = struct.Struct(">h")
_FLOAT = struct.Struct(">f")
_DOUBLE = struct.Struct(">d")


class EndOfStream(EOFError):
    """Raised when a read runs past the available data."""


class DataInput:
    """Java ``DataInput`` primitives over an in-memory byte string.

    Subclasses set ``_data`` (the bytes to decode), ``ledger`` and
    ``position``.  Primitives charge one Writable read op each; bulk
    reads charge a copy (Java ``readFully`` copies into a caller array).
    """

    _data: bytes
    ledger: CostLedger
    position: int

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError(f"negative read size {n}")
        end = self.position + n
        if end > len(self._data):
            raise EndOfStream(
                f"read past end: want {n} at {self.position}, have {len(self._data)}"
            )
        chunk = self._data[self.position : end]
        self.position = end
        return chunk

    # -- zero-allocation primitives --------------------------------------------
    # Decode with unpack_from/indexing at the current position instead of
    # slicing a per-primitive bytes object out of the buffer.  The ledger
    # charges model Java's readX, not the host's allocations.

    def read_byte(self) -> int:
        self.ledger.charge_read_op(1)
        pos = self.position
        if pos + 1 > len(self._data):
            self.read(1)  # raises EndOfStream with the canonical message
        self.position = pos + 1
        value = self._data[pos]
        return value - 256 if value > 127 else value

    def read_unsigned_byte(self) -> int:
        self.ledger.charge_read_op(1)
        pos = self.position
        if pos + 1 > len(self._data):
            self.read(1)
        self.position = pos + 1
        return self._data[pos]

    def read_boolean(self) -> bool:
        self.ledger.charge_read_op(1)
        pos = self.position
        if pos + 1 > len(self._data):
            self.read(1)
        self.position = pos + 1
        return self._data[pos] != 0

    def read_short(self) -> int:
        self.ledger.charge_read_op(2)
        pos = self.position
        if pos + 2 > len(self._data):
            self.read(2)
        self.position = pos + 2
        return _SHORT.unpack_from(self._data, pos)[0]

    def read_int(self) -> int:
        self.ledger.charge_read_op(4)
        pos = self.position
        if pos + 4 > len(self._data):
            self.read(4)
        self.position = pos + 4
        return _INT.unpack_from(self._data, pos)[0]

    def read_long(self) -> int:
        self.ledger.charge_read_op(8)
        pos = self.position
        if pos + 8 > len(self._data):
            self.read(8)
        self.position = pos + 8
        return _LONG.unpack_from(self._data, pos)[0]

    def read_float(self) -> float:
        self.ledger.charge_read_op(4)
        pos = self.position
        if pos + 4 > len(self._data):
            self.read(4)
        self.position = pos + 4
        return _FLOAT.unpack_from(self._data, pos)[0]

    def read_double(self) -> float:
        self.ledger.charge_read_op(8)
        pos = self.position
        if pos + 8 > len(self._data):
            self.read(8)
        self.position = pos + 8
        return _DOUBLE.unpack_from(self._data, pos)[0]

    def read_fully(self, n: int) -> bytes:
        """Bulk read of ``n`` bytes into a caller array (one raw copy —
        no per-byte decode cost, unlike field-structured reads)."""
        self.ledger.charge_read_op(0)
        self.ledger.charge_copy(n)
        return self.read(n)

    def read_utf(self) -> str:
        """Java ``readUTF``: unsigned 2-byte length + UTF-8 bytes."""
        length = self.read_short() & 0xFFFF
        self.ledger.charge_read_op(length)
        return self.read(length).decode("utf-8")

    # -- Hadoop WritableUtils variable-length decodings ------------------------
    def read_vlong(self) -> int:
        self.ledger.charge_read_op(1)
        first = self.read(1)[0]
        first = first - 256 if first > 127 else first
        if first >= -112:
            return first
        negative = first < -120
        # Hadoop's decodeVIntSize counts the header byte; payload is one less.
        size = ((-119 - first) if negative else (-111 - first)) - 1
        value = 0
        for byte in self.read(size):
            value = (value << 8) | byte
        return ~value if negative else value

    def read_vint(self) -> int:
        value = self.read_vlong()
        if not -(2**31) <= value < 2**31:
            raise ValueError(f"vint out of int range: {value}")
        return value

    @property
    def remaining(self) -> int:
        return len(self._data) - self.position


class DataInputBuffer(DataInput):
    """DataInput over an in-memory byte string (Listing 2's reader)."""

    def __init__(self, data: Union[bytes, bytearray, memoryview], ledger: CostLedger):
        if type(data) is bytes:
            self._data = data
        else:
            # Snapshot mutable inputs once so reads stay stable even if
            # the caller recycles the underlying buffer.
            self._data = bytes(data)  # sim-lint: disable=SIM008
        self.ledger = ledger
        self.position = 0
