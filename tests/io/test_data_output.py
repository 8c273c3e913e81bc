"""Unit tests for DataOutputBuffer (the paper's Algorithm 1) and the socket
framing charges of Listing 1's buffered stream."""

import struct

import pytest

from repro.calibration import CostModel
from repro.io import DataOutputBuffer
from repro.mem import CostLedger
from repro.rpc.call import frame_chunks


@pytest.fixture
def ledger():
    return CostLedger(CostModel.default())


@pytest.fixture
def buf(ledger):
    return DataOutputBuffer(ledger)


# --------------------------------------------------------------- primitives
def test_write_int_big_endian(buf):
    buf.write_int(0x01020304)
    assert buf.get_data() == b"\x01\x02\x03\x04"


def test_write_negative_int(buf):
    buf.write_int(-1)
    assert buf.get_data() == b"\xff\xff\xff\xff"


def test_write_long(buf):
    buf.write_long(2**40)
    assert buf.get_data() == struct.pack(">q", 2**40)


def test_write_boolean(buf):
    buf.write_boolean(True)
    buf.write_boolean(False)
    assert buf.get_data() == b"\x01\x00"


def test_write_byte_wraps_signed(buf):
    buf.write_byte(-1)
    buf.write_byte(127)
    assert buf.get_data() == b"\xff\x7f"


def test_write_float_double(buf):
    buf.write_float(1.5)
    buf.write_double(-2.25)
    assert buf.get_data() == struct.pack(">f", 1.5) + struct.pack(">d", -2.25)


def test_write_utf(buf):
    buf.write_utf("héllo")
    encoded = "héllo".encode("utf-8")
    assert buf.get_data() == struct.pack(">h", len(encoded)) + encoded


def test_write_utf_too_long_rejected(buf):
    with pytest.raises(ValueError):
        buf.write_utf("x" * 70_000)
    with pytest.raises(ValueError):
        buf.write_utf("x" * 65_536)  # one past the unsigned-short length


# ------------------------------------------------------ vint/vlong encoding
@pytest.mark.parametrize(
    "value,size",
    [
        (0, 1),
        (127, 1),
        (-112, 1),
        (128, 2),
        (-113, 2),
        (255, 2),
        (256, 3),
        (2**16, 4),
        (2**24 - 1, 4),
        (2**31 - 1, 5),
        (-(2**31), 5),
        (2**62, 9),
        (-(2**62), 9),
    ],
)
def test_vlong_encoded_sizes_match_hadoop(buf, value, size):
    buf.write_vlong(value)
    assert buf.get_length() == size


def test_vlong_single_byte_values(buf):
    buf.write_vlong(5)
    assert buf.get_data() == b"\x05"


# ---------------------------------------------------------------- Algorithm 1
def test_initial_allocation_charged(ledger):
    DataOutputBuffer(ledger, initial_size=32)
    assert ledger.counts.allocations == 1
    assert ledger.counts.alloc_bytes == 32


def test_initial_size_validated(ledger):
    with pytest.raises(ValueError):
        DataOutputBuffer(ledger, initial_size=0)


def test_no_adjustment_within_capacity(buf):
    buf.write(b"x" * 32)
    assert buf.adjustments == 0


def test_adjustment_doubles_capacity(buf):
    buf.write(b"x" * 33)
    assert buf.adjustments == 1
    assert buf.capacity == 64


def test_adjustment_jumps_to_needed_size(buf):
    buf.write(b"x" * 1000)
    assert buf.adjustments == 1
    assert buf.capacity == 1000  # max(64, 1000)


def test_incremental_writes_double_repeatedly(ledger):
    """A 600-byte message written in small pieces: 32->64->128->256->512->1024,
    i.e. 5 adjustments — the statusUpdate row of Table I."""
    buf = DataOutputBuffer(ledger, initial_size=32)
    for _ in range(150):  # 150 x 4-byte writes = 600 bytes
        buf.write_int(7)
    assert buf.get_length() == 600
    assert buf.adjustments == 5
    assert buf.capacity == 1024


def test_small_message_two_adjustments(ledger):
    """~100-byte message: 32->64->128, 2 adjustments — the getTask row."""
    buf = DataOutputBuffer(ledger, initial_size=32)
    for _ in range(25):
        buf.write_int(1)
    assert buf.adjustments == 2


def test_larger_initial_buffer_avoids_adjustments(ledger):
    buf = DataOutputBuffer(ledger, initial_size=10 * 1024)
    for _ in range(150):
        buf.write_int(7)
    assert buf.adjustments == 0


def test_growth_copies_old_data(ledger):
    buf = DataOutputBuffer(ledger, initial_size=4)
    buf.write(b"abcd")
    copies_before = ledger.counts.copy_bytes
    buf.write(b"ef")
    assert buf.get_data() == b"abcdef"
    # old 4 bytes copied to the new buffer + 2 new bytes copied in
    assert ledger.counts.copy_bytes == copies_before + 4 + 2


def test_adjustment_cost_grows_serialization_time(ledger):
    """The Section II claim: more adjustments => longer serialization."""
    few = CostLedger(CostModel.default())
    many = CostLedger(CostModel.default())
    big = DataOutputBuffer(few, initial_size=10 * 1024)
    small = DataOutputBuffer(many, initial_size=32)
    for _ in range(500):
        big.write_int(7)
        small.write_int(7)
    assert small.adjustments > 0 == big.adjustments
    assert many.total_us > few.total_us


def test_reset_keeps_capacity(buf):
    buf.write(b"x" * 100)
    cap = buf.capacity
    buf.reset()
    assert buf.get_length() == 0
    assert buf.capacity == cap
    buf.write(b"y" * 100)
    assert buf.adjustments == 1  # no new adjustment after reset


# ------------------------------------------- Listing 1 framing (rpc.call)
def test_buffered_stream_writes_large_directly(ledger):
    """A message at least as long as Listing 1's 8 KB stream buffer is
    written straight through: only the length prefix is copied."""
    message = b"x" * 8192
    chunks = frame_chunks(message, ledger)
    assert chunks[-1] is message
    assert ledger.counts.copy_bytes == 4  # the length prefix alone


def test_buffered_stream_charges_buffer_alloc(ledger):
    """Every framed message allocates one 8 KB stream buffer."""
    for frames in (1, 2):
        frame_chunks(b"ping", ledger)
        assert ledger.counts.allocations == frames
        assert ledger.counts.alloc_bytes == frames * 8192

