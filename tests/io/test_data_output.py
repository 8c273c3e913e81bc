"""Unit tests for DataOutput/DataOutputBuffer (the paper's Algorithm 1)."""

import struct

import pytest

from repro.calibration import CostModel
from repro.io import BufferedOutputStream, BytesSink, DataOutputBuffer, DataOutputStream
from repro.mem import CostLedger


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


# --------------------------------------------------------- stream + buffered
def test_data_output_stream_writes_through(ledger):
    sink = BytesSink()
    out = DataOutputStream(sink, ledger)
    out.write_int(258)
    out.flush()
    assert sink.getvalue() == b"\x00\x00\x01\x02"
    assert out.written == 4


def test_buffered_stream_batches_small_writes(ledger):
    sink = BytesSink()
    buffered = BufferedOutputStream(sink, ledger, buffer_size=16)
    buffered.write_bytes(b"aaaa")
    buffered.write_bytes(b"bbbb")
    assert sink.chunks == []  # still buffered
    buffered.flush()
    assert sink.getvalue() == b"aaaabbbb"


def test_buffered_stream_flushes_when_full(ledger):
    sink = BytesSink()
    buffered = BufferedOutputStream(sink, ledger, buffer_size=8)
    buffered.write_bytes(b"aaaa")
    buffered.write_bytes(b"bbbbb")  # 4+5 > 8: flush first
    assert sink.chunks == [b"aaaa"]
    buffered.flush()
    assert sink.getvalue() == b"aaaabbbbb"


def test_buffered_stream_writes_large_directly(ledger):
    sink = BytesSink()
    buffered = BufferedOutputStream(sink, ledger, buffer_size=8)
    copies_before = ledger.counts.copy_bytes
    buffered.write_bytes(b"x" * 100)
    assert sink.chunks == [b"x" * 100]
    assert ledger.counts.copy_bytes == copies_before  # no buffering copy


def test_buffered_stream_charges_buffer_alloc(ledger):
    allocs = ledger.counts.allocations
    BufferedOutputStream(BytesSink(), ledger, buffer_size=8192)
    assert ledger.counts.allocations == allocs + 1
    assert ledger.counts.alloc_bytes >= 8192


def test_buffered_stream_size_validated(ledger):
    with pytest.raises(ValueError):
        BufferedOutputStream(BytesSink(), ledger, buffer_size=0)
