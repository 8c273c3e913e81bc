"""Edge-case tests across the serialization layer."""

import pytest

from repro.calibration import CostModel
from repro.io import (
    ArrayWritable,
    BytesWritable,
    DataInputBuffer,
    DataOutputBuffer,
    IntWritable,
    MapWritable,
    ObjectWritable,
    RDMAOutputStream,
    Text,
)
from repro.io.data_input import EndOfStream
from repro.mem import CostLedger, HistoryShadowPool, NativeBufferPool


@pytest.fixture
def ledger():
    return CostLedger(CostModel.default())


def test_nested_object_writables(ledger):
    """ObjectWritable envelopes nest through containers (RPC params can
    be arrays of tagged values)."""
    value = ArrayWritable([Text("a"), Text("b")])
    out = DataOutputBuffer(ledger)
    ObjectWritable(value).write(out)
    back = ObjectWritable.read(DataInputBuffer(out.get_data(), ledger))
    assert back == value


def test_map_of_arrays_roundtrip(ledger):
    value = MapWritable({Text("k"): ArrayWritable([IntWritable(1), IntWritable(2)])})
    out = DataOutputBuffer(ledger)
    value.write(out)
    back = MapWritable()
    back.read_fields(DataInputBuffer(out.get_data(), ledger))
    assert back == value


def test_negative_lengths_rejected_on_read(ledger):
    out = DataOutputBuffer(ledger)
    out.write_int(-5)  # poisoned length prefix
    out.write(b"junk")
    broken = BytesWritable()
    with pytest.raises(ValueError, match="negative"):
        broken.read_fields(DataInputBuffer(out.get_data(), ledger))


def test_truncated_stream_raises_eof(ledger):
    out = DataOutputBuffer(ledger)
    BytesWritable(b"x" * 100).write(out)
    truncated = out.get_data()[:50]
    broken = BytesWritable()
    with pytest.raises(EndOfStream):
        broken.read_fields(DataInputBuffer(truncated, ledger))


def test_empty_write_is_noop(ledger):
    buf = DataOutputBuffer(ledger)
    buf.write(b"")
    assert buf.get_length() == 0
    assert buf.adjustments == 0


def test_exact_capacity_write_does_not_adjust(ledger):
    buf = DataOutputBuffer(ledger, initial_size=8)
    buf.write(b"12345678")
    assert buf.adjustments == 0
    buf.write(b"9")
    assert buf.adjustments == 1


def test_rdma_stream_write_spanning_multiple_growths(ledger):
    pool = HistoryShadowPool(
        NativeBufferPool(CostModel.default(), [64, 128, 256, 512, 1024, 2048], 2)
    )
    out = RDMAOutputStream(pool, "P", "m", ledger)
    # default history size is 128: 128 -> 256 -> 512 -> 1024 -> 2048
    out.write(b"z" * 2000)
    assert out.grow_count == 4
    buf, length = out.detach()
    assert bytes(buf.data[:length]) == b"z" * 2000
    out.release()
    # next stream for this kind starts at the 2048 class directly
    warm = RDMAOutputStream(pool, "P", "m", ledger)
    assert warm.buffer.capacity == 2048


def test_oversized_message_beyond_largest_class(ledger):
    model = CostModel.default()
    pool = HistoryShadowPool(NativeBufferPool(model, [64, 128], 2))
    out = RDMAOutputStream(pool, "P", "big", ledger)
    out.write(b"q" * 1000)  # exceeds the largest class: dedicated buffer
    buf, length = out.detach()
    assert length == 1000
    assert buf.size_class == -1
    out.release()
    assert pool.native.outstanding == 0


def test_text_with_multibyte_vint_length(ledger):
    long_text = Text("x" * 300)  # vint length needs 2+ bytes
    out = DataOutputBuffer(ledger)
    long_text.write(out)
    back = Text()
    back.read_fields(DataInputBuffer(out.get_data(), ledger))
    assert back == long_text
