"""Property-based tests for serialization invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import CostModel
from repro.io import (
    BytesWritable,
    DataInputBuffer,
    DataOutputBuffer,
    IntWritable,
    LongWritable,
    MapWritable,
    RDMAOutputStream,
    Text,
    VLongWritable,
)
from repro.mem import CostLedger, HistoryShadowPool, NativeBufferPool


def fresh_ledger():
    return CostLedger(CostModel.default())


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
@settings(max_examples=300, deadline=None)
def test_vlong_roundtrip_full_range(value):
    ledger = fresh_ledger()
    out = DataOutputBuffer(ledger)
    out.write_vlong(value)
    inp = DataInputBuffer(out.get_data(), ledger)
    assert inp.read_vlong() == value
    assert inp.remaining == 0


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_vlong_size_bounds(value):
    """Hadoop's vlong is always 1-9 bytes, shorter for small magnitudes."""
    ledger = fresh_ledger()
    out = DataOutputBuffer(ledger)
    out.write_vlong(value)
    size = out.get_length()
    assert 1 <= size <= 9
    if -112 <= value <= 127:
        assert size == 1


@given(st.text(max_size=500))
@settings(max_examples=200, deadline=None)
def test_text_roundtrip_any_unicode(value):
    ledger = fresh_ledger()
    out = DataOutputBuffer(ledger)
    Text(value).write(out)
    inp = DataInputBuffer(out.get_data(), ledger)
    t = Text()
    t.read_fields(inp)
    assert t.value == value


@given(st.binary(max_size=5000))
@settings(max_examples=150, deadline=None)
def test_bytes_writable_roundtrip(payload):
    ledger = fresh_ledger()
    out = DataOutputBuffer(ledger)
    BytesWritable(payload).write(out)
    inp = DataInputBuffer(out.get_data(), ledger)
    b = BytesWritable()
    b.read_fields(inp)
    assert b.value == payload


@given(st.lists(st.binary(max_size=200), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_algorithm1_capacity_invariants(chunks):
    """After any write sequence: count <= capacity, capacity >= initial,
    and data equals the concatenation of the chunks."""
    ledger = fresh_ledger()
    buf = DataOutputBuffer(ledger, initial_size=32)
    for chunk in chunks:
        buf.write(chunk)
    joined = b"".join(chunks)
    assert buf.get_data() == joined
    assert buf.get_length() == len(joined) <= buf.capacity
    assert buf.capacity >= 32


@given(st.lists(st.binary(max_size=200), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_adjustment_count_matches_closed_form(chunks):
    """Adjustments happen exactly when cumulative size crosses capacity,
    with capacity' = max(2*capacity, needed)."""
    ledger = fresh_ledger()
    buf = DataOutputBuffer(ledger, initial_size=32)
    capacity, count, expected = 32, 0, 0
    for chunk in chunks:
        count += len(chunk)
        if count > capacity:
            capacity = max(capacity * 2, count)
            expected += 1
        buf.write(chunk)
    assert buf.adjustments == expected
    assert buf.capacity == capacity


@given(
    st.lists(st.binary(min_size=1, max_size=3000), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_rdma_stream_roundtrip_any_chunks(chunks):
    model = CostModel.default()
    pool = HistoryShadowPool(
        NativeBufferPool(model, [128, 512, 2048, 8192, 32768], buffers_per_class=2)
    )
    ledger = CostLedger(model)
    out = RDMAOutputStream(pool, "P", "m", ledger)
    for chunk in chunks:
        out.write(chunk)
    buf, length = out.detach()
    inp = DataInputBuffer(memoryview(buf.data)[:length], ledger)
    assert inp.read(length) == b"".join(chunks)
    out.release()
    assert pool.native.outstanding == 0


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=20),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        max_size=10,
    )
)
@settings(max_examples=100, deadline=None)
def test_map_writable_roundtrip(entries):
    ledger = fresh_ledger()
    m = MapWritable({Text(k): IntWritable(v) for k, v in entries.items()})
    out = DataOutputBuffer(ledger)
    m.write(out)
    inp = DataInputBuffer(out.get_data(), ledger)
    back = MapWritable()
    back.read_fields(inp)
    assert back == m
