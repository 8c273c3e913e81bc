"""Unit tests for RDMAOutputStream and the RPCoIB receive side (Section III)."""

import pytest

from repro.calibration import CostModel
from repro.io import (
    BytesWritable,
    DataInputBuffer,
    DataOutputBuffer,
    RDMAOutputStream,
    Text,
)
from repro.mem import CostLedger, HistoryShadowPool, NativeBufferPool


@pytest.fixture
def model():
    return CostModel.default()


@pytest.fixture
def ledger(model):
    return CostLedger(model)


@pytest.fixture
def pool(model):
    return HistoryShadowPool(
        NativeBufferPool(model, [128, 256, 512, 1024, 2048, 4096], buffers_per_class=4)
    )


def test_serializes_into_native_buffer(pool, ledger):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    Text("hello").write(out)
    buf, length = out.detach()
    assert bytes(buf.data[1:length]) == b"hello"  # after 1-byte vint
    out.release()


def test_no_heap_allocations_on_serialize(pool, ledger):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    Text("x" * 100).write(out)
    out.detach()
    out.release()
    assert ledger.counts.allocations == 0
    assert ledger.gc_debt_us == 0.0


def test_growth_through_pool_preserves_prefix(pool, ledger):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    out.write(b"a" * 100)
    out.write(b"b" * 200)  # forces growth past 128
    buf, length = out.detach()
    assert length == 300
    assert bytes(buf.data[:100]) == b"a" * 100
    assert bytes(buf.data[100:300]) == b"b" * 200
    assert out.grown
    out.release()


def test_history_sizes_next_stream(pool, ledger):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    out.write(b"x" * 700)
    out.detach()
    out.release()
    second = RDMAOutputStream(pool, "P", "m", ledger)
    assert second.buffer.capacity == 1024
    second.write(b"x" * 700)
    assert not second.grown  # locality payoff: no adjustment


def test_write_after_detach_rejected(pool, ledger):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    out.detach()
    with pytest.raises(RuntimeError):
        out.write(b"x")


@pytest.mark.parametrize("close", ["detach", "release"])
def test_every_write_after_close_rejected(pool, ledger, close):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    getattr(out, close)()
    for write in (
        out.write_byte, out.write_boolean, out.write_short, out.write_int,
        out.write_long, out.write_float, out.write_double,
    ):
        with pytest.raises(RuntimeError):
            write(1)
    with pytest.raises(RuntimeError):
        out.write(b"")
    if close == "detach":
        out.release()
    assert pool.native.outstanding == 0


def test_double_release_rejected(pool, ledger):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    out.release()
    with pytest.raises(RuntimeError):
        out.release()
    with pytest.raises(RuntimeError):
        out.detach()


def test_rdma_serialization_cheaper_than_default_for_grown_messages(model, pool):
    """The core Section III claim, mechanically: serializing a message
    that outgrows the default 32-byte buffer costs less through the
    pooled RDMA stream than through DataOutputBuffer."""
    payload = BytesWritable(b"z" * 2048)
    # warm the history so the comparison is steady-state
    warm = CostLedger(model)
    stream = RDMAOutputStream(pool, "P", "m", warm)
    payload.write(stream)
    stream.detach()
    stream.release()

    default_ledger = CostLedger(model)
    default_buf = DataOutputBuffer(default_ledger, initial_size=32)
    payload.write(default_buf)

    rdma_ledger = CostLedger(model)
    rdma_stream = RDMAOutputStream(pool, "P", "m", rdma_ledger)
    payload.write(rdma_stream)
    rdma_stream.detach()
    rdma_stream.release()

    assert rdma_ledger.total_us < default_ledger.total_us
    assert default_ledger.gc_debt_us > 0 == rdma_ledger.gc_debt_us


# ------------------------------------------------------ RPCoIB receive side
def test_input_reads_from_native_buffer(pool, ledger):
    out = RDMAOutputStream(pool, "P", "m", ledger)
    Text("round").write(out)
    buf, length = out.detach()
    inp = DataInputBuffer(memoryview(buf.data)[:length], ledger)
    t = Text()
    t.read_fields(inp)
    assert t.value == "round"
    assert inp.remaining == 0
    out.release()


def test_input_accepts_raw_bytes(ledger):
    inp = DataInputBuffer(b"\x00\x00\x00\x07", ledger)
    assert inp.read_int() == 7


def test_input_no_receive_side_allocation(pool, ledger):
    """Listing 2's per-call ByteBuffer.allocate disappears in the RDMA
    path: decoding primitives from a completion's bytes allocates
    nothing."""
    out = RDMAOutputStream(pool, "P", "m", ledger)
    out.write_int(42)
    buf, length = out.detach()
    payload = bytes(buf.data[:length])  # the post_send snapshot
    fresh = CostLedger(ledger.model)
    inp = DataInputBuffer(payload, fresh)
    assert inp.read_int() == 42
    assert fresh.counts.allocations == 0
    out.release()
