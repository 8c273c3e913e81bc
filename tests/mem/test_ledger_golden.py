"""Ledger-equivalence gates for the serialization codecs.

The fast path changes *how* bytes move on the host (pack_into into the
backing array, views instead of copies) but must charge the simulated
ledger exactly as the original code did — the ledger models Java's
behavior (Table I), not ours.  The first probe drives every primitive
write plus the buffered framing path and compares totals,
per-category breakdown, and op counts against a fixture captured
before the fast path landed.  The second probe does the same for the
RPCoIB codec: an ``RDMAOutputStream`` over a small-class pool (with
pool doublings), detached to the ``bytes`` snapshot ``post_send``
takes, then decoded by the verbs-side reader on a fresh ledger.
"""

import json
from pathlib import Path

from repro.calibration import CostModel
from repro.io.buffered import BufferedOutputStream, BytesSink
from repro.io.data_input import DataInputBuffer
from repro.io.data_output import DataOutputBuffer, DataOutputStream
from repro.io.rdma_streams import RDMAOutputStream
from repro.mem.cost import CostLedger
from repro.mem.native_pool import NativeBufferPool
from repro.mem.shadow_pool import HistoryShadowPool

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "golden_ledger_probe.json"
RDMA_FIXTURE = FIXTURES / "golden_rdma_ledger_probe.json"


def charges(ledger):
    counts = ledger.counts
    return {
        "total_us": ledger.total_us,
        "gc_debt_us": ledger.gc_debt_us,
        "by_category": dict(ledger.by_category),
        "counts": {
            "allocations": counts.allocations,
            "alloc_bytes": counts.alloc_bytes,
            "copies": counts.copies,
            "copy_bytes": counts.copy_bytes,
            "adjustments": counts.adjustments,
            "write_ops": counts.write_ops,
            "read_ops": counts.read_ops,
        },
    }


def write_primitives(out):
    out.write_int(0x12345678)
    out.write_long(-1)
    out.write_short(300)
    out.write_byte(7)
    out.write_boolean(True)
    out.write_float(1.5)
    out.write_double(2.75)
    out.write_utf("hello world")
    out.write_vlong(123456789)
    out.write(b"x" * 1000)


def probe():
    ledger = CostLedger(CostModel())
    buf = DataOutputBuffer(ledger)
    write_primitives(buf)
    sink = BytesSink()
    buffered = BufferedOutputStream(sink, ledger, buffer_size=256)
    out = DataOutputStream(buffered, ledger)
    out.write_int(buf.get_length())
    buffered.write_bytes(buf.get_data())
    out.flush()
    return {
        **charges(ledger),
        "payload_len": buf.get_length(),
        "framed": len(sink.getvalue()),
    }


def rdma_probe():
    model = CostModel()
    # 16-byte first buffer: a primitive (write_float), the UTF body and
    # the 1000-byte chunk each force pool doublings.
    classes = [16 << i for i in range(8)]  # 16 .. 2048
    pool = HistoryShadowPool(
        NativeBufferPool(model, classes, buffers_per_class=2), default_size=16
    )
    writer = CostLedger(model)
    out = RDMAOutputStream(pool, "P", "m", writer)
    write_primitives(out)
    buffer, length = out.detach()
    payload = bytes(buffer.data[:length])  # the post_send snapshot
    out.release()
    reader = CostLedger(model)
    inp = DataInputBuffer(payload, reader)
    decoded = [
        inp.read_int(),
        inp.read_long(),
        inp.read_short(),
        inp.read_byte(),
        inp.read_boolean(),
        inp.read_float(),
        inp.read_double(),
        inp.read_utf(),
        inp.read_vlong(),
    ]
    body = inp.read_fully(1000)
    assert decoded == [
        0x12345678, -1, 300, 7, True, 1.5, 2.75, "hello world", 123456789,
    ]
    assert body == b"x" * 1000 and inp.remaining == 0
    return {
        "writer": charges(writer),
        "reader": charges(reader),
        "payload_len": length,
        "grow_count": out.grow_count,
        "pool_outstanding": pool.native.outstanding,
    }


def test_ledger_charges_match_pre_fast_path_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert probe() == golden


def test_ledger_probe_is_deterministic():
    assert probe() == probe()


def test_rdma_codec_ledger_matches_fixture():
    golden = json.loads(RDMA_FIXTURE.read_text(encoding="utf-8"))
    assert rdma_probe() == golden


def test_rdma_probe_is_deterministic():
    assert rdma_probe() == rdma_probe()
