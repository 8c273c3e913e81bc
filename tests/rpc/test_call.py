"""Unit tests for wire-level RPC objects."""

import pytest

from repro.calibration import CostModel
from repro.io import DataInputBuffer, DataOutputBuffer, IntWritable, Text
from repro.mem import CostLedger
from repro.rpc import ConnectionHeader, Invocation, RemoteException, RpcStatus
from repro.rpc.protocol import RpcProtocol, VersionMismatch
from repro.simcore import Environment
from repro.rpc.call import Call, frame_chunks
from repro.rpc.mux import call_frame_bytes


@pytest.fixture
def ledger():
    return CostLedger(CostModel.default())


def test_invocation_roundtrip(ledger):
    inv = Invocation("getFileInfo", [Text("/user/x"), IntWritable(3)])
    out = DataOutputBuffer(ledger)
    inv.write(out)
    back = Invocation()
    back.read_fields(DataInputBuffer(out.get_data(), ledger))
    assert back.method == "getFileInfo"
    assert back.params == [Text("/user/x"), IntWritable(3)]


def test_invocation_no_params(ledger):
    inv = Invocation("renewLease", [])
    out = DataOutputBuffer(ledger)
    inv.write(out)
    back = Invocation()
    back.read_fields(DataInputBuffer(out.get_data(), ledger))
    assert back.method == "renewLease"
    assert back.params == []


def test_connection_header_roundtrip(ledger):
    hdr = ConnectionHeader("mapred.TaskUmbilicalProtocol", 19)
    out = DataOutputBuffer(ledger)
    hdr.write(out)
    back = ConnectionHeader()
    back.read_fields(DataInputBuffer(out.get_data(), ledger))
    assert back.protocol == "mapred.TaskUmbilicalProtocol"
    assert back.version == 19


@pytest.mark.parametrize("length", [0, 1, 8191, 8192, 8193, 20_000])
def test_frame_chunks_charges_listing1_at_the_buffer_boundary(length):
    """Listing 1 lines 10-13 as charges, in this order: the stream's
    8 KB heap buffer, ``writeInt(length)`` as a write op plus a 4-byte
    copy, then one copy of a message shorter than the buffer (a longer
    one is written straight through).  Float sums follow call order, so
    the framed ledger must equal the hand-charged one bit for bit."""
    message = memoryview(bytes(i % 251 for i in range(length)))
    framed = CostLedger(CostModel.default())
    chunks = frame_chunks(message, framed)
    by_hand = CostLedger(CostModel.default())
    by_hand.charge_heap_alloc(8192)
    by_hand.charge_write_op(4)
    by_hand.charge_copy(4)
    if length < 8192:
        by_hand.charge_copy(length)
    assert framed.total_us == by_hand.total_us
    assert framed.gc_debt_us == by_hand.gc_debt_us
    assert framed.by_category == by_hand.by_category
    assert framed.counts == by_hand.counts
    assert b"".join(chunks) == call_frame_bytes(message)


def test_rpc_status_values():
    assert int(RpcStatus.SUCCESS) == 0
    assert int(RpcStatus.ERROR) == 1


def test_remote_exception_carries_class_and_message():
    exc = RemoteException("java.io.IOException", "disk full")
    assert exc.class_name == "java.io.IOException"
    assert exc.message == "disk full"
    assert "disk full" in str(exc)


def test_call_completion():
    env = Environment()
    call = Call(7, "P", "m", [], env)
    call.complete(IntWritable(1))
    assert env.run(call.done) == IntWritable(1)


def test_call_error():
    env = Environment()
    call = Call(7, "P", "m", [], env)
    call.error(RemoteException("X", "y"))
    with pytest.raises(RemoteException):
        env.run(call.done)


def test_protocol_name_inherited_by_implementation():
    class MyProtocol(RpcProtocol):
        VERSION = 2

        def f(self):
            raise NotImplementedError

    class MyService(MyProtocol):
        def f(self):
            return None

    assert MyProtocol.protocol_name() == "MyProtocol"
    assert MyService.protocol_name() == "MyProtocol"


def test_protocol_explicit_name():
    class Named(RpcProtocol):
        PROTOCOL_NAME = "hdfs.ClientProtocol"

    assert Named.protocol_name() == "hdfs.ClientProtocol"


def test_version_check():
    class V5(RpcProtocol):
        VERSION = 5

    V5.check_version(5)
    with pytest.raises(VersionMismatch):
        V5.check_version(4)
