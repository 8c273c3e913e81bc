"""Java-IO and Hadoop Writable serialization layer (emulated, byte-exact).

This package re-implements the serialization machinery the paper
analyzes in Section II — ``DataOutputBuffer`` with its Algorithm 1
growth policy and the ``Writable`` type system — and the Section III
replacement, ``RDMAOutputStream``, which serializes straight into
pooled, pre-registered native buffers.  The RPCoIB receive side
decodes a completion's bytes with the same ``DataInputBuffer`` the
socket path uses.  Listing 1's buffered socket stream is only a cost,
charged by :func:`repro.rpc.call.stream_frame`.

The streams run eagerly on real bytes; their mechanical costs
(allocations, copies, primitive ops) accumulate in a
:class:`~repro.mem.cost.CostLedger` owned by the calling activity.
"""

from repro.io.data_output import DataOutput, DataOutputBuffer
from repro.io.data_input import DataInput, DataInputBuffer, EndOfStream
from repro.io.writable import (
    ObjectWritable,
    Writable,
    WritableRegistry,
    writable_factory,
)
from repro.io.writables import (
    ArrayWritable,
    BooleanWritable,
    BytesWritable,
    DoubleWritable,
    FloatWritable,
    IntWritable,
    LongWritable,
    MapWritable,
    NullWritable,
    Text,
    VIntWritable,
    VLongWritable,
)
from repro.io.rdma_streams import RDMAOutputStream

__all__ = [
    "ArrayWritable",
    "BooleanWritable",
    "BytesWritable",
    "DataInput",
    "DataInputBuffer",
    "DataOutput",
    "DataOutputBuffer",
    "DoubleWritable",
    "EndOfStream",
    "FloatWritable",
    "IntWritable",
    "LongWritable",
    "MapWritable",
    "NullWritable",
    "ObjectWritable",
    "RDMAOutputStream",
    "Text",
    "VIntWritable",
    "VLongWritable",
    "Writable",
    "WritableRegistry",
    "writable_factory",
]
