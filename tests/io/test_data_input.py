"""Unit tests for DataInput decoding."""

import pytest

from repro.calibration import CostModel
from repro.io import DataInputBuffer, DataOutputBuffer, EndOfStream
from repro.mem import CostLedger


@pytest.fixture
def ledger():
    return CostLedger(CostModel.default())


def roundtrip_input(ledger, write_fn):
    out = DataOutputBuffer(ledger)
    write_fn(out)
    return DataInputBuffer(out.get_data(), ledger)


def test_read_primitives(ledger):
    inp = roundtrip_input(
        ledger,
        lambda out: (
            out.write_int(-5),
            out.write_long(2**40),
            out.write_boolean(True),
            out.write_byte(-3),
            out.write_short(-2),
            out.write_float(0.5),
            out.write_double(1.25),
        ),
    )
    assert inp.read_int() == -5
    assert inp.read_long() == 2**40
    assert inp.read_boolean() is True
    assert inp.read_byte() == -3
    assert inp.read_short() == -2
    assert inp.read_float() == 0.5
    assert inp.read_double() == 1.25
    assert inp.remaining == 0


def test_read_unsigned_byte(ledger):
    inp = DataInputBuffer(b"\xff", ledger)
    assert inp.read_unsigned_byte() == 255


def test_read_utf(ledger):
    inp = roundtrip_input(ledger, lambda out: out.write_utf("héllo"))
    assert inp.read_utf() == "héllo"


@pytest.mark.parametrize("size", [32_767, 32_768, 65_535])
def test_read_utf_length_is_unsigned(size):
    """Java's readUTF reads the length as an unsigned short, so every
    string write_utf accepts (up to 0xFFFF bytes) reads back, charged
    as the length read then the body."""
    model = CostModel.default()
    text = "x" * size
    out = DataOutputBuffer(CostLedger(model))
    out.write_utf(text)
    reader = CostLedger(model)
    inp = DataInputBuffer(out.get_data(), reader)
    assert inp.read_utf() == text
    assert inp.remaining == 0
    expected = CostLedger(model)
    expected.charge_read_op(2)
    expected.charge_read_op(size)
    assert reader.total_us == expected.total_us
    assert reader.counts == expected.counts


def test_read_past_end_raises(ledger):
    inp = DataInputBuffer(b"ab", ledger)
    with pytest.raises(EndOfStream):
        inp.read(3)


def test_negative_read_rejected(ledger):
    inp = DataInputBuffer(b"ab", ledger)
    with pytest.raises(ValueError):
        inp.read(-1)


def test_read_fully_charges_copy(ledger):
    inp = DataInputBuffer(b"x" * 100, ledger)
    before = ledger.counts.copy_bytes
    inp.read_fully(100)
    assert ledger.counts.copy_bytes == before + 100


@pytest.mark.parametrize(
    "value", [0, 1, -1, 127, -112, 128, -113, 255, 2**16, -(2**31), 2**62, -(2**62)]
)
def test_vlong_roundtrip(ledger, value):
    inp = roundtrip_input(ledger, lambda out: out.write_vlong(value))
    assert inp.read_vlong() == value


def test_vint_range_checked(ledger):
    inp = roundtrip_input(ledger, lambda out: out.write_vlong(2**40))
    with pytest.raises(ValueError):
        inp.read_vint()


def test_position_tracks_reads(ledger):
    inp = DataInputBuffer(b"abcdef", ledger)
    inp.read(2)
    assert inp.position == 2
    assert inp.remaining == 4
