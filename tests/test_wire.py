import numpy as np
import pytest
from hypothesis import given, strategies as st

from dsbb84.gf2 import BitString
from dsbb84.wire import (
    A_WITHHELD,
    RECORD_DTYPE,
    AliceBlockDisclosure,
    BobBlockDisclosure,
    End,
    MESSAGE_TYPES,
    PaSeed,
    SiftAnnounce,
    Syndrome,
    VerifyHash,
    VerifyResult,
    WireError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    pack_bits,
    unpack_bits,
)


def reply(j, rows):
    """Alice's reply from (offset, omega, alpha, value) rows."""
    columns = list(zip(*rows)) or [(), (), (), ()]
    return AliceBlockDisclosure.from_columns(j, *columns)


def roundtrip(msg):
    decoded, offset = decode_message(encode_message(msg))
    assert offset == len(encode_message(msg))
    assert decoded == msg
    return decoded


def test_frame_layout():
    raw = encode_frame(7, b"abc")
    assert raw == b"\x04\x00\x00\x00\x07abc"
    tag, payload, end = decode_frame(raw)
    assert (tag, payload, end) == (7, b"abc", len(raw))


def test_frame_errors():
    with pytest.raises(WireError):
        decode_frame(b"\x01\x00\x00")
    with pytest.raises(WireError):
        decode_frame(b"\x00\x00\x00\x00\x05")
    with pytest.raises(WireError):
        decode_frame(b"\x09\x00\x00\x00\x05abc")
    with pytest.raises(WireError):
        decode_message(encode_frame(200, b""))


@given(st.binary(max_size=30), st.integers(min_value=0, max_value=7))
def test_pack_bits_roundtrip(data, drop):
    n = max(len(data) * 8 - drop, 0)
    word = int.from_bytes(data, "little") & ((1 << n) - 1)
    bits = BitString.from_int(word, n)
    buf = pack_bits(bits)
    out, off = unpack_bits(buf, 0)
    assert out == bits and off == len(buf)


def test_unpack_bits_rejects_truncation_and_padding():
    bits = BitString([1, 0, 1])
    buf = pack_bits(bits)
    with pytest.raises(WireError):
        unpack_bits(buf[:-1], 0)
    with pytest.raises(WireError):
        unpack_bits(buf[:4], 0)
    bad = buf[:8] + bytes([0xFF])
    with pytest.raises(WireError):
        unpack_bits(bad, 0)


def test_bob_disclosure_roundtrip():
    msg = BobBlockDisclosure(
        j=3,
        clicked=BitString([1, 0, 1, 1, 0, 1]),
        basis=BitString([0, 1, 1, 0, 1, 1]),
        x_outcomes=BitString([1, 0]),
    )
    roundtrip(msg)


def test_bob_disclosure_validates_x_count():
    msg = BobBlockDisclosure(
        j=0,
        clicked=BitString([1, 0, 1]),
        basis=BitString([1, 1, 1]),
        x_outcomes=BitString([1]),
    )
    with pytest.raises(WireError):
        BobBlockDisclosure.decode(msg.encode())
    short = BobBlockDisclosure(
        j=0,
        clicked=BitString([1, 0, 1]),
        basis=BitString([1, 1]),
        x_outcomes=BitString([1]),
    )
    with pytest.raises(WireError):
        short.encode()


def test_alice_disclosure_roundtrip():
    msg = reply(2, ((0, 0, 0, A_WITHHELD), (4, 1, 1, 1), (9, 2, 0, A_WITHHELD)))
    decoded = roundtrip(msg)
    assert decoded.records[1].tolist() == (4, 1, 1, 1)
    assert decoded.records[0]["value"] == A_WITHHELD
    assert not decoded.records.flags.writeable


def test_alice_disclosure_byte_layout():
    # <II block index and record count, then <IBBB per record: round
    # offset, intensity index, basis bit, bit value or 0xFF if withheld.
    assert RECORD_DTYPE.itemsize == 7
    msg = reply(2, ((0, 0, 0, A_WITHHELD), (258, 1, 1, 1)))
    assert msg.encode() == (
        b"\x02\x00\x00\x00" b"\x02\x00\x00\x00"
        b"\x00\x00\x00\x00" b"\x00\x00\xff"
        b"\x02\x01\x00\x00" b"\x01\x01\x01"
    )
    empty = reply(7, ())
    assert empty.encode() == b"\x07\x00\x00\x00" + bytes(4)


def test_alice_disclosure_validation():
    out_of_order = reply(0, ((5, 0, 0, A_WITHHELD), (2, 0, 0, A_WITHHELD)))
    with pytest.raises(WireError):
        out_of_order.encode()
    bad_omega = reply(0, ((1, 3, 0, A_WITHHELD),)).encode()
    with pytest.raises(WireError):
        AliceBlockDisclosure.decode(bad_omega)
    bad_bit = reply(0, ((1, 0, 0, 2),)).encode()
    with pytest.raises(WireError):
        AliceBlockDisclosure.decode(bad_bit)
    with pytest.raises(WireError):
        AliceBlockDisclosure.decode(b"\x00" * 9)


@pytest.mark.parametrize(
    "columns",
    [
        ([2**32], [0], [0], [0]),
        ([-1], [0], [0], [0]),
        ([0], [256], [0], [0]),
        ([0], [0], [-1], [0]),
        ([0], [0], [0], [0.5]),
        ([0, 1], [0], [0], [0, 0]),
    ],
    ids=["offset-high", "offset-negative", "omega-high", "alpha-negative",
         "value-fraction", "ragged"],
)
def test_alice_columns_refuse_values_that_do_not_fit(columns):
    with pytest.raises(WireError):
        AliceBlockDisclosure.from_columns(0, *columns)


def test_alice_disclosure_refuses_foreign_record_arrays():
    wide = np.zeros(2, dtype=[("offset", "<u8"), ("omega", "u1"),
                              ("alpha", "u1"), ("value", "u1")])
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, wide).encode()
    square = np.zeros((2, 2), dtype=RECORD_DTYPE)
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, square).encode()


@pytest.mark.parametrize(
    "msg",
    [
        BobBlockDisclosure(2**32, BitString([1]), BitString([0]), BitString([])),
        AliceBlockDisclosure(-1, np.zeros(0, dtype=RECORD_DTYPE)),
        SiftAnnounce(n_sift=-1, proceed=True),
        Syndrome(BitString([1]), code_seed=2**64),
        VerifyHash(seed=-1, digest=BitString([1])),
        PaSeed(seed=2**64, n_fin=1),
    ],
    ids=lambda msg: type(msg).__name__,
)
def test_encode_out_of_range_field_raises_wire_error(msg):
    with pytest.raises(WireError):
        msg.encode()
    with pytest.raises(WireError):
        encode_message(msg)


@st.composite
def record_arrays(draw, max_records=40):
    """Valid reply records: ascending offsets, in-range fields."""
    offsets = sorted(draw(st.sets(st.integers(0, 2**32 - 1), max_size=max_records)))
    n = len(offsets)
    omega = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    alpha = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    value = draw(st.lists(st.sampled_from([0, 1, A_WITHHELD]), min_size=n, max_size=n))
    j = draw(st.integers(0, 2**32 - 1))
    return AliceBlockDisclosure.from_columns(j, offsets, omega, alpha, value)


@given(record_arrays())
def test_alice_disclosure_roundtrips_random_records(msg):
    decoded = roundtrip(msg)
    assert decoded.j == msg.j
    assert np.array_equal(decoded.records, msg.records)


def decode_or_wire_error(raw):
    """Decode one frame; a malformed one may raise WireError, nothing else."""
    try:
        msg, offset = decode_message(raw)
    except WireError:
        return None
    # Whatever decodes re-encodes to the bytes it was read from.
    assert encode_message(msg) == raw[:offset]
    return msg


@given(record_arrays(), st.data())
def test_truncated_alice_frames_fail_closed(msg, data):
    raw = encode_message(msg)
    cut = data.draw(st.integers(0, len(raw) - 1))
    assert decode_or_wire_error(raw[:cut]) is None


@given(record_arrays(), st.data())
def test_bit_flipped_alice_frames_fail_closed(msg, data):
    raw = bytearray(encode_message(msg))
    bits = st.integers(0, 8 * len(raw) - 1)
    for bit in data.draw(st.lists(bits, min_size=1, max_size=4)):
        raw[bit // 8] ^= 1 << (bit % 8)
    decode_or_wire_error(bytes(raw))


@given(record_arrays(), st.data())
def test_length_mutated_alice_frames_fail_closed(msg, data):
    raw = bytearray(encode_message(msg))
    # Rewrite the frame length (byte 0) or the record count (byte 9).
    at = data.draw(st.sampled_from([0, 9]))
    raw[at : at + 4] = data.draw(st.integers(0, 2**32 - 1)).to_bytes(4, "little")
    tail = data.draw(st.binary(max_size=16))
    decode_or_wire_error(bytes(raw) + tail)


def test_scalar_messages_roundtrip():
    roundtrip(SiftAnnounce(n_sift=123456789, proceed=True))
    roundtrip(SiftAnnounce(n_sift=0, proceed=False))
    roundtrip(Syndrome(BitString([1, 1, 0, 1]), code_seed=2**63 + 5))
    roundtrip(VerifyHash(seed=99, digest=BitString([0, 1])))
    roundtrip(VerifyHash(seed=0, digest=BitString.zeros(0)))
    roundtrip(VerifyResult(ok=True))
    roundtrip(VerifyResult(ok=False))
    roundtrip(PaSeed(seed=17, n_fin=622))
    roundtrip(End())


def test_scalar_message_validation():
    with pytest.raises(WireError):
        SiftAnnounce.decode(b"\x00" * 8)
    with pytest.raises(WireError):
        SiftAnnounce.decode(b"\x00" * 8 + b"\x02")
    with pytest.raises(WireError):
        VerifyResult.decode(b"\x02")
    with pytest.raises(WireError):
        PaSeed.decode(b"\x00" * 15)
    with pytest.raises(WireError):
        End.decode(b"x")
    with pytest.raises(WireError):
        Syndrome.decode(b"\x00" * 7)


def test_tags_are_unique_and_stable():
    assert sorted(MESSAGE_TYPES) == list(range(1, 9))
    assert MESSAGE_TYPES[1] is BobBlockDisclosure
    assert MESSAGE_TYPES[8] is End


def test_stream_of_frames_decodes_sequentially():
    msgs = [SiftAnnounce(10, True), VerifyResult(True), End()]
    stream = b"".join(encode_message(m) for m in msgs)
    offset = 0
    out = []
    while offset < len(stream):
        msg, offset = decode_message(stream, offset)
        out.append(msg)
    assert out == msgs
