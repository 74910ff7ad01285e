import pytest
from hypothesis import given, strategies as st

from dsbb84.gf2 import BitString
from dsbb84.wire import (
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
    msg = AliceBlockDisclosure(
        j=2,
        records=((0, 0, 0, None), (4, 1, 1, 1), (9, 2, 0, None)),
    )
    decoded = roundtrip(msg)
    assert decoded.records[1] == (4, 1, 1, 1)
    assert decoded.records[0][3] is None


def test_alice_disclosure_byte_layout():
    # <II block index and record count, then <IBBB per record: round
    # offset, intensity index, basis bit, bit value or 0xFF if withheld.
    msg = AliceBlockDisclosure(j=2, records=((0, 0, 0, None), (258, 1, 1, 1)))
    assert msg.encode() == (
        b"\x02\x00\x00\x00" b"\x02\x00\x00\x00"
        b"\x00\x00\x00\x00" b"\x00\x00\xff"
        b"\x02\x01\x00\x00" b"\x01\x01\x01"
    )
    empty = AliceBlockDisclosure(j=7, records=())
    assert empty.encode() == b"\x07\x00\x00\x00" + bytes(4)


def test_alice_disclosure_validation():
    out_of_order = AliceBlockDisclosure(j=0, records=((5, 0, 0, None), (2, 0, 0, None)))
    with pytest.raises(WireError):
        out_of_order.encode()
    bad_omega = AliceBlockDisclosure(j=0, records=((1, 3, 0, None),)).encode()
    with pytest.raises(WireError):
        AliceBlockDisclosure.decode(bad_omega)
    bad_bit = AliceBlockDisclosure(j=0, records=((1, 0, 0, 2),)).encode()
    with pytest.raises(WireError):
        AliceBlockDisclosure.decode(bad_bit)
    with pytest.raises(WireError):
        AliceBlockDisclosure.decode(b"\x00" * 9)


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
