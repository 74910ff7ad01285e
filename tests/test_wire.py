import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dsbb84.wire
from dsbb84.gf2 import BitString
from dsbb84.wire import (
    WIRE_VERSION,
    AliceBlockDisclosure,
    BobBlockDisclosure,
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
)
from reference import bits as bits_of


def leb128(*values):
    """Each value as a minimal unsigned LEB128 varint, low group first."""
    out = bytearray()
    for value in values:
        while True:
            out.append(value & 0x7F | (0x80 if value > 0x7F else 0))
            value >>= 7
            if not value:
                break
    return bytes(out)


def leb128_spans(payload, count):
    """(start, end) of each of the first ``count`` varints of ``payload``."""
    spans, at = [], 0
    for _ in range(count):
        end = at
        while payload[end] & 0x80:
            end += 1
        spans.append((at, end + 1))
        at = end + 1
    return spans


def rice_bits(positions, n):
    """The subset form of ``positions`` out of ``n`` as a list of bits, in
    plain Python: L low-bit planes of the gaps, then a unary part of
    (gap >> L) zeros and a one per position, with L the largest integer
    such that k * 2**L <= n, and 0 when n < 4k."""
    k = len(positions)
    low_bits = 0
    while n >= 4 * k > 0 and k << (low_bits + 1) <= n:
        low_bits += 1
    gaps = [b - a - 1 for a, b in zip([-1] + positions, positions)]
    bits = [gap >> p & 1 for p in range(low_bits) for gap in gaps]
    for gap in gaps:
        bits += [0] * (gap >> low_bits) + [1]
    return bits


def packed(bits):
    """Bits packed LSB-first, padded with zero bits to a whole byte."""
    return bytes(sum(bit << i for i, bit in enumerate(bits[at : at + 8]))
                 for at in range(0, len(bits), 8))


def bob(j, m, offsets, basis, x_outcomes):
    """Bob's disclosure from plain lists."""
    return BobBlockDisclosure(j, m, np.array(offsets, dtype=np.int64), basis, x_outcomes)


def roundtrip(msg):
    decoded, offset = decode_message(encode_message(msg))
    assert offset == len(encode_message(msg))
    assert decoded == msg
    return decoded


def test_frame_layout():
    # Varint byte count (covering version, tag and payload), version, tag.
    assert WIRE_VERSION == 6
    raw = encode_frame(7, b"abc")
    assert raw == b"\x05\x06\x07abc"
    tag, payload, end = decode_frame(raw)
    assert (tag, payload, end) == (7, b"abc", len(raw))
    # A count of 128 or more takes a second byte.
    raw = encode_frame(7, bytes(126))
    assert raw[:4] == b"\x80\x01\x06\x07" and decode_frame(raw)[1:] == (bytes(126), 130)


def test_frame_errors():
    with pytest.raises(WireError, match="truncated varint"):
        decode_frame(b"\x81")
    with pytest.raises(WireError, match="truncated frame header"):
        decode_frame(b"\x02\x05")
    with pytest.raises(WireError, match="cover"):
        decode_frame(b"\x01\x06\x05")
    with pytest.raises(WireError, match="truncated"):
        decode_frame(b"\x09\x06\x05abc")
    with pytest.raises(WireError):
        decode_message(encode_frame(200, b""))
    # Any other version is refused, today's predecessor (an Elias-Fano
    # clicked set and a V bit per D-or-V record) included.
    for version in (0, 1, 2, 3, 4, 5, 7, 255):
        with pytest.raises(WireError, match="version"):
            decode_frame(b"\x05" + bytes([version]) + b"\x07abc")
    # A frame of version 4 reads as a count of 5 and a version byte of 0.
    with pytest.raises(WireError, match="version 0"):
        decode_frame(b"\x05\x00\x00\x00\x04\x07abc")
    with pytest.raises(WireError):
        decode_message(b"\x01\x05\x08")


@given(st.binary(max_size=30), st.integers(min_value=0, max_value=7))
def test_pack_bits_roundtrip(data, drop):
    # A bit-string field is its bit count among the varints, then its bits
    # packed LSB-first, padded with zero bits to a whole byte.
    n = max(len(data) * 8 - drop, 0)
    word = int.from_bytes(data, "little") & ((1 << n) - 1)
    bits = BitString.from_int(word, n)
    buf = VerifyHash(seed=0, digest=bits).encode()
    assert buf == leb128(0, n) + word.to_bytes((n + 7) // 8, "little")
    assert VerifyHash.decode(buf).digest == bits


def test_unpack_bits_rejects_truncation_and_padding():
    buf = VerifyHash(seed=0, digest=bits_of([1, 0, 1])).encode()
    assert buf == b"\x00\x03\x05"
    with pytest.raises(WireError, match="truncated bit-string"):
        VerifyHash.decode(buf[:-1])
    with pytest.raises(WireError, match="truncated varint"):
        VerifyHash.decode(buf[:1])
    with pytest.raises(WireError, match="padding"):
        VerifyHash.decode(buf[:2] + bytes([0xFF]))


def test_bob_disclosure_roundtrip():
    msg = bob(3, 6, [0, 2, 3, 5], [0, 1, 1, 0], [1, 0])
    decoded = roundtrip(msg)
    assert decoded.offsets.tolist() == [0, 2, 3, 5]
    assert not decoded.offsets.flags.writeable


def test_bob_disclosure_validates_x_count():
    with pytest.raises(WireError):
        bob(0, 3, [0, 2], [1, 1], [1]).encode()
    with pytest.raises(WireError):
        bob(0, 3, [0, 2], [1], [1]).encode()
    # Decoding takes the X outcome count from the basis bits, so an extra
    # byte of outcomes is trailing and a missing one is truncation.
    raw = bob(0, 3, [0, 2], [1, 1], [1, 0]).encode()
    with pytest.raises(WireError):
        BobBlockDisclosure.decode(raw + b"\x00")
    with pytest.raises(WireError):
        BobBlockDisclosure.decode(raw[:-1])


def test_bob_disclosure_byte_layout():
    # Varints of the block index, round count m = 100 and click count k = 3,
    # then Bob's basis 0, 1, 1 and X outcomes 1, 0, each column LSB-first
    # and padded to a byte. The clicked set [5, 6, 70] has gaps 5, 0 and 63
    # and L = floor(log2(100/3)) = 5: planes 0-4 of the gaps are 101 001 101
    # 001 001, and the unary part of the high parts 0, 0, 1 is 1 1 01. The
    # 19 bits pack to 0x65 0xc9 0x05.
    msg = bob(2, 100, [5, 6, 70], [0, 1, 1], [1, 0])
    assert msg.encode() == bytes.fromhex("02" "64" "03" "06" "01" "65c905")
    roundtrip(msg)
    # Below m = 4k, L is 0 and the clicked set is its gaps in unary: [0, 3,
    # 9] out of 10 has gaps 0, 2, 5, so 1 001 000001, 0x09 0x02.
    msg = bob(2, 10, [0, 3, 9], [1, 0, 1], [0, 1])
    assert msg.encode() == bytes.fromhex("02" "0a" "03" "05" "02" "0902")
    roundtrip(msg)
    assert len(WIDE) == 3 + 3 + 3 + 5 + 5
    # An empty set sends no clicked-set bits at all.
    assert bob(1, 10, [], [], []).encode() == bytes.fromhex("01" "0a" "00")
    # A varint holds seven bits a byte, low group first: m = 100,000 takes
    # three bytes and j = 2**32 - 1 five.
    wide = bob(2**32 - 1, 100_000, [], [], []).encode()
    assert wide == bytes.fromhex("ffffffff0f" "a08d06" "00")


@st.composite
def clicked_sets(draw):
    """(m, offsets): any subset of a small block, a few clicks of a large one."""
    m = draw(st.one_of(st.integers(0, 200), st.integers(201, 400_000), st.just(2**32 - 1)))
    if m <= 200:
        mask = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        return m, [i for i, clicked in enumerate(mask) if clicked]
    return m, sorted(draw(st.sets(st.integers(0, m - 1), max_size=60)))


def clicked_set_bytes(msg):
    """Bytes of the clicked set: the payload less header, basis and outcomes."""
    columns = (len(msg.basis) + 7) // 8 + (len(msg.x_outcomes) + 7) // 8
    return len(msg.encode()) - len(leb128(msg.j, msg.m, len(msg.offsets))) - columns


@given(clicked_sets())
@example((0, []))
@example((1, []))
@example((1, [0]))
@example((64, list(range(64))))
@example((2**32 - 1, [0, 2**31, 2**32 - 2]))
def test_clicked_set_roundtrips(clicked):
    m, offsets = clicked
    decoded = roundtrip(bob(0, m, offsets, [0] * len(offsets), []))
    assert decoded.m == m and decoded.offsets.tolist() == offsets


def clicked_set_bits(msg):
    """Bits of the clicked set: the frame's last column, up to its last set
    bit."""
    column = msg.encode()[-clicked_set_bytes(msg):] if msg.offsets.size else b""
    return 8 * len(column) - 8 + column[-1].bit_length() if column else 0


# Clustered sets: every click at the start of the block, every click at its
# end, and at the densities where L changes.
CLUSTERED = [
    (m, list(range(start, start + k)))
    for m, k in ((1000, 10), (4000, 1000), (4000, 1001), (4000, 2000), (2**32 - 1, 60))
    for start in (0, m - k)
]


def clustered_examples(test):
    for clicked in CLUSTERED:
        test = example(clicked)(test)
    return test


@given(clicked_sets())
@clustered_examples
@example((8, [0, 4]))
@example((4000, list(range(0, 4000, 4))))
@example((100, list(range(100))))
def test_sparse_clicked_set_is_no_longer_than_a_bitmap(clicked):
    # Whatever share of the rounds click, the subset form is no longer than
    # an m-bit bitmap: below m = 4k it is m bits at most, and from there on
    # the L low bits and the unary part of each click fit in its share.
    m, offsets = clicked
    msg = bob(0, m, offsets, [0] * len(offsets), [])
    assert clicked_set_bytes(msg) <= (m + 7) // 8


@given(clicked_sets())
@clustered_examples
@example((10, [0, 3, 9]))
@example((3, [0, 1, 2]))
def test_clicked_set_is_no_longer_than_elias_fano(clicked):
    # Never more bits than the Elias-Fano form of wire version 5, which
    # took L = floor(log2(m/k)) low bits a click and a high part of k +
    # ((m - 1) >> L) bits, with any gaps.
    m, offsets = clicked
    msg = bob(0, m, offsets, [0] * len(offsets), [])
    k = len(offsets)
    low_bits = (m // k).bit_length() - 1 if k else 0
    elias_fano = low_bits * k + k + ((m - 1) >> low_bits) if k else 0
    assert clicked_set_bits(msg) == len(rice_bits(offsets, m)) <= elias_fano


def bob_payload(j, m, k, *columns):
    return leb128(j, m, k) + b"".join(columns)


# m = 100 with every fifth round clicked and in X: 20 basis bits (3 bytes)
# and 20 X outcomes (3), then the clicked set with L = 2, gaps 0 and then
# 4: a 40-bit low part (5 bytes, all zero) and a 1 + 19 * 2 = 39-bit unary
# part (5). Each cut ends the payload inside one column.
WIDE = bob(0, 100, list(range(0, 100, 5)), [1] * 20, [1, 0] * 10).encode()


# The clicked set [1, 6, 11] out of m = 12, with basis 1, 0, 1 and X
# outcomes 0, 1 (0x05 and 0x02): L = 2, gaps 1, 4, 4, so the planes are
# 100 000 and the unary part of the high parts 0, 1, 1 is 1 01 01, 0x41
# 0x05. A repeated or descending offset has no form to refuse: a gap is
# never negative.
@pytest.mark.parametrize(
    "payload, match",
    [
        # The unary part one 1 short (1 01 0) and one 1 too many (1 01 1 1).
        (bob_payload(0, 12, 3, b"\x05", b"\x02", b"\x41\x01"), "unary part"),
        (bob_payload(0, 12, 3, b"\x05", b"\x02", b"\x41\x07"), "unary part"),
        # A zero byte after the last 1, beyond its padding.
        (bob_payload(0, 12, 3, b"\x05", b"\x02", b"\x41\x05\x00"), "trailing"),
        # Gaps 1, 4, 5 reach offset 12 of a block of 12; three clicks in a
        # block of two read as offsets [0, 1, 2].
        (bob_payload(0, 12, 3, b"\x05", b"\x02", b"\x45\x05"), "outside"),
        (bob_payload(0, 2, 3, b"\x05", b"\x02", b"\x07"), "outside"),
        # Padding bits set: basis, X outcomes, the clicked set, whose set
        # padding bit reads as one 1 too many.
        (bob_payload(0, 12, 3, b"\x0d", b"\x02", b"\x41\x05"), "padding"),
        (bob_payload(0, 12, 3, b"\x05", b"\x06", b"\x41\x05"), "padding"),
        (bob_payload(0, 12, 3, b"\x05", b"\x02", b"\x41\x25"), "unary part"),
        # A payload that ends inside the basis, the X outcomes, the low
        # planes or the unary part; a count whose columns the payload
        # cannot hold.
        (WIDE[: 3 + 2], "truncated"),
        (WIDE[: 3 + 3 + 2], "truncated"),
        (WIDE[: 3 + 6 + 3], "unary part"),
        (WIDE[: 3 + 6 + 8], "unary part"),
        (bob_payload(0, 2**32 - 1, 2**31), "truncated"),
        # A header that ends before its third varint.
        (leb128(0, 10), "truncated varint"),
    ],
    ids=["missing-one", "extra-one", "trailing", "offset-beyond-m", "k-above-m",
         "basis-padding", "x-padding", "high-padding", "truncated-basis",
         "truncated-x", "truncated-low", "truncated-high", "count-beyond-payload",
         "short"],
)
def test_bob_disclosure_refuses_non_canonical_forms(payload, match):
    with pytest.raises(WireError, match=match):
        BobBlockDisclosure.decode(payload)


def test_bob_disclosure_refuses_bad_offsets_on_encode():
    for m, offsets in ((10, [3, 3]), (10, [4, 2]), (10, [10]), (10, [-1, 2])):
        with pytest.raises(WireError):
            bob(0, m, offsets, [0] * len(offsets), []).encode()
    with pytest.raises(WireError):
        BobBlockDisclosure(0, 10, np.array([0.5]), [0], []).encode()


def test_alice_disclosure_roundtrip():
    msg = AliceBlockDisclosure(2, [0, 1, 2], [0, 1, 1], [1])
    decoded = roundtrip(msg)
    assert decoded.omega.tolist() == [0, 1, 2]
    assert decoded.alpha.tolist() == [0, 1, 1]
    assert decoded.value.tolist() == [1]
    assert not decoded.omega.flags.writeable


def test_alice_disclosure_byte_layout():
    # Varints of the block index, record count, value-bit count and V count;
    # then alpha, the matched-X value bits and the intensity column (a
    # D-or-V bit per record, then which D-or-V records are V in the subset
    # form), each LSB-first and padded with zero bits to a whole byte.
    msg = AliceBlockDisclosure(
        2, [0, 1, 2, 1, 2], [0, 1, 1, 0, 1], [1, 0]
    )
    # D-or-V bits 0 1 1 1 1; V records 1 and 3 of the 4 D-or-V ones, so L
    # is 0 and the gaps 1, 1 are 01 01: 0x5e, then 0x01.
    assert msg.encode() == b"\x02\x05\x02\x02" b"\x16" b"\x01" b"\x5e\x01"
    empty = AliceBlockDisclosure(7, [], [], [])
    assert empty.encode() == b"\x07\x00\x00\x00"
    # Record 7 of 8 D-or-V records is V: L = 3 and the gap 7 is 111 1.
    msg = AliceBlockDisclosure(0, [1] * 7 + [2], [0] * 8, [])
    assert msg.encode() == b"\x00\x08\x00\x01" b"\x00" b"\xff\x0f"
    # With no V record, S, D and V all cost one intensity bit, so all-S and
    # all-D replies of 16 records send two intensity bytes. An all-V one
    # sends four: its 16 gaps of 0 are 16 ones.
    for omega, size in (([0] * 16, 2), ([1] * 16, 2), ([2] * 16, 4)):
        assert len(AliceBlockDisclosure(0, omega, [0] * 16, []).encode()) == 4 + 2 + size


def alice_payload(count, n_values, n_v, body):
    return leb128(0, count, n_values, n_v) + body


def test_alice_disclosure_validation():
    # Padding bits set: alpha, value (two records fill two alpha bits and
    # one value bit); the intensity column's, which with no V record leaves
    # a set bit that no unary part takes.
    for body, n_values in ((b"\x04\x00", 0), (b"\x00\x02\x00", 1)):
        with pytest.raises(WireError, match="padding"):
            AliceBlockDisclosure.decode(alice_payload(2, n_values, 0, body))
    with pytest.raises(WireError, match="unary part"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, 0, b"\x00\x04"))
    # The intensity column missing, or with a V record but no unary part.
    with pytest.raises(WireError, match="missing"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, 0, b"\x00"))
    with pytest.raises(WireError, match="unary part"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, 1, b"\x00\x01"))
    with pytest.raises(WireError, match="truncated"):
        AliceBlockDisclosure.decode(alice_payload(2**32 - 1, 0, 0, b"\x00\x00"))
    with pytest.raises(WireError, match="trailing"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, 0, b"\x00\x00\x00"))
    # More V records than D-or-V records: one D-or-V record, two ones.
    with pytest.raises(WireError, match="outside"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, 2, b"\x00\x0d"))
    # A V record at gap 2, beyond the one D-or-V record.
    with pytest.raises(WireError, match="outside"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, 1, b"\x00\x11"))
    # A header that ends before its fourth varint.
    with pytest.raises(WireError, match="truncated varint"):
        AliceBlockDisclosure.decode(leb128(0, 2, 0))
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, np.array([3], dtype=np.uint8), [0], []).encode()
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, np.array([0, 1], dtype=np.uint8), [0], []).encode()


def test_every_intensity_column_decodes_and_reencodes():
    # Every D-or-V pattern of up to 6 records and every subset of its set
    # records as V, laid out by the plain reference above with each
    # record's alpha bit set, decodes to its indices and re-encodes to its
    # own bytes.
    for count in range(7):
        for d_or_v in itertools.product((0, 1), repeat=count):
            named = [r for r, bit in enumerate(d_or_v) if bit]
            for v_bits in itertools.product((0, 1), repeat=len(named)):
                v = [i for i, bit in enumerate(v_bits) if bit]
                column = packed(list(d_or_v) + rice_bits(v, len(named)))
                payload = alice_payload(count, 0, len(v), packed([1] * count) + column)
                msg = AliceBlockDisclosure.decode(payload)
                expected = list(d_or_v)
                for i in v:
                    expected[named[i]] = 2
                assert msg.omega.tolist() == expected
                assert msg.encode() == payload


def bad_varints(width):
    """Varints that a decoder refuses in a field below 2**width, each with
    the error it raises: not minimal, 2**width or more, over-long."""
    longest = (width + 6) // 7
    top = f"2\\*\\*{width}"
    return [
        (b"\x80\x00", "minimal"),
        (b"\x8a\x80\x00", "minimal"),
        (leb128(2**width), top),
        (b"\xff" * (longest - 1) + b"\x7f", top),
        (b"\x80" * longest + b"\x00", "over-long"),
        (b"\xff" * (longest + 1) + b"\x01", "over-long"),
    ]


def reencoded_frame(raw):
    tag, payload, _ = decode_frame(raw)
    return encode_frame(tag, payload)


# The varint fields of the frame and of each message: (decode and encode
# again, width, valid field values, the bytes after the varints).
VARINT_FIELDS = {
    "frame": (reencoded_frame, 32, (5,), b"\x06\x07abc"),
    "bob": (lambda raw: BobBlockDisclosure.decode(raw).encode(), 32, (0, 10, 0), b""),
    "alice": (lambda raw: AliceBlockDisclosure.decode(raw).encode(), 32, (0, 0, 0, 0), b""),
    **{
        cls.__name__: (lambda raw, cls=cls: cls.decode(raw).encode(), 64, values, rest)
        for cls, values, rest in (
            (SiftAnnounce, (300, 1), b""),
            (Syndrome, (4, 2**64 - 1), b"\x0b"),
            (VerifyHash, (2**63, 2), b"\x01"),
            (VerifyResult, (1,), b""),
            (PaSeed, (17, 622), b""),
        )
    },
}


@pytest.mark.parametrize(
    "field, name",
    [(field, name) for name, (_, _, values, _) in VARINT_FIELDS.items()
     for field in range(len(values))],
)
def test_block_headers_refuse_non_canonical_varints(field, name):
    # Every varint field, the frame's byte count and each scalar message's
    # fields and bit counts included, is read by one reader whose only
    # parameter is the width: 32 bits for frames and block headers, 64 for
    # scalar messages.
    reencode, width, values, rest = VARINT_FIELDS[name]
    fields = [leb128(value) for value in values]
    valid = b"".join(fields) + rest
    assert reencode(valid) == valid
    for bad, match in bad_varints(width):
        with pytest.raises(WireError, match=match):
            reencode(b"".join(fields[:field] + [bad] + fields[field + 1 :]) + rest)
    # A varint cut inside, and a header cut before the field.
    for cut in (b"\x80", b"\xff\xff", b""):
        with pytest.raises(WireError, match="truncated varint"):
            reencode(b"".join(fields[:field]) + cut)


def test_largest_header_varint_roundtrips():
    assert roundtrip(bob(2**32 - 1, 2**32 - 1, [], [], [])).m == 2**32 - 1
    assert roundtrip(AliceBlockDisclosure(2**32 - 1, [], [], [])).j == 2**32 - 1


def test_decoders_hand_over_bit_columns_as_bool(monkeypatch):
    # A bool column is in range by its type, so the constructor copies it
    # without a range check; the decoders' 0/1 columns come as bool views.
    seen = []
    real = dsbb84.wire._column

    def spy(name, column, top):
        seen.append((name, np.asarray(column).dtype))
        return real(name, column, top)

    monkeypatch.setattr(dsbb84.wire, "_column", spy)
    bob_raw = bob(2, 10, [0, 3, 9], [1, 0, 1], [0, 1]).encode()
    alice_raw = AliceBlockDisclosure(2, [0, 1, 2], [0, 1, 1], [1]).encode()
    seen.clear()
    BobBlockDisclosure.decode(bob_raw)
    assert seen == [("basis", np.dtype(bool)), ("x outcome", np.dtype(bool))]
    seen.clear()
    msg = AliceBlockDisclosure.decode(alice_raw)
    assert seen == [("intensity index", np.dtype(np.uint8)), ("alpha", np.dtype(bool)),
                    ("value", np.dtype(bool))]
    for column in (msg.omega, msg.alpha, msg.value):
        assert column.dtype == np.uint8 and not column.flags.writeable


@pytest.mark.parametrize(
    "columns",
    [
        ([3], [0], []),
        ([-1], [0], []),
        ([0], [2], []),
        ([0], [-1], []),
        ([0], [1], [2]),
        ([0], [1], [0.5]),
        ([0, 1], [0], []),
    ],
    ids=["omega-high", "omega-negative", "alpha-high", "alpha-negative",
         "value-high", "value-fraction", "ragged"],
)
def test_alice_columns_refuse_values_that_do_not_fit(columns):
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, *columns)


@pytest.mark.parametrize(
    "columns",
    [
        ([2, 0], []),
        ([1, 0], [2]),
        ([-1, 0], []),
        ([1, 0], [-1]),
        ([0.5, 0], []),
        ([1, 0], [0.5]),
        ([[0, 0]], []),
        ([1, 0], [[1]]),
        ([0], []),
        ([1, 1], [1]),
        ([0, 0], [1]),
    ],
    ids=["basis-high", "x-high", "basis-negative", "x-negative", "basis-fraction",
         "x-fraction", "basis-2-d", "x-2-d", "basis-short", "x-short", "x-long"],
)
def test_bob_columns_refuse_values_that_do_not_fit(columns):
    with pytest.raises(WireError):
        BobBlockDisclosure(0, 10, [0, 3], *columns)


def test_block_messages_keep_read_only_copies_of_their_columns():
    bob_columns = (np.array([1, 4]), np.array([1, 0], dtype=np.int8), np.array([True]))
    alice_columns = (np.array([2, 0], dtype=np.int8), np.array([True, False]), np.array([0], np.uint8))
    bob_msg = BobBlockDisclosure(0, 10, *bob_columns)
    alice_msg = AliceBlockDisclosure(0, *alice_columns)
    kept = (bob_msg.offsets, bob_msg.basis, bob_msg.x_outcomes,
            alice_msg.omega, alice_msg.alpha, alice_msg.value)
    for given_column, column in zip(bob_columns + alice_columns, kept):
        assert given_column.flags.writeable and not column.flags.writeable
        assert not np.shares_memory(given_column, column)
        assert np.array_equal(given_column, column)
        assert column.dtype == (np.int64 if column is bob_msg.offsets else np.uint8)


def test_alice_disclosure_refuses_foreign_record_arrays():
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, np.zeros(2, dtype=np.float64), [0, 0], []).encode()
    square = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, square, [0, 0], []).encode()


@pytest.mark.parametrize(
    "msg",
    [
        BobBlockDisclosure(2**32, 1, np.array([0]), [0], []),
        BobBlockDisclosure(0, 2**32, np.array([0]), [0], []),
        AliceBlockDisclosure(-1, [], [], []),
        AliceBlockDisclosure(2**32, [], [], []),
        AliceBlockDisclosure(0.5, [], [], []),
        SiftAnnounce(n_sift=-1, proceed=True),
        Syndrome(bits_of([1]), code_seed=2**64),
        VerifyHash(seed=-1, digest=bits_of([1])),
        PaSeed(seed=2**64, n_fin=1),
    ],
    ids=["BobBlockDisclosure", "BobBlockDisclosure-m", "AliceBlockDisclosure",
         "AliceBlockDisclosure-u32", "AliceBlockDisclosure-fraction", "SiftAnnounce", "Syndrome", "VerifyHash", "PaSeed"],
)
def test_encode_out_of_range_field_raises_wire_error(msg):
    with pytest.raises(WireError):
        msg.encode()
    with pytest.raises(WireError):
        encode_message(msg)


@st.composite
def alice_replies(draw, max_records=40):
    """Valid replies: in-range columns, any number of value bits."""
    n = draw(st.integers(0, max_records))
    omega = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    alpha = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    value = draw(st.lists(st.integers(0, 1), max_size=n))
    j = draw(st.integers(0, 2**32 - 1))
    return AliceBlockDisclosure(j, omega, alpha, value)


@st.composite
def bob_disclosures(draw):
    """Valid disclosures of dense and sparse clicked sets."""
    m, offsets = draw(clicked_sets())
    basis = draw(st.lists(st.integers(0, 1), min_size=len(offsets), max_size=len(offsets)))
    x = draw(st.lists(st.integers(0, 1), min_size=sum(basis), max_size=sum(basis)))
    return bob(draw(st.integers(0, 2**32 - 1)), m, offsets, basis, x)


@given(alice_replies())
@example(AliceBlockDisclosure(0, [2] * 40, [0] * 40, []))
@example(AliceBlockDisclosure(0, [2] * 5 + [1] * 35, [0] * 40, []))
@example(AliceBlockDisclosure(0, [1] * 35 + [2] * 5, [0] * 40, []))
@example(AliceBlockDisclosure(0, [2] * 200, [0] * 200, []))
def test_alice_reply_grows_by_at_most_its_v_count_varint(msg):
    # Wire version 5 had three header varints and sent the intensity column
    # as a D-or-V bit per record, then a V bit per D-or-V record. The V
    # subset never takes more bits than those V bits, so a reply is longer
    # by at most the V count's varint: one byte while fewer than 128
    # records are V, as in every reply of up to 40 records.
    omega = msg.omega.tolist()
    n_dv, n_v = sum(w > 0 for w in omega), omega.count(2)
    columns = [len(omega) + n_dv, len(omega), len(msg.value)]
    version_5 = len(leb128(msg.j, len(omega), len(msg.value))) + sum((n + 7) // 8 for n in columns)
    assert len(msg.encode()) <= version_5 + len(leb128(n_v))
    if n_v < 128:
        assert len(msg.encode()) <= version_5 + 1


@given(alice_replies())
def test_alice_disclosure_roundtrips_random_records(msg):
    decoded = roundtrip(msg)
    assert decoded.j == msg.j
    assert np.array_equal(decoded.omega, msg.omega)


@given(bob_disclosures())
def test_bob_disclosure_roundtrips_random_sets(msg):
    decoded = roundtrip(msg)
    assert np.array_equal(decoded.offsets, msg.offsets)


def decode_or_wire_error(raw):
    """Decode one frame; a malformed one may raise WireError, nothing else."""
    try:
        msg, offset = decode_message(raw)
    except WireError:
        return None
    # Whatever decodes re-encodes to the bytes it was read from.
    assert encode_message(msg) == raw[:offset]
    return msg


def truncate(raw, data):
    return raw[: data.draw(st.integers(0, len(raw) - 1))]


def flip_bits(raw, data):
    raw = bytearray(raw)
    bits = st.integers(0, 8 * len(raw) - 1)
    for bit in data.draw(st.lists(bits, min_size=1, max_size=4)):
        raw[bit // 8] ^= 1 << (bit % 8)
    return bytes(raw)


def rewrite_count(raw, data, n_fields=3, width=32):
    """Overwrite the frame's byte count, or one of the ``n_fields`` varints
    that open the payload and frame the payload anew, with any value below
    2**width, and append random bytes: to the frame in the first case, to
    the payload in the second."""
    extra = data.draw(st.binary(max_size=16))
    field = data.draw(st.sampled_from([None, *range(n_fields)]))
    if field is None:
        (_, end), = leb128_spans(raw, 1)
        return leb128(data.draw(st.integers(0, 2**32 - 1))) + raw[end:] + extra
    tag, payload, _ = decode_frame(raw)
    start, end = leb128_spans(payload, n_fields)[field]
    count = leb128(data.draw(st.integers(0, 2**width - 1)))
    return encode_frame(tag, payload[:start] + count + payload[end:] + extra)


@given(alice_replies(), st.data())
def test_truncated_alice_frames_fail_closed(msg, data):
    assert decode_or_wire_error(truncate(encode_message(msg), data)) is None


@given(alice_replies(), st.data())
def test_bit_flipped_alice_frames_fail_closed(msg, data):
    decode_or_wire_error(flip_bits(encode_message(msg), data))


@given(alice_replies(), st.data())
def test_length_mutated_alice_frames_fail_closed(msg, data):
    # The frame length, the block index, the record count, the value-bit
    # count or the V count.
    decode_or_wire_error(rewrite_count(encode_message(msg), data, n_fields=4))


@given(bob_disclosures(), st.data())
def test_truncated_bob_frames_fail_closed(msg, data):
    assert decode_or_wire_error(truncate(encode_message(msg), data)) is None


@given(bob_disclosures(), st.data())
def test_bit_flipped_bob_frames_fail_closed(msg, data):
    decode_or_wire_error(flip_bits(encode_message(msg), data))


@given(bob_disclosures(), st.data())
def test_length_mutated_bob_frames_fail_closed(msg, data):
    # The frame length, the block index, m or the clicked count.
    decode_or_wire_error(rewrite_count(encode_message(msg), data))


SCALAR_TYPES = (SiftAnnounce, Syndrome, VerifyHash, VerifyResult, PaSeed)
U64 = st.integers(0, 2**64 - 1)
BITS = st.lists(st.integers(0, 1), max_size=80).map(bits_of)
scalar_messages = st.one_of(
    st.builds(SiftAnnounce, U64, st.booleans()),
    st.builds(Syndrome, BITS, U64),
    st.builds(VerifyHash, U64, BITS),
    st.builds(VerifyResult, st.booleans()),
    st.builds(PaSeed, U64, U64),
)


def test_scalar_messages_share_one_codec():
    # Each scalar message states its fields once, as annotations.
    for cls in SCALAR_TYPES:
        assert "encode" not in vars(cls) and "decode" not in vars(cls)
        assert not hasattr(cls, "FORMAT")


def test_scalar_message_byte_layout():
    # One varint per field in declaration order, a flag's 0 or 1 and a bit
    # string's its bit count, then the bit strings' packed columns.
    assert SiftAnnounce(n_sift=300, proceed=True).encode() == b"\xac\x02" b"\x01"
    assert VerifyResult(ok=False).encode() == b"\x00"
    assert PaSeed(seed=2**64 - 1, n_fin=0).encode() == b"\xff" * 9 + b"\x01" b"\x00"
    # The four syndrome bits 1, 1, 0, 1 are the column 0x0b after both
    # varints, the code seed's included.
    syndrome = Syndrome(bits_of([1, 1, 0, 1]), code_seed=128)
    assert syndrome.encode() == b"\x04" b"\x80\x01" b"\x0b"
    assert VerifyHash(seed=5, digest=BitString.zeros(0)).encode() == b"\x05\x00"


@given(scalar_messages, st.data())
def test_truncated_scalar_frames_fail_closed(msg, data):
    roundtrip(msg)
    assert decode_or_wire_error(truncate(encode_message(msg), data)) is None


@given(scalar_messages, st.data())
def test_bit_flipped_scalar_frames_fail_closed(msg, data):
    decode_or_wire_error(flip_bits(encode_message(msg), data))


@given(scalar_messages, st.data())
def test_length_mutated_scalar_frames_fail_closed(msg, data):
    # The frame's byte count or one field varint, a bit string's bit count
    # included, then random appended bytes.
    n_fields = len(dataclasses.fields(msg))
    decode_or_wire_error(rewrite_count(encode_message(msg), data, n_fields, 64))


@given(scalar_messages, st.binary(min_size=1, max_size=16))
def test_length_extended_scalar_frames_fail_closed(msg, extra):
    # A frame whose count covers bytes appended to a valid payload.
    assert decode_or_wire_error(encode_frame(msg.TAG, msg.encode() + extra)) is None


def test_scalar_messages_roundtrip():
    roundtrip(SiftAnnounce(n_sift=123456789, proceed=True))
    roundtrip(SiftAnnounce(n_sift=0, proceed=False))
    roundtrip(Syndrome(bits_of([1, 1, 0, 1]), code_seed=2**63 + 5))
    roundtrip(VerifyHash(seed=99, digest=bits_of([0, 1])))
    roundtrip(VerifyHash(seed=0, digest=BitString.zeros(0)))
    # A decoded flag is a bool, as its field is annotated.
    assert roundtrip(VerifyResult(ok=True)).ok is True
    assert roundtrip(VerifyResult(ok=False)).ok is False
    roundtrip(PaSeed(seed=17, n_fin=622))
    roundtrip(PaSeed(seed=2**64 - 1, n_fin=2**64 - 1))


def test_scalar_message_validation():
    with pytest.raises(WireError, match="truncated varint"):
        SiftAnnounce.decode(b"\x00")
    # A flag is the varint 0 or 1; 2 decodes to True, which re-encodes as 1.
    with pytest.raises(WireError, match="canonical"):
        SiftAnnounce.decode(b"\x00\x02")
    with pytest.raises(WireError, match="canonical"):
        VerifyResult.decode(b"\x02")
    with pytest.raises(WireError, match="canonical"):
        PaSeed.decode(b"\x00\x00\x00")
    with pytest.raises(WireError, match="truncated varint"):
        Syndrome.decode(b"\x09")
    # Bit counts that run past the payload, the largest allocating nothing.
    with pytest.raises(WireError, match="truncated bit-string"):
        Syndrome.decode(b"\x09\x00\x01")
    with pytest.raises(WireError, match="truncated bit-string"):
        VerifyHash.decode(leb128(0, 2**64 - 1) + b"\x01")


def test_tags_are_unique_and_stable():
    assert sorted(MESSAGE_TYPES) == list(range(1, 8))
    assert MESSAGE_TYPES[1] is BobBlockDisclosure
    assert MESSAGE_TYPES[7] is PaSeed
    # Tag 8 closed a session in earlier versions; no message carries it.
    with pytest.raises(WireError, match="unknown tag 8"):
        decode_message(encode_frame(8, b""))


def test_stream_of_frames_decodes_sequentially():
    msgs = [SiftAnnounce(10, True), VerifyResult(True), PaSeed(3, 5)]
    stream = b"".join(encode_message(m) for m in msgs)
    offset = 0
    out = []
    while offset < len(stream):
        msg, offset = decode_message(stream, offset)
        out.append(msg)
    assert out == msgs
