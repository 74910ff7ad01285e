import dataclasses
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dsbb84.wire
from dsbb84.channel import click_law, load_channel
from dsbb84.gf2 import BitString
from dsbb84.params import load_constants
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
    assert WIRE_VERSION == 5
    raw = encode_frame(7, b"abc")
    assert raw == b"\x05\x05\x07abc"
    tag, payload, end = decode_frame(raw)
    assert (tag, payload, end) == (7, b"abc", len(raw))
    # A count of 128 or more takes a second byte.
    raw = encode_frame(7, bytes(126))
    assert raw[:4] == b"\x80\x01\x05\x07" and decode_frame(raw)[1:] == (bytes(126), 130)


def test_frame_errors():
    with pytest.raises(WireError, match="truncated varint"):
        decode_frame(b"\x81")
    with pytest.raises(WireError, match="truncated frame header"):
        decode_frame(b"\x02\x05")
    with pytest.raises(WireError, match="cover"):
        decode_frame(b"\x01\x05\x05")
    with pytest.raises(WireError, match="truncated"):
        decode_frame(b"\x09\x05\x05abc")
    with pytest.raises(WireError):
        decode_message(encode_frame(200, b""))
    # Any other version is refused, today's predecessor (a fixed-width frame
    # header and scalar fields) included.
    for version in (0, 1, 2, 3, 4, 6, 255):
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
    # Varints of the block index, round count m = 10 and click count k = 3.
    # The clicked set [0, 3, 9] sends L = floor(log2(10/3)) = 1 low-bit plane
    # (bit 0 of each offset: 0, 1, 1) and a high part of 3 + (9 >> 1) = 7
    # bits with bits (o >> 1) + i = 0, 2 and 6 set. Bob's basis and X
    # outcomes follow; each column is LSB-first and padded to a byte.
    msg = bob(2, 10, [0, 3, 9], [1, 0, 1], [0, 1])
    assert msg.encode() == bytes.fromhex("02" "0a" "03" "06" "45" "05" "02")
    roundtrip(msg)
    assert len(WIDE) == 3 + 5 + 6 + 3 + 3
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


@given(clicked_sets())
@example((8, [0, 4]))
@example((4000, list(range(0, 4000, 4))))
def test_sparse_clicked_set_is_no_longer_than_a_bitmap(clicked):
    # While at most a quarter of the rounds click, the Elias-Fano form
    # costs at most 4 bytes more than an m-bit bitmap would.
    m, offsets = clicked
    if len(offsets) <= m / 4:
        msg = bob(0, m, offsets, [0] * len(offsets), [])
        assert clicked_set_bytes(msg) <= (m + 7) // 8 + 4


def test_shipped_configs_click_sparsely_enough_for_the_size_bound():
    # The bound above holds while at most a quarter of a block's rounds
    # click; a mean click ratio below 0.2 leaves room for the spread of
    # one block's click count.
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for stem in ("demo", "fiber", "small"):
        law = click_law(
            load_constants(configs / f"{stem}_constants.json"),
            load_channel(configs / f"{stem}_channel.json"),
        )
        assert law.p_click < 0.2, stem


def bob_payload(j, m, k, *columns):
    return leb128(j, m, k) + b"".join(columns)


# m = 100 with every fifth round clicked and in X: L = 2, so a 40-bit low
# part (5 bytes), a 20 + 24 = 44-bit high part (6), then 20 basis bits (3)
# and 20 X outcomes (3). Each cut ends the payload inside one column.
WIDE = bob(0, 100, list(range(0, 100, 5)), [1] * 20, [1, 0] * 10).encode()


@pytest.mark.parametrize(
    "payload, match",
    [
        # More clicks than rounds.
        (bob_payload(0, 2, 3, b"\x06", b"\x45", b"\x05", b"\x02"), "more clicked"),
        # The 7-bit high part of [0, 3, 9] in m = 10 with one set bit too
        # few (bits 0, 2) and one too many (bits 0, 1, 2, 6).
        (bob_payload(0, 10, 3, b"\x06", b"\x05", b"\x05", b"\x02"), "high part"),
        (bob_payload(0, 10, 3, b"\x06", b"\x47", b"\x05", b"\x02"), "high part"),
        # Offsets [3, 3, 9] and [3, 2, 9].
        (bob_payload(0, 10, 3, b"\x07", b"\x46", b"\x05", b"\x02"), "ascending"),
        (bob_payload(0, 10, 3, b"\x05", b"\x46", b"\x05", b"\x02"), "ascending"),
        # Offsets [0, 3, 9] in a block of m = 9.
        (bob_payload(0, 9, 3, b"\x06", b"\x45", b"\x05", b"\x02"), "outside the block"),
        # Padding bits set: low part, high part, basis, X outcomes.
        (bob_payload(0, 10, 3, b"\x0e", b"\x45", b"\x05", b"\x02"), "padding"),
        (bob_payload(0, 10, 3, b"\x06", b"\xc5", b"\x05", b"\x02"), "padding"),
        (bob_payload(0, 10, 3, b"\x06", b"\x45", b"\x0d", b"\x02"), "padding"),
        (bob_payload(0, 10, 3, b"\x06", b"\x45", b"\x05", b"\x06"), "padding"),
        # A payload that ends inside the low part, the high part, the basis
        # or the X outcomes; a count whose columns the payload cannot hold.
        (WIDE[: 3 + 2], "truncated"),
        (WIDE[: 3 + 5 + 3], "truncated"),
        (WIDE[: 3 + 11 + 1], "truncated"),
        (WIDE[: 3 + 14 + 1], "truncated"),
        (bob_payload(0, 2**32 - 1, 2**31), "truncated"),
        # Trailing byte; a header that ends before its third varint.
        (bob_payload(0, 10, 3, b"\x06", b"\x45", b"\x05", b"\x02", b"\x00"), "trailing"),
        (leb128(0, 10), "truncated varint"),
    ],
    ids=["k-above-m", "missing-one", "extra-one", "zero-gap", "descending",
         "offset-beyond-m", "low-padding", "high-padding", "basis-padding",
         "x-padding", "truncated-low", "truncated-high", "truncated-basis",
         "truncated-x", "count-beyond-payload", "trailing", "short"],
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
    # Varints of the block index, record count and value-bit count; then the
    # intensity column (a D-or-V bit per record, then a V bit per D-or-V
    # record), alpha and the matched-X value bits, each LSB-first and
    # padded with zero bits to a whole byte.
    msg = AliceBlockDisclosure(
        2, [0, 1, 2, 1, 2], [0, 1, 1, 0, 1], [1, 0]
    )
    # Intensity bits 0 1 1 1 1 | 0 1 0 1: 0x5e, then 0x01.
    assert msg.encode() == b"\x02\x05\x02" b"\x5e\x01" b"\x16" b"\x01"
    empty = AliceBlockDisclosure(7, [], [], [])
    assert empty.encode() == b"\x07\x00\x00"
    # S costs one bit a record, D or V two, so an all-S reply of 16 records
    # sends two intensity bytes and an all-V one four.
    assert len(AliceBlockDisclosure(0, [0] * 16, [0] * 16, []).encode()) == 3 + 2 + 2
    assert len(AliceBlockDisclosure(0, [2] * 16, [0] * 16, []).encode()) == 3 + 4 + 2


def alice_payload(count, n_values, body):
    return leb128(0, count, n_values) + body


def test_alice_disclosure_validation():
    # Padding bits set: intensity (two S records fill two bits), alpha,
    # value.
    for body, n_values in ((b"\x04\x00", 0), (b"\x00\x04", 0), (b"\x00\x00\x02", 1)):
        with pytest.raises(WireError, match="padding"):
            AliceBlockDisclosure.decode(alice_payload(2, n_values, body))
    # Two D-or-V bits announce two V bits after them, so the intensity
    # column takes four bits; the alpha byte is then missing.
    with pytest.raises(WireError, match="truncated"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, b"\x03"))
    with pytest.raises(WireError, match="truncated"):
        AliceBlockDisclosure.decode(alice_payload(2**32 - 1, 0, b"\x00\x00"))
    with pytest.raises(WireError, match="trailing"):
        AliceBlockDisclosure.decode(alice_payload(2, 0, b"\x00\x00\x00"))
    # A header that ends before its third varint.
    with pytest.raises(WireError, match="truncated varint"):
        AliceBlockDisclosure.decode(leb128(0, 2))
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, np.array([3], dtype=np.uint8), [0], []).encode()
    with pytest.raises(WireError):
        AliceBlockDisclosure(0, np.array([0, 1], dtype=np.uint8), [0], []).encode()


def test_every_intensity_column_decodes_and_reencodes():
    # Every bit pattern of the intensity column of up to 6 records, with
    # each record's alpha bit set, decodes to indices in 0-2, D-or-V bit
    # plus V bit, and re-encodes to its own bytes. No code point is left
    # over to refuse.
    for count in range(7):
        for d_or_v in itertools.product((0, 1), repeat=count):
            for v in itertools.product((0, 1), repeat=sum(d_or_v)):
                column = np.packbits(np.array(d_or_v + v, dtype=np.uint8), bitorder="little")
                alpha = np.packbits(np.ones(count, dtype=np.uint8), bitorder="little")
                payload = alice_payload(count, 0, column.tobytes() + alpha.tobytes())
                msg = AliceBlockDisclosure.decode(payload)
                expected = np.array(d_or_v, dtype=np.uint8)
                expected[expected == 1] += np.array(v, dtype=np.uint8)
                assert msg.omega.tolist() == expected.tolist()
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
    "frame": (reencoded_frame, 32, (5,), b"\x05\x07abc"),
    "bob": (lambda raw: BobBlockDisclosure.decode(raw).encode(), 32, (0, 10, 0), b""),
    "alice": (lambda raw: AliceBlockDisclosure.decode(raw).encode(), 32, (0, 0, 0), b""),
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
    # The frame length, the block index, the record count or the value-bit
    # count.
    decode_or_wire_error(rewrite_count(encode_message(msg), data))


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
