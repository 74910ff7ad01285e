"""Classical-channel message formats.

Every message travels as one frame: a little-endian u32 byte count, one tag
byte, then the payload the count covers (tag included). Bit strings are
serialized as a little-endian u64 bit length followed by the LSB-first
packed bytes. All integers are little-endian and unsigned; a field that does
not fit its width raises ``WireError`` on encode, never wraps.

Alice's block reply is columnar: one numpy structured array of
``RECORD_DTYPE`` (u32 round offset, u8 intensity index, u8 basis bit, u8
bit value with ``0xFF`` for withheld), whose packed 7-byte items are the
wire records, so it is encoded with one ``tobytes()`` and decoded with one
``np.frombuffer``.

The authenticated classical channel is assumed, not modeled: frames carry
no MAC. The transcript of a session is the concatenation of its frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .gf2 import BitString


class WireError(ValueError):
    """Malformed frame or payload."""


def _pack(fmt: str, *values) -> bytes:
    """``struct.pack`` that reports a field out of range as ``WireError``."""
    try:
        return struct.pack(fmt, *values)
    except struct.error as exc:
        raise WireError(f"field out of range for {fmt!r}: {exc}") from None


def pack_bits(bits: BitString) -> bytes:
    return _pack("<Q", len(bits)) + bits.to_bytes()


def unpack_bits(buf: bytes, offset: int) -> tuple:
    if offset + 8 > len(buf):
        raise WireError("truncated bit-string header")
    (n,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    n_bytes = (n + 7) // 8
    if offset + n_bytes > len(buf):
        raise WireError("truncated bit-string body")
    try:
        bits = BitString.from_bytes(buf[offset : offset + n_bytes], n)
    except ValueError as exc:
        raise WireError(str(exc)) from exc
    return bits, offset + n_bytes


def encode_frame(tag: int, payload: bytes) -> bytes:
    return _pack("<IB", len(payload) + 1, tag) + payload


def decode_frame(buf: bytes, offset: int = 0) -> tuple:
    """Return (tag, payload, next offset) for the frame at ``offset``."""
    if offset + 5 > len(buf):
        raise WireError("truncated frame header")
    length, tag = struct.unpack_from("<IB", buf, offset)
    if length < 1:
        raise WireError("frame length must cover the tag byte")
    end = offset + 4 + length
    if end > len(buf):
        raise WireError("truncated frame payload")
    return tag, buf[offset + 5 : end], end


@dataclass(frozen=True)
class BobBlockDisclosure:
    """Bob's per-block announcement after measuring block ``j``.

    ``clicked`` and ``basis`` cover all rounds of the block in order
    (basis bit 1 means X). ``x_outcomes`` lists Bob's bit for each clicked
    X-basis round, in ascending round order.
    """

    TAG: ClassVar[int] = 1
    j: int
    clicked: BitString
    basis: BitString
    x_outcomes: BitString

    def encode(self) -> bytes:
        if len(self.basis) != len(self.clicked):
            raise WireError("clicked and basis must cover the same rounds")
        payload = _pack("<I", self.j)
        payload += pack_bits(self.clicked)
        payload += pack_bits(self.basis)
        payload += pack_bits(self.x_outcomes)
        return payload

    @classmethod
    def decode(cls, payload: bytes) -> "BobBlockDisclosure":
        if len(payload) < 4:
            raise WireError("short block disclosure")
        (j,) = struct.unpack_from("<I", payload, 0)
        clicked, off = unpack_bits(payload, 4)
        basis, off = unpack_bits(payload, off)
        x_outcomes, off = unpack_bits(payload, off)
        if off != len(payload):
            raise WireError("trailing bytes in block disclosure")
        if len(basis) != len(clicked):
            raise WireError("clicked and basis must cover the same rounds")
        expected = np.count_nonzero(clicked.to_array() & basis.to_array())
        if len(x_outcomes) != expected:
            raise WireError("x outcome count does not match clicked X rounds")
        return cls(j, clicked, basis, x_outcomes)


A_WITHHELD = 0xFF

# One wire record: round offset, intensity index, basis bit, bit value.
# Packed (itemsize 7), so an array's bytes are the ``<IBBB`` records.
RECORD_DTYPE = np.dtype(
    [("offset", "<u4"), ("omega", "u1"), ("alpha", "u1"), ("value", "u1")]
)


@dataclass(frozen=True, eq=False)
class AliceBlockDisclosure:
    """Alice's reply for block ``j``: one record per clicked round.

    ``records`` is a read-only 1-d array of ``RECORD_DTYPE`` in ascending
    round order. ``value`` is Alice's bit on matched X rounds, whose bits
    feed the public error tally, and ``A_WITHHELD`` on every other round.
    Build it with :meth:`from_columns`, which refuses values that do not
    fit their field.
    """

    TAG: ClassVar[int] = 2
    j: int
    records: np.ndarray

    @classmethod
    def from_columns(
        cls, j: int, offset, omega, alpha, value
    ) -> "AliceBlockDisclosure":
        """Pack four equal-length columns into one record array."""
        records = np.empty(len(offset), dtype=RECORD_DTYPE)
        for name, column in zip(RECORD_DTYPE.names, (offset, omega, alpha, value)):
            try:
                records[name] = column
            except (TypeError, ValueError, OverflowError) as exc:
                raise WireError(f"record {name} column: {exc}") from None
            if not np.array_equal(records[name], column):
                raise WireError(f"record {name} out of range")
        records.flags.writeable = False
        return cls(j, records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AliceBlockDisclosure):
            return NotImplemented
        return self.j == other.j and self.records.tobytes() == other.records.tobytes()

    def __hash__(self) -> int:
        return hash((self.j, self.records.tobytes()))

    def encode(self) -> bytes:
        records = self.records
        if (
            not isinstance(records, np.ndarray)
            or records.dtype != RECORD_DTYPE
            or records.ndim != 1
        ):
            raise WireError("records must be a 1-d array of RECORD_DTYPE")
        offsets = records["offset"]
        if np.any(offsets[1:] <= offsets[:-1]):
            raise WireError("records must be in ascending round order")
        return _pack("<II", self.j, len(records)) + records.tobytes()

    @classmethod
    def decode(cls, payload: bytes) -> "AliceBlockDisclosure":
        if len(payload) < 8:
            raise WireError("short block reply")
        j, count = struct.unpack_from("<II", payload, 0)
        if len(payload) != 8 + RECORD_DTYPE.itemsize * count:
            raise WireError("block reply length mismatch")
        # Over immutable bytes the array is read-only, like the message.
        records = np.frombuffer(bytes(payload), dtype=RECORD_DTYPE, offset=8)
        offsets = records["offset"]
        if np.any(offsets[1:] <= offsets[:-1]):
            raise WireError("records must be in ascending round order")
        if np.any(records["omega"] > 2) or np.any(records["alpha"] > 1):
            raise WireError("intensity or basis index out of range")
        value = records["value"]
        if np.any((value > 1) & (value != A_WITHHELD)):
            raise WireError("bit value out of range")
        return cls(j, records)


@dataclass(frozen=True)
class SiftAnnounce:
    TAG: ClassVar[int] = 3
    n_sift: int
    proceed: bool

    def encode(self) -> bytes:
        return _pack("<QB", self.n_sift, 1 if self.proceed else 0)

    @classmethod
    def decode(cls, payload: bytes) -> "SiftAnnounce":
        if len(payload) != 9:
            raise WireError("sift announce must be 9 bytes")
        n_sift, proceed = struct.unpack("<QB", payload)
        if proceed > 1:
            raise WireError("proceed flag out of range")
        return cls(n_sift, bool(proceed))


@dataclass(frozen=True)
class Syndrome:
    TAG: ClassVar[int] = 4
    bits: BitString
    code_seed: int

    def encode(self) -> bytes:
        return _pack("<Q", self.code_seed) + pack_bits(self.bits)

    @classmethod
    def decode(cls, payload: bytes) -> "Syndrome":
        if len(payload) < 8:
            raise WireError("short syndrome")
        (code_seed,) = struct.unpack_from("<Q", payload, 0)
        bits, off = unpack_bits(payload, 8)
        if off != len(payload):
            raise WireError("trailing bytes in syndrome")
        return cls(bits, code_seed)


@dataclass(frozen=True)
class VerifyHash:
    TAG: ClassVar[int] = 5
    seed: int
    digest: BitString

    def encode(self) -> bytes:
        return _pack("<Q", self.seed) + pack_bits(self.digest)

    @classmethod
    def decode(cls, payload: bytes) -> "VerifyHash":
        if len(payload) < 8:
            raise WireError("short verify hash")
        (seed,) = struct.unpack_from("<Q", payload, 0)
        digest, off = unpack_bits(payload, 8)
        if off != len(payload):
            raise WireError("trailing bytes in verify hash")
        return cls(seed, digest)


@dataclass(frozen=True)
class VerifyResult:
    TAG: ClassVar[int] = 6
    ok: bool

    def encode(self) -> bytes:
        return _pack("<B", 1 if self.ok else 0)

    @classmethod
    def decode(cls, payload: bytes) -> "VerifyResult":
        if len(payload) != 1 or payload[0] > 1:
            raise WireError("verify result must be one flag byte")
        return cls(bool(payload[0]))


@dataclass(frozen=True)
class PaSeed:
    TAG: ClassVar[int] = 7
    seed: int
    n_fin: int

    def encode(self) -> bytes:
        return _pack("<QQ", self.seed, self.n_fin)

    @classmethod
    def decode(cls, payload: bytes) -> "PaSeed":
        if len(payload) != 16:
            raise WireError("pa seed must be 16 bytes")
        seed, n_fin = struct.unpack("<QQ", payload)
        return cls(seed, n_fin)


@dataclass(frozen=True)
class End:
    TAG: ClassVar[int] = 8

    def encode(self) -> bytes:
        return b""

    @classmethod
    def decode(cls, payload: bytes) -> "End":
        if payload:
            raise WireError("end carries no payload")
        return cls()


MESSAGE_TYPES = {
    cls.TAG: cls
    for cls in (
        BobBlockDisclosure,
        AliceBlockDisclosure,
        SiftAnnounce,
        Syndrome,
        VerifyHash,
        VerifyResult,
        PaSeed,
        End,
    )
}


def encode_message(msg) -> bytes:
    return encode_frame(msg.TAG, msg.encode())


def decode_message(buf: bytes, offset: int = 0) -> tuple:
    """Decode one frame into a typed message; returns (message, offset)."""
    tag, payload, offset = decode_frame(buf, offset)
    try:
        cls = MESSAGE_TYPES[tag]
    except KeyError:
        raise WireError(f"unknown tag {tag}") from None
    return cls.decode(payload), offset
