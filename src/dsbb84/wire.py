"""Classical-channel message formats.

Every message travels as one frame: a little-endian u32 byte count, one tag
byte, then the payload the count covers (tag included). Bit strings are
serialized as a little-endian u64 bit length followed by the LSB-first
packed bytes. All integers are little-endian and unsigned.

The authenticated classical channel is assumed, not modeled: frames carry
no MAC. The transcript of a session is the concatenation of its frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Sequence

from .gf2 import BitString


class WireError(ValueError):
    """Malformed frame or payload."""


def pack_bits(bits: BitString) -> bytes:
    return struct.pack("<Q", len(bits)) + bits.to_bytes()


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
    return struct.pack("<IB", len(payload) + 1, tag) + payload


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
        payload = struct.pack("<I", self.j)
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
        expected = (clicked.word & basis.word).bit_count()
        if len(x_outcomes) != expected:
            raise WireError("x outcome count does not match clicked X rounds")
        return cls(j, clicked, basis, x_outcomes)


A_WITHHELD = 0xFF


@dataclass(frozen=True)
class AliceBlockDisclosure:
    """Alice's reply for block ``j``: one record per clicked round.

    Records are (round offset, intensity index, basis bit, bit value) with
    the bit value ``A_WITHHELD`` whenever the round is not disclosed
    (everything except matched X rounds, whose bits feed the public error
    tally).
    """

    TAG: ClassVar[int] = 2
    j: int
    records: Sequence[tuple]

    def encode(self) -> bytes:
        parts = [struct.pack("<II", self.j, len(self.records))]
        last = -1
        for offset, omega, alpha, a in self.records:
            if offset <= last:
                raise WireError("records must be in ascending round order")
            last = offset
            value = A_WITHHELD if a is None else a
            parts.append(struct.pack("<IBBB", offset, omega, alpha, value))
        return b"".join(parts)

    @classmethod
    def decode(cls, payload: bytes) -> "AliceBlockDisclosure":
        if len(payload) < 8:
            raise WireError("short block reply")
        j, count = struct.unpack_from("<II", payload, 0)
        if len(payload) != 8 + 7 * count:
            raise WireError("block reply length mismatch")
        records = []
        last = -1
        for i in range(count):
            offset, omega, alpha, value = struct.unpack_from(
                "<IBBB", payload, 8 + 7 * i
            )
            if offset <= last:
                raise WireError("records must be in ascending round order")
            last = offset
            if omega > 2 or alpha > 1:
                raise WireError("intensity or basis index out of range")
            if value not in (0, 1, A_WITHHELD):
                raise WireError("bit value out of range")
            records.append(
                (offset, omega, alpha, None if value == A_WITHHELD else value)
            )
        return cls(j, tuple(records))


@dataclass(frozen=True)
class SiftAnnounce:
    TAG: ClassVar[int] = 3
    n_sift: int
    proceed: bool

    def encode(self) -> bytes:
        return struct.pack("<QB", self.n_sift, 1 if self.proceed else 0)

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
        return struct.pack("<Q", self.code_seed) + pack_bits(self.bits)

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
        return struct.pack("<Q", self.seed) + pack_bits(self.digest)

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
        return struct.pack("<B", 1 if self.ok else 0)

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
        return struct.pack("<QQ", self.seed, self.n_fin)

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
