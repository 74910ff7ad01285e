"""Classical-channel message formats.

Every message travels as one frame: a little-endian u32 byte count, one
version byte (``WIRE_VERSION``), one tag byte, then the payload; the count
covers the version, the tag and the payload. A frame of any other version
is refused. All integers are little-endian and unsigned; a field that does
not fit its width raises ``WireError`` on encode, never wraps.

The six scalar messages (``SiftAnnounce`` to ``End``) each declare one
struct format and share one codec: the payload is the fixed-width fields
in declaration order, then, if the message has one, its bit string as a
u64 bit length followed by the LSB-first packed bytes.

The two block messages announce only what the other side lacks. Bob's
disclosure names the clicked rounds of a block, his basis on those rounds
and his bit on the clicked X rounds; Alice's reply gives intensity and
basis per named round as packed bit columns and her bit on matched X rounds
only. Bit columns whose length the other fields imply carry no length of
their own. Every encoding is canonical: a decoder refuses any form the
encoder would not have produced, so a frame that decodes re-encodes to its
own bytes.

The authenticated classical channel is assumed, not modeled: frames carry
no MAC. The transcript of a session is the concatenation of its frames.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
import typing
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .gf2 import BitString

WIRE_VERSION = 2


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


def _bits_at(buf: bytes, offset: int, n: int) -> tuple:
    """The ``n`` bits packed LSB-first at ``offset``; set padding is refused."""
    n_bytes = (n + 7) // 8
    if offset + n_bytes > len(buf):
        raise WireError("truncated bit-string body")
    try:
        bits = BitString.from_bytes(buf[offset : offset + n_bytes], n)
    except ValueError as exc:
        raise WireError(str(exc)) from exc
    return bits, offset + n_bytes


def unpack_bits(buf: bytes, offset: int) -> tuple:
    if offset + 8 > len(buf):
        raise WireError("truncated bit-string header")
    (n,) = struct.unpack_from("<Q", buf, offset)
    return _bits_at(buf, offset + 8, n)


def encode_frame(tag: int, payload: bytes) -> bytes:
    return _pack("<IBB", len(payload) + 2, WIRE_VERSION, tag) + payload


def decode_frame(buf: bytes, offset: int = 0) -> tuple:
    """Return (tag, payload, next offset) for the frame at ``offset``."""
    if offset + 6 > len(buf):
        raise WireError("truncated frame header")
    length, version, tag = struct.unpack_from("<IBB", buf, offset)
    if version != WIRE_VERSION:
        raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
    if length < 2:
        raise WireError("frame length must cover the version and tag bytes")
    end = offset + 4 + length
    if end > len(buf):
        raise WireError("truncated frame payload")
    return tag, buf[offset + 6 : end], end


# How Bob's disclosure sends the clicked set: an m-bit bitmap, or the gaps
# between ascending offsets (the first counted from round 0) in one width.
CLICKED_BITMAP = 0
GAP_DTYPES = {1: np.dtype("u1"), 2: np.dtype("<u2"), 3: np.dtype("<u4")}


def clicked_encoding(m: int, offsets: np.ndarray) -> int:
    """The flag of the shorter form of the clicked set ``offsets`` (int64,
    strictly ascending) of a block of m rounds.

    Gaps use the narrowest width that holds the largest gap and cost a u32
    count besides; a tie goes to the bitmap.
    """
    k = len(offsets)
    bitmap_bytes = (m + 7) // 8
    if 4 + k >= bitmap_bytes:
        return CLICKED_BITMAP
    largest = int(max(offsets[0], np.max(np.diff(offsets), initial=0))) if k else 0
    for flag, dtype in GAP_DTYPES.items():
        if largest < 256**dtype.itemsize:
            return flag if 4 + k * dtype.itemsize < bitmap_bytes else CLICKED_BITMAP


def clicked_offsets(offsets, m: int) -> np.ndarray:
    """``offsets`` as int64 after checking that they are strictly ascending
    rounds of a block of ``m``; ``WireError`` otherwise."""
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or (offsets.size and offsets.dtype.kind not in "iu"):
        raise WireError("offsets must be a 1-d integer array")
    offsets = offsets.astype(np.int64, copy=False)
    if offsets.size and (offsets[0] < 0 or offsets[-1] >= m):
        raise WireError("clicked offset outside the block")
    if np.any(offsets[1:] <= offsets[:-1]):
        raise WireError("clicked offsets must be strictly ascending")
    return offsets


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Block:
    """A block message; two are equal when their frames are."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())


@dataclass(frozen=True, eq=False)
class BobBlockDisclosure(_Block):
    """Bob's announcement after measuring block ``j`` of ``m`` rounds.

    ``offsets`` are the clicked rounds, strictly ascending and below ``m``.
    ``basis`` holds Bob's basis bit on each of them (1 means X) and
    ``x_outcomes`` his bit on each clicked X round, both in round order.

    Layout: ``<IIB`` j, m and the clicked-set flag, then the clicked set,
    then ``basis`` and ``x_outcomes`` packed LSB-first with no length
    fields (there are ``len(offsets)`` and ``basis.weight()`` bits). Flag
    0 sends the set as an m-bit bitmap; flags 1, 2 and 3 send a u32 count
    and then the gaps as u8, u16 or u32 (see ``clicked_encoding``).
    """

    TAG: ClassVar[int] = 1
    j: int
    m: int
    offsets: np.ndarray
    basis: BitString
    x_outcomes: BitString

    def encode(self) -> bytes:
        offsets = clicked_offsets(self.offsets, self.m)
        if len(self.basis) != len(offsets):
            raise WireError("basis must cover exactly the clicked rounds")
        if len(self.x_outcomes) != self.basis.weight():
            raise WireError("x outcome count does not match clicked X rounds")
        payload = _pack("<II", self.j, self.m)
        flag = clicked_encoding(self.m, offsets)
        payload += _pack("<B", flag)
        if flag == CLICKED_BITMAP:
            bitmap = np.zeros(self.m, dtype=np.uint8)
            bitmap[offsets] = 1
            payload += np.packbits(bitmap, bitorder="little").tobytes()
        else:
            gaps = offsets.copy()
            gaps[1:] -= offsets[:-1]
            payload += _pack("<I", len(offsets)) + gaps.astype(GAP_DTYPES[flag]).tobytes()
        return payload + self.basis.to_bytes() + self.x_outcomes.to_bytes()

    @classmethod
    def decode(cls, payload: bytes) -> "BobBlockDisclosure":
        if len(payload) < 9:
            raise WireError("short block disclosure")
        j, m, flag = struct.unpack_from("<IIB", payload, 0)
        off = 9
        if flag == CLICKED_BITMAP:
            bitmap, off = _bits_at(payload, off, m)
            # 0/1 bytes viewed as bool: nonzero search is faster on bool.
            offsets = np.flatnonzero(bitmap.to_array().view(bool))
        elif flag in GAP_DTYPES:
            if off + 4 > len(payload):
                raise WireError("truncated clicked count")
            (k,) = struct.unpack_from("<I", payload, off)
            off += 4
            dtype = GAP_DTYPES[flag]
            if off + k * dtype.itemsize > len(payload):
                raise WireError("truncated clicked gaps")
            gaps = np.frombuffer(payload, dtype=dtype, count=k, offset=off)
            off += k * dtype.itemsize
            if np.any(gaps[1:] == 0):
                raise WireError("clicked offsets must be strictly ascending")
            offsets = np.cumsum(gaps, dtype=np.int64)
            if k and offsets[-1] >= m:
                raise WireError("clicked offset beyond the block")
        else:
            raise WireError(f"unknown clicked-set flag {flag}")
        if flag != clicked_encoding(m, offsets):
            raise WireError("clicked set not in its shortest form")
        basis, off = _bits_at(payload, off, len(offsets))
        x_outcomes, off = _bits_at(payload, off, basis.weight())
        if off != len(payload):
            raise WireError("trailing bytes in block disclosure")
        return cls(j, m, _read_only(offsets), basis, x_outcomes)


def _column(name: str, column, top: int) -> np.ndarray:
    """A 1-d column of integers in [0, top] as uint8; ``WireError`` otherwise."""
    column = np.asarray(column)
    if column.ndim != 1:
        raise WireError(f"{name} column must be 1-d")
    if column.size and (
        column.dtype.kind not in "biu" or column.min() < 0 or column.max() > top
    ):
        raise WireError(f"{name} column out of range")
    return column.astype(np.uint8)


def _pack_omega(omega: np.ndarray) -> bytes:
    """Intensity indices as 2-bit values, four per byte, LSB first."""
    quads = np.zeros((len(omega) + 3) // 4 * 4, dtype=np.uint8)
    quads[: len(omega)] = omega
    quads = quads.reshape(-1, 4)
    packed = quads[:, 0] | quads[:, 1] << 2 | quads[:, 2] << 4 | quads[:, 3] << 6
    return packed.tobytes()


# The four 2-bit values of each byte, LSB first.
_QUADS = (np.arange(256, dtype=np.uint8)[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 3


def _unpack_omega(raw: bytes, count: int) -> np.ndarray:
    values = np.take(_QUADS, np.frombuffer(raw, dtype=np.uint8), axis=0).reshape(-1)
    if np.any(values[count:]):
        raise WireError("padding bits beyond the stated length are set")
    values = values[:count]
    if values.max(initial=0) > 2:
        raise WireError("intensity index out of range")
    return _read_only(values)


@dataclass(frozen=True, eq=False)
class AliceBlockDisclosure(_Block):
    """Alice's reply for block ``j``: one record per round Bob named.

    ``omega`` (intensity index, at most 2) and ``alpha`` (basis bit) cover
    the named rounds in ascending round order; ``value`` holds Alice's bit
    on the matched X rounds only, whose bits feed the public error tally.
    Which rounds those are follows from ``alpha`` and Bob's own bases, so
    the reply carries no offsets. Build it with :meth:`from_columns`,
    which refuses values that do not fit their field.

    Layout: ``<III`` j, the record count and the number of value bits,
    then ``omega`` as 2-bit values four to a byte, ``alpha`` and ``value``
    packed LSB-first, each column padded with zero bits to a whole byte.
    """

    TAG: ClassVar[int] = 2
    j: int
    omega: np.ndarray
    alpha: BitString
    value: BitString

    @classmethod
    def from_columns(cls, j: int, omega, alpha, value) -> "AliceBlockDisclosure":
        """Check three columns and wrap them into a reply."""
        omega = _column("omega", omega, 2)
        alpha = _column("alpha", alpha, 1)
        if len(omega) != len(alpha):
            raise WireError("omega and alpha must cover the same rounds")
        value = _column("value", value, 1)
        return cls(
            j, _read_only(omega), BitString.from_array(alpha), BitString.from_array(value)
        )

    def encode(self) -> bytes:
        omega = _column("omega", self.omega, 2)
        if len(self.alpha) != len(omega):
            raise WireError("omega and alpha must cover the same rounds")
        return (
            _pack("<III", self.j, len(omega), len(self.value))
            + _pack_omega(omega)
            + self.alpha.to_bytes()
            + self.value.to_bytes()
        )

    @classmethod
    def decode(cls, payload: bytes) -> "AliceBlockDisclosure":
        if len(payload) < 12:
            raise WireError("short block reply")
        j, count, n_values = struct.unpack_from("<III", payload, 0)
        omega_bytes = (count + 3) // 4
        expected = 12 + omega_bytes + (count + 7) // 8 + (n_values + 7) // 8
        if len(payload) != expected:
            raise WireError("block reply length mismatch")
        omega = _unpack_omega(payload[12 : 12 + omega_bytes], count)
        alpha, off = _bits_at(payload, 12 + omega_bytes, count)
        value, _ = _bits_at(payload, off, n_values)
        return cls(j, omega, alpha, value)


class _Scalar:
    """A message of fixed-width fields and at most one bit string.

    ``FORMAT`` is the struct format of the fields other than the bit
    string, in declaration order; the bit string, if any, follows them as a
    u64 bit length and its packed bytes (``pack_bits``). A payload that
    does not re-encode to itself, such as one with trailing bytes or a flag
    byte above 1, is refused.
    """

    TAG: ClassVar[int]
    FORMAT: ClassVar[str]

    @classmethod
    @functools.cache
    def _layout(cls) -> tuple:
        """(names of the fixed fields, name of the bit-string field or None)."""
        types = typing.get_type_hints(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        fixed = tuple(name for name in names if types[name] is not BitString)
        return fixed, next((name for name in names if types[name] is BitString), None)

    def encode(self) -> bytes:
        fixed, bits = self._layout()
        payload = _pack(self.FORMAT, *(getattr(self, name) for name in fixed))
        return payload if bits is None else payload + pack_bits(getattr(self, bits))

    @classmethod
    def decode(cls, payload: bytes) -> "_Scalar":
        fixed, bits = cls._layout()
        size = struct.calcsize(cls.FORMAT)
        if len(payload) < size:
            raise WireError(f"short {cls.__name__} payload")
        values = dict(zip(fixed, struct.unpack_from(cls.FORMAT, payload)))
        if bits is not None:
            values[bits], _ = unpack_bits(payload, size)
        msg = cls(**values)
        if msg.encode() != payload:
            raise WireError(f"{cls.__name__} payload not in canonical form")
        return msg


@dataclass(frozen=True)
class SiftAnnounce(_Scalar):
    TAG: ClassVar[int] = 3
    FORMAT: ClassVar[str] = "<Q?"
    n_sift: int
    proceed: bool


@dataclass(frozen=True)
class Syndrome(_Scalar):
    TAG: ClassVar[int] = 4
    FORMAT: ClassVar[str] = "<Q"
    bits: BitString
    code_seed: int


@dataclass(frozen=True)
class VerifyHash(_Scalar):
    TAG: ClassVar[int] = 5
    FORMAT: ClassVar[str] = "<Q"
    seed: int
    digest: BitString


@dataclass(frozen=True)
class VerifyResult(_Scalar):
    TAG: ClassVar[int] = 6
    FORMAT: ClassVar[str] = "<?"
    ok: bool


@dataclass(frozen=True)
class PaSeed(_Scalar):
    TAG: ClassVar[int] = 7
    FORMAT: ClassVar[str] = "<QQ"
    seed: int
    n_fin: int


@dataclass(frozen=True)
class End(_Scalar):
    TAG: ClassVar[int] = 8
    FORMAT: ClassVar[str] = "<"


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
