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
disclosure names the clicked rounds of a block in one Elias-Fano form
(Elias 1974; Fano 1971), whose layout follows from the block size and
the click count alone, then gives his basis on those rounds and his bit
on the clicked X rounds; Alice's reply gives intensity and basis per
named round and her bit on matched X rounds only. Every column of a block
message is a bit column packed LSB-first and padded with zero bits to a
whole byte, and carries no length of its own: the fixed fields imply it.
Every encoding is canonical: a decoder refuses any form the encoder would
not have produced, so a frame that decodes re-encodes to its own bytes.

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

WIRE_VERSION = 3


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


def _column_end(buf: bytes, offset: int, n: int) -> int:
    """End of the ``n``-bit column packed LSB-first at ``offset``; a column
    that runs past ``buf`` or has a padding bit set is refused."""
    end = offset + (n + 7) // 8
    if end > len(buf):
        raise WireError("truncated bit-string body")
    if n % 8 and buf[end - 1] >> (n % 8):
        raise WireError("padding bits beyond the stated length are set")
    return end


def _packed(bits: np.ndarray) -> bytes:
    """A column of 0/1 values, flattened, packed LSB-first in one call."""
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_bits(buf: bytes, offset: int) -> tuple:
    if offset + 8 > len(buf):
        raise WireError("truncated bit-string header")
    (n,) = struct.unpack_from("<Q", buf, offset)
    start = offset + 8
    end = _column_end(buf, start, n)
    return BitString.from_bytes(buf[start:end], n), end


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


def clicked_offsets(offsets, m: int) -> np.ndarray:
    """``offsets`` as int64 after checking that they are strictly ascending
    rounds of a block of ``m``; ``WireError`` otherwise."""
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or (offsets.size and offsets.dtype.kind not in "iu"):
        raise WireError("offsets must be a 1-d integer array")
    offsets = offsets.astype(np.int64, copy=False)
    if offsets.size and (offsets[0] < 0 or offsets[-1] >= m):
        raise WireError("clicked offset outside the block")
    if (offsets[1:] <= offsets[:-1]).any():
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


@functools.cache
def _plane_shifts(low_bits: int) -> np.ndarray:
    """The shifts 0, ..., L - 1 as a read-only column in the narrowest
    unsigned type that holds L bits, so that the L x k planes take no wider
    type. A u32 block size allows at most 33 values of L."""
    dtype = np.min_scalar_type((1 << low_bits) - 1)
    return _read_only(np.arange(low_bits, dtype=dtype)[:, None])


def _clicked_layout(m: int, k: int) -> tuple:
    """(L, high-part bits, plane shifts) of the Elias-Fano form of k clicked
    rounds out of m. Each offset sends its L = floor(log2(m/k)) low bits,
    and the high part has k + ((m - 1) >> L) bits; an empty set sends no
    bits."""
    low_bits = (m // k).bit_length() - 1 if k else 0
    high_len = k + ((m - 1) >> low_bits) if k else 0
    return low_bits, high_len, _plane_shifts(low_bits)


@dataclass(frozen=True, eq=False)
class BobBlockDisclosure(_Block):
    """Bob's announcement after measuring block ``j`` of ``m`` rounds.

    ``offsets`` are the clicked rounds, strictly ascending and below ``m``.
    ``basis`` holds Bob's basis bit on each of them (1 means X) and
    ``x_outcomes`` his bit on each clicked X round, both in round order.

    Layout: ``<III`` j, m and the clicked count k, then four bit columns.
    The first two are the clicked set in Elias-Fano form, whose layout
    follows from (m, k) alone (see ``_clicked_layout``): L low-bit planes
    of k bits each, plane p holding bit p of every offset, then the high
    part, with bit ``(offsets[i] >> L) + i`` set for each i. Then come
    ``basis`` (k bits) and ``x_outcomes`` (``basis.weight()`` bits).
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
        k = len(offsets)
        # Packed first, so that an m beyond u32 is refused before the high
        # part, about m >> L bits, is allocated.
        header = _pack("<III", self.j, self.m, k)
        low_bits, high_len, shifts = _clicked_layout(self.m, k)
        low = (offsets & ((1 << low_bits) - 1)).astype(shifts.dtype)
        high = np.zeros(high_len, dtype=np.uint8)
        high[(offsets >> low_bits) + np.arange(k)] = 1
        return b"".join((
            header,
            _packed((low >> shifts) & 1),
            _packed(high),
            self.basis.to_bytes(),
            self.x_outcomes.to_bytes(),
        ))

    @classmethod
    def decode(cls, payload: bytes) -> "BobBlockDisclosure":
        if len(payload) < 12:
            raise WireError("short block disclosure")
        j, m, k = struct.unpack_from("<III", payload, 0)
        if k > m:
            raise WireError("more clicked rounds than the block has")
        low_bits, high_len, shifts = _clicked_layout(m, k)
        # Every column is checked against the payload before any bit is
        # unpacked, so a count the payload cannot hold allocates nothing.
        high_at = _column_end(payload, 12, low_bits * k)
        basis_at = _column_end(payload, high_at, high_len)
        x_at = _column_end(payload, basis_at, k)
        # One unpack for the whole payload; each column is a view of it.
        bits = BitString.from_bytes(payload, 8 * len(payload))
        basis = bits[8 * basis_at : 8 * basis_at + k]
        n_x = basis.weight()
        if _column_end(payload, x_at, n_x) != len(payload):
            raise WireError("trailing bytes in block disclosure")
        raw = bits.to_array()
        # 0/1 bytes viewed as bool: nonzero search is faster on bool.
        ones = raw[8 * high_at : 8 * high_at + high_len].view(bool).nonzero()[0]
        if len(ones) != k:
            raise WireError("high part must hold one set bit per clicked round")
        low = raw[96 : 96 + low_bits * k].reshape(low_bits, k)
        planes = np.left_shift(low, shifts, dtype=shifts.dtype)
        offsets = (ones - np.arange(k)) << low_bits | np.bitwise_or.reduce(planes, axis=0)
        x_outcomes = bits[8 * x_at : 8 * x_at + n_x]
        return cls(j, m, _read_only(clicked_offsets(offsets, m)), basis, x_outcomes)


def _column(name: str, column, top: int) -> np.ndarray:
    """A 1-d column of integers in [0, top] as uint8; ``WireError`` otherwise."""
    column = np.asarray(column)
    if column.ndim != 1:
        raise WireError(f"{name} column must be 1-d")
    if column.size and (
        column.dtype.kind not in "biu"
        # Viewed as unsigned, a negative value lies above top as well.
        or column.view(f"u{column.itemsize}").max() > top
    ):
        raise WireError(f"{name} column out of range")
    return column.astype(np.uint8)


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
    then three bit columns: ``omega`` as two bits per record (bit 2i is the
    low bit of record i, bit 2i + 1 its high bit), ``alpha`` and
    ``value``, each packed LSB-first and padded with zero bits to a whole
    byte.
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
        omega_bits = np.empty((len(omega), 2), dtype=np.uint8)
        omega_bits[:, 0] = omega & 1
        omega_bits[:, 1] = omega >> 1
        return b"".join((
            _pack("<III", self.j, len(omega), len(self.value)),
            _packed(omega_bits),
            self.alpha.to_bytes(),
            self.value.to_bytes(),
        ))

    @classmethod
    def decode(cls, payload: bytes) -> "AliceBlockDisclosure":
        if len(payload) < 12:
            raise WireError("short block reply")
        j, count, n_values = struct.unpack_from("<III", payload, 0)
        expected = 12 + (2 * count + 7) // 8 + (count + 7) // 8 + (n_values + 7) // 8
        if len(payload) != expected:
            raise WireError("block reply length mismatch")
        alpha_at = _column_end(payload, 12, 2 * count)
        value_at = _column_end(payload, alpha_at, count)
        _column_end(payload, value_at, n_values)
        bits = BitString.from_bytes(payload, 8 * len(payload))
        pairs = bits.to_array()[96 : 96 + 2 * count].reshape(count, 2)
        omega = pairs[:, 0] + 2 * pairs[:, 1]
        if omega.max(initial=0) > 2:
            raise WireError("intensity index out of range")
        alpha = bits[8 * alpha_at : 8 * alpha_at + count]
        value = bits[8 * value_at : 8 * value_at + n_values]
        return cls(j, _read_only(omega), alpha, value)


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
