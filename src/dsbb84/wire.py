"""Classical-channel message formats.

Every message travels as one frame: its byte count, one header byte, then
the payload; the count covers the header byte and the payload. The header
byte is ``WIRE_VERSION << 3 | tag``: the version in its high five bits and
the message type's tag, 1 to 7, in its low three. A frame of any other
version, or of a tag no message type carries, is refused.

There is one encoding of an integer and one of a bit string. Every integer,
the frame's byte count included, is an unsigned minimal LEB128 varint:
seven bits a byte, low group first, the high bit set on every byte but the
last. It is below 2**32 in a frame count or a block header, which keeps the
block decoders' int64 offset arithmetic exact, and below 2**64 in a scalar
message, whose seeds are u64; one that does not fit raises ``WireError`` on
encode, never wraps. A payload is its varints, then one packed column: the
bit strings of the message back to back, LSB-first, zero-padded once to a
whole byte at the frame's end. No bit string carries a length of its own: a
varint or the bit strings before it imply it.

The five scalar messages (``SiftAnnounce`` to ``PaSeed``) state their
fields once, as dataclass fields annotated ``int``, ``bool`` or
``BitString``, and share one codec: one varint per field in declaration
order (a flag's is 0 or 1, a bit string's its bit count), then the column
of the bit strings in the same order.

The two block messages announce only what the other side lacks, in
varint headers and bit columns, and each ends in a sparse set of k
positions out of n (Bob's clicked rounds, Alice's V records) in one subset
form: the gaps (position - previous - 1, the first from -1) Rice-coded
(Golomb 1966; Rice 1979), as L low-bit planes (plane p holds bit p of every
gap), then a unary part of (gap >> L) zeros and a one per element, which
ends at the frame's last set bit. L = floor(log2(n/k)) when n >= 4k and 0
otherwise, in integers, so every platform lays out the same frame.

A block message holds each column as a read-only numpy array of its own,
and its constructor is the one check of its shape: values in range,
offsets ascending inside the block, column lengths that agree. It refuses
a malformed message with ``WireError``. So encode only packs, into one
column buffer that the subset writer fills the tail of, and decode reads
each bit string at the offset that the lengths before it give and checks
only what bytes alone can get wrong (truncation, varints that are
over-long, not minimal or out of range, unary parts that do not end the
frame at their k-th set bit, positions out of range, and at the end, set
padding bits and trailing bytes) before it builds the message through
that constructor.

Every encoding is canonical: a decoder refuses any form the encoder would
not have produced, so a frame that decodes re-encodes to its own bytes.

The authenticated classical channel is assumed, not modeled: frames carry
no MAC. The transcript of a session is the concatenation of its frames;
no frame closes it, since each party finishes on the message that decides
its outcome.
"""
from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .gf2 import BitString

WIRE_VERSION = 8


class WireError(ValueError):
    """Malformed frame or payload."""


def _uvarints(*values, width: int = 32) -> bytes:
    """Each value as a minimal unsigned LEB128 varint; ``WireError`` for a
    value that is not an integer in [0, 2**width)."""
    out = []
    try:
        for value in values:
            if not 0 <= value < 1 << width:
                raise WireError(f"field {value} out of range for a u{width} varint")
            while value > 0x7F:
                out.append(value & 0x7F | 0x80)
                value >>= 7
            out.append(value)
        return bytes(out)
    except TypeError:
        raise WireError(f"varint fields must be integers, got {values}") from None


def _read_uvarints(buf: bytes, count: int, at: int = 0, width: int = 32) -> list:
    """The ``count`` varints of ``buf`` from offset ``at``, then the offset
    after them. A varint that is truncated, longer than a value below
    2**width needs, not minimal (it ends in a zero byte) or 2**width or
    more is refused."""
    values = []
    for _ in range(count):
        value = shift = 0
        while True:
            if at == len(buf):
                raise WireError("truncated varint")
            byte = buf[at]
            at += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift >= width:
                raise WireError("over-long varint")
        if byte == 0 and shift:
            raise WireError("varint not in minimal form")
        if value >> width:
            raise WireError(f"varint of 2**{width} or more")
        values.append(value)
    values.append(at)
    return values


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


def _unpacked(payload: bytes, at: int) -> np.ndarray:
    """The column of ``payload`` from byte ``at`` on, unpacked to 0/1
    bytes in one call, padding included."""
    return np.unpackbits(np.frombuffer(payload, np.uint8, offset=at), bitorder="little")


def _bits(raw: np.ndarray, start: int, n: int) -> np.ndarray:
    """The ``n`` bits of the unpacked column ``raw`` from bit ``start``, as
    a view; a bit string that runs past the frame is refused."""
    if start + n > len(raw):
        raise WireError("truncated bit-string body")
    return raw[start : start + n]


def encode_frame(tag: int, payload: bytes) -> bytes:
    if tag not in MESSAGE_TYPES:
        raise WireError(f"unknown tag {tag}")
    return _uvarints(len(payload) + 1) + bytes((WIRE_VERSION << 3 | tag,)) + payload


def decode_frame(buf: bytes, offset: int = 0) -> tuple:
    """Return (tag, payload, next offset) for the frame at ``offset``."""
    length, at = _read_uvarints(buf, 1, offset)
    if at == len(buf):
        raise WireError("truncated frame header")
    version, tag = buf[at] >> 3, buf[at] & 7
    if version != WIRE_VERSION:
        raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
    if tag not in MESSAGE_TYPES:
        raise WireError(f"unknown tag {tag}")
    if length < 1:
        raise WireError("frame length must cover the header byte")
    end = at + length
    if end > len(buf):
        raise WireError("truncated frame payload")
    return tag, buf[at + 1 : end], end


def clicked_offsets(offsets, m: int) -> np.ndarray:
    """A copy of ``offsets`` as int64 after checking that they are strictly
    ascending rounds of a block of ``m``; ``WireError`` otherwise."""
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or (offsets.size and offsets.dtype.kind not in "iu"):
        raise WireError("offsets must be a 1-d integer array")
    offsets = offsets.astype(np.int64)
    if offsets.size and (offsets[0] < 0 or offsets[-1] >= m):
        raise WireError("clicked offset outside the block")
    if (offsets[1:] <= offsets[:-1]).any():
        raise WireError("clicked offsets must be strictly ascending")
    return offsets


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _column(name: str, column, top: int) -> np.ndarray:
    """A copy of a 1-d column of integers in [0, top] as uint8; ``WireError``
    otherwise. A bool column is in range whatever it holds, so it is copied
    unchecked: the decoders hand over their bit columns as bool views."""
    column = np.asarray(column)
    if column.ndim != 1:
        raise WireError(f"{name} column must be 1-d")
    if column.size and column.dtype != bool and (
        column.dtype.kind not in "iu"
        # Viewed as unsigned, a negative value lies above top as well.
        or column.view(f"u{column.itemsize}").max() > top
    ):
        raise WireError(f"{name} column out of range")
    return column.astype(np.uint8)


class _Block:
    """A block message; two are equal when their frames are."""

    def _own(self, **columns: np.ndarray) -> None:
        """Store checked columns, which the message alone holds, read-only."""
        for name, column in columns.items():
            object.__setattr__(self, name, _read_only(column))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())


# For each L, the shifts 0..L-1 in the narrowest type of L bits, so the L x k planes stay narrow.
_PLANE_SHIFTS = [_read_only(np.arange(b, dtype=np.min_scalar_type((1 << b) - 1))[:, None])
                 for b in range(33)]


def _subset_layout(n: int, k: int) -> tuple:
    """(L, plane shifts) of the subset form of k positions out of n."""
    low_bits = (n // k).bit_length() - 1 if n >= 4 * k > 0 else 0
    return low_bits, _PLANE_SHIFTS[low_bits]


def _subset_column(head: int, positions: np.ndarray, n: int) -> np.ndarray:
    """A 0/1 column of ``head`` zero bits, for the caller to fill, then the
    subset form of strictly ascending ``positions`` below ``n``: L low-bit
    planes of the gaps, then the unary part."""
    k = len(positions)
    if not k:
        return np.zeros(head, np.uint8)
    low_bits, shifts = _subset_layout(n, k)
    gaps = positions.copy()
    gaps[1:] -= positions[:-1] + 1
    # The one of element i follows the zeros of gaps 0, ..., i and i ones.
    ones = np.cumsum((gaps >> low_bits) + 1) + (head + low_bits * k - 1)
    column = np.zeros(ones[-1] + 1, np.uint8)
    low = (gaps & ((1 << low_bits) - 1)).astype(shifts.dtype)
    column[head : head + low_bits * k] = ((low >> shifts) & 1).ravel()
    column[ones] = 1
    return column


def _read_subset(raw: np.ndarray, start: int, n: int, k: int) -> np.ndarray:
    """The k positions out of n of the subset form at bit ``start`` of the
    unpacked column ``raw``, whose last k set bits must be the unary part,
    ending in its last byte, with every position below n (so k <= n). So
    this one check refuses a set padding bit or a trailing byte."""
    low_bits, shifts = _subset_layout(n, k)
    unary_at = start + low_bits * k
    ones = raw[unary_at:].view(bool).nonzero()[0]
    if len(ones) != k:
        raise WireError("unary part must hold one set bit per element, and the padding none")
    if (unary_at + (int(ones[-1]) + 1 if k else 0) + 7) // 8 != len(raw) // 8:
        raise WireError("trailing or missing bytes after the last column")
    if not k:
        return ones
    low = raw[start:unary_at].reshape(low_bits, k)
    low = np.bitwise_or.reduce(np.left_shift(low, shifts, dtype=shifts.dtype), axis=0)
    total_low = np.cumsum(low, dtype=np.int64)
    # Checked in Python integers first, so that a unary part of many zeros
    # cannot wrap the int64 shift below.
    if ((int(ones[-1]) - k + 1) << low_bits) + int(total_low[-1]) + k - 1 >= n:
        raise WireError("subset position outside its range")
    i = np.arange(k)
    return ((ones - i) << low_bits) + total_low + i


@dataclass(frozen=True, eq=False)
class BobBlockDisclosure(_Block):
    """Bob's announcement after measuring block ``j`` of ``m`` rounds.

    ``offsets`` are the clicked rounds, strictly ascending and below ``m``.
    ``basis`` holds Bob's basis bit on each of them (1 means X) and
    ``x_outcomes`` his bit on each clicked X round, both in round order.
    The constructor takes any 1-d integer columns and refuses with
    ``WireError`` a message that breaks one of these rules.

    Layout: j, m and the clicked count k as varints, then one column of
    ``basis`` (k bits), ``x_outcomes`` (one bit per 1 in ``basis``) and the
    clicked set in the subset form with n = m.
    """

    TAG: ClassVar[int] = 1
    j: int
    m: int
    offsets: np.ndarray
    basis: np.ndarray
    x_outcomes: np.ndarray

    def __post_init__(self) -> None:
        offsets = clicked_offsets(self.offsets, self.m)
        basis = _column("basis", self.basis, 1)
        if len(basis) != len(offsets):
            raise WireError("basis must cover exactly the clicked rounds")
        x_outcomes = _column("x outcome", self.x_outcomes, 1)
        if len(x_outcomes) != np.count_nonzero(basis):
            raise WireError("x outcome count does not match clicked X rounds")
        self._own(offsets=offsets, basis=basis, x_outcomes=x_outcomes)

    def encode(self) -> bytes:
        k, n_x = len(self.offsets), len(self.x_outcomes)
        column = _subset_column(k + n_x, self.offsets, self.m)
        column[:k] = self.basis
        column[k : k + n_x] = self.x_outcomes
        return _uvarints(self.j, self.m, k) + _packed(column)

    @classmethod
    def decode(cls, payload: bytes) -> "BobBlockDisclosure":
        j, m, k, at = _read_uvarints(payload, 3)
        # One unpack for the whole column; each bit string is a view of it.
        raw = _unpacked(payload, at)
        # 0/1 bytes viewed as bool: nonzero search is faster on bool, and
        # the constructor copies a bool column without a range check.
        basis = _bits(raw, 0, k).view(bool)
        n_x = np.count_nonzero(basis)
        x_outcomes = _bits(raw, k, n_x).view(bool)
        return cls(j, m, _read_subset(raw, k + n_x, m, k), basis, x_outcomes)


@dataclass(frozen=True, eq=False)
class AliceBlockDisclosure(_Block):
    """Alice's reply for block ``j``: the sifting outcome of the rounds Bob
    named, and what the tally needs of the rounds that survive it.

    ``matched`` has one bit per named round, in ascending round order, set
    where Alice's basis equals the one Bob announced; ``omega`` holds the
    intensity index (at most 2) of the matched rounds only and ``value``
    Alice's bit on the matched X rounds only, both in round order. Which
    rounds those are follows from ``matched`` and Bob's own bases, so the
    reply carries no offsets. The constructor takes any 1-d integer columns
    and refuses with ``WireError`` a value that does not fit its field or
    an ``omega`` whose length is not the number of matched rounds.

    Layout: j, the record count, the number of value bits and the number
    of V records as varints, then one column of ``matched``, ``value`` and
    the intensities of the matched rounds: one bit per matched round, set
    for D or V, then which of the set records are V in the subset form,
    with n the number of set records.
    """

    TAG: ClassVar[int] = 2
    j: int
    matched: np.ndarray
    omega: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        matched = _column("matched", self.matched, 1)
        omega = _column("intensity index", self.omega, 2)
        if len(omega) != np.count_nonzero(matched):
            raise WireError("omega must cover exactly the matched rounds")
        self._own(matched=matched, omega=omega, value=_column("value", self.value, 1))

    def encode(self) -> bytes:
        count, n_values = len(self.matched), len(self.value)
        d_or_v = self.omega > 0
        v = (self.omega.compress(d_or_v) > 1).nonzero()[0]
        head = count + n_values
        column = _subset_column(head + len(d_or_v), v, int(np.count_nonzero(d_or_v)))
        column[:count] = self.matched
        column[count:head] = self.value
        column[head : head + len(d_or_v)] = d_or_v
        return _uvarints(self.j, count, n_values, len(v)) + _packed(column)

    @classmethod
    def decode(cls, payload: bytes) -> "AliceBlockDisclosure":
        j, count, n_values, n_v, at = _read_uvarints(payload, 4)
        raw = _unpacked(payload, at)
        matched = _bits(raw, 0, count).view(bool)
        value = _bits(raw, count, n_values).view(bool)
        omega = _bits(raw, count + n_values, np.count_nonzero(matched))
        d_or_v = omega.view(bool).nonzero()[0] if n_v else np.zeros(0, np.int64)
        v = _read_subset(raw, count + n_values + len(omega), len(d_or_v), n_v)
        # Each V record's D-or-V bit becomes 2, in place: raw is ours.
        omega[d_or_v[v]] = 2
        return cls(j, matched, omega, value)


class _Scalar:
    """A message of integers, flags and bit strings, each field stated once
    by its annotation (``int``, ``bool`` or ``BitString``).

    The payload is one u64 varint per field in declaration order, a flag's
    0 or 1 and a bit string's its bit count, then the bit strings back to
    back in the same order as one packed column. Decode converts each
    value to its field's type, so a payload that does not re-encode to
    itself, such as one with trailing bytes or a flag of 2, is refused.
    """

    TAG: ClassVar[int]

    @classmethod
    @functools.cache
    def _fields(cls) -> tuple:
        """(name, type) of each field, in declaration order."""
        types = typing.get_type_hints(cls)
        return tuple((f.name, types[f.name]) for f in dataclasses.fields(cls))

    def encode(self) -> bytes:
        header, columns = [], []
        for name, kind in self._fields():
            value = getattr(self, name)
            if kind is BitString:
                columns.append(value.to_array())
                value = len(value)
            header.append(value)
        varints = _uvarints(*header, width=64)
        return varints + _packed(np.concatenate(columns)) if columns else varints

    @classmethod
    def decode(cls, payload: bytes) -> "_Scalar":
        fields = cls._fields()
        *header, at = _read_uvarints(payload, len(fields), width=64)
        lengths = [value for (_, kind), value in zip(fields, header) if kind is BitString]
        if lengths:
            raw = _unpacked(payload[: _column_end(payload, at, sum(lengths))], at)
        values = {}
        for (name, kind), value in zip(fields, header):
            if kind is BitString:
                values[name], raw = BitString.from_array(raw[:value]), raw[value:]
            else:
                values[name] = kind(value)
        msg = cls(**values)
        if msg.encode() != payload:
            raise WireError(f"{cls.__name__} payload not in canonical form")
        return msg


@dataclass(frozen=True)
class SiftAnnounce(_Scalar):
    TAG: ClassVar[int] = 3
    n_sift: int
    proceed: bool


@dataclass(frozen=True)
class Syndrome(_Scalar):
    TAG: ClassVar[int] = 4
    bits: BitString
    code_seed: int


@dataclass(frozen=True)
class VerifyHash(_Scalar):
    TAG: ClassVar[int] = 5
    seed: int
    digest: BitString


@dataclass(frozen=True)
class VerifyResult(_Scalar):
    TAG: ClassVar[int] = 6
    ok: bool


@dataclass(frozen=True)
class PaSeed(_Scalar):
    TAG: ClassVar[int] = 7
    seed: int
    n_fin: int


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
    )
}


def encode_message(msg) -> bytes:
    return encode_frame(msg.TAG, msg.encode())


def decode_message(buf: bytes, offset: int = 0) -> tuple:
    """Decode one frame into a typed message; returns (message, offset)."""
    tag, payload, offset = decode_frame(buf, offset)
    return MESSAGE_TYPES[tag].decode(payload), offset
