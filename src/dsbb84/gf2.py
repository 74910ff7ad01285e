"""Bit strings over GF(2).

A :class:`BitString` is an immutable sequence of bits with xor, slicing and
byte packing. It holds one read-only numpy ``uint8`` array of 0/1 values,
index 0 first, which :meth:`BitString.to_array` hands out without a copy;
:meth:`BitString.from_array` copies an array in. Bytes are the LSB-first
``packbits`` of that array.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np


class BitString:
    """Immutable bit sequence, index 0 first, packed LSB-first into bytes."""

    __slots__ = ("_bits",)

    @classmethod
    def _wrap(cls, bits: np.ndarray) -> "BitString":
        """Take ownership of a 1-D uint8 array of 0/1 values."""
        bits.flags.writeable = False
        out = cls.__new__(cls)
        out._bits = bits
        return out

    @classmethod
    def from_int(cls, word: int, n: int) -> "BitString":
        if word < 0:
            raise ValueError("bit word must be non-negative")
        if word >> n:
            raise ValueError(f"word has bits beyond length {n}")
        return cls.from_bytes(word.to_bytes((n + 7) // 8, "little"), n)

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls._wrap(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        """Copy a 1-D array of 0/1 or bool values, index 0 first.

        As with ``packbits``, any value that is nonzero as ``uint8`` is a 1.
        The copy is the one array made: a one-byte integer or bool input is
        compared through a ``uint8`` view, and any other is cast to a new
        ``uint8`` array that is compared in place.
        """
        arr = np.asarray(arr)
        if arr.ndim != 1:
            raise ValueError("bits must be a 1-D array")
        if arr.dtype.kind in "biu" and arr.itemsize == 1:
            bits = np.not_equal(arr.view(np.uint8), 0).view(np.uint8)
        else:
            bits = arr.astype(np.uint8)
            np.not_equal(bits, 0, out=bits.view(bool))
        return cls._wrap(bits)

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitString":
        if len(data) != (n + 7) // 8:
            raise ValueError(f"expected {(n + 7) // 8} bytes for {n} bits")
        if n % 8 and data[-1] >> (n % 8):
            raise ValueError("padding bits beyond the stated length are set")
        raw = np.frombuffer(data, dtype=np.uint8)
        return cls._wrap(np.unpackbits(raw, bitorder="little", count=n))

    def to_bytes(self) -> bytes:
        return np.packbits(self._bits, bitorder="little").tobytes()

    def to_array(self) -> np.ndarray:
        """The bits as a read-only uint8 array of 0/1, index 0 first."""
        return self._bits

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitString._wrap(self._bits[idx])
        return int(self._bits[operator.index(idx)])

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits.tolist())

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError("xor requires equal lengths")
        return BitString._wrap(self._bits ^ other._bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._bits.tobytes() == other._bits.tobytes()
        )

    def __hash__(self) -> int:
        return hash(self._bits.tobytes())

    def __repr__(self) -> str:
        shown = "".join(map(str, self)) if len(self) <= 64 else "..."
        return f"BitString({len(self)} bits: {shown})"

    def weight(self) -> int:
        return int(np.count_nonzero(self._bits))

