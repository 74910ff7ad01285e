"""Bit strings and dense matrices over GF(2).

A :class:`BitString` is an immutable sequence of bits with xor, slicing and
byte packing; :meth:`BitString.from_array` and :meth:`BitString.to_array`
are the one conversion to and from numpy 0/1 arrays. :class:`Gf2Matrix`
stores each row as a Python integer used as a bitset (bit ``j`` of the row
word is column ``j``); it serves small dense products and ranks, such as
the explicit matrix of a hash function.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


def _pack_le(bits: Sequence[int]) -> int:
    word = 0
    for j, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {bit!r}")
        if bit:
            word |= 1 << j
    return word


class BitString:
    """Immutable bit sequence, index 0 first, packed LSB-first into bytes."""

    __slots__ = ("_word", "_n")

    def __init__(self, bits: Iterable[int] = ()):
        bits = list(bits)
        self._n = len(bits)
        self._word = _pack_le(bits)

    @classmethod
    def from_int(cls, word: int, n: int) -> "BitString":
        if word < 0:
            raise ValueError("bit word must be non-negative")
        if word >> n:
            raise ValueError(f"word has bits beyond length {n}")
        out = cls.__new__(cls)
        out._word = word
        out._n = n
        return out

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls.from_int(0, n)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        """Pack a 1-D array of 0/1 or bool values, index 0 first."""
        packed = np.packbits(np.asarray(arr, dtype=np.uint8), bitorder="little")
        return cls.from_int(int.from_bytes(packed.tobytes(), "little"), len(arr))

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitString":
        if len(data) != (n + 7) // 8:
            raise ValueError(f"expected {(n + 7) // 8} bytes for {n} bits")
        word = int.from_bytes(data, "little")
        if word >> n:
            raise ValueError("padding bits beyond the stated length are set")
        return cls.from_int(word, n)

    def to_bytes(self) -> bytes:
        return self._word.to_bytes((self._n + 7) // 8, "little")

    def to_array(self) -> np.ndarray:
        """The bits as a uint8 array of 0/1, index 0 first."""
        raw = np.frombuffer(self.to_bytes(), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little", count=self._n)

    @property
    def word(self) -> int:
        return self._word

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            indices = range(*idx.indices(self._n))
            return BitString((self._word >> i) & 1 for i in indices)
        if idx < 0:
            idx += self._n
        if not 0 <= idx < self._n:
            raise IndexError("bit index out of range")
        return (self._word >> idx) & 1

    def __iter__(self) -> Iterator[int]:
        word = self._word
        for _ in range(self._n):
            yield word & 1
            word >>= 1

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if other._n != self._n:
            raise ValueError("xor requires equal lengths")
        return BitString.from_int(self._word ^ other._word, self._n)

    def __add__(self, other: "BitString") -> "BitString":
        """Concatenation: self occupies the low indices of the result."""
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString.from_int(
            self._word | (other._word << self._n), self._n + other._n
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._n == other._n
            and self._word == other._word
        )

    def __hash__(self) -> int:
        return hash((self._n, self._word))

    def __repr__(self) -> str:
        shown = "".join(str(b) for b in self) if self._n <= 64 else "..."
        return f"BitString({self._n} bits: {shown})"

    def weight(self) -> int:
        return self._word.bit_count()

    def tolist(self) -> list:
        return list(self)


class Gf2Matrix:
    """Dense GF(2) matrix with integer-bitset rows."""

    __slots__ = ("rows", "n_cols")

    def __init__(self, rows: Sequence[int], n_cols: int):
        for word in rows:
            if word >> n_cols:
                raise ValueError("row word has bits beyond n_cols")
        self.rows = list(rows)
        self.n_cols = n_cols

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> "Gf2Matrix":
        n_cols = len(dense[0]) if dense else 0
        rows = []
        for row in dense:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            rows.append(_pack_le(row))
        return cls(rows, n_cols)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> int:
        if not 0 <= c < self.n_cols:
            raise IndexError("column out of range")
        return (self.rows[r] >> c) & 1

    def mul_vec(self, x: BitString) -> BitString:
        """Matrix-vector product H x over GF(2)."""
        if len(x) != self.n_cols:
            raise ValueError(f"vector length {len(x)} != n_cols {self.n_cols}")
        word = 0
        xw = x.word
        for i, row in enumerate(self.rows):
            word |= ((row & xw).bit_count() & 1) << i
        return BitString.from_int(word, self.n_rows)

    def rank(self) -> int:
        pivots = []
        for word in self.rows:
            for pw in pivots:
                low = pw & -pw
                if word & low:
                    word ^= pw
            if word:
                pivots.append(word)
        return len(pivots)

    def to_dense(self) -> list:
        return [[(row >> c) & 1 for c in range(self.n_cols)] for row in self.rows]
