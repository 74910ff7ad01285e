"""Two-universal hashing for verification and privacy amplification.

The family is the modified Toeplitz construction ``H = [T | I]``: an
``m x (n - m)`` Toeplitz matrix ``T`` drawn from ``n - 1`` seed bits glued
to the ``m x m`` identity. Every member is surjective, and for distinct
inputs the collision probability over the seed draw is at most ``2^-m``,
which is what the correctness and secrecy accounting rely on.

Verification and privacy amplification share one evaluation path:
``T x_left`` is a window of the integer convolution of the diagonal bits
with ``x_left``, computed by one real FFT in O(n log n) and reduced mod 2.
An exactness guard raises instead of returning a hash whenever the
floating-point convolution is not within 0.25 of an integer everywhere.

Seeds are 64-bit integers expanded into diagonal bits with SHA-256 in
counter mode. The expansion is a pseudorandom convenience for driving the
family from a compact announced seed; the security statements treat the
diagonal bits as the actual hash choice.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.fft import irfft, rfft

from .gf2 import BitString

VERIFY_LABEL = b"verify"
PA_LABEL = b"pa"


def expand_seed(seed: int, label: bytes, n_bits: int) -> BitString:
    """Expand a 64-bit seed into ``n_bits`` pseudorandom bits."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    prefix = bytes(label) + b"\x00" + seed.to_bytes(8, "little")
    stream = b"".join(
        hashlib.sha256(prefix + counter.to_bytes(4, "little")).digest()
        for counter in range((n_bits + 255) // 256)
    )
    raw = np.frombuffer(stream, dtype=np.uint8)
    return BitString.from_array(np.unpackbits(raw, bitorder="little", count=n_bits))


class ModifiedToeplitz:
    """Hash ``y = T x_left + x_right`` over GF(2).

    ``x_left`` is the first ``n_in - n_out`` input bits, ``x_right`` the
    remaining ``n_out``. ``T[r][c]`` is diagonal bit ``r - c + (w - 1)``
    with ``w = n_in - n_out``, so the diagonals are constant.
    """

    def __init__(self, diagonals: BitString, n_in: int, n_out: int):
        if not 0 <= n_out <= n_in:
            raise ValueError("need 0 <= n_out <= n_in")
        if len(diagonals) != max(n_in - 1, 0):
            raise ValueError(
                f"need {max(n_in - 1, 0)} diagonal bits, got {len(diagonals)}"
            )
        self.n_in = n_in
        self.n_out = n_out
        self.width = n_in - n_out
        self._diagonals = diagonals.to_array()

    def apply(self, x: BitString) -> BitString:
        """Hash ``x`` by one FFT convolution, O(n log n) in ``n_in``.

        ``(T x_left)[r]`` is entry ``w - 1 + r`` of the integer linear
        convolution of the diagonal bits with ``x_left``; its parity,
        xored with ``x_right``, is the output. A circular convolution of
        any length ``N >= n_in - 1`` agrees with the linear one on that
        window, because wrapped terms only reach indices ``>= N + w - 1``.
        The floating-point sums are rounded to integers, and the call
        raises ``FloatingPointError`` rather than return a hash when any
        sum is 0.25 or further from an integer.
        """
        if len(x) != self.n_in:
            raise ValueError(f"expected {self.n_in} input bits, got {len(x)}")
        w, n_out = self.width, self.n_out
        if w == 0 or n_out == 0:
            return x[w:]
        bits = x.to_array()
        size = 1 << (self.n_in - 2).bit_length()
        rows = np.zeros((2, size))
        rows[0, : self.n_in - 1] = self._diagonals
        rows[1, :w] = bits[:w]
        spectra = rfft(rows)
        conv = irfft(spectra[0] * spectra[1], size)[w - 1 : w - 1 + n_out]
        counts = np.rint(conv)
        if np.abs(conv - counts).max() >= 0.25:
            raise FloatingPointError("FFT convolution is not exact enough")
        return BitString.from_array((counts.astype(np.int64) & 1) ^ bits[w:])


def hash_bits(x: BitString, seed: int, n_out: int, label: bytes) -> BitString:
    d = expand_seed(seed, label, max(len(x) - 1, 0))
    return ModifiedToeplitz(d, len(x), n_out).apply(x)


def verify_hash(x: BitString, seed: int, n_out: int) -> BitString:
    """Correctness-check digest exchanged after error correction."""
    return hash_bits(x, seed, n_out, VERIFY_LABEL)


def pa_hash(x: BitString, seed: int, n_out: int) -> BitString:
    """Final key extraction by privacy amplification."""
    return hash_bits(x, seed, n_out, PA_LABEL)
