"""Two-universal hashing for verification and privacy amplification.

The family is the modified Toeplitz construction ``H = [T | I]``: an
``m x (n - m)`` Toeplitz matrix ``T`` drawn from ``n - 1`` seed bits glued
to the ``m x m`` identity. Every member is surjective, and for distinct
inputs the collision probability over the seed draw is at most ``2^-m``,
which is what the correctness and secrecy accounting rely on.

Verification and privacy amplification share one apply, ``T x_left``
being a window of the integer convolution of the diagonal bits with
``x_left``, reduced mod 2. The window is computed one of two ways, by
which costs less for the shape:

* directly, as exact bit parity (a short verification digest): output
  bit ``r`` is the parity of the diagonal bits ``r .. r + w - 1`` ANDed
  with the reversed ``x_left``, ``w = n_in - n_out``, on bytes packed
  eight bits each. It is integer arithmetic throughout, with no float and
  no BLAS call;
* by one real FFT convolution in O(n log n) (privacy amplification),
  taken with one-row transforms: the diagonal bits' spectrum is computed
  once, when the member is built, and kept read-only, so an apply
  transforms ``x_left`` alone and takes one inverse transform of the
  product. Its rounding errors are not bounded a priori, so an exactness
  guard raises instead of returning a hash whenever a sum is not within
  0.25 of an integer.

Seeds are 64-bit integers expanded into diagonal bits with SHA-256 in
counter mode. The expansion is a pseudorandom convenience for driving the
family from a compact announced seed; the security statements treat the
diagonal bits as the actual hash choice.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.fft import irfft, rfft

from .gf2 import BitString

VERIFY_LABEL = b"verify"
PA_LABEL = b"pa"

# Bit products of the direct parity that cost as much as one term of the
# FFT's ``n log2 n``. Measured with numpy 2.4 on x86-64, the break-even is
# about 70 at n_in = 9e3 and 6e4, and 60-110 at 2.5e5, where the direct
# path's ``n_out * w / 8``-byte temporary falls out of the cache. At 32,
# the direct path is still faster at the cutover (1.2 times at n_in =
# 1.4e3, 2.1 at 9e3, 3.6 at 2.5e5), and its temporary stays below
# ``4 n_in log2 n_in`` bytes. A verification digest of 16-64 bits is a
# parity, and a privacy-amplification output of a few hundred bits or more
# takes the FFT.
_DIRECT_PER_FFT_TERM = 32

# The parity of each byte value.
_BYTE_PARITY = np.array([bin(b).count("1") & 1 for b in range(256)], np.uint8)


def _fft_length(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c`` at or above ``n >= 1``, a length
    numpy's FFT handles as fast as a power of two."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # odd * 2**k with the least k that reaches n.
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _uses_fft(n_in: int, n_out: int) -> bool:
    """Whether :meth:`ModifiedToeplitz.apply` takes the FFT path."""
    w = n_in - n_out
    return n_out * w > _DIRECT_PER_FFT_TERM * n_in * math.log2(n_in)


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
        # The FFT path reads the diagonals' spectrum only, the direct path
        # the bits only.
        self._diagonals = self._spectrum = None
        if self.width and n_out and _uses_fft(n_in, n_out):
            spectrum = rfft(diagonals.to_array(), _fft_length(n_in - 1))
            spectrum.flags.writeable = False
            self._spectrum = spectrum
        else:
            self._diagonals = diagonals.to_array()

    def apply(self, x: BitString) -> BitString:
        """Hash ``x``; O(n log n) in ``n_in`` at worst.

        ``(T x_left)[r]`` is entry ``w - 1 + r`` of the integer linear
        convolution of the diagonal bits with ``x_left``; its parity,
        xored with ``x_right``, is the output. When ``n_out * w`` is small
        against the FFT's cost (:func:`_uses_fft`) each output is the exact
        parity of a packed window (:func:`_window_parities`). Otherwise it
        comes from a circular FFT convolution of length :func:`_fft_length`
        ``(n_in - 1)``, which agrees with the linear one on that window
        because wrapped terms only reach indices ``>= N + w - 1``: the
        stored diagonal spectrum times the spectrum of ``x_left``, zero
        padded, taken back with one inverse transform. Its sums are rounded
        to integers, and the call raises ``FloatingPointError`` rather than
        return a hash when any sum is 0.25 or further from an integer.
        """
        if len(x) != self.n_in:
            raise ValueError(f"expected {self.n_in} input bits, got {len(x)}")
        w, n_out = self.width, self.n_out
        if w == 0 or n_out == 0:
            return x[w:]
        bits = x.to_array()
        if self._spectrum is not None:
            size = _fft_length(self.n_in - 1)
            product = rfft(bits[:w], size)
            product *= self._spectrum
            conv = irfft(product, size)[w - 1 : w - 1 + n_out]
            counts = np.rint(conv)
            if np.abs(conv - counts).max() >= 0.25:
                raise FloatingPointError("FFT convolution is not exact enough")
            odd = counts.astype(np.int64) & 1
        else:
            odd = _window_parities(self._diagonals, bits[w - 1 :: -1], n_out)
        return BitString.from_array(odd ^ bits[w:])


def _window_parities(diagonals: np.ndarray, x_rev: np.ndarray, n_out: int):
    """Parity of ``diagonals[r : r + w] & x_rev`` for each ``r < n_out``,
    ``w = len(x_rev)``, as 0/1 values, taken on bits packed eight a byte.

    Row ``s`` of ``shifted`` packs ``diagonals[s:]``, so window ``8 q + s``
    is bytes ``q`` to ``q + nb - 1`` of row ``s``; zero padding past ``w``
    in the packed ``x_rev`` masks the bits the window's last byte overruns.
    Each window's masked bytes are xored into one byte, whose parity is
    read from a table: one numpy call, where folding the byte's bits takes
    six, a fixed cost that every hash of a few bits pays in full.
    """
    x_packed = np.packbits(x_rev)
    nb = len(x_packed)
    groups = (n_out + 7) // 8
    size = groups - 1 + nb
    padded = np.zeros(8 * size + 7, dtype=np.uint8)
    padded[: len(diagonals)] = diagonals
    shifts = np.ndarray((8, 8 * size), np.uint8, padded, strides=(1, 1))
    shifted = np.packbits(shifts, axis=1)
    windows = np.ndarray((groups, 8, nb), np.uint8, shifted, strides=(1, size, 1))
    acc = np.bitwise_xor.reduce(windows & x_packed, axis=2)
    return _BYTE_PARITY.take(acc).reshape(-1)[:n_out]


def toeplitz_for_seed(
    label: bytes, seed: int, n_in: int, n_out: int
) -> ModifiedToeplitz:
    """The family member that ``seed`` expands to under ``label``."""
    return ModifiedToeplitz(expand_seed(seed, label, max(n_in - 1, 0)), n_in, n_out)
