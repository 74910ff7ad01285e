"""Syndrome-based error correction for the sifted key.

Alice discloses the syndrome of her sifted key under a seeded low-density
parity-check matrix; Bob runs sum-product belief propagation against the
syndrome difference to estimate the error pattern. Decoding either
converges, with an estimate that meets the target syndrome, or stalls and
reports ``converged=False`` with propagation's last estimate. Correctness
is certified only by the verification hash afterwards, so a stalled decode
ends the session in a verification abort, never in a wrong key.

The code has two layouts. ``LdpcCode.rows``, the rows of each column's
entries as drawn, is the code's definition: a syndrome (Alice's, and Bob's
of his own key) counts the rows of the set bits straight from it, so
Alice builds nothing else. The decoder's layout orders the edges by row,
stably, for the per-row products of propagation. It is built once per
code, on its first decode, so only Bob builds it. Propagation reuses two
preallocated edge buffers across iterations.

The disclosed length is ``N_EC = ceil(1.16 * N_sift * h(e_bit))``, a fixed
rate overhead over the Shannon limit for the assumed bit error rate.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .channel import StreamKey, generator
from .gf2 import BitString
from .params import entropy_h

COLUMN_WEIGHT = 3
MAX_ITERATIONS = 60
LLR_CLIP = 25.0


def stable_row_order(row_idx: np.ndarray, n_rows: int) -> np.ndarray:
    """``np.argsort(row_idx, kind="stable")`` for indices below
    ``n_rows <= 2**32``, in O(len) time. numpy sorts 16-bit keys stably by
    counting, so this is one pass when ``n_rows <= 2**16`` and otherwise
    two stable radix passes over the 16-bit halves, the low half first."""
    if n_rows <= 2**16:
        return np.argsort(row_idx.astype(np.uint16), kind="stable")
    low = np.argsort((row_idx & 0xFFFF).astype(np.uint16), kind="stable")
    high = (row_idx[low] >> 16).astype(np.uint16)
    return low[np.argsort(high, kind="stable")]


def syndrome_length(n_sift: int, e_bit_assumed: float) -> int:
    """Bits of syndrome disclosed for a sifted block."""
    if n_sift < 0:
        raise ValueError("n_sift must be non-negative")
    return math.ceil(1.16 * n_sift * entropy_h(e_bit_assumed))


class _DecoderLayout(NamedTuple):
    """The code's edges ordered by row, stably, as the decoder walks them.

    ``starts`` are the first positions of the non-empty rows; ``rank`` is
    the non-empty row and ``col`` the column of each position.
    """

    nonempty: np.ndarray
    starts: np.ndarray
    rank: np.ndarray
    col: np.ndarray


class LdpcCode:
    """Seeded column-weight-3 parity-check code over ``n_bits`` positions.

    ``rows[k, c]`` is the row of column ``c``'s ``k``-th entry; the rows of
    one column are distinct. This array is the code.
    """

    def __init__(self, n_bits: int, n_rows: int, seed: int):
        if n_bits <= 0 or n_rows <= 0:
            raise ValueError("code dimensions must be positive")
        if n_rows > 2**31:
            raise ValueError("at most 2**31 rows, so a row index fits in int32")
        self.n_bits = n_bits
        self.n_rows = n_rows
        rng = generator(seed, StreamKey.LDPC)
        weight = min(COLUMN_WEIGHT, n_rows)
        rows = np.empty((weight, n_bits), dtype=np.int32)
        first = rng.integers(0, n_rows, size=n_bits)
        rows[0] = first
        if weight >= 2:
            second = rng.integers(0, n_rows - 1, size=n_bits)
            second += second >= first
            rows[1] = second
        if weight >= 3:
            # Rejection-free draw of a third distinct row: bump past the
            # two already chosen in ascending order.
            third = rng.integers(0, n_rows - 2, size=n_bits)
            third += third >= np.minimum(first, second)
            third += third >= np.maximum(first, second)
            rows[2] = third
        rows.flags.writeable = False
        self.rows = rows

    def syndrome(self, x: BitString) -> BitString:
        if len(x) != self.n_bits:
            raise ValueError(f"word length {len(x)} != code length {self.n_bits}")
        hits = np.compress(x.to_array().view(bool), self.rows, axis=1)
        counts = np.bincount(hits.ravel(), minlength=self.n_rows)
        return BitString.from_array(counts & 1)

    @functools.cached_property
    def _layout(self) -> _DecoderLayout:
        flat = self.rows.ravel()
        order = stable_row_order(flat, self.n_rows)
        counts = np.bincount(flat, minlength=self.n_rows)
        nonempty = counts > 0
        # Row starts for reduceat, whose segments run from one start to the
        # next; an empty last row would start past the end of the array.
        starts = (np.cumsum(counts) - counts)[nonempty]
        rank = np.repeat(np.arange(len(starts)), counts[nonempty])
        col = np.remainder(order, self.n_bits, out=order)
        return _DecoderLayout(nonempty, starts, rank, col)

    def decode_syndrome(
        self, target: BitString, crossover: float
    ) -> tuple[BitString, bool, int]:
        """Estimate e with H e = target, errors i.i.d. at rate crossover.

        Returns (estimate, converged, iterations). The estimate satisfies
        the target syndrome only when converged; otherwise it is the last
        propagation estimate after MAX_ITERATIONS.
        """
        if len(target) != self.n_rows:
            raise ValueError("syndrome length mismatch")
        t_arr = target.to_array()
        p = min(max(crossover, 1e-4), 0.5 - 1e-4)
        llr0 = math.log((1.0 - p) / p)
        lay = self._layout
        # An empty row has parity 0, so a target bit of 1 there is never met.
        reachable = not t_arr[~lay.nonempty].any()
        t_rows = t_arr[lay.nonempty]
        # Edges whose check has target 1 send their messages negated.
        flipped = np.flatnonzero(t_rows[lay.rank])

        # Two edge buffers. ``msg`` holds the variable-to-check messages at
        # the top of an iteration and the check-to-variable ones after the
        # row products; ``half`` holds tanh(msg / 2), then each edge's
        # column total. ``mode="clip"`` lets take write straight into them.
        msg = np.full(lay.col.size, llr0)
        half = np.empty(lay.col.size)
        hard = np.empty(lay.col.size, dtype=bool)
        prod = np.empty(len(lay.starts))
        parity = np.empty(len(lay.starts), dtype=np.uint8)
        for iteration in range(1, MAX_ITERATIONS + 1):
            np.divide(msg, 2.0, out=half)
            np.tanh(half, out=half)
            # Keep each factor at least 1e-12 from zero, sign unchanged.
            np.abs(half, out=msg)
            np.maximum(msg, 1e-12, out=msg)
            np.copysign(msg, half, out=half)
            np.multiply.reduceat(half, lay.starts, out=prod)
            np.take(prod, lay.rank, out=msg, mode="clip")
            np.divide(msg, half, out=msg)
            np.clip(msg, -1.0 + 1e-12, 1.0 - 1e-12, out=msg)
            np.arctanh(msg, out=msg)
            np.multiply(msg, 2.0, out=msg)
            msg[flipped] *= -1.0
            totals = np.bincount(lay.col, weights=msg, minlength=self.n_bits)
            totals += llr0
            np.take(totals, lay.col, out=half, mode="clip")
            np.less(half, 0.0, out=hard)
            np.bitwise_xor.reduceat(hard.view(np.uint8), lay.starts, out=parity)
            if reachable and np.array_equal(parity, t_rows):
                return BitString.from_array(totals < 0.0), True, iteration
            np.subtract(half, msg, out=msg)
            np.clip(msg, -LLR_CLIP, LLR_CLIP, out=msg)

        return BitString.from_array(totals < 0.0), False, MAX_ITERATIONS


def correct(
    bob_key: BitString, alice_syndrome: BitString, code: LdpcCode, e_bit: float
) -> tuple[BitString, bool, int]:
    """Return Bob's estimate of Alice's sifted key.

    The error pattern between the two keys has syndrome equal to the xor
    of the two disclosed syndromes.
    """
    target = alice_syndrome ^ code.syndrome(bob_key)
    e_hat, converged, iters = code.decode_syndrome(target, e_bit)
    return bob_key ^ e_hat, converged, iters
