"""Syndrome-based error correction for the sifted key.

Alice discloses the syndrome of her sifted key under a seeded low-density
parity-check matrix; Bob runs sum-product belief propagation against the
syndrome difference to estimate the error pattern. Decoding either
converges, with an estimate that meets the target syndrome, or stalls and
reports ``converged=False`` with propagation's last estimate. Correctness
is certified only by the verification hash afterwards, so a stalled decode
ends the session in a verification abort, never in a wrong key.

``LdpcCode.rows``, the rows of each column's entries as drawn, shaped
``(weight, n_bits)``, is the code's definition: a syndrome (Alice's, and
Bob's of his own key) counts the rows of the set bits straight from it,
so Alice builds nothing else. Propagation keeps its messages in that same
column-major shape, one per edge: a column's total is a sum over the
first axis. There is no row layout. ``np.multiply.at`` takes each row's
product straight from ``rows``, over the row's edges in ascending edge
order, and a ``take`` through ``rows`` carries it back to the edges. The
float32 twin in ``tests/reference.py`` fixes that order, so it is what
guards it. ``ufunc.at`` has a fast path from numpy 1.25 on; before that
it is many times slower. Propagation reuses two preallocated edge
buffers across iterations.

Messages are float32. The tanh-domain factors keep ``MARGIN`` = 1e-7 from
0 and from +-1 (1 - 1e-12 would round to 1.0). Convergence is decided by
the exact integer parity of the hard decision, counted from ``rows`` as a
syndrome is, never by a float: this is the guard that keeps the float
shortcut from reporting a word that misses the target. Precision can
only change which decodes converge, and the verification hash, not the
decoder, certifies the key.

The disclosed length is ``N_EC = ceil(1.16 * N_sift * h(e_bit))``, a fixed
rate overhead over the Shannon limit for the assumed bit error rate.

Both parties use the code of the seed Alice announces, so they take it
from :func:`code_for_seed`, a one-entry memo keyed on (n_bits, n_rows,
seed): Bob, keyed on his own counts and the seed he received, reuses the
code Alice built when the two agree. A code is read-only once built, so a
hit returns exactly what a rebuild would. ``run_protocol`` empties the
memo when a session ends.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channel import StreamKey, generator
from .gf2 import BitString
from .params import entropy_h

COLUMN_WEIGHT = 3
MAX_ITERATIONS = 60
LLR_CLIP = 25.0
# Distance kept from 0 and from +-1 by the tanh-domain factors; 1 - 1e-12
# rounds to 1.0 in float32.
MARGIN = 1e-7


def syndrome_length(n_sift: int, e_bit_assumed: float) -> int:
    """Bits of syndrome disclosed for a sifted block."""
    if n_sift < 0:
        raise ValueError("n_sift must be non-negative")
    return math.ceil(1.16 * n_sift * entropy_h(e_bit_assumed))


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
        # Each entry is drawn as int32 and bumped in place in ``rows``. For
        # a range below 2**32 numpy takes the same 32-bit bounded draws
        # whatever the integer type, so the draw is the int64 one's.
        rows = np.empty((weight, n_bits), dtype=np.int32)
        rows[0] = rng.integers(0, n_rows, size=n_bits, dtype=np.int32)
        first = rows[0]
        if weight >= 2:
            rows[1] = rng.integers(0, n_rows - 1, size=n_bits, dtype=np.int32)
            second = rows[1]
            second += second >= first
        if weight >= 3:
            # Rejection-free draw of a third distinct row: bump past the
            # two already chosen in ascending order.
            rows[2] = rng.integers(0, n_rows - 2, size=n_bits, dtype=np.int32)
            third = rows[2]
            chosen = np.minimum(first, second)
            third += third >= chosen
            np.maximum(first, second, out=chosen)
            third += third >= chosen
        rows.flags.writeable = False
        self.rows = rows

    def _parity(self, bits: np.ndarray) -> np.ndarray:
        """The syndrome of the boolean word ``bits``, exactly, as 0/1 per row."""
        hits = np.compress(bits, self.rows, axis=1)
        return np.bincount(hits.ravel(), minlength=self.n_rows) & 1

    def syndrome(self, x: BitString) -> BitString:
        if len(x) != self.n_bits:
            raise ValueError(f"word length {len(x)} != code length {self.n_bits}")
        return BitString.from_array(self._parity(x.to_array().view(bool)))

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
        # A check with target 1 negates its outgoing messages; each row's
        # product starts from that sign. An empty row keeps it, unread.
        sign = np.where(t_arr, -1.0, 1.0).astype(np.float32)
        # The row of each edge, flat and as ``intp``: ``ufunc.at`` takes its
        # fast path on 1-D operands only, and take would otherwise convert
        # int32 indices on every call.
        edge_rows = self.rows.astype(np.intp).ravel()

        # Two edge buffers in ``rows``' shape. ``msg`` holds the
        # variable-to-check messages at the top of an iteration and then
        # the check-to-variable messages; ``half`` holds tanh(msg / 2).
        # ``mode="clip"`` lets take write straight into ``msg``.
        msg = np.full(self.rows.shape, llr0, dtype=np.float32)
        half = np.empty_like(msg)
        prod = np.empty(self.n_rows, dtype=np.float32)
        totals = np.empty(self.n_bits, dtype=np.float32)
        hard = np.empty(self.n_bits, dtype=bool)
        for iteration in range(1, MAX_ITERATIONS + 1):
            np.multiply(msg, 0.5, out=half)
            np.tanh(half, out=half)
            # Keep each factor at least MARGIN from zero, sign unchanged.
            np.abs(half, out=msg)
            if msg.min() < MARGIN:
                np.maximum(msg, MARGIN, out=msg)
                np.copysign(msg, half, out=half)
            np.copyto(prod, sign)
            np.multiply.at(prod, edge_rows, half.reshape(-1))
            np.take(prod, edge_rows, out=msg.reshape(-1), mode="clip")
            np.divide(msg, half, out=msg)
            np.clip(msg, -1.0 + MARGIN, 1.0 - MARGIN, out=msg)
            np.arctanh(msg, out=msg)
            msg *= 2.0
            np.sum(msg, axis=0, out=totals)
            totals += llr0
            np.less(totals, 0.0, out=hard)
            if np.array_equal(self._parity(hard), t_arr):
                return BitString.from_array(hard), True, iteration
            np.subtract(totals, msg, out=msg)
            np.clip(msg, -LLR_CLIP, LLR_CLIP, out=msg)

        return BitString.from_array(hard), False, MAX_ITERATIONS


@functools.lru_cache(maxsize=1)
def code_for_seed(n_bits: int, n_rows: int, seed: int) -> LdpcCode:
    """The code ``seed`` draws for these dimensions.

    The last code built is kept, so the party that uses an announced code
    second reuses the first party's. Empty it with
    ``code_for_seed.cache_clear()``.
    """
    return LdpcCode(n_bits, n_rows, seed)


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
