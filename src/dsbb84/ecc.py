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
product straight from the rows, over the row's edges in ascending edge
order, and a ``take`` through the rows carries it back to the edges. The
float32 twin in ``tests/reference.py`` fixes that order, so it is what
guards it. ``ufunc.at`` has a fast path from numpy 1.25 on; before that
it is many times slower.

The rows are held once, as the ``intp`` that ``take`` and ``multiply.at``
index with, in a private writeable array behind the read-only ``rows``
view: ``np.take`` copies a read-only index array on every call. Propagation
reuses one float32 edge buffer, so a decode holds 36 B per code bit on its
edges: the rows' 24 and the buffer's 12.

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
hit returns exactly what a rebuild would. Bob empties the memo once he
has decoded, and ``run_protocol`` empties it when a session ends.
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
        self.n_bits = n_bits
        self.n_rows = n_rows
        rng = generator(seed, StreamKey.LDPC)
        weight = min(COLUMN_WEIGHT, n_rows)
        # Each entry is drawn as intp and bumped in place in ``_rows``. For
        # a range below 2**32 numpy takes the same 32-bit bounded draws
        # whatever the integer type, so the draw is the int64 one's.
        rows = np.empty((weight, n_bits), dtype=np.intp)
        rows[0] = rng.integers(0, n_rows, size=n_bits, dtype=np.intp)
        first = rows[0]
        if weight >= 2:
            rows[1] = rng.integers(0, n_rows - 1, size=n_bits, dtype=np.intp)
            second = rows[1]
            second += second >= first
        if weight >= 3:
            # Rejection-free draw of a third distinct row: bump past the
            # two already chosen in ascending order.
            rows[2] = rng.integers(0, n_rows - 2, size=n_bits, dtype=np.intp)
            third = rows[2]
            chosen = np.minimum(first, second)
            third += third >= chosen
            np.maximum(first, second, out=chosen)
            third += third >= chosen
        self._rows = rows
        self.rows = rows.view()
        self.rows.flags.writeable = False

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
        # The row of each edge, flat, as ``ufunc.at``'s fast path wants it;
        # ``_rows`` is intp and writeable, so no call converts or copies it.
        rows = self._rows
        edge_rows = rows.reshape(-1)

        # One edge buffer in ``rows``' shape. ``msg`` holds the
        # variable-to-check messages at the top of an iteration, then
        # their factors tanh(msg / 2), then the check-to-variable messages.
        # Until the column sums, ``totals`` is scratch for one entry row.
        msg = np.full(rows.shape, llr0, dtype=np.float32)
        prod = np.empty(self.n_rows, dtype=np.float32)
        totals = np.empty(self.n_bits, dtype=np.float32)
        hard = np.empty(self.n_bits, dtype=bool)
        for iteration in range(1, MAX_ITERATIONS + 1):
            np.multiply(msg, 0.5, out=msg)
            np.tanh(msg, out=msg)
            # Keep each factor at least MARGIN from zero, sign unchanged.
            for half in msg:
                np.abs(half, out=totals)
                if totals.min() < MARGIN:
                    np.maximum(totals, MARGIN, out=totals)
                    np.copysign(totals, half, out=half)
            np.copyto(prod, sign)
            np.multiply.at(prod, edge_rows, msg.reshape(-1))
            # Each factor becomes its row's product over the other edges.
            # Every index is in range; ``mode="clip"`` only spares take the
            # buffered copy of ``out`` that ``mode="raise"`` makes.
            for half, entry_rows in zip(msg, rows):
                np.take(prod, entry_rows, out=totals, mode="clip")
                np.divide(totals, half, out=half)
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
