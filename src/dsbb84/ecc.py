"""Syndrome-based error correction for the sifted key.

Alice discloses the syndrome of her sifted key under a seeded low-density
parity-check matrix; Bob runs sum-product belief propagation against the
syndrome difference to estimate the error pattern. Decoding either
converges, with an estimate that meets the target syndrome, or stalls and
reports ``converged=False`` with propagation's last estimate. Correctness
is certified only by the verification hash afterwards, so a stalled decode
ends the session in a verification abort, never in a wrong key.

The disclosed length is ``N_EC = ceil(1.16 * N_sift * h(e_bit))``, a fixed
rate overhead over the Shannon limit for the assumed bit error rate.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import generator
from .gf2 import BitString
from .params import entropy_h

COLUMN_WEIGHT = 3
MAX_ITERATIONS = 60
LLR_CLIP = 25.0


def stable_row_order(row_idx: np.ndarray) -> np.ndarray:
    """``np.argsort(row_idx, kind="stable")`` for indices below 2**32, in
    O(len) time: two stable radix passes over 16-bit halves, the low half
    first, since numpy sorts 16-bit keys stably by counting."""
    low = np.argsort((row_idx & 0xFFFF).astype(np.uint16), kind="stable")
    high = (row_idx[low] >> 16).astype(np.uint16)
    return low[np.argsort(high, kind="stable")]


def syndrome_length(n_sift: int, e_bit_assumed: float) -> int:
    """Bits of syndrome disclosed for a sifted block."""
    if n_sift < 0:
        raise ValueError("n_sift must be non-negative")
    return math.ceil(1.16 * n_sift * entropy_h(e_bit_assumed))


class LdpcCode:
    """Seeded column-weight-3 parity-check code over ``n_bits`` positions."""

    def __init__(self, n_bits: int, n_rows: int, seed: int):
        if n_bits <= 0 or n_rows <= 0:
            raise ValueError("code dimensions must be positive")
        if n_rows > 2**32:
            raise ValueError("at most 2**32 rows")
        self.n_bits = n_bits
        self.n_rows = n_rows
        self.seed = seed
        rng = generator(seed, 0xEC)
        weight = min(COLUMN_WEIGHT, n_rows)
        picks = [rng.integers(0, n_rows, size=n_bits)]
        if weight >= 2:
            r2 = rng.integers(0, n_rows - 1, size=n_bits)
            r2 += r2 >= picks[0]
            picks.append(r2)
        if weight >= 3:
            # Rejection-free draw of a third distinct row: bump past the
            # two already chosen in ascending order.
            lo = np.minimum(picks[0], picks[1])
            hi = np.maximum(picks[0], picks[1])
            r3 = rng.integers(0, n_rows - 2, size=n_bits)
            r3 += r3 >= lo
            r3 += r3 >= hi
            picks.append(r3)
        col_idx = np.tile(np.arange(n_bits, dtype=np.int64), weight)
        row_idx = np.concatenate(picks)
        order = stable_row_order(row_idx)
        self.row_idx = row_idx[order]
        self.col_idx = col_idx[order]
        counts = np.bincount(self.row_idx, minlength=n_rows)
        self._empty_rows = counts == 0
        # Row starts for reduceat, whose segments run from one start to the
        # next; an empty last row would start past the end of the array.
        self._row_starts = (np.cumsum(counts) - counts)[~self._empty_rows]

    def syndrome(self, x: BitString) -> BitString:
        if len(x) != self.n_bits:
            raise ValueError(f"word length {len(x)} != code length {self.n_bits}")
        return BitString.from_array(self._syndrome_array(x.to_array()))

    def _syndrome_array(self, e_hat: np.ndarray) -> np.ndarray:
        acc = np.bincount(
            self.row_idx, weights=e_hat[self.col_idx], minlength=self.n_rows
        )
        return acc.astype(np.int64) & 1

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
        sign_target = 1.0 - 2.0 * t_arr.astype(np.float64)

        v_msg = np.full(self.row_idx.shape, llr0)
        e_hat = np.zeros(self.n_bits, dtype=np.int64)
        for iteration in range(1, MAX_ITERATIONS + 1):
            tanh_half = np.tanh(np.clip(v_msg, -LLR_CLIP, LLR_CLIP) / 2.0)
            tanh_half = np.where(
                np.abs(tanh_half) < 1e-12, np.copysign(1e-12, tanh_half), tanh_half
            )
            prod = np.ones(self.n_rows)
            prod[~self._empty_rows] = np.multiply.reduceat(
                tanh_half, self._row_starts
            )
            ext = np.clip(
                prod[self.row_idx] / tanh_half, -1.0 + 1e-12, 1.0 - 1e-12
            )
            c_msg = sign_target[self.row_idx] * 2.0 * np.arctanh(ext)
            totals = llr0 + np.bincount(
                self.col_idx, weights=c_msg, minlength=self.n_bits
            )
            e_hat = (totals < 0.0).astype(np.int64)
            if np.array_equal(self._syndrome_array(e_hat), t_arr):
                return BitString.from_array(e_hat), True, iteration
            v_msg = np.clip(
                totals[self.col_idx] - c_msg, -LLR_CLIP, LLR_CLIP
            )

        return BitString.from_array(e_hat), False, MAX_ITERATIONS


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
