"""Reference implementations the tests check the package against.

Nothing in ``src`` uses these: a dense GF(2) matrix with integer-bitset
rows, the explicit matrix of a modified Toeplitz hash, a belief-propagation
decoder written with one fresh array per step, the intensity and
photon-number probabilities written out one value at a time, a chi-square
check, and a generator of random length-computation scenarios.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dsbb84.bounds import Observables, expected_observables
from dsbb84.channel import ChannelModel
from dsbb84.ecc import LLR_CLIP, MAX_ITERATIONS, LdpcCode, syndrome_length
from dsbb84.gf2 import BitString
from dsbb84.params import INTENSITIES, DomainError, ProtocolConstants, poisson_pcs


class Gf2Matrix:
    """Dense GF(2) matrix; row ``r`` is a Python integer whose bit ``c``
    is entry (r, c)."""

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
            rows.append(BitString(row).word)
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


def toeplitz_matrix(diagonals: BitString, n_in: int, n_out: int) -> Gf2Matrix:
    """``[T | I]`` with ``T[r][c] = d[r - c + w - 1]``, ``w = n_in - n_out``."""
    w = n_in - n_out
    d = diagonals.tolist()
    rows = []
    for r in range(n_out):
        row = 1 << (w + r)
        for c in range(w):
            row |= d[r - c + w - 1] << c
        rows.append(row)
    return Gf2Matrix(rows, n_in)


def decode_syndrome(
    code: LdpcCode, target: BitString, crossover: float
) -> tuple[BitString, bool, int]:
    """``LdpcCode.decode_syndrome`` with a fresh array for every step.

    The edges are put in row order by ``np.argsort(kind="stable")``, the
    column sums are float ``bincount``s over that order and the syndrome
    check is a full float-weighted ``bincount``, so every float operation
    is the one the package's decoder must reproduce bit for bit.
    """
    weight = code.rows.shape[0]
    row_idx = code.rows.astype(np.int64).ravel()
    col_idx = np.tile(np.arange(code.n_bits, dtype=np.int64), weight)
    order = np.argsort(row_idx, kind="stable")
    row_idx, col_idx = row_idx[order], col_idx[order]
    counts = np.bincount(row_idx, minlength=code.n_rows)
    empty_rows = counts == 0
    row_starts = (np.cumsum(counts) - counts)[~empty_rows]

    def syndrome(e_hat):
        acc = np.bincount(row_idx, weights=e_hat[col_idx], minlength=code.n_rows)
        return acc.astype(np.int64) & 1

    t_arr = target.to_array()
    p = min(max(crossover, 1e-4), 0.5 - 1e-4)
    llr0 = math.log((1.0 - p) / p)
    sign_target = 1.0 - 2.0 * t_arr.astype(np.float64)
    v_msg = np.full(row_idx.shape, llr0)
    e_hat = np.zeros(code.n_bits, dtype=np.int64)
    for iteration in range(1, MAX_ITERATIONS + 1):
        tanh_half = np.tanh(np.clip(v_msg, -LLR_CLIP, LLR_CLIP) / 2.0)
        tanh_half = np.where(
            np.abs(tanh_half) < 1e-12, np.copysign(1e-12, tanh_half), tanh_half
        )
        prod = np.ones(code.n_rows)
        prod[~empty_rows] = np.multiply.reduceat(tanh_half, row_starts)
        ext = np.clip(prod[row_idx] / tanh_half, -1.0 + 1e-12, 1.0 - 1e-12)
        c_msg = sign_target[row_idx] * 2.0 * np.arctanh(ext)
        totals = llr0 + np.bincount(col_idx, weights=c_msg, minlength=code.n_bits)
        e_hat = (totals < 0.0).astype(np.int64)
        if np.array_equal(syndrome(e_hat), t_arr):
            return BitString.from_array(e_hat), True, iteration
        v_msg = np.clip(totals[col_idx] - c_msg, -LLR_CLIP, LLR_CLIP)
    return BitString.from_array(e_hat), False, MAX_ITERATIONS


def p_int_joint(constants: ProtocolConstants, omega: str, n: int) -> float:
    """Joint probability of sending intensity omega and n photons."""
    if omega not in INTENSITIES:
        raise DomainError(f"unknown intensity label {omega!r}")
    return constants.p_intensity[omega] * poisson_pcs(constants.mu[omega], n)


def p_int_cond(constants: ProtocolConstants, omega: str, n: int) -> float:
    """Probability of intensity omega given that the round holds n photons."""
    total = math.fsum(p_int_joint(constants, w, n) for w in INTENSITIES)
    if total <= 0.0:
        raise DomainError(f"no intensity can emit n={n} photons under {constants.mu}")
    return p_int_joint(constants, omega, n) / total


def chi2_upper(df: int) -> float:
    """Upper 1e-4 quantile of chi-square with ``df`` degrees of freedom,
    by the Wilson-Hilferty approximation (3.719 is the standard normal
    1e-4 upper quantile)."""
    t = 2.0 / (9.0 * df)
    return df * (1.0 - t + 3.719 * math.sqrt(t)) ** 3


def chi2_statistic(observed, expected, min_expected: float = 5.0) -> tuple:
    """Pearson statistic and degrees of freedom of counts against expected
    counts; bins expected below ``min_expected`` are pooled into one."""
    observed = np.asarray(observed, dtype=float).ravel()
    expected = np.asarray(expected, dtype=float).ravel()
    small = expected < min_expected
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] == 0.0:
        assert obs[-1] == 0.0
        obs, exp = obs[:-1], exp[:-1]
    return float(np.sum((obs - exp) ** 2 / exp)), len(exp) - 1


def random_length_scenario(rng):
    """A random but valid (constants, observables, expectations, n_ec)."""
    mu_s = rng.uniform(0.3, 1.0)
    mu_d = mu_s * rng.uniform(0.15, 0.6)
    mu_v = 0.5 * mu_d * (1.0 - mu_d / mu_s) * rng.uniform(0.0, 0.9)
    raw_p = rng.uniform(0.05, 1.0, size=3)
    raw_p /= raw_p.sum()
    c = ProtocolConstants(
        n_block=int(rng.integers(1, 21)),
        m=int(rng.integers(1_000, 100_001)),
        p_intensity={"S": raw_p[0], "D": raw_p[1], "V": raw_p[2]},
        mu={"S": mu_s, "D": mu_d, "V": mu_v},
        p_basis_alice=rng.uniform(0.3, 0.9),
        p_basis_bob=rng.uniform(0.3, 0.9),
        n_verify=int(rng.integers(8, 65)),
        e_bit_assumed=rng.uniform(0.005, 0.12),
        eps_secrecy=10.0 ** rng.uniform(-12.0, -2.0),
    )
    channel = ChannelModel(
        eta_ch=rng.uniform(0.05, 1.0),
        e_mis=rng.uniform(0.0, 0.1),
        p_dark=rng.uniform(0.0, 1e-4),
        eta_det=rng.uniform(0.1, 1.0),
    )
    exp = expected_observables(c, channel)
    cap = c.n_total // 4
    noisy = {
        name: min(int(round(getattr(exp, name) * rng.uniform(0.5, 1.5))), cap)
        for name in ("n_sift_s", "n_sift_d", "n_sift_v", "n_err_dx", "n_err_vx")
    }
    obs = Observables(**noisy)
    n_ec = syndrome_length(obs.n_sift, c.e_bit_assumed)
    return c, obs, exp, n_ec
