"""Reference implementations and oracles that the tests check against.

Nothing in ``src`` uses these: ``bits``, which builds a test bit string
from a list, a dense GF(2) matrix with integer-bitset rows, the explicit
matrix of a modified Toeplitz hash, a belief-propagation decoder written
with one fresh array per step, the intensity and photon-number
probabilities written out one value at a time, a chi-square check, a
generator of random length-computation scenarios, the Fock-state click
oracle, the ground-truth scoring of the single-photon floor and
phase-error ceiling, a forced-mismatch attack on the verification hash,
and the click-only sampler as first written, with ``Generator.choice``,
on block streams built from their documented key and counter layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from dsbb84.bounds import Observables, expected_observables, security_result
from dsbb84.channel import (
    SETTINGS,
    BlockSample,
    BlockSource,
    ChannelModel,
    StreamKey,
    _conditional,
    click_probabilities,
    click_probability_total,
    eta_total,
    generator,
    routing_fraction,
    setting_index,
    single_photon_error_x,
    single_photon_yield,
)
from dsbb84.ecc import LLR_CLIP, MARGIN, MAX_ITERATIONS, LdpcCode, syndrome_length
from dsbb84.gf2 import BitString
from dsbb84.hashing import VERIFY_LABEL, toeplitz_for_seed
from dsbb84.params import (
    BASES,
    INTENSITIES,
    THETA,
    DomainError,
    ProtocolConstants,
    poisson_pcs,
)
from dsbb84.protocol import _CountAccumulator


def bits(values: Iterable[int]) -> BitString:
    """A bit string of the 0/1 ``values``, index 0 first."""
    return BitString.from_array(np.array(list(values), dtype=np.uint8))


def word(bits: BitString) -> int:
    """The bits as a non-negative integer, bit ``j`` being index ``j``."""
    return int.from_bytes(bits.to_bytes(), "little")


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
            rows.append(word(bits(row)))
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
        product = 0
        xw = word(x)
        for i, row in enumerate(self.rows):
            product |= ((row & xw).bit_count() & 1) << i
        return BitString.from_int(product, self.n_rows)

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
    d = list(diagonals)
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
    """The package's earlier float64 decoder, with a fresh array for every
    step: the oracle of how many decodes single precision may lose.

    The edges are put in row order by ``np.argsort(kind="stable")``, the
    column sums are float ``bincount``s over that order and the syndrome
    check is a full float-weighted ``bincount``; the tanh-domain factors
    keep 1e-12 from 0 and from +-1.
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


def decode_syndrome_float32(
    code: LdpcCode, target: BitString, crossover: float
) -> tuple[BitString, bool, int]:
    """``LdpcCode.decode_syndrome`` one edge at a time, in float32.

    Edge ``k * n_bits + c`` is entry ``k`` of column ``c``. Each row's
    product runs over its edges in ascending edge order, each column's
    total over its entries in ``k`` order and then the prior, with every
    float32 operation in the package's order, so the two must agree bit
    for bit. Only tanh and arctanh are taken by numpy over the whole edge
    array, as the package takes them: numpy dispatches its float32
    kernels per platform, and they need not match its scalar path in the
    last place. The syndrome check flips a parity per edge of each hard
    decision of 1.
    """
    f32 = np.float32
    weight, n_bits = code.rows.shape
    row_of = code.rows.ravel().tolist()
    edges_of_row = [[] for _ in range(code.n_rows)]
    for e, r in enumerate(row_of):
        edges_of_row[r].append(e)
    t = target.to_array().tolist()
    p = min(max(crossover, 1e-4), 0.5 - 1e-4)
    llr0 = f32(math.log((1.0 - p) / p))
    margin, low, high = f32(MARGIN), f32(-1.0 + MARGIN), f32(1.0 - MARGIN)
    clip = f32(LLR_CLIP)
    msg = [llr0] * len(row_of)
    for iteration in range(1, MAX_ITERATIONS + 1):
        half = list(np.tanh(np.array(msg, dtype=f32) * f32(0.5)))
        for e, h in enumerate(half):
            if abs(h) < margin:
                half[e] = np.copysign(margin, h)
        ext = [None] * len(row_of)
        for r, edges in enumerate(edges_of_row):
            if not edges:
                continue
            prod = half[edges[0]]
            for e in edges[1:]:
                prod = prod * half[e]
            if t[r]:
                prod = -prod
            for e in edges:
                ext[e] = min(max(prod / half[e], low), high)
        c_msg = [f32(2.0) * a for a in np.arctanh(np.array(ext, dtype=f32))]
        totals = []
        for c in range(n_bits):
            total = c_msg[c]
            for k in range(1, weight):
                total = total + c_msg[k * n_bits + c]
            totals.append(total + llr0)
        hard = [total < 0 for total in totals]
        parity = [0] * code.n_rows
        for e, r in enumerate(row_of):
            if hard[e % n_bits]:
                parity[r] ^= 1
        if parity == t:
            return BitString.from_array(np.array(hard)), True, iteration
        msg = [
            min(max(totals[e % n_bits] - c_msg[e], -clip), clip)
            for e in range(len(row_of))
        ]
    return BitString.from_array(np.array(hard)), False, MAX_ITERATIONS


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


# Photon-number truth of the simulated channel: independent of the closed
# forms in dsbb84.channel, and scored against the bounds by ground_truth_runs.
FOCK_MAX_PHOTONS = 12


def fock_click_oracle(
    n_photons: int,
    channel: ChannelModel,
    phase_delta: float,
    beta: str,
) -> tuple[float, float, float, float]:
    """(p_only0, p_only1, p_both, p_none) for an n-photon input state.

    phase_delta is the sender's encoding phase; the receiver's reference
    for basis beta is subtracted internally. Enumerates every split of the
    n photons over (detector 0, detector 1, lost), then folds in the dark
    counts, so it shares no code path with the closed forms of
    dsbb84.channel and serves as their independent check through Poisson
    mixing.
    """
    if not 0 <= n_photons <= FOCK_MAX_PHOTONS:
        raise DomainError(
            f"oracle supports 0..{FOCK_MAX_PHOTONS} photons, got {n_photons}"
        )
    if beta not in BASES:
        raise DomainError(f"unknown basis label {beta!r}")
    eta = eta_total(channel)
    q0 = routing_fraction(channel, phase_delta - THETA[(0, beta)])
    p_hit = [0.0, 0.0, 0.0, 0.0]  # cells (h0, h1) as 2*h0 + h1
    for k0 in range(n_photons + 1):
        for k1 in range(n_photons - k0 + 1):
            lost = n_photons - k0 - k1
            weight = (
                math.factorial(n_photons)
                / (math.factorial(k0) * math.factorial(k1) * math.factorial(lost))
                * (eta * q0) ** k0
                * (eta * (1.0 - q0)) ** k1
                * (1.0 - eta) ** lost
            )
            p_hit[2 * (k0 > 0) + (k1 > 0)] += weight
    d = channel.p_dark
    p_none = p_hit[0] * (1.0 - d) ** 2
    p_only0 = p_hit[2] * (1.0 - d) + p_hit[0] * d * (1.0 - d)
    p_only1 = p_hit[1] * (1.0 - d) + p_hit[0] * (1.0 - d) * d
    p_both = (
        p_hit[3]
        + (p_hit[1] + p_hit[2]) * d
        + p_hit[0] * d * d
    )
    return (p_only0, p_only1, p_both, p_none)


# The click-only sampler as first written: the intensity from
# Generator.choice, every column copied with astype, the cells read from one
# (24, 2) table and a length-m click mask kept on every block.
# dsbb84.channel draws the same columns from the same streams with fewer
# calls; test_channel checks the two equal.


@dataclass(frozen=True)
class ChoiceLaw:
    """The sampler tables as first written: the intensity laws as
    probabilities and the cell thresholds as one (24, 2) table."""

    m: int
    p_basis_alice: float
    p_basis_bob: float
    p_click: float
    omega_given_click: np.ndarray
    omega_given_none: np.ndarray
    cell_cdf: np.ndarray


def choice_click_law(constants: ProtocolConstants, channel: ChannelModel) -> ChoiceLaw:
    p_omega = np.array([constants.p_intensity[w] for w in INTENSITIES])
    click = np.array(
        [click_probability_total(channel, constants.mu[w]) for w in INTENSITIES]
    )
    cells = _conditional(np.array([
        click_probabilities(constants, channel, *settings)[:3]
        for settings in SETTINGS
    ]))
    return ChoiceLaw(
        m=constants.m,
        p_basis_alice=constants.p_basis_alice,
        p_basis_bob=constants.p_basis_bob,
        p_click=float(p_omega @ click),
        omega_given_click=_conditional(p_omega * click),
        omega_given_none=_conditional(p_omega * (1.0 - click)),
        cell_cdf=np.stack([cells[:, 0], 1.0 - cells[:, 2]], axis=1),
    )


def block_stream(seed: int, role: int, j: int) -> np.random.Generator:
    """The stream of ``role`` for block j, built from the layout that
    channel.generator documents, not through channel: the Philox key
    SeedSequence(seed, spawn_key=(role,)).generate_state(2, uint64) and
    the 256-bit counter with j + 1 in its top 64-bit word."""
    key = np.random.SeedSequence(seed, spawn_key=(role,)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=(j + 1) << 192))


def _draw_alice_settings(
    rng: np.random.Generator, p_omega: np.ndarray, p_basis_alice: float, k: int
) -> tuple:
    """k rounds of (omega_idx, alpha, a): intensity from p_omega, then priors."""
    omega_idx = rng.choice(3, size=k, p=p_omega).astype(np.int8)
    alpha = (rng.random(k) >= p_basis_alice).astype(np.int8)
    a = rng.integers(0, 2, size=k, dtype=np.int8)
    return omega_idx, alpha, a


@dataclass
class ChoiceBlock:
    """Block j as the first sampler drew it, click mask included."""

    law: ChoiceLaw
    seed: int
    j: int
    beta: np.ndarray
    clicked: np.ndarray
    offsets: np.ndarray
    omega_idx: np.ndarray
    alpha: np.ndarray
    a: np.ndarray
    cell: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return self.law.m

    def alice_settings(self, offs: np.ndarray) -> tuple:
        columns = (self.omega_idx, self.alpha, self.a)
        if np.array_equal(offs, self.offsets):
            return columns
        unclicked = np.ones(len(self), dtype=bool)
        unclicked[self.offsets] = False
        unclicked = np.flatnonzero(unclicked)
        drawn = _draw_alice_settings(
            block_stream(self.seed, StreamKey.ALICE_UNCLICKED, self.j),
            self.law.omega_given_none,
            self.law.p_basis_alice,
            len(unclicked),
        )
        out = []
        for col, other in zip(columns, drawn):
            full = np.empty(len(self), dtype=np.int8)
            full[self.offsets] = col
            full[unclicked] = other
            out.append(full[offs])
        return tuple(out)


def sample_block(law: ChoiceLaw, seed: int, j: int) -> ChoiceBlock:
    m = law.m
    noise = block_stream(seed, StreamKey.CHANNEL, j)
    k = int(noise.binomial(m, law.p_click))
    offsets = np.sort(noise.choice(m, k, replace=False, shuffle=False))
    clicked = np.zeros(m, dtype=bool)
    clicked[offsets] = True
    omega_idx, alpha, a = _draw_alice_settings(
        block_stream(seed, StreamKey.ALICE, j), law.omega_given_click, law.p_basis_alice, k
    )
    beta = (block_stream(seed, StreamKey.BOB, j).random(k) >= law.p_basis_bob).astype(np.int8)
    u = noise.random(k)
    cdf = law.cell_cdf[setting_index(omega_idx, alpha, a, beta)]
    cell = (u >= cdf[:, 0]).astype(np.int8) + (u >= cdf[:, 1])
    b = cell.copy()
    both = np.flatnonzero(cell == 2)
    b[both] = noise.integers(0, 2, size=len(both), dtype=np.int8)
    return ChoiceBlock(
        law=law,
        seed=seed,
        j=j,
        beta=beta,
        clicked=clicked,
        offsets=offsets,
        omega_idx=omega_idx,
        alpha=alpha,
        a=a,
        cell=cell,
        b=b,
    )


@dataclass(frozen=True)
class GroundTruthRun:
    """One simulated session compared against its hidden truth."""

    n1z_true: int
    nph_true: int
    n1z_floor: int
    nph_ceil: int
    abort: bool
    covered: bool
    n_sift: int


def photon_posterior(
    constants: ProtocolConstants, channel: ChannelModel
) -> tuple[np.ndarray, float]:
    """Photon-number law of a clicked round, and the mass it leaves out.

    Returns ``cdf`` of shape (24, 3, FOCK_MAX_PHOTONS + 1): for setting
    combination SETTINGS[c] and detector cell (0 only detector 0, 1 only
    detector 1, 2 both), the cumulative law of P(n | settings, cell),
    proportional to Poisson(n; mu_omega) times the Fock oracle's
    probability of that cell, for n = 0..FOCK_MAX_PHOTONS.

    The truncation drops photon numbers above FOCK_MAX_PHOTONS. The second
    return value is the largest share of any cell's closed-form
    probability that the kept photon numbers miss; the double-click cells
    miss the most. It is 3.5e-11 at mu_S = 0.5 on the 100 km reference
    link, about 1e-9 at mu_S = 0.8 and 8e-6 at mu_S = 2.0.
    ground_truth_runs refuses a configuration where it exceeds 1e-6.
    """
    ns = range(FOCK_MAX_PHOTONS + 1)
    pois = {
        omega: np.array([poisson_pcs(constants.mu[omega], n) for n in ns])
        for omega in INTENSITIES
    }
    fock = {
        (alpha, a_bit, beta): np.array(
            [fock_click_oracle(n, channel, THETA[(a_bit, alpha)], beta)[:3] for n in ns]
        )
        for alpha in BASES
        for a_bit in (0, 1)
        for beta in BASES
    }
    weights = []
    truncated = 0.0
    for omega, alpha, a_bit, beta in SETTINGS:
        joint = pois[omega][:, None] * fock[(alpha, a_bit, beta)]
        closed = click_probabilities(constants, channel, omega, alpha, a_bit, beta)
        for cell in range(3):
            if closed[cell] > 0.0:
                kept = math.fsum(joint[:, cell]) / closed[cell]
                truncated = max(truncated, 1.0 - kept)
        weights.append(joint.T)
    cdf = np.cumsum(np.array(weights), axis=-1)
    total = cdf[..., -1:]
    # A cell that never clicks is never drawn; give it n = 0.
    cdf = np.divide(cdf, total, out=np.ones_like(cdf), where=total > 0.0)
    return cdf, truncated


def clicked_photon_numbers(
    photon_cdf: np.ndarray, block: BlockSample, rng: np.random.Generator
) -> np.ndarray:
    """Hidden photon number of each clicked round of ``block``, drawn from
    ``photon_cdf`` (see photon_posterior) given its settings and cell."""
    combo = setting_index(block.omega_idx, block.alpha, block.a, block.beta)
    u = rng.random(len(combo))
    return (photon_cdf[combo, block.cell] <= u[:, None]).sum(axis=1)


def ground_truth_runs(
    constants: ProtocolConstants, channel: ChannelModel, seeds: Iterable[int]
) -> list[GroundTruthRun]:
    """Run the quantum phase once per seed and score the floor and ceiling
    against truth.

    The photon posterior, its truncation check and the expected counts
    depend on the configuration alone, so they are built once for all
    seeds. Blocks come from each session's BlockSource and are tallied by
    the protocol's count accumulator. Each clicked round then draws its
    hidden photon number from photon_posterior on the session's block-j
    stream of StreamKey.GROUND_TRUTH; the hidden single-photon
    count is the number of matched-Z clicks with one photon. Phase errors
    are not directly simulated, so each hidden single-photon sifted round
    draws an error flag at the exact conditional single-photon X-error
    probability, on generator(seed, StreamKey.GROUND_TRUTH); the ceiling
    must dominate that draw.
    """
    photon_cdf, truncated = photon_posterior(constants, channel)
    if truncated > 1e-6:
        raise DomainError(
            f"photon numbers above {FOCK_MAX_PHOTONS} carry {truncated:.2e} "
            "of a cell's probability"
        )
    expected = expected_observables(constants, channel)
    p_err_given_click = single_photon_error_x(channel) / single_photon_yield(channel)
    runs = []
    for seed in seeds:
        blocks = BlockSource(constants, channel, seed)
        acc = _CountAccumulator()
        n1z_true = 0
        for j in range(constants.n_block):
            s = blocks(j)
            matched_x = (s.alpha == 1) & (s.beta == 1)
            acc.add_block(s.omega_idx, s.alpha, s.beta, s.a, s.b[matched_x])
            rng = blocks.streams(StreamKey.GROUND_TRUTH, j)
            n_photons = clicked_photon_numbers(photon_cdf, s, rng)
            matched_z = (s.alpha == 0) & (s.beta == 0)
            n1z_true += int(np.count_nonzero(matched_z & (n_photons == 1)))

        obs = acc.observables()
        rng = generator(seed, StreamKey.GROUND_TRUTH)
        nph_true = int(rng.binomial(n1z_true, p_err_given_click))
        n_ec = syndrome_length(obs.n_sift, constants.e_bit_assumed)
        result = security_result(constants, obs, expected, n_ec)
        covered = result.abort or (
            result.n1z_floor <= n1z_true and nph_true <= result.nph_ceil
        )
        runs.append(
            GroundTruthRun(
                n1z_true=n1z_true,
                nph_true=nph_true,
                n1z_floor=result.n1z_floor,
                nph_ceil=result.nph_ceil,
                abort=result.abort,
                covered=covered,
                n_sift=obs.n_sift,
            )
        )
    return runs


@dataclass(frozen=True)
class VerificationAttack:
    trials: int
    false_accepts: int
    n_verify: int

    @property
    def rate(self) -> float:
        return self.false_accepts / self.trials

    @property
    def bound(self) -> float:
        return 2.0 ** (-self.n_verify)


def verification_mc(
    n_bits: int, n_verify: int, trials: int, seed: int
) -> VerificationAttack:
    """False-accept rate of the verification hash under forced mismatches.

    Every trial hashes two keys that differ in a fresh uniformly random
    nonzero pattern under a fresh seed; accepting any of them is a
    correctness failure, which two-universality caps at 2^-n_verify per
    trial.
    """
    rng = generator(seed, StreamKey.VERIFY_ATTACK)
    false_accepts = 0
    n_bytes = (n_bits + 7) // 8
    mask = (1 << n_bits) - 1
    for _ in range(trials):
        key_word = int.from_bytes(rng.bytes(n_bytes), "little") & mask
        diff = 0
        while diff == 0:
            diff = int.from_bytes(rng.bytes(n_bytes), "little") & mask
        k_a = BitString.from_int(key_word, n_bits)
        k_b = BitString.from_int(key_word ^ diff, n_bits)
        hash_seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        member = toeplitz_for_seed(VERIFY_LABEL, hash_seed, n_bits, n_verify)
        if member.apply(k_a) == member.apply(k_b):
            false_accepts += 1
    return VerificationAttack(trials, false_accepts, n_verify)
