"""Independent statistical checks of the security engine.

Nothing here feeds the bounds themselves. These routines attack the
claimed guarantees from the outside: tail inequalities are stress-tested
against i.i.d. sampling where the sum of conditional expectations is known
exactly, the assembled floor and ceiling are compared against hidden
per-round truth that only a simulation can see, and the verification hash
is attacked with mismatched keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import (
    expected_observables,
    kato_pair,
    kato_pair_prime,
    security_result,
)
from .channel import (
    FOCK_MAX_PHOTONS,
    SETTINGS,
    BlockSample,
    BlockSource,
    ChannelModel,
    click_probabilities,
    fock_click_oracle,
    generator,
    setting_index,
    single_photon_error_x,
    single_photon_yield,
)
from .ecc import syndrome_length
from .gf2 import BitString
from .hashing import verify_hash
from .params import (
    BASES,
    INTENSITIES,
    THETA,
    DomainError,
    ProtocolConstants,
    poisson_pcs,
)
from .protocol import _CountAccumulator


@dataclass(frozen=True)
class TailTestResult:
    trials: int
    forward_violations: int
    reverse_violations: int
    eps: float

    @property
    def forward_rate(self) -> float:
        return self.forward_violations / self.trials

    @property
    def reverse_rate(self) -> float:
        return self.reverse_violations / self.trials


def kato_tail_mc(
    n: int, q: float, eps: float, trials: int, seed: int
) -> TailTestResult:
    """Empirical violation rates of both deviation envelopes.

    For i.i.d. Bernoulli(q) rounds the sum of conditional expectations is
    exactly lam = n q, so both envelope events are directly observable:

      forward:  lam >= count + (b + a (2 lam / n - 1)) sqrt(n)
      reverse:  count >= lam + (b' + a' (2 lam / n - 1)) sqrt(n)

    Each must occur with probability at most eps. The envelopes are
    centred at the true expectation, matching how the engine uses
    pre-agreed expected counts.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    lam = n * q
    a, b = kato_pair(n, lam, eps)
    ap, bp = kato_pair_prime(n, lam, eps)
    root = np.sqrt(n)
    centre = 2.0 * lam / n - 1.0
    forward_edge = lam - (b + a * centre) * root
    reverse_edge = lam + (bp + ap * centre) * root
    rng = generator(seed, 0x7A11)
    forward = 0
    reverse = 0
    block = 1_000_000
    remaining = trials
    while remaining > 0:
        k = min(block, remaining)
        counts = rng.binomial(n, q, size=k)
        forward += int(np.sum(counts <= forward_edge))
        reverse += int(np.sum(counts >= reverse_edge))
        remaining -= k
    return TailTestResult(trials, forward, reverse, eps)


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
    hidden photon number from photon_posterior on the stream
    generator(seed, 4, j); the hidden single-photon count is the number of
    matched-Z clicks with one photon. Phase errors are not directly
    simulated, so each hidden single-photon sifted round draws an error
    flag at the exact conditional single-photon X-error probability, on
    generator(seed, 4); the ceiling must dominate that draw.
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
            acc.add_block(s.omega_idx, s.alpha, s.beta, s.a)
            matched_x = (s.alpha == 1) & (s.beta == 1)
            acc.add_errors(s.omega_idx[matched_x], s.a[matched_x] != s.b[matched_x])
            n_photons = clicked_photon_numbers(photon_cdf, s, generator(seed, 4, j))
            matched_z = (s.alpha == 0) & (s.beta == 0)
            n1z_true += int(np.count_nonzero(matched_z & (n_photons == 1)))

        obs = acc.observables()
        nph_true = int(generator(seed, 4).binomial(n1z_true, p_err_given_click))
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
    rng = generator(seed, 0xC0)
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
        if verify_hash(k_a, hash_seed, n_verify) == verify_hash(
            k_b, hash_seed, n_verify
        ):
            false_accepts += 1
    return VerificationAttack(trials, false_accepts, n_verify)
