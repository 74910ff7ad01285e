"""Honest channel and measurement model for the phase-encoded source.

The sender's round is (intensity omega, basis alpha, bit a) encoded on the
phase theta[(a, alpha)] of a phase-randomised coherent pulse. The receiver
interferes against his reference theta[(0, beta)], so the two detectors see
Poisson loads split by the interference fraction of the relative phase.
Detector 0 fires for bit 0; matched bases route the whole surviving pulse to
detector a, mismatched bases split it evenly. Misalignment flips each
photon's routing independently with probability e_mis, dark counts fire each
detector independently, and a double click resolves to a fair coin.

The closed forms and the Fock-state oracle below describe the same physical
model: the per-photon routing of a Poisson pulse thins into two independent
Poisson detector loads, which is what the closed forms use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    BASES,
    INTENSITIES,
    THETA,
    ConfigurationError,
    DomainError,
    ProtocolConstants,
)

__all__ = [
    "ChannelModel",
    "BlockSample",
    "load_channel",
    "eta_total",
    "routing_fraction",
    "click_probabilities",
    "click_probability_total",
    "error_probability_x",
    "single_photon_yield",
    "single_photon_error_x",
    "fock_click_oracle",
    "sample_block",
    "generator",
]

NO_CLICK = -1
FOCK_MAX_PHOTONS = 12


@dataclass(frozen=True)
class ChannelModel:
    """Loss, misalignment and detector parameters of the honest channel.

    Transmittance is given either directly (eta_ch) or as a fibre budget
    (loss_db_per_km together with distance_km), never both.
    """

    e_mis: float
    p_dark: float
    eta_det: float
    eta_ch: float | None = None
    loss_db_per_km: float | None = None
    distance_km: float | None = None

    def __post_init__(self) -> None:
        direct = self.eta_ch is not None
        budget = self.loss_db_per_km is not None or self.distance_km is not None
        if direct and budget:
            raise ConfigurationError(
                "give either eta_ch or loss_db_per_km/distance_km, not both"
            )
        if not direct:
            if self.loss_db_per_km is None or self.distance_km is None:
                raise ConfigurationError(
                    "fibre budget needs both loss_db_per_km and distance_km"
                )
            if self.loss_db_per_km < 0.0 or self.distance_km < 0.0:
                raise ConfigurationError("fibre budget values must be nonnegative")
        elif not 0.0 < self.eta_ch <= 1.0:
            raise ConfigurationError(f"eta_ch must lie in (0, 1], got {self.eta_ch}")
        if not 0.0 <= self.e_mis <= 0.5:
            raise ConfigurationError(f"e_mis must lie in [0, 1/2], got {self.e_mis}")
        if not 0.0 <= self.p_dark < 1.0:
            raise ConfigurationError(f"p_dark must lie in [0, 1), got {self.p_dark}")
        if not 0.0 < self.eta_det <= 1.0:
            raise ConfigurationError(f"eta_det must lie in (0, 1], got {self.eta_det}")

    @property
    def transmittance(self) -> float:
        """Channel transmittance resolved from whichever form was given."""
        if self.eta_ch is not None:
            return self.eta_ch
        return 10.0 ** (-self.loss_db_per_km * self.distance_km / 10.0)

    def as_dict(self) -> dict:
        out = {
            "e_mis": self.e_mis,
            "p_dark": self.p_dark,
            "eta_det": self.eta_det,
        }
        if self.eta_ch is not None:
            out["eta_ch"] = self.eta_ch
        else:
            out["loss_db_per_km"] = self.loss_db_per_km
            out["distance_km"] = self.distance_km
        return out


def load_channel(source) -> ChannelModel:
    """Build a ChannelModel from a JSON file path or a mapping."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigurationError("channel file must hold a JSON object")
    allowed = {"eta_ch", "loss_db_per_km", "distance_km", "e_mis", "p_dark", "eta_det"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigurationError(f"unknown channel keys: {sorted(unknown)}")
    return ChannelModel(**raw)


def eta_total(channel: ChannelModel) -> float:
    """End-to-end per-photon survival probability into one detector pair.

    The factor 1/2 is the receiver's passive loss (only one interferometer
    time slot carries the interference signal).
    """
    return channel.transmittance * channel.eta_det / 2.0


def routing_fraction(channel: ChannelModel, delta: float) -> float:
    """Probability that a surviving photon lands on detector 0.

    delta is the relative phase between the incoming pulse and the
    receiver's reference. (1 + cos delta)/2 is used instead of
    cos^2(delta/2) so matched-basis routing is exact in floating point.
    """
    base = 0.5 * (1.0 + math.cos(delta))
    return (1.0 - channel.e_mis) * base + channel.e_mis * (1.0 - base)


def _relative_phase(a_bit: int, alpha: str, beta: str) -> float:
    if alpha not in BASES or beta not in BASES:
        raise DomainError(f"unknown basis labels {alpha!r}, {beta!r}")
    if a_bit not in (0, 1):
        raise DomainError(f"bit must be 0 or 1, got {a_bit!r}")
    return THETA[(a_bit, alpha)] - THETA[(0, beta)]


def click_probabilities(
    constants: ProtocolConstants,
    channel: ChannelModel,
    omega: str,
    alpha: str,
    a_bit: int,
    beta: str,
) -> tuple[float, float, float, float]:
    """(p_only0, p_only1, p_both, p_none) for one setting combination.

    Closed form from independent Poisson detector loads: the surviving
    intensity mu * eta_tot splits by the routing fraction, dark counts are
    independent per detector.
    """
    if omega not in INTENSITIES:
        raise DomainError(f"unknown intensity label {omega!r}")
    mu = constants.mu[omega]
    eta = eta_total(channel)
    q0 = routing_fraction(channel, _relative_phase(a_bit, alpha, beta))
    load0 = mu * eta * q0
    load1 = mu * eta * (1.0 - q0)
    no0 = (1.0 - channel.p_dark) * math.exp(-load0)
    no1 = (1.0 - channel.p_dark) * math.exp(-load1)
    return (
        (1.0 - no0) * no1,
        no0 * (1.0 - no1),
        (1.0 - no0) * (1.0 - no1),
        no0 * no1,
    )


def click_probability_total(channel: ChannelModel, mu: float) -> float:
    """Probability that at least one detector fires; basis independent."""
    eta = eta_total(channel)
    return 1.0 - (1.0 - channel.p_dark) ** 2 * math.exp(-mu * eta)


def error_probability_x(channel: ChannelModel, mu: float) -> float:
    """Matched-X-basis bit-error probability for intensity mu.

    Counts wrong-detector-only clicks plus half of the double clicks (the
    fair coin on a double click is wrong half the time).
    """
    eta = eta_total(channel)
    load_correct = mu * eta * (1.0 - channel.e_mis)
    load_wrong = mu * eta * channel.e_mis
    no_correct = (1.0 - channel.p_dark) * math.exp(-load_correct)
    no_wrong = (1.0 - channel.p_dark) * math.exp(-load_wrong)
    return (1.0 - no_wrong) * no_correct + 0.5 * (1.0 - no_correct) * (1.0 - no_wrong)


def single_photon_yield(channel: ChannelModel) -> float:
    """Click probability of a single-photon round; basis independent."""
    eta = eta_total(channel)
    return 1.0 - (1.0 - channel.p_dark) ** 2 * (1.0 - eta)


def single_photon_error_x(channel: ChannelModel) -> float:
    """Matched-X bit-error probability of a single-photon round.

    Exact one-photon bookkeeping (the two detectors are anti-correlated
    given a single photon, unlike the coherent closed form).
    """
    eta = eta_total(channel)
    d = channel.p_dark
    q_correct = eta * (1.0 - channel.e_mis)
    q_wrong = eta * channel.e_mis
    return (
        0.5 * q_correct * d
        + q_wrong * (1.0 - 0.5 * d)
        + (1.0 - eta) * d * (1.0 - 0.5 * d)
    )


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
    counts, so it shares no code path with the closed form above and
    serves as its independent check through Poisson mixing.
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


def generator(seed: int, *key: int) -> np.random.Generator:
    """Deterministic counter-based generator for a seed and spawn key.

    Philox keeps the bit stream stable across platforms, and distinct keys
    give independent streams. A session uses one stream per role (Alice's
    settings, Bob's settings, channel noise, post-processing seeds); every
    block of a session draws from those same streams in turn.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
    )


@dataclass
class BlockSample:
    """Vectorised simulation of one block of rounds.

    Encodings: omega_idx indexes INTENSITIES; alpha/beta are 0 for Z and
    1 for X; b is NO_CLICK where no detector fired. n_photons is the
    hidden source variable, kept for ground-truth checks only.
    """

    omega_idx: np.ndarray
    alpha: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    n_photons: np.ndarray
    clicked: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return len(self.omega_idx)


def _routing_table(channel: ChannelModel) -> np.ndarray:
    """q0 lookup indexed by (a, alpha, beta)."""
    table = np.empty((2, 2, 2))
    for a_bit in (0, 1):
        for ia, alpha in enumerate(BASES):
            for ib, beta in enumerate(BASES):
                table[a_bit, ia, ib] = routing_fraction(
                    channel, _relative_phase(a_bit, alpha, beta)
                )
    return table


def sample_block(
    constants: ProtocolConstants,
    channel: ChannelModel,
    alice_rng: np.random.Generator,
    bob_rng: np.random.Generator,
    channel_rng: np.random.Generator,
    m: int | None = None,
) -> BlockSample:
    """Simulate one block of m rounds.

    Draw order is fixed (sender settings, receiver bases, photon numbers,
    survivors, routing, dark counts, double-click coins), so a session is
    reproducible from its seed. The streams are shared by all blocks, and
    the Poisson and binomial draws consume a data-dependent number of raw
    values, so a block's outcomes depend on every block drawn before it
    from the same streams; a block is not reproducible on its own.
    """
    if m is None:
        m = constants.m
    p_int = np.array([constants.p_intensity[w] for w in INTENSITIES])
    mu_by_idx = np.array([constants.mu[w] for w in INTENSITIES])
    omega_idx = alice_rng.choice(3, size=m, p=p_int).astype(np.int8)
    alpha = (alice_rng.random(m) >= constants.p_basis_alice).astype(np.int8)
    a = alice_rng.integers(0, 2, size=m, dtype=np.int8)
    beta = (bob_rng.random(m) >= constants.p_basis_bob).astype(np.int8)
    n_photons = channel_rng.poisson(mu_by_idx[omega_idx])
    eta = eta_total(channel)
    survivors = channel_rng.binomial(n_photons, eta)
    q0 = _routing_table(channel)[a, alpha, beta]
    k0 = channel_rng.binomial(survivors, q0)
    dark0 = channel_rng.random(m) < channel.p_dark
    dark1 = channel_rng.random(m) < channel.p_dark
    coin = channel_rng.integers(0, 2, size=m, dtype=np.int8)
    click0 = (k0 > 0) | dark0
    click1 = ((survivors - k0) > 0) | dark1
    clicked = click0 | click1
    b = np.full(m, NO_CLICK, dtype=np.int8)
    b[click0 & ~click1] = 0
    b[click1 & ~click0] = 1
    both = click0 & click1
    b[both] = coin[both]
    return BlockSample(
        omega_idx=omega_idx,
        alpha=alpha,
        a=a,
        beta=beta,
        n_photons=n_photons,
        clicked=clicked,
        b=b,
    )
