"""Honest channel and measurement model for the phase-encoded source.

The sender's round is (intensity omega, basis alpha, bit a) encoded on the
phase theta[(a, alpha)] of a phase-randomised coherent pulse. The receiver
interferes against his reference theta[(0, beta)], so the two detectors see
Poisson loads split by the interference fraction of the relative phase.
Detector 0 fires for bit 0; matched bases route the whole surviving pulse to
detector a, mismatched bases split it evenly. Misalignment flips each
photon's routing independently with probability e_mis, dark counts fire each
detector independently, and a double click resolves to a fair coin.

The closed forms use that the per-photon routing of a Poisson pulse thins
into two independent Poisson detector loads. The test suite checks them
against a Fock-state oracle that enumerates each photon's fate instead.

The sampler draws only the rounds that clicked: whether a round clicks
depends on its intensity alone, so a block draws its click count and
positions first and then each click's settings, Bob's basis and the
detector cell from the laws conditioned on the click (see sample_block).
Drawing a sparse block costs little more than setting the counters of
its three streams, each keyed once per session (BlockStreams): the
intensity is one uniform draw against two cut points and the cell two
``take``s from two flat tables, all stored in the ClickLaw, which is
built once per (constants, channel); each column is a bool comparison
viewed as int8; and no array is as long as the block, since the click
mask BlockSample.clicked is derived from the offsets only when it is
read.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
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
    read_config,
    require_real,
)

__all__ = [
    "ChannelModel",
    "BlockSample",
    "BlockSource",
    "BlockStreams",
    "ClickLaw",
    "SETTINGS",
    "load_channel",
    "eta_total",
    "routing_fraction",
    "click_probabilities",
    "click_probability_total",
    "error_probability_x",
    "single_photon_yield",
    "single_photon_error_x",
    "click_law",
    "setting_index",
    "sample_block",
    "generator",
]


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
        for name in ("e_mis", "p_dark", "eta_det"):
            require_real(name, getattr(self, name))
        for name in ("eta_ch", "loss_db_per_km", "distance_km"):
            if getattr(self, name) is not None:
                require_real(name, getattr(self, name))
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
        """JSON-serialisable view with the transmittance in the form given."""
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


def load_channel(source) -> ChannelModel:
    """Build a ChannelModel from a JSON file path or a mapping."""
    return ChannelModel(**read_config(source, ChannelModel, "channel"))


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
    channel: ChannelModel, mu: float, alpha: str, a_bit: int, beta: str
) -> tuple[float, float, float, float]:
    """(p_only0, p_only1, p_both, p_none) of one setting at mean photon
    number mu.

    Closed form from independent Poisson detector loads: the surviving
    intensity mu * eta_tot splits by the routing fraction, dark counts are
    independent per detector.
    """
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
    fair coin on a double click is wrong half the time), read from the
    cells of bit 1, for which detector 0 is the wrong one.
    """
    wrong_only, _, both, _ = click_probabilities(channel, mu, "X", 1, "X")
    return wrong_only + 0.5 * both


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


@enum.unique
class StreamKey(enum.IntEnum):
    """The role of each stream drawn from a seed: its Philox key.

    A per-block stream is block j's counter range on the role's key
    (BlockStreams); any other one is generator(seed, role), the same key
    from counter 0. No two uses share a role.
    """

    ALICE = 0  # Alice's settings on the clicked rounds of a block
    BOB = 1  # Bob's basis on the clicked rounds of a block
    CHANNEL = 2  # the clicked set, detector cells and coins of a block
    POST_PROCESSING = 3  # Alice's verification and PA seeds (protocol)
    GROUND_TRUTH = 4  # the test suite's hidden photon numbers
    ALICE_UNCLICKED = 5  # Alice's settings on the unclicked rounds of a block
    VERIFY_ATTACK = 0xC0  # the test suite's verification-hash attack
    LDPC = 0xEC  # the rows of an LDPC code, from its code seed (ecc)
    VERIFY_BOUNDS = 0x7A11  # the verify-bounds Monte Carlo (oracles)


# Block indices whose counter range fits the top counter word as j + 1.
MAX_BLOCKS = 2**64 - 1


def generator(seed: int, role: int) -> np.random.Generator:
    """Deterministic counter-based generator for a seed and a role.

    Philox keeps the bit stream stable across platforms. Its key is
    SeedSequence(seed, spawn_key=(role,)).generate_state(2, uint64), so
    distinct (seed, role) pairs give independent streams. This stream
    starts at counter 0.

    A per-block stream (BlockStreams) keeps the role's key and sets the
    256-bit counter (four 64-bit words, lowest first) to (0, 0, 0, j + 1)
    for block j: the top word holds j + 1 and the three lower words count
    the block's own draws from zero. Philox adds one to the lowest word
    before each four-word output and carries upward, so a stream changes
    its top word only after 2**192 outputs. No block's range therefore
    meets another block's, nor this counter-0 stream, whose top word
    stays 0.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(role,)))
    )


class BlockStreams:
    """One session's per-block streams: each role keyed once.

    ``streams(role, j)`` is the stream of ``role`` for block j, on block
    j's counter range of generator(seed, role)'s key (see generator). The
    first call for a role keys its Philox; every call sets the counter,
    and with it the whole bit-generator state, to the start of block j's
    range, so nothing drawn for one block carries into another and block
    j depends on (seed, j) alone. The generator returned is shared by all
    blocks of the role and valid until the role's next call.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._keyed: dict[int, tuple[np.random.Generator, dict]] = {}

    def __call__(self, role: int, j: int) -> np.random.Generator:
        if not 0 <= j < MAX_BLOCKS:
            raise ValueError(f"block index must lie in [0, 2**64 - 1), got {j}")
        keyed = self._keyed.get(role)
        if keyed is None:
            rng = generator(self.seed, role)
            # One state per role, reused for every block: the setter copies
            # its values, so only the counter's top word changes between
            # sets, and the empty buffer is never written.
            state = {
                "bit_generator": "Philox",
                "state": {
                    "counter": np.zeros(4, dtype=np.uint64),
                    "key": rng.bit_generator.state["state"]["key"],
                },
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            keyed = self._keyed[role] = (rng, state)
        rng, state = keyed
        state["state"]["counter"][3] = j + 1
        rng.bit_generator.state = state
        return rng


# Every (omega, alpha, a, beta) setting combination, in setting_index order.
SETTINGS = tuple(
    (omega, alpha, a_bit, beta)
    for omega in INTENSITIES
    for alpha in BASES
    for a_bit in (0, 1)
    for beta in BASES
)


def setting_index(omega_idx, alpha, a, beta):
    """Index into SETTINGS of each round's settings (0 is Z, 1 is X)."""
    return 8 * omega_idx + 4 * alpha + 2 * a + beta


@dataclass(frozen=True)
class ClickLaw:
    """Tables of the click-only sampler, built once per (constants, channel).

    omega_cuts_click and omega_cuts_none are the two inner cut points of
    the intensity law given a click and given none: the cumulative sum of
    the law divided by its last entry, as ``Generator.choice`` forms it.
    A round's intensity index is the number of cut points at or below one
    uniform draw u, which is the index ``choice(3, p=law)`` takes for the
    same u (its ``searchsorted(u, side="right")``); a cut point of exactly
    1.0 is never reached, so an intensity that cannot occur is never drawn.

    cell_only0[c] holds P(only 0 | click) and cell_not_both[c] holds
    1 - P(both | click) for the setting combination SETTINGS[c], two flat
    tables read with ``take``; a cell whose probability is exactly zero is
    never drawn. Both are read-only, since sessions share one law.
    """

    m: int
    p_basis_alice: float
    p_basis_bob: float
    p_click: float
    omega_cuts_click: tuple
    omega_cuts_none: tuple
    cell_only0: np.ndarray
    cell_not_both: np.ndarray


def _conditional(weights: np.ndarray) -> np.ndarray:
    """Normalise along the last axis; an all-zero row (never drawn) is uniform."""
    total = weights.sum(axis=-1, keepdims=True)
    uniform = np.full_like(weights, 1.0 / weights.shape[-1])
    return np.divide(weights, total, out=uniform, where=total > 0.0)


def _cuts(law: np.ndarray) -> tuple:
    """The two inner cut points of a three-way law, formed as numpy's
    ``Generator.choice`` forms its cdf."""
    cdf = law.cumsum()
    cdf /= cdf[-1]
    return float(cdf[0]), float(cdf[1])


def click_law(constants: ProtocolConstants, channel: ChannelModel) -> ClickLaw:
    """Click-only sampling tables for one (constants, channel) pair.

    Whether a round clicks depends on its intensity only
    (click_probability_total), not on alpha, a or beta, so the clicks of
    a block are binomial with the average p_click, and given a click the
    intensity follows P(omega | click) while alpha and a keep their priors.

    The law depends on the values it is built from alone, so sessions of
    one configuration share it: it is kept for the last few distinct
    (m, priors, intensities, channel) it was asked for.
    """
    return _click_law(
        constants.m,
        constants.p_basis_alice,
        constants.p_basis_bob,
        tuple(constants.p_intensity[w] for w in INTENSITIES),
        tuple(constants.mu[w] for w in INTENSITIES),
        channel,
    )


@functools.lru_cache(maxsize=8)
def _click_law(
    m: int,
    p_basis_alice: float,
    p_basis_bob: float,
    p_intensity: tuple,
    mu: tuple,
    channel: ChannelModel,
) -> ClickLaw:
    p_omega = np.array(p_intensity)
    click = np.array([click_probability_total(channel, x) for x in mu])
    mu_of = dict(zip(INTENSITIES, mu))
    cells = _conditional(np.array([
        click_probabilities(channel, mu_of[omega], alpha, a_bit, beta)[:3]
        for omega, alpha, a_bit, beta in SETTINGS
    ]))
    cell_only0 = cells[:, 0]
    cell_not_both = 1.0 - cells[:, 2]
    cell_only0.flags.writeable = cell_not_both.flags.writeable = False
    return ClickLaw(
        m=m,
        p_basis_alice=p_basis_alice,
        p_basis_bob=p_basis_bob,
        p_click=float(p_omega @ click),
        omega_cuts_click=_cuts(_conditional(p_omega * click)),
        omega_cuts_none=_cuts(_conditional(p_omega * (1.0 - click))),
        cell_only0=cell_only0,
        cell_not_both=cell_not_both,
    )


def _draw_alice_settings(
    rng: np.random.Generator, cuts: tuple, p_basis_alice: float, k: int
) -> tuple:
    """k rounds of (omega_idx, alpha, a): the intensity from one uniform
    draw against the cut points, then alpha and a from their priors.

    Each column is a bool comparison viewed as int8, not copied."""
    u = rng.random(k)
    omega_idx = (u >= cuts[0]).view(np.int8) + (u >= cuts[1])
    alpha = (rng.random(k) >= p_basis_alice).view(np.int8)
    a = rng.integers(0, 2, size=k, dtype=np.int8)
    return omega_idx, alpha, a


@dataclass
class BlockSample:
    """Block j of a session, drawn click-only.

    Every column covers the clicked rounds only, in ascending round order
    (offsets): omega_idx indexes INTENSITIES; alpha and beta are 0 for Z
    and 1 for X; cell is 0 (only detector 0 fired), 1 (only detector 1) or
    2 (both); b is Bob's bit, a fair coin on a double click. No column is
    as long as the block: the length-m click mask ``clicked`` is derived
    from offsets on each read, and in the package only a read of Alice's
    settings on unclicked rounds reads it.
    """

    law: ClickLaw
    streams: BlockStreams
    j: int
    beta: np.ndarray
    offsets: np.ndarray
    omega_idx: np.ndarray
    alpha: np.ndarray
    a: np.ndarray
    cell: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return self.law.m

    @property
    def clicked(self) -> np.ndarray:
        """The length-m bool mask of the clicked rounds, built on each read."""
        mask = np.zeros(len(self), dtype=bool)
        mask[self.offsets] = True
        return mask

    def alice_settings(self, offs: np.ndarray) -> tuple:
        """Alice's (omega_idx, alpha, a) at the ascending rounds ``offs``.

        Clicked rounds read the block's columns. Unclicked rounds, which an
        honest disclosure never names, are drawn on demand: every unclicked
        round of the block gets its settings from P(omega | no click) and
        the priors, in round order, on the session's block-j stream of
        StreamKey.ALICE_UNCLICKED (BlockStreams). A round's settings thus
        depend on (seed, j) alone, not on which rounds a disclosure names.
        """
        columns = (self.omega_idx, self.alpha, self.a)
        if np.array_equal(offs, self.offsets):
            return columns
        unclicked = np.flatnonzero(~self.clicked)
        drawn = _draw_alice_settings(
            self.streams(StreamKey.ALICE_UNCLICKED, self.j),
            self.law.omega_cuts_none,
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


def sample_block(law: ClickLaw, streams: BlockStreams, j: int) -> BlockSample:
    """Draw block j of the session whose streams these are, clicked rounds only.

    Each role (the StreamKey ALICE, BOB and CHANNEL) draws from its own
    block-j stream, streams(role, j), so the block depends on (seed, j)
    alone and not on any block drawn before it. The click count is
    binomial(m, p_click) and the clicked rounds a uniform subset. Each
    clicked round then draws, in this order: its intensity from
    P(omega | click); alpha and a from their priors; Bob's basis from its
    prior, with one random(k) on Bob's stream, since a click is
    independent of beta; the detector cell from click_probabilities
    conditioned on the click; and, for a double click only, the fair coin.
    Neither party's settings of unclicked rounds are drawn here: no
    message carries Bob's, and Alice's are drawn only on demand (see
    BlockSample.alice_settings).
    """
    m = law.m
    noise = streams(StreamKey.CHANNEL, j)
    k = int(noise.binomial(m, law.p_click))
    offsets = noise.choice(m, k, replace=False, shuffle=False)
    offsets.sort()
    omega_idx, alpha, a = _draw_alice_settings(
        streams(StreamKey.ALICE, j), law.omega_cuts_click, law.p_basis_alice, k
    )
    beta = (streams(StreamKey.BOB, j).random(k) >= law.p_basis_bob).view(np.int8)
    u = noise.random(k)
    setting = setting_index(omega_idx, alpha, a, beta)
    cell = (u >= law.cell_only0.take(setting)).view(np.int8) + (
        u >= law.cell_not_both.take(setting)
    )
    b = cell.copy()
    both = (cell == 2).nonzero()[0]
    # The coin is the block's last draw on its stream, so a block without a
    # double click may skip the call.
    if len(both):
        b[both] = noise.integers(0, 2, size=len(both), dtype=np.int8)
    return BlockSample(
        law=law,
        streams=streams,
        j=j,
        beta=beta,
        offsets=offsets,
        omega_idx=omega_idx,
        alpha=alpha,
        a=a,
        cell=cell,
        b=b,
    )


class BlockSource:
    """A session's blocks by index, each drawn when it is first asked for.

    Only the latest block is kept: asking for another index drops it
    before the next one is drawn, so a session holds one block at a time.
    The click law is shared with every session of the same configuration,
    and each role's stream is keyed once per session (BlockStreams).
    """

    def __init__(
        self, constants: ProtocolConstants, channel: ChannelModel, seed: int
    ):
        self.law = click_law(constants, channel)
        self.streams = BlockStreams(seed)
        self._block: BlockSample | None = None

    def __call__(self, j: int) -> BlockSample:
        if self._block is None or self._block.j != j:
            self._block = None
            self._block = sample_block(self.law, self.streams, j)
        return self._block
