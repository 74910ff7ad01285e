"""Protocol constants and photon-number statistics for decoy-state BB84.

The source emits phase-randomised coherent pulses, so the photon number of a
round with intensity setting ``omega`` is Poisson with mean ``mu[omega]``
(poisson_pcs). The decoy inversion, the concentration bounds and the channel
model evaluate that law where they need it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "INTENSITIES",
    "BASES",
    "ConfigurationError",
    "DomainError",
    "ProtocolConstants",
    "entropy_h",
    "poisson_pcs",
    "require_real",
    "load_constants",
]

INTENSITIES = ("S", "D", "V")
BASES = ("Z", "X")

# Phase applied by the sender for (bit, basis); the receiver's reference
# phases are theta[(0, basis)]. Fixed by the protocol, not configurable.
THETA = {
    (0, "Z"): 0.0,
    (1, "Z"): math.pi,
    (0, "X"): math.pi / 2.0,
    (1, "X"): 3.0 * math.pi / 2.0,
}

class ConfigurationError(ValueError):
    """Raised when protocol constants or channel parameters are invalid."""


class DomainError(ValueError):
    """Raised when a numeric routine is called outside its domain."""


def entropy_h(x: float) -> float:
    """Binary entropy in bits, clamped to 1 above one half.

    h(0) = 0, h(x) = -x log2 x - (1-x) log2 (1-x) for 0 < x <= 1/2, and
    h(x) = 1 for x > 1/2. The clamp (rather than the symmetric extension)
    keeps the privacy-amplification term monotone in the phase-error ratio.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy_h argument must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x > 0.5:
        return 1.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def poisson_pcs(mu: float, n: int) -> float:
    """Probability that a coherent pulse of intensity mu carries n photons."""
    if mu < 0.0:
        raise DomainError(f"intensity must be nonnegative, got {mu!r}")
    if n < 0:
        raise DomainError(f"photon number must be nonnegative, got {n!r}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= 20 and mu < 700.0:
        return math.exp(-mu) * mu**n / math.factorial(n)
    # Log-space branch avoids overflow of mu**n and factorial growth.
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def require_real(name: str, value) -> None:
    """Refuse a configuration value that is not a finite real number.

    A bool is a Real too, but never a probability or an intensity.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ProtocolConstants:
    """Pre-agreed public parameters of one protocol execution.

    Args:
        n_block: number of quantum-communication blocks.
        m: rounds per block.
        p_intensity: sending probability per intensity label, keys S/D/V,
            each strictly positive, summing to one.
        mu: mean photon number per intensity label, mu_S > mu_D > mu_V >= 0.
        p_basis_alice: sender probability of choosing the Z basis.
        p_basis_bob: receiver probability of choosing the Z basis.
        n_verify: output length of the error-verification hash, in bits.
        e_bit_assumed: bit-error rate the syndrome length is provisioned for.
        eps_secrecy: secrecy parameter; the concentration budget is split
            across seven events as 4 * eps^2/32 + 3 * eps^2/24 = eps^2/4.
        n_total: optional; must equal n_block * m when given.
    """

    n_block: int
    m: int
    p_intensity: Mapping[str, float]
    mu: Mapping[str, float]
    p_basis_alice: float
    p_basis_bob: float
    n_verify: int
    e_bit_assumed: float
    eps_secrecy: float
    n_total: int = field(default=0)

    def __post_init__(self) -> None:
        for name in ("n_block", "m", "n_verify", "n_total"):
            value = getattr(self, name)
            # A bool is an Integral too, but never a count.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_block < 1 or self.m < 1:
            raise ConfigurationError("n_block and m must be positive integers")
        expected_total = self.n_block * self.m
        if self.n_total == 0:
            object.__setattr__(self, "n_total", expected_total)
        elif self.n_total != expected_total:
            raise ConfigurationError(
                f"n_total={self.n_total} but n_block*m={expected_total}"
            )
        for name in ("p_intensity", "mu"):
            table = getattr(self, name)
            if not isinstance(table, Mapping) or set(table) != set(INTENSITIES):
                raise ConfigurationError(
                    f"{name} must have exactly the keys {INTENSITIES}"
                )
            for w in INTENSITIES:
                require_real(f"{name}[{w}]", table[w])
        for name in ("p_basis_alice", "p_basis_bob", "e_bit_assumed", "eps_secrecy"):
            require_real(name, getattr(self, name))
        object.__setattr__(self, "p_intensity", dict(self.p_intensity))
        object.__setattr__(self, "mu", dict(self.mu))
        psum = 0.0
        for w in INTENSITIES:
            pw = float(self.p_intensity[w])
            if not pw > 0.0:
                raise ConfigurationError(
                    f"p_intensity[{w}] must be strictly positive, got {pw}"
                )
            psum += pw
        if abs(psum - 1.0) > 1e-9:
            raise ConfigurationError(f"p_intensity must sum to 1, got {psum}")
        mu_s, mu_d, mu_v = (float(self.mu[w]) for w in INTENSITIES)
        if not (mu_s > mu_d > mu_v >= 0.0):
            raise ConfigurationError(
                f"intensities must satisfy mu_S > mu_D > mu_V >= 0, got {self.mu}"
            )
        for prob, name in (
            (self.p_basis_alice, "p_basis_alice"),
            (self.p_basis_bob, "p_basis_bob"),
        ):
            if not 0.0 < prob < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1), got {prob}")
        if self.n_verify < 0:
            raise ConfigurationError("n_verify must be nonnegative")
        if not 0.0 <= self.e_bit_assumed <= 0.5:
            raise ConfigurationError("e_bit_assumed must lie in [0, 1/2]")
        if not 0.0 < self.eps_secrecy < 1.0:
            raise ConfigurationError("eps_secrecy must lie in (0, 1)")

    def as_dict(self) -> dict:
        """JSON-serialisable view, used by report files."""
        return {
            "n_block": self.n_block,
            "m": self.m,
            "n_total": self.n_total,
            "p_intensity": dict(self.p_intensity),
            "mu": dict(self.mu),
            "p_basis_alice": self.p_basis_alice,
            "p_basis_bob": self.p_basis_bob,
            "n_verify": self.n_verify,
            "e_bit_assumed": self.e_bit_assumed,
            "eps_secrecy": self.eps_secrecy,
        }


def load_constants(source) -> ProtocolConstants:
    """Build ProtocolConstants from a JSON file path or a mapping.

    Unknown keys are rejected so a typo in a config file cannot silently
    fall back to a default.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigurationError("constants file must hold a JSON object")
    allowed = {
        "n_block",
        "m",
        "n_total",
        "p_intensity",
        "mu",
        "p_basis_alice",
        "p_basis_bob",
        "n_verify",
        "e_bit_assumed",
        "eps_secrecy",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigurationError(f"unknown constants keys: {sorted(unknown)}")
    missing = allowed - {"n_total"} - set(raw)
    if missing:
        raise ConfigurationError(f"missing constants keys: {sorted(missing)}")
    return ProtocolConstants(**raw)
