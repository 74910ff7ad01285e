"""Protocol constants and photon-number statistics for decoy-state BB84.

The source emits phase-randomised coherent pulses, so the photon number of a
round with intensity setting ``omega`` is Poisson with mean ``mu[omega]``
(poisson_pcs). The decoy inversion, the concentration bounds and the channel
model evaluate that law where they need it.

A configuration record's dataclass declaration is the one list of its
fields: ``read_config`` takes the accepted and required keys of a config
file from it, and ``as_dict`` the keys of a report. The total round count
``n_total`` is derived (``n_block * m``), never stored.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
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
    "read_config",
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


def _require_int(name: str, value) -> int:
    """Refuse a configuration value that is not an integer; a bool is an
    Integral too, but never a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def read_config(source, record, kind: str, extra=frozenset()) -> dict:
    """The keys of a config for the dataclass ``record``, from a JSON file
    path or a mapping.

    The record's fields are the accepted keys, besides ``extra``, and its
    fields without a default the required ones, so a typo in a config file
    cannot silently fall back to a default.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                source = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{kind} file is not UTF-8 text: {exc}") from None
    if not isinstance(source, Mapping):
        raise ConfigurationError(f"{kind} file must hold a JSON object")
    raw = dict(source)
    fields = dataclasses.fields(record)
    unknown = set(raw) - {f.name for f in fields} - set(extra)
    if unknown:
        raise ConfigurationError(f"unknown {kind} keys: {sorted(unknown)}")
    missing = {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    } - set(raw)
    if missing:
        raise ConfigurationError(f"missing {kind} keys: {sorted(missing)}")
    return raw


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
        n_verify: output length of the error-verification hash, in bits,
            at least 1, so that eps_correct = 2^-n_verify is below one.
        e_bit_assumed: bit-error rate the syndrome length is provisioned for.
        eps_secrecy: secrecy parameter; the concentration budget is split
            across seven events as 4 * eps^2/32 + 3 * eps^2/24 = eps^2/4.

    The total round count is the property ``n_total = n_block * m``.
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

    def __post_init__(self) -> None:
        for name in ("n_block", "m", "n_verify"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name)))
        if self.n_block < 1 or self.m < 1:
            raise ConfigurationError("n_block and m must be positive integers")
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
        if self.n_verify < 1:
            raise ConfigurationError("n_verify must be at least 1")
        if not 0.0 <= self.e_bit_assumed <= 0.5:
            raise ConfigurationError("e_bit_assumed must lie in [0, 1/2]")
        if not 0.0 < self.eps_secrecy < 1.0:
            raise ConfigurationError("eps_secrecy must lie in (0, 1)")

    @property
    def n_total(self) -> int:
        return self.n_block * self.m

    def as_dict(self) -> dict:
        """JSON-serialisable view, used by report files."""
        return {**dataclasses.asdict(self), "n_total": self.n_total}


def load_constants(source) -> ProtocolConstants:
    """Build ProtocolConstants from a JSON file path or a mapping.

    A config may also give ``n_total``, which must equal ``n_block * m``.
    """
    raw = read_config(source, ProtocolConstants, "constants", extra={"n_total"})
    given = raw.pop("n_total", None)
    constants = ProtocolConstants(**raw)
    if given is not None and _require_int("n_total", given) != constants.n_total:
        raise ConfigurationError(
            f"n_total={given} but n_block*m={constants.n_total}"
        )
    return constants
