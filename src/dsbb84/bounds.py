"""Finite-size security engine for decoy-state BB84.

Three layers live here:

* concentration coefficient pairs (a, b) and (a', b') that turn an expected
  count into a high-probability deviation envelope for the matching
  martingale sum,
* the decoy-state inversion that isolates the single-photon contribution
  from the three intensity settings,
* the assembly of the single-photon floor, the phase-error ceiling and the
  privacy-amplification length, with directed conservative rounding at
  named checkpoint quantities.

Sign conventions: the unprimed pair bounds a sum of conditional expectations
from above given the observed count, the primed pair bounds it from below.
All seven envelope events share the secrecy budget as
4 * eps^2/32 + 3 * eps^2/24 = eps^2/4.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, NamedTuple

from .channel import (
    ChannelModel,
    click_probability_total,
    error_probability_x,
    single_photon_error_x,
    single_photon_yield,
)
from .params import (
    INTENSITIES,
    DomainError,
    ProtocolConstants,
    entropy_h,
    poisson_pcs,
)

__all__ = [
    "KatoPair",
    "kato_pair",
    "kato_pair_prime",
    "DecoyCoefficients",
    "decoy_coefficients",
    "Observables",
    "ExpectedObservables",
    "expected_observables",
    "n1z_lower",
    "nph_upper",
    "n_pa",
    "SecurityResult",
    "security_result",
    "CONSERVATIVE_SLACK",
]

# Relative slack applied at every named checkpoint in conservative mode.
CONSERVATIVE_SLACK = 1e-9

# Tail weight of each envelope event as a divisor of eps_secrecy^2: the
# four events of the single-photon floor and the three of the phase-error
# ceiling spend 4/32 + 3/24 = 1/4 of it.
_N1Z_TAIL = 32.0
_NPH_TAIL = 24.0
_BUDGET = (
    ("sift count S envelope", _N1Z_TAIL),
    ("sift count V envelope", _N1Z_TAIL),
    ("sift count D envelope", _N1Z_TAIL),
    ("single-photon Z envelope", _N1Z_TAIL),
    ("X error count D envelope", _NPH_TAIL),
    ("X error count V envelope", _NPH_TAIL),
    ("phase error envelope", _NPH_TAIL),
)


class KatoPair(NamedTuple):
    a: float
    b: float


def _kato(sign: float, s: float, t: float, eps: float) -> KatoPair:
    """Coefficient pair of the upper (sign +1) or lower (sign -1) envelope.

    The lower pair is the mirror of the upper one: the first two terms of
    the slope's numerator and the 3 sqrt(s) shift in the offset change
    sign. The offset is evaluated as sqrt(a^2 + (-ln eps) (4a + 3 sign
    sqrt(s))^2 / (18 s)), the completed-square form of (18 a^2 s - (16 a^2
    + 24 sign a sqrt(s) + 9 s) ln eps) / (18 s); the sum of squares keeps
    full precision where the expanded form cancels catastrophically.
    """
    if not s > 0.0:
        raise DomainError(f"sample size s must be positive, got {s!r}")
    if not 0.0 <= t <= s:
        raise DomainError(f"target count t must lie in [0, s], got t={t!r}, s={s!r}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"tail probability must lie in (0, 1), got {eps!r}")
    ln_eps = math.log(eps)
    quad = 9.0 * t * (s - t) - 2.0 * s * ln_eps
    disc = -(s * s) * ln_eps * quad
    if disc < 0.0:
        raise DomainError("negative discriminant in envelope coefficient")
    num = sign * (
        216.0 * math.sqrt(s) * t * (s - t) * ln_eps
        - 48.0 * s**1.5 * ln_eps * ln_eps
    ) + 27.0 * math.sqrt(2.0) * (s - 2.0 * t) * math.sqrt(disc)
    a = num / (4.0 * (9.0 * s - 8.0 * ln_eps) * quad)
    shifted = 4.0 * a + sign * 3.0 * math.sqrt(s)
    return KatoPair(a, math.sqrt(a * a - ln_eps * shifted * shifted / (18.0 * s)))


def kato_pair(s: float, t: float, eps: float) -> KatoPair:
    """(a, b) for the upper envelope tuned to expected count t; b >= |a|."""
    return _kato(1.0, s, t, eps)


def kato_pair_prime(s: float, t: float, eps: float) -> KatoPair:
    """(a', b') for the lower envelope tuned to expected count t; b' >= |a'|."""
    return _kato(-1.0, s, t, eps)


@dataclass(frozen=True)
class DecoyCoefficients:
    """Linear combination isolating the single-photon detection fraction.

    lam and gamma are nonpositive, zeta is nonnegative; applied to the
    per-intensity detection probabilities the combination equals the
    single-photon term exactly (coefficient 1) minus nonnegative multiples
    of every other photon number's term.
    """

    lam: float
    zeta: float
    gamma: float
    denominator: float
    reduced_denominator: float


def _photon_law(constants: ProtocolConstants, n: int) -> tuple[dict, float]:
    """Joint law P(omega, n) = p_omega Poisson(n; mu_omega) per intensity,
    and its marginal P(n). The engine reads it at n = 0 and n = 1 only."""
    joint = {
        w: constants.p_intensity[w] * poisson_pcs(constants.mu[w], n)
        for w in INTENSITIES
    }
    return joint, math.fsum(joint.values())


def decoy_coefficients(constants: ProtocolConstants) -> DecoyCoefficients:
    """Inversion coefficients (lambda, zeta, gamma) for the three intensities."""
    mu_s = constants.mu["S"]
    mu_d = constants.mu["D"]
    mu_v = constants.mu["V"]
    vacuum, _ = _photon_law(constants, 0)
    _, p1_int = _photon_law(constants, 1)
    reduced = mu_d - mu_d * mu_d / mu_s - mu_v
    if reduced <= 0.0:
        raise DomainError(
            "decoy intensities cannot separate the single-photon term: "
            f"need mu_D (mu_S - mu_D)/mu_S > mu_V, got mu={dict(constants.mu)}"
        )
    denominator = reduced / p1_int
    kappa2 = (mu_d / mu_s) ** 2
    return DecoyCoefficients(
        lam=-kappa2 / (denominator * vacuum["S"]),
        zeta=1.0 / (denominator * vacuum["D"]),
        gamma=-1.0 / (denominator * vacuum["V"]),
        denominator=denominator,
        reduced_denominator=reduced,
    )


@dataclass(frozen=True)
class Observables:
    """Publicly announced counts of one protocol run.

    Sift counts are matched-Z-basis clicked rounds per intensity; error
    counts are matched-X-basis clicked rounds whose announced bits differ,
    for the decoy and vacuum intensities.
    """

    n_sift_s: int
    n_sift_d: int
    n_sift_v: int
    n_err_dx: int
    n_err_vx: int

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise DomainError(f"{f.name} must be nonnegative")

    @property
    def n_sift(self) -> int:
        return self.n_sift_s + self.n_sift_d + self.n_sift_v


@dataclass(frozen=True)
class ExpectedObservables:
    """Pre-agreed expected counts tuning the deviation envelopes.

    These do not affect soundness, only tightness: any value in [0, N]
    yields a valid envelope. They normally come from the honest channel
    model via expected_observables.
    """

    n_sift_s: float
    n_sift_d: float
    n_sift_v: float
    n_err_dx: float
    n_err_vx: float
    n1z: float
    nph: float


def expected_observables(
    constants: ProtocolConstants, channel: ChannelModel
) -> ExpectedObservables:
    """Expected counts under the honest channel model, in closed form."""
    n = constants.n_total
    pzz = constants.p_basis_alice * constants.p_basis_bob
    pxx = (1.0 - constants.p_basis_alice) * (1.0 - constants.p_basis_bob)
    _, p1_int = _photon_law(constants, 1)
    p, mu = constants.p_intensity, constants.mu
    sift = (n * p[w] * pzz * click_probability_total(channel, mu[w]) for w in INTENSITIES)
    err = (n * p[w] * pxx * error_probability_x(channel, mu[w]) for w in ("D", "V"))
    return ExpectedObservables(
        *sift,
        *err,
        n1z=n * pzz * p1_int * single_photon_yield(channel),
        nph=n * pzz * p1_int * single_photon_error_x(channel),
    )


class _Checkpoints:
    """Directed slack and audit perturbations at named intermediate values.

    Every checkpoint is pushed by `slack` in the direction that makes the
    final bound more conservative. The rounding audit re-enters here with
    per-checkpoint relative perturbations; domination of the slack over a
    same-sized perturbation holds up to O(slack^2) residue.
    """

    def __init__(
        self,
        slack: float = 0.0,
        perturb: Mapping[str, float] | None = None,
        record: dict | None = None,
    ) -> None:
        self.slack = slack
        self.perturb = dict(perturb) if perturb else {}
        self.record = record

    def __call__(self, name: str, value: float, direction: int) -> float:
        v = float(value)
        shift = self.perturb.get(name, 0.0)
        if shift:
            v *= 1.0 + shift
        if self.slack:
            v += direction * self.slack * abs(v)
        if self.record is not None:
            self.record[name] = v
        return v


def _upper(count: float, pair: KatoPair, rn: float) -> float:
    """Upper envelope on the sum of conditional expectations behind count."""
    return count * (1.0 + 2.0 * pair.a / rn) + (pair.b - pair.a) * rn


def _lower(count: float, pair: KatoPair, n: float, rn: float) -> float:
    """Lower envelope on the sum of conditional expectations behind count."""
    return count - (pair.b + pair.a * (2.0 * count / n - 1.0)) * rn


def _check_counts(constants: ProtocolConstants, obs: Observables) -> None:
    n = constants.n_total
    if obs.n_sift > n or obs.n_err_dx > n or obs.n_err_vx > n:
        raise DomainError("observed counts exceed the total number of rounds")


def n1z_lower(
    constants: ProtocolConstants,
    obs: Observables,
    exp: ExpectedObservables,
    *,
    slack: float = 0.0,
    perturb: Mapping[str, float] | None = None,
    record: dict | None = None,
) -> float:
    """High-probability lower envelope on single-photon matched-Z clicks.

    Combines the decoy inversion of the three sift counts with four
    deviation envelopes, each at tail weight eps_secrecy^2/32. Returns a
    real in [0, N]; degenerate envelopes collapse to the trivial 0.
    """
    _check_counts(constants, obs)
    ck = _Checkpoints(slack, perturb, record)
    n = float(constants.n_total)
    rn = math.sqrt(n)
    eps_ev = constants.eps_secrecy**2 / _N1Z_TAIL
    coef = decoy_coefficients(constants)
    a1, b1 = kato_pair(n, exp.n1z, eps_ev)
    pair_s = kato_pair(n, exp.n_sift_s, eps_ev)
    pair_v = kato_pair(n, exp.n_sift_v, eps_ev)
    pair_d = kato_pair_prime(n, exp.n_sift_d, eps_ev)
    term_s = ck("n1z_term_s", coef.lam * _upper(obs.n_sift_s, pair_s, rn), -1)
    term_d = ck("n1z_term_d", coef.zeta * _lower(obs.n_sift_d, pair_d, n, rn), -1)
    term_v = ck("n1z_term_v", coef.gamma * _upper(obs.n_sift_v, pair_v, rn), -1)
    dev = ck("n1z_dev", (b1 - a1) * rn, +1)
    inner = ck("n1z_inner", term_s + term_d + term_v - dev, -1)
    den = 1.0 + 2.0 * a1 / rn
    if den <= 0.0 or inner <= 0.0:
        # The inversion prefactor degenerates (or the inversion already
        # went nonpositive); only the trivial floor survives.
        if record is not None:
            record["n1z_value"] = 0.0
        return 0.0
    pref = ck("n1z_pref", 1.0 / den, -1)
    value = ck("n1z_value", pref * inner, -1)
    return min(max(value, 0.0), n)


def nph_upper(
    constants: ProtocolConstants,
    obs: Observables,
    exp: ExpectedObservables,
    *,
    slack: float = 0.0,
    perturb: Mapping[str, float] | None = None,
    record: dict | None = None,
) -> float:
    """High-probability upper envelope on phase errors of the floor rounds.

    Translates matched-X error counts at the decoy and vacuum intensities
    into a ceiling on single-photon phase errors in the Z sift, with three
    deviation envelopes at tail weight eps_secrecy^2/24 each. Returns a
    real in [0, N]; degenerate envelopes collapse to the trivial N.

    With A_n the errors expected on matched-X rounds of n photons, the
    intensity is independent of the channel given n, so intensity w
    expects E_w = sum_n P(w|n) A_n. Dropping D's terms past n = 1 and
    solving E_V for A_0 gives, with k = P(D|0)/P(V|0),
    A_1 (P(D|1) - k P(V|1)) <= E_D - k E_V + k sum_{n>=2} P(V|n) A_n.
    A round is matched X with n photons with probability pxx P(n) whatever
    the channel does, so the sum is at most R = N pxx P(V, n >= 2), which
    is not random and needs no envelope. E_D takes its upper envelope and
    E_V its lower one, and the ceiling is (pzz/pxx) A_1. At mu_V = 0,
    P(V|1) and R are 0.0 and the float operations are the vacuum-only ones.
    """
    _check_counts(constants, obs)
    ck = _Checkpoints(slack, perturb, record)
    n = float(constants.n_total)
    rn = math.sqrt(n)
    eps_ev = constants.eps_secrecy**2 / _NPH_TAIL
    vacuum, p0 = _photon_law(constants, 0)
    single, p1 = _photon_law(constants, 1)
    if vacuum["V"] <= 0.0:
        raise DomainError("phase-error inversion needs p_V > 0")
    # P(omega | n) for the decoy and vacuum settings.
    pd1 = single["D"] / p1
    pv1 = single["V"] / p1
    pd0 = vacuum["D"] / p0
    pv0 = vacuum["V"] / p0
    # P(D|1) - k P(V|1): A_1's weight once the V errors are taken off.
    share1 = pd1 - (pd0 / pv0) * pv1
    if share1 <= 0.0:
        raise DomainError(f"phase-error inversion needs mu_D > mu_V, got {constants.mu}")
    pzz = constants.p_basis_alice * constants.p_basis_bob
    pxx = (1.0 - constants.p_basis_alice) * (1.0 - constants.p_basis_bob)
    pz_over_px = pzz / pxx
    # R: every matched-X V round of two or more photons counted as an error.
    mu_v = constants.mu["V"]
    multi_v = n * pxx * constants.p_intensity["V"] * (
        -math.expm1(-mu_v) - mu_v * math.exp(-mu_v)
    )
    a_ph, b_ph = kato_pair_prime(n, exp.nph, eps_ev)
    pair_dx = kato_pair(n, exp.n_err_dx, eps_ev)
    pair_vx = kato_pair_prime(n, exp.n_err_vx, eps_ev)
    den = 1.0 - 2.0 * a_ph / rn
    if den <= 0.0:
        if record is not None:
            record["nph_value"] = n
        return n
    upper_dx = _upper(obs.n_err_dx, pair_dx, rn)
    lower_vx = _lower(obs.n_err_vx, pair_vx, n, rn)
    term_dx = ck("nph_term_dx", (pz_over_px / share1) * upper_dx, +1)
    term_vx = ck(
        "nph_term_vx", -(pz_over_px * pd0 / (share1 * pv0)) * (lower_vx - multi_v), +1
    )
    dev = ck("nph_dev", (b_ph - a_ph) * rn, +1)
    inner = ck("nph_inner", term_dx + term_vx + dev, +1)
    if inner <= 0.0:
        if record is not None:
            record["nph_value"] = 0.0
        return 0.0
    pref = ck("nph_pref", 1.0 / den, +1)
    value = ck("nph_value", pref * inner, +1)
    return min(max(value, 0.0), n)


def pa_log_term(eps_secrecy: float) -> int:
    """Fixed privacy-amplification overhead ceil(-log2(eps^2/4))."""
    return math.ceil(2.0 - 2.0 * math.log2(eps_secrecy))


def n_pa(
    constants: ProtocolConstants,
    obs: Observables,
    n1z_floor: int,
    nph_ceil: int,
    *,
    slack: float = 0.0,
    perturb: Mapping[str, float] | None = None,
    record: dict | None = None,
) -> int:
    """Number of key bits removed by privacy amplification.

    With a zero single-photon floor the whole sift is written off and only
    the fixed overhead is added, so no key can survive.
    """
    if n1z_floor < 0 or nph_ceil < 0:
        raise DomainError("rounded envelope counts must be nonnegative")
    ck = _Checkpoints(slack, perturb, record)
    log_term = pa_log_term(constants.eps_secrecy)
    if n1z_floor == 0:
        raw = float(obs.n_sift + log_term)
    else:
        ratio = min(nph_ceil / n1z_floor, 1.0)
        raw = (
            obs.n_sift
            - n1z_floor
            + n1z_floor * entropy_h(ratio)
            + log_term
        )
    value = ck("n_pa_value", raw, +1)
    return math.ceil(value)


@dataclass(frozen=True)
class SecurityResult:
    """Outcome of the finite-size length computation for one run."""

    n_sift: int
    n1z_real: float
    n1z_floor: int
    nph_real: float
    nph_ceil: int
    n_pa: int
    n_ec: int
    n_verify: int
    n_fin: int
    abort: bool
    eps_secrecy: float
    eps_correct: float
    eps_total: float
    budget: tuple = ()
    intermediates: Mapping[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def security_result(
    constants: ProtocolConstants,
    obs: Observables,
    exp: ExpectedObservables,
    n_ec: int,
    *,
    slack: float = CONSERVATIVE_SLACK,
    perturb: Mapping[str, float] | None = None,
) -> SecurityResult:
    """Full conservative length computation with its accounting trail.

    The returned budget lists one entry per deviation envelope; the tail
    weights sum to eps_secrecy^2/4, which is what the secrecy parameter
    certifies against. Failure probability of verification is reported
    separately as eps_correct = 2^-n_verify.
    """
    record: dict[str, float] = {}
    n1_real = n1z_lower(constants, obs, exp, slack=slack, perturb=perturb, record=record)
    nph_real = nph_upper(constants, obs, exp, slack=slack, perturb=perturb, record=record)
    n1_floor = math.floor(n1_real)
    nph_ceil = math.ceil(nph_real)
    pa_bits = n_pa(
        constants, obs, n1_floor, nph_ceil, slack=slack, perturb=perturb, record=record
    )
    n_fin = obs.n_sift - pa_bits - n_ec - constants.n_verify
    abort = n_fin <= 0
    eps2 = constants.eps_secrecy**2
    budget = tuple((name, eps2 / divisor) for name, divisor in _BUDGET)
    eps_correct = 2.0 ** (-constants.n_verify)
    return SecurityResult(
        n_sift=obs.n_sift,
        n1z_real=n1_real,
        n1z_floor=n1_floor,
        nph_real=nph_real,
        nph_ceil=nph_ceil,
        n_pa=pa_bits,
        n_ec=n_ec,
        n_verify=constants.n_verify,
        n_fin=max(n_fin, 0),
        abort=abort,
        eps_secrecy=constants.eps_secrecy,
        eps_correct=eps_correct,
        eps_total=constants.eps_secrecy + eps_correct,
        budget=budget,
        intermediates=record,
    )
