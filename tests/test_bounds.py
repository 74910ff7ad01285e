import dataclasses
import hashlib
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsbb84.bounds import (
    CONSERVATIVE_SLACK,
    Observables,
    decoy_coefficients,
    expected_observables,
    kato_pair,
    kato_pair_prime,
    n1z_lower,
    n_pa,
    nph_upper,
    pa_log_term,
    security_result,
)
from dsbb84.channel import ChannelModel, load_channel
from dsbb84.ecc import syndrome_length
from dsbb84.params import (
    INTENSITIES,
    DomainError,
    ProtocolConstants,
    entropy_h,
    load_constants,
    poisson_pcs,
)
from reference import p_int_cond, p_int_joint, random_length_scenario

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def constants(**overrides):
    cfg = dict(
        n_block=100,
        m=1_000_000,
        p_intensity={"S": 0.7, "D": 0.2, "V": 0.1},
        mu={"S": 0.5, "D": 0.1, "V": 0.001},
        p_basis_alice=0.5,
        p_basis_bob=0.5,
        n_verify=50,
        e_bit_assumed=0.02,
        eps_secrecy=1e-10,
    )
    cfg.update(overrides)
    return ProtocolConstants(**cfg)


HONEST = ChannelModel(eta_ch=1.0, e_mis=0.01, p_dark=1e-6, eta_det=0.2)

# Frozen with an independent 50-digit evaluation of the envelope formulas.
KATO_ORACLE = [
    # (s, t, eps, a, b, a_prime, b_prime)
    (1e6, 2.5e5, 1e-10,
     1.9435729234104869, 3.9179265412527272,
     1.9742734296234924, 3.9179265412527272),
    (3.7e4, 1.1e3, 2e-3,
     4.8554551005736352, 5.1860803605034877,
     4.8985262821466093, 5.1860803605034877),
]

# Frozen with an independent 50-digit evaluation of the inversion
# coefficients at p = (0.7, 0.2, 0.1), mu = (0.5, 0.1, 1e-3).
DECOY_ORACLE = (-0.27486524505618585, 16.121672325470231, -29.20417429987941)


def test_kato_frozen_values():
    for s, t, eps, a, b, ap, bp in KATO_ORACLE:
        assert kato_pair(s, t, eps).a == pytest.approx(a, rel=1e-12)
        assert kato_pair(s, t, eps).b == pytest.approx(b, rel=1e-12)
        assert kato_pair_prime(s, t, eps).a == pytest.approx(ap, rel=1e-12)
        assert kato_pair_prime(s, t, eps).b == pytest.approx(bp, rel=1e-12)


def test_kato_domain_errors():
    for bad in [(0.0, 0.0, 0.5), (1e4, -1.0, 0.5), (1e4, 1e4 + 1, 0.5),
                (1e4, 5e3, 0.0), (1e4, 5e3, 1.0)]:
        with pytest.raises(DomainError):
            kato_pair(*bad)
        with pytest.raises(DomainError):
            kato_pair_prime(*bad)


kato_inputs = dict(
    s=st.floats(min_value=1e3, max_value=1e8),
    frac=st.floats(min_value=0.0, max_value=1.0),
    eps=st.floats(min_value=1e-15, max_value=0.1),
)

# The tail identity degenerates to 0/0 at t = s (unprimed) and t = 0
# (primed) because a(s, s) = -0.75 sqrt(s) and a'(s, 0) = +0.75 sqrt(s)
# hold exactly, so plug-back checks stay away from those two endpoints.
plugback_inputs = dict(
    s=st.floats(min_value=1e3, max_value=1e8),
    frac=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
    eps=st.floats(min_value=1e-15, max_value=0.1),
)


def plugback_tail(s, a, b, sign):
    # Exact rational arithmetic over the returned floats; the expression
    # itself would otherwise lose digits to cancellation near the corners
    # where a approaches 0.75 sqrt(s).
    from fractions import Fraction

    fa, fb, rs = Fraction(a), Fraction(b), Fraction(math.sqrt(s))
    exponent = (2 * fb * fb - 2 * fa * fa) / (1 + sign * 4 * fa / (3 * rs)) ** 2
    return math.exp(-float(exponent))


@given(**plugback_inputs)
def test_kato_plugback_is_exact(s, frac, eps):
    # Substituting (a, b) back into the tail expression must return eps:
    # the pair is constructed to sit exactly on the target tail weight.
    t = s * frac
    a, b = kato_pair(s, t, eps)
    assert plugback_tail(s, a, b, +1) == pytest.approx(eps, rel=1e-9)
    ap, bp = kato_pair_prime(s, t, eps)
    assert plugback_tail(s, ap, bp, -1) == pytest.approx(eps, rel=1e-9)


def test_kato_degenerate_endpoints():
    # At the boundary the slope saturates: the deviation envelope pins to
    # +-0.75 sqrt(s) with zero spread, and the tail expression is 0/0.
    for s in (1e3, 5e5, 1e8):
        for eps in (1e-12, 1e-2):
            root = math.sqrt(s)
            a, b = kato_pair(s, s, eps)
            assert a == pytest.approx(-0.75 * root, rel=1e-12)
            assert b == pytest.approx(abs(a), rel=1e-12)
            ap, bp = kato_pair_prime(s, 0.0, eps)
            assert ap == pytest.approx(0.75 * root, rel=1e-12)
            assert bp == pytest.approx(ap, rel=1e-12)


@given(**kato_inputs)
def test_kato_offset_dominates_slope(s, frac, eps):
    t = s * frac
    a, b = kato_pair(s, t, eps)
    assert b >= abs(a)
    ap, bp = kato_pair_prime(s, t, eps)
    assert bp >= abs(ap)


@given(**kato_inputs)
def test_kato_reflection_symmetry(s, frac, eps):
    # Replacing each indicator by its complement maps the upper envelope at
    # t to the lower envelope at s - t. The identity is exact, but the two
    # evaluation paths disagree by up to ~1.3e-8 relative within one ulp of
    # the t = 0 and t = s endpoints (measured over 2e5 corner-weighted
    # draws), so the tolerance sits an order of magnitude above that.
    t = s * frac
    upper, lower = kato_pair(s, s - t, eps), kato_pair_prime(s, t, eps)
    scale = max(1.0, abs(kato_pair(s, t, eps).a))
    assert lower.a == pytest.approx(-upper.a, rel=1e-7, abs=1e-7 * scale)
    assert lower.b == pytest.approx(upper.b, rel=1e-7)


@given(**kato_inputs)
def test_kato_slope_gap_identity(s, frac, eps):
    # a - a' = 12 sqrt(s) ln(eps) / (9s - 8 ln(eps)) independently of t,
    # which also forces b = b' at equal arguments.
    t = s * frac
    ln_eps = math.log(eps)
    gap = 12.0 * math.sqrt(s) * ln_eps / (9.0 * s - 8.0 * ln_eps)
    upper, lower = kato_pair(s, t, eps), kato_pair_prime(s, t, eps)
    scale = max(abs(upper.a), abs(gap))
    assert upper.a - lower.a == pytest.approx(gap, rel=1e-9, abs=1e-10 * scale)
    assert upper.b == pytest.approx(lower.b, rel=1e-10)


def test_decoy_frozen_values():
    coef = decoy_coefficients(constants())
    lam, zeta, gamma = coef.lam, coef.zeta, coef.gamma
    assert lam == pytest.approx(DECOY_ORACLE[0], rel=1e-12)
    assert zeta == pytest.approx(DECOY_ORACLE[1], rel=1e-12)
    assert gamma == pytest.approx(DECOY_ORACLE[2], rel=1e-12)
    assert lam <= 0.0 <= zeta and gamma <= 0.0


def test_decoy_single_photon_coefficient_is_one():
    c = constants()
    coef = decoy_coefficients(c)

    def coefficient(n):
        return (
            coef.lam * p_int_cond(c, "S", n)
            + coef.zeta * p_int_cond(c, "D", n)
            + coef.gamma * p_int_cond(c, "V", n)
        )

    assert coefficient(1) == pytest.approx(1.0, abs=1e-12)
    for n in range(0, 26):
        if n != 1:
            assert coefficient(n) <= 1e-12


def test_decoy_denominator_identity():
    c = constants(mu={"S": 0.5, "D": 0.1, "V": 0.0})
    coef = decoy_coefficients(c)
    p1_int = math.fsum(p_int_joint(c, w, 1) for w in INTENSITIES)
    expected = 0.1 * (0.5 - 0.1) / 0.5
    assert coef.denominator * p1_int == pytest.approx(expected, rel=1e-10)
    assert coef.reduced_denominator == pytest.approx(expected, rel=1e-10)


def test_decoy_infeasible_intensities_raise():
    # mu_V >= mu_D (mu_S - mu_D) / mu_S leaves no single-photon separation.
    with pytest.raises(DomainError):
        decoy_coefficients(constants(mu={"S": 0.5, "D": 0.1, "V": 0.09}))


def test_decoy_yield_soundness_small_sweep():
    # For any yield vector the inversion applied to the exact per-intensity
    # detection probabilities must not exceed the single-photon part.
    c = constants(mu={"S": 0.5, "D": 0.1, "V": 0.0})
    coef = decoy_coefficients(c)
    rng = np.random.default_rng(2024)
    # Photon numbers 0..39 hold all but < 1e-12 of the mu = 0.5 Poisson mass.
    ns = range(40)
    pcs = np.array([[poisson_pcs(c.mu[w], n) for n in ns] for w in INTENSITIES])
    p_w = np.array([c.p_intensity[w] for w in INTENSITIES])
    weights = np.array([coef.lam, coef.zeta, coef.gamma])
    p1 = math.fsum(p_int_joint(c, w, 1) for w in INTENSITIES)
    for _ in range(500):
        y = rng.random(len(ns))
        detections = (pcs * y).sum(axis=1) * p_w
        estimate = float(weights @ detections)
        truth = p1 * y[1]
        assert estimate <= truth + 1e-12


def scenario():
    c = constants()
    exp = expected_observables(c, HONEST)
    obs = Observables(
        n_sift_s=round(exp.n_sift_s),
        n_sift_d=round(exp.n_sift_d),
        n_sift_v=round(exp.n_sift_v),
        n_err_dx=round(exp.n_err_dx),
        n_err_vx=round(exp.n_err_vx),
    )
    return c, obs, exp


def reference_n1z(c, obs, exp):
    # Stand-alone reassembly of the floor from the published pieces, kept
    # deliberately separate from the library code path.
    n = float(c.n_total)
    rn = math.sqrt(n)
    eps = c.eps_secrecy**2 / 32.0
    coef = decoy_coefficients(c)
    lam, zeta, gamma = coef.lam, coef.zeta, coef.gamma
    a1, b1 = kato_pair(n, exp.n1z, eps)
    a_s, b_s = kato_pair(n, exp.n_sift_s, eps)
    a_v, b_v = kato_pair(n, exp.n_sift_v, eps)
    a_d, b_d = kato_pair_prime(n, exp.n_sift_d, eps)
    upper_s = obs.n_sift_s * (1 + 2 * a_s / rn) + (b_s - a_s) * rn
    upper_v = obs.n_sift_v * (1 + 2 * a_v / rn) + (b_v - a_v) * rn
    lower_d = obs.n_sift_d - (b_d + a_d * (2 * obs.n_sift_d / n - 1)) * rn
    inner = lam * upper_s + zeta * lower_d + gamma * upper_v - (b1 - a1) * rn
    value = inner / (1 + 2 * a1 / rn)
    return min(max(value, 0.0), n)


def reference_nph(c, obs, exp):
    # Stand-alone reassembly of the ceiling. With A_n the errors expected
    # on matched-X rounds of n photons and E_w = sum_n P(w|n) A_n, dropping
    # D's terms past n = 1 and solving E_V for A_0 gives
    # A_1 (P(D|1) - k P(V|1)) <= E_D - k E_V + k sum_{n>=2} P(V|n) A_n,
    # k = P(D|0)/P(V|0). Each A_n is at most N pxx P(n), so the sum is at
    # most N pxx P(V, n >= 2), taken here term by term.
    n = float(c.n_total)
    rn = math.sqrt(n)
    eps = c.eps_secrecy**2 / 24.0
    pd1, pd0 = p_int_cond(c, "D", 1), p_int_cond(c, "D", 0)
    pv1, pv0 = p_int_cond(c, "V", 1), p_int_cond(c, "V", 0)
    k = pd0 / pv0
    pzz = c.p_basis_alice * c.p_basis_bob
    pxx = (1 - c.p_basis_alice) * (1 - c.p_basis_bob)
    multi_v = n * pxx * math.fsum(p_int_joint(c, "V", j) for j in range(2, 40))
    a_ph, b_ph = kato_pair_prime(n, exp.nph, eps)
    a_dx, b_dx = kato_pair(n, exp.n_err_dx, eps)
    a_vx, b_vx = kato_pair_prime(n, exp.n_err_vx, eps)
    upper_dx = obs.n_err_dx * (1 + 2 * a_dx / rn) + (b_dx - a_dx) * rn
    lower_vx = obs.n_err_vx - (b_vx + a_vx * (2 * obs.n_err_vx / n - 1)) * rn
    one_photon_x = (upper_dx - k * lower_vx + k * multi_v) / (pd1 - k * pv1)
    inner = pzz / pxx * one_photon_x + (b_ph - a_ph) * rn
    value = inner / (1 - 2 * a_ph / rn)
    return min(max(value, 0.0), n)


def test_n1z_matches_reference_assembly():
    c, obs, exp = scenario()
    assert n1z_lower(c, obs, exp) == pytest.approx(
        reference_n1z(c, obs, exp), rel=1e-12
    )


def test_nph_matches_reference_assembly():
    c, obs, exp = scenario()
    assert nph_upper(c, obs, exp) == pytest.approx(
        reference_nph(c, obs, exp), rel=1e-12
    )


def test_honest_large_run_floor_is_positive_and_below_expectation():
    c, obs, exp = scenario()
    floor = n1z_lower(c, obs, exp)
    assert 0.0 < floor < exp.n1z < c.n_total
    ceiling = nph_upper(c, obs, exp)
    assert 0.0 < ceiling < c.n_total


def test_phase_error_ratio_tracks_misalignment():
    # At large N with low loss the ceiling/floor ratio should sit within a
    # small factor of the physical misalignment rate.
    c, obs, exp = scenario()
    ratio = nph_upper(c, obs, exp) / n1z_lower(c, obs, exp)
    assert 0.5 * HONEST.e_mis <= ratio <= 5.0 * HONEST.e_mis


def test_n1z_degenerate_envelope_returns_zero():
    # Tuning the envelope to expect every round in the target class drives
    # its slope below the guard, collapsing the floor to the trivial 0.
    c, obs, exp0 = scenario()
    exp = dataclasses.replace(exp0, n1z=float(c.n_total))
    assert n1z_lower(c, obs, exp) == 0.0


def test_nph_degenerate_envelope_returns_total():
    # A zero expected phase-error count degenerates the inverted prefactor,
    # collapsing the ceiling to the trivial N.
    c, obs, exp0 = scenario()
    exp = dataclasses.replace(exp0, nph=0.0)
    assert nph_upper(c, obs, exp) == float(c.n_total)


def test_nph_refuses_an_inversion_with_no_one_photon_share():
    # P(D|1) - k P(V|1) is p_D e^-mu_D (mu_D - mu_V) / P(1): nothing is left
    # of the one-photon errors once mu_V passes mu_D, which the constants
    # refuse on their own too, so they are set here past that check.
    c, obs, exp = scenario()
    for mu_v in (0.15, 0.3):
        object.__setattr__(c, "mu", {**c.mu, "V": mu_v})
        with pytest.raises(DomainError, match="phase-error inversion"):
            nph_upper(c, obs, exp)


def test_counts_beyond_total_rejected():
    c, obs, exp = scenario()
    bad = Observables(n_sift_s=c.n_total, n_sift_d=1, n_sift_v=0,
                      n_err_dx=0, n_err_vx=0)
    with pytest.raises(DomainError):
        n1z_lower(c, bad, exp)


def test_conservative_slack_directions():
    c, obs, exp = scenario()
    assert n1z_lower(c, obs, exp, slack=CONSERVATIVE_SLACK) <= n1z_lower(c, obs, exp)
    assert nph_upper(c, obs, exp, slack=CONSERVATIVE_SLACK) >= nph_upper(c, obs, exp)


def test_checkpoint_record_names():
    c, obs, exp = scenario()
    record = {}
    n1z_lower(c, obs, exp, record=record)
    nph_upper(c, obs, exp, record=record)
    assert {"n1z_term_s", "n1z_term_d", "n1z_term_v", "n1z_dev", "n1z_inner",
            "n1z_pref", "n1z_value", "nph_term_dx", "nph_term_vx", "nph_dev",
            "nph_inner", "nph_pref", "nph_value"} <= set(record)


def test_pa_log_term():
    assert pa_log_term(1e-10) == 69
    assert pa_log_term(1e-6) == 42


def test_n_pa_frozen_example():
    # Frozen with a 50-digit evaluation: 1e6 - 4e5 + 4e5 h(0.05) + 69.
    c = constants()
    obs = Observables(n_sift_s=1_000_000, n_sift_d=0, n_sift_v=0,
                      n_err_dx=0, n_err_vx=0)
    assert n_pa(c, obs, 400_000, 20_000) == 714_628


def test_n_pa_zero_floor_writes_off_the_sift():
    c = constants()
    obs = Observables(n_sift_s=5_000, n_sift_d=100, n_sift_v=3,
                      n_err_dx=0, n_err_vx=0)
    assert n_pa(c, obs, 0, 123) == obs.n_sift + pa_log_term(c.eps_secrecy)


def test_n_pa_saturated_ratio_matches_zero_floor_penalty():
    c = constants()
    obs = Observables(n_sift_s=5_000, n_sift_d=0, n_sift_v=0,
                      n_err_dx=0, n_err_vx=0)
    assert n_pa(c, obs, 1_000, 700) == obs.n_sift + pa_log_term(c.eps_secrecy)


@given(
    floor=st.integers(min_value=1, max_value=10_000),
    ceil_=st.integers(min_value=0, max_value=10_000),
    extra=st.integers(min_value=0, max_value=5_000),
)
def test_n_pa_monotone_in_floor(floor, ceil_, extra):
    # A larger single-photon floor can only shrink the removed length.
    c = constants()
    obs = Observables(n_sift_s=20_000, n_sift_d=0, n_sift_v=0,
                      n_err_dx=0, n_err_vx=0)
    assert n_pa(c, obs, floor + extra, ceil_) <= n_pa(c, obs, floor, ceil_)


def test_security_result_accounting():
    c, obs, exp = scenario()
    n_ec = math.ceil(1.16 * obs.n_sift * entropy_h(c.e_bit_assumed))
    res = security_result(c, obs, exp, n_ec)
    assert res.n_fin == obs.n_sift - res.n_pa - n_ec - c.n_verify
    assert not res.abort
    assert res.n1z_floor == math.floor(res.n1z_real)
    assert res.nph_ceil == math.ceil(res.nph_real)
    assert res.eps_correct == pytest.approx(2.0**-c.n_verify)
    assert res.eps_total == pytest.approx(c.eps_secrecy + 2.0**-c.n_verify)
    total_budget = math.fsum(weight for _, weight in res.budget)
    assert total_budget == pytest.approx(c.eps_secrecy**2 / 4.0, rel=1e-12)
    assert len(res.budget) == 7
    assert "n1z_value" in res.intermediates


def test_security_result_abort_path():
    c, _, exp = scenario()
    obs = Observables(n_sift_s=50, n_sift_d=10, n_sift_v=2, n_err_dx=1, n_err_vx=0)
    res = security_result(c, obs, exp, n_ec=10)
    assert res.abort
    assert res.n_fin == 0


def test_expected_observables_closed_forms():
    c = constants()
    exp = expected_observables(c, HONEST)
    n = c.n_total
    pzz = c.p_basis_alice * c.p_basis_bob
    eta = HONEST.transmittance * HONEST.eta_det / 2.0
    want_sift_s = (
        n * c.p_intensity["S"] * pzz
        * (1 - (1 - HONEST.p_dark) ** 2 * math.exp(-c.mu["S"] * eta))
    )
    assert exp.n_sift_s == pytest.approx(want_sift_s, rel=1e-12)
    p1 = math.fsum(
        c.p_intensity[w] * c.mu[w] * math.exp(-c.mu[w]) for w in INTENSITIES
    )
    want_n1z = n * pzz * p1 * (1 - (1 - HONEST.p_dark) ** 2 * (1 - eta))
    assert exp.n1z == pytest.approx(want_n1z, rel=1e-12)
    for value in dataclasses.astuple(exp):
        assert 0.0 <= value <= n


# SHA-256 over the integer SecurityResult fields of the scenarios below,
# taken before the engine's formulas were consolidated, and re-taken when
# the phase-error ceiling came to keep V's one-photon share (only the
# mu_V > 0 scenarios moved); a refactor of the engine must leave every key
# length where it was.
PINNED_KEY_LENGTHS = "490a5407bb9027077c7f0914031cd92cdb8f77d38389d6b58145beec4e777d2a"


def test_key_lengths_are_pinned():
    fields = ("n_sift", "n1z_floor", "nph_ceil", "n_pa", "n_ec", "n_fin", "abort")
    digest = hashlib.sha256()
    results = []
    rng = np.random.default_rng(2025)
    for _ in range(200):
        c, obs, exp, n_ec = random_length_scenario(rng)
        results.append(security_result(c, obs, exp, n_ec))
    for stem in ("demo", "fiber", "small"):
        c = load_constants(CONFIGS / f"{stem}_constants.json")
        exp = expected_observables(c, load_channel(CONFIGS / f"{stem}_channel.json"))
        obs = Observables(
            n_sift_s=round(exp.n_sift_s),
            n_sift_d=round(exp.n_sift_d),
            n_sift_v=round(exp.n_sift_v),
            n_err_dx=round(exp.n_err_dx),
            n_err_vx=round(exp.n_err_vx),
        )
        n_ec = syndrome_length(obs.n_sift, c.e_bit_assumed)
        results.append(security_result(c, obs, exp, n_ec))
    for res in results:
        digest.update(repr(tuple(getattr(res, f) for f in fields)).encode())
    assert 0 < sum(res.abort for res in results) < len(results)
    assert digest.hexdigest() == PINNED_KEY_LENGTHS
