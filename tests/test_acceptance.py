"""Release acceptance suite.

One test per acceptance criterion, numbered c01 through c09 so that
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion. Every test is deterministic (fixed seeds), states its
tolerance inline, and asserts its wall-clock budget.
"""

import dataclasses
import math
import time

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dsbb84.bounds import (
    CONSERVATIVE_SLACK,
    ExpectedObservables,
    Observables,
    decoy_coefficients,
    kato_pair,
    kato_pair_prime,
    security_result,
)
from dsbb84.channel import ChannelModel, click_probabilities
from dsbb84.gf2 import BitString
from dsbb84.oracles import kato_tail_mc
from dsbb84.params import (
    BASES,
    INTENSITIES,
    THETA,
    poisson_pcs,
)
from dsbb84.protocol import ABORT_REASONS, run_protocol
from reference import (
    fock_click_oracle,
    ground_truth_runs,
    p_int_cond,
    p_int_joint,
    random_length_scenario,
    toeplitz_matrix,
    verification_mc,
)
from scenarios import CLEAN, FIBER, LOSSY_LONG, SMALL


def test_c01_deviation_pair_plugback():
    # 200 random (s, t, eps) with s in [1e4, 1e8]: both deviation pairs
    # must reproduce their tail level through the defining equation within
    # 1e-9 relative, and satisfy b >= |a|. The fraction t/s stays away
    # from the exact endpoints, where the defining equation degenerates
    # to 0/0 identically (covered by a dedicated unit test instead).
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    for _ in range(200):
        s = 10.0 ** rng.uniform(4.0, 8.0)
        t = s * rng.uniform(1e-4, 1.0 - 1e-4)
        eps = 10.0 ** rng.uniform(-12.0, -3.0)
        rs = math.sqrt(s)

        a, b = kato_pair(s, t, eps)
        assert b >= abs(a)
        exponent = 2.0 * (b * b - a * a) / (1.0 + 4.0 * a / (3.0 * rs)) ** 2
        assert abs(math.exp(-exponent) - eps) <= 1e-9 * eps

        ap, bp = kato_pair_prime(s, t, eps)
        assert bp >= abs(ap)
        exponent = 2.0 * (bp * bp - ap * ap) / (1.0 - 4.0 * ap / (3.0 * rs)) ** 2
        assert abs(math.exp(-exponent) - eps) <= 1e-9 * eps
    assert time.perf_counter() - start < 1.0


def test_c02_deviation_tail_monte_carlo():
    # Binomial(1e4, 0.3) sampled 1e5 times per target level: the fraction
    # of draws beyond either one-sided envelope must stay below 1.5x the
    # level it was built for. The Bernoulli parameter is a free choice;
    # the envelopes must hold for any of them.
    start = time.perf_counter()
    for eps, seed in ((1e-2, 20240), (1e-3, 20241)):
        result = kato_tail_mc(n=10_000, q=0.3, eps=eps, trials=100_000, seed=seed)
        assert result.trials == 100_000
        assert result.forward_rate <= 1.5 * eps
        assert result.reverse_rate <= 1.5 * eps
    assert time.perf_counter() - start < 120.0


def phase_error_ceiling_ratio(mu_v, err_yields, n_total=10**15):
    """The engine's phase-error ceiling over the true single-photon phase
    errors, for a channel whose n-photon matched-X rounds err with
    probability ``err_yields[n]`` (and never past the list), with every
    count at its expectation. At N = 1e15 the finite-size terms add about
    1e-4, so a ratio below 1 is an inversion that undercounts."""
    c = dataclasses.replace(
        LOSSY_LONG,
        n_block=n_total // 10**10,
        m=10**10,
        mu={**LOSSY_LONG.mu, "V": mu_v},
    )
    pxx = (1 - c.p_basis_alice) * (1 - c.p_basis_bob)
    pzz = c.p_basis_alice * c.p_basis_bob
    ns = range(len(err_yields))
    errors = {
        w: n_total * pxx * math.fsum(p_int_joint(c, w, n) * err_yields[n] for n in ns)
        for w in ("D", "V")
    }
    p1 = math.fsum(p_int_joint(c, w, 1) for w in INTENSITIES)
    truth = n_total * pzz * p1 * err_yields[1]
    obs = Observables(0, 0, 0, round(errors["D"]), round(errors["V"]))
    exp = ExpectedObservables(0.0, 0.0, 0.0, errors["D"], errors["V"], 0.0, truth)
    return security_result(c, obs, exp, 0, slack=0.0).nph_real / truth


def test_c03_decoy_inversion_soundness():
    # The three-intensity inversion must never overestimate the
    # single-photon part, whatever the per-photon-number behaviour of the
    # channel. 1e4 random yield vectors and 1e4 random error-yield
    # vectors, zero violations beyond float noise (1e-12 absolute). The
    # error side is checked at a vacuum intensity of exactly zero, then at
    # mu_V > 0, where V rounds hold photons too, and through the engine.
    start = time.perf_counter()
    c = dataclasses.replace(LOSSY_LONG, mu={**LOSSY_LONG.mu, "V": 0.0})
    coef = decoy_coefficients(c)
    rng = np.random.default_rng(433)

    # Photon numbers 0..39 hold all but < 1e-12 of the mu = 0.5 Poisson mass.
    ns = range(40)
    pcs = np.array([[poisson_pcs(c.mu[w], n) for n in ns] for w in INTENSITIES])
    p_w = np.array([c.p_intensity[w] for w in INTENSITIES])
    weights = np.array([coef.lam, coef.zeta, coef.gamma])
    yields = rng.random((10_000, len(ns)))
    detections = yields @ (pcs * p_w[:, None]).T
    estimates = detections @ weights
    p1 = math.fsum(p_int_joint(c, w, 1) for w in INTENSITIES)
    truths = p1 * yields[:, 1]
    assert int(np.sum(estimates > truths + 1e-12)) == 0

    cond_d = np.array([p_int_cond(c, "D", n) for n in ns])
    cond_v = np.array([p_int_cond(c, "V", n) for n in ns])
    err_yields = rng.random((10_000, len(ns)))
    upper = (err_yields @ cond_d) / cond_d[1] - (
        cond_d[0] / (cond_d[1] * cond_v[0])
    ) * (err_yields @ cond_v)
    assert int(np.sum(upper < err_yields[:, 1] - 1e-12)) == 0

    # At mu_V > 0, per round: the errors of n-photon matched-X rounds are
    # A_n = P(n) e_n <= P(n), so V's rounds of two or more photons add at
    # most P(V, n >= 2) to E_V beyond its zero- and one-photon terms.
    for mu_v in (1e-3, 1e-2, 5e-2):
        cv = dataclasses.replace(c, mu={**c.mu, "V": mu_v})
        joint_d = np.array([p_int_joint(cv, "D", n) for n in ns])
        joint_v = np.array([p_int_joint(cv, "V", n) for n in ns])
        p_n = np.array([math.fsum(p_int_joint(cv, w, n) for w in INTENSITIES) for n in ns])
        k = joint_d[0] / joint_v[0]
        multi_v = math.fsum(joint_v[2:])
        upper = (err_yields @ joint_d - k * (err_yields @ joint_v) + k * multi_v) / (
            joint_d[1] / p_n[1] - k * joint_v[1] / p_n[1]
        )
        assert int(np.sum(upper < p_n[1] * err_yields[:, 1] - 1e-12)) == 0

    # The engine's ceiling, over mu_V and error-yield vectors. The pinned
    # vector puts errors on one-photon rounds only; a ceiling that takes
    # every V round for empty gives 0.990 of the truth for it.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(0.0, 0.05),
        st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12).filter(
            lambda e: e[1] > 0.0
        ),
    )
    @example(1e-3, [0.0, 0.02] + [0.0] * 10)
    @example(1e-2, [0.0, 0.02] + [0.0] * 10)
    def ceiling_holds(mu_v, err_yields):
        assert phase_error_ceiling_ratio(mu_v, err_yields) >= 1.0

    ceiling_holds()

    # Inversion denominator identity, on the pinned pair and on 200
    # random intensity pairs: denominator * p1 = mu_D (mu_S - mu_D)/mu_S
    # within 1e-10 relative.
    pairs = [(0.5, 0.1)]
    pairs += [
        (mu_s, mu_s * rng.uniform(0.1, 0.7))
        for mu_s in rng.uniform(0.2, 1.2, size=200)
    ]
    for mu_s, mu_d in pairs:
        ci = dataclasses.replace(c, mu={"S": mu_s, "D": mu_d, "V": 0.0})
        p1 = math.fsum(p_int_joint(ci, w, 1) for w in INTENSITIES)
        product = decoy_coefficients(ci).denominator * p1
        target = mu_d * (mu_s - mu_d) / mu_s
        assert abs(product - target) <= 1e-10 * target
    assert time.perf_counter() - start < 30.0


def test_c04_ground_truth_envelope_coverage():
    # 5000 seeded honest sessions on the 20 dB reference link. The hidden
    # single-photon count must never fall below the engine's floor and
    # the hidden phase-error proxy must never exceed its ceiling. The
    # joint failure budget at eps = 1e-6 is far below one run, so the
    # observed failure count must be exactly zero. At this loss the
    # envelopes are loose (the sessions abort); the tight non-aborting
    # regime is covered by the ground-truth unit tests.
    start = time.perf_counter()
    failures = 0
    for run in ground_truth_runs(LOSSY_LONG, FIBER, range(5000)):
        assert run.n_sift > 0
        if run.n1z_true < run.n1z_floor or run.nph_true > run.nph_ceil:
            failures += 1
    assert failures == 0
    assert time.perf_counter() - start < 1200.0


def test_c05_verification_false_accept_rate():
    # Sabotaged-correction Monte Carlo: random key pairs that differ in
    # at least one bit, hashed with a fresh seed each trial. The
    # accepted-while-unequal rate must stay within 1.5x the 2^-8 target
    # of an 8-bit verification tag.
    start = time.perf_counter()
    result = verification_mc(n_bits=64, n_verify=8, trials=100_000, seed=505)
    assert result.trials == 100_000
    assert result.rate <= 1.5 * 2.0**-8
    assert time.perf_counter() - start < 300.0


def test_c06_hash_family_exhaustive_properties():
    # Exhaustive enumeration of the hash family at small sizes, over the
    # diagonal bits that actually parametrize it.
    start = time.perf_counter()

    # Verification size: 10 bits in, 4 bits out, 512 family members. By
    # linearity a collision on a pair is a zero hash of the nonzero
    # difference, so for every nonzero input the number of members
    # mapping it to zero must be at most 512 * 2^-4 = 32. Surjectivity
    # must hold for every member.
    n_in, n_out = 10, 4
    members = []
    for d in range(2 ** (n_in - 1)):
        matrix = toeplitz_matrix(BitString.from_int(d, n_in - 1), n_in, n_out)
        assert matrix.rank() == n_out
        members.append(matrix.rows)
    for z in range(1, 2**n_in):
        zero_hits = 0
        for rows in members:
            if all((row & z).bit_count() % 2 == 0 for row in rows):
                zero_hits += 1
        assert zero_hits <= 2 ** (n_in - 1) * 2.0**-n_out

    # Amplification size: 8 bits in, 3 bits out, 128 family members. The
    # dual property bounds how often any fixed nonzero vector lands in a
    # member's row space: at most 128 * 2^-(8-3) = 4 members.
    n_in, n_out = 8, 3
    span_hits = np.zeros(2**n_in, dtype=np.int64)
    for d in range(2 ** (n_in - 1)):
        matrix = toeplitz_matrix(BitString.from_int(d, n_in - 1), n_in, n_out)
        assert matrix.rank() == n_out
        span = {0}
        for row in matrix.rows:
            span |= {v ^ row for v in span}
        for member in span:
            span_hits[member] += 1
    assert int(span_hits[1:].max()) <= 2 ** (n_in - 1) * 2.0 ** -(n_in - n_out)
    assert time.perf_counter() - start < 60.0


def test_c07_fock_oracle_poisson_agreement():
    # Poisson-mixing the photon-number oracle must reproduce the
    # closed-form click probabilities within 1e-6 on a 200-point grid of
    # (mu, eta, e_mis, p_dark), for all four outcome cells and all eight
    # setting combinations. The mean photon numbers are capped so that
    # the truncated mixture carries all but < 1e-8 of the mass.
    start = time.perf_counter()
    grid_mu = (0.05, 0.1, 0.3, 0.6, 1.2)
    grid_eta = (0.02, 0.1, 0.3, 0.6, 1.0)
    grid_emis = (0.0, 0.01, 0.05, 0.15)
    grid_dark = (0.0, 1e-3)
    points = 0
    for mu in grid_mu:
        weights = [math.exp(-mu) * mu**n / math.factorial(n) for n in range(13)]
        assert 1.0 - math.fsum(weights) < 1e-8
        for eta in grid_eta:
            for e_mis in grid_emis:
                for p_dark in grid_dark:
                    points += 1
                    channel = ChannelModel(
                        eta_ch=eta, e_mis=e_mis, p_dark=p_dark, eta_det=1.0
                    )
                    for alpha in BASES:
                        for a_bit in (0, 1):
                            for beta in BASES:
                                closed = click_probabilities(
                                    channel, mu, alpha, a_bit, beta
                                )
                                cells = [
                                    fock_click_oracle(
                                        n, channel, THETA[(a_bit, alpha)], beta
                                    )
                                    for n in range(13)
                                ]
                                for i in range(4):
                                    mixed = math.fsum(
                                        w * cell[i]
                                        for w, cell in zip(weights, cells)
                                    )
                                    assert abs(mixed - closed[i]) <= 1e-6
    assert points == 200
    assert time.perf_counter() - start < 30.0


def test_c08_end_to_end_agreement_and_determinism():
    # 1000 seeded sessions at 1e5 rounds on the clean reference link:
    # every non-aborted session must end with byte-identical keys on both
    # sides, and re-running a seed must reproduce the transcript exactly.
    start = time.perf_counter()
    produced = 0
    transcript_probes = {}
    probe_seeds = (0, 137, 531, 999)
    for seed in range(1000):
        outcome = run_protocol(SMALL, CLEAN, seed=seed)
        if not outcome.aborted:
            produced += 1
            assert outcome.alice.key == outcome.bob.key
            assert outcome.alice.n_fin == outcome.bob.n_fin
        else:
            # The scenario sits near the extractable-length threshold, so
            # a few seeds abort on length; rarely the decoder stalls and
            # verification turns that into an abort too. Both are safe
            # outcomes; anything else is a regression.
            assert outcome.alice.abort_reason in ABORT_REASONS
        if seed in probe_seeds:
            transcript_probes[seed] = bytes(outcome.transcript)
    assert produced >= 950
    for seed in probe_seeds:
        rerun = run_protocol(SMALL, CLEAN, seed=seed)
        assert bytes(rerun.transcript) == transcript_probes[seed]
    assert time.perf_counter() - start < 600.0


def test_c09_conservative_rounding_audit():
    # 100 random configurations. The engine pads every intermediate with
    # a directed 1e-9 relative slack; re-evaluating with adversarial
    # +-1e-9 relative perturbations at the same intermediates must never
    # shrink the amount of privacy amplification below the unpadded
    # value, because the directed slack dominates any same-sized
    # perturbation. The floor and ceiling must move conservatively too.
    rng = np.random.default_rng(909)
    names = (
        "n1z_term_s",
        "n1z_term_d",
        "n1z_term_v",
        "n1z_dev",
        "n1z_inner",
        "n1z_pref",
        "n1z_value",
        "nph_term_dx",
        "nph_term_vx",
        "nph_dev",
        "nph_inner",
        "nph_pref",
        "nph_value",
        "n_pa_value",
    )
    for _ in range(100):
        c, obs, exp, n_ec = random_length_scenario(rng)
        plain = security_result(c, obs, exp, n_ec, slack=0.0)
        patterns = [
            {name: CONSERVATIVE_SLACK for name in names},
            {name: -CONSERVATIVE_SLACK for name in names},
        ]
        patterns += [
            {
                name: float(sign) * CONSERVATIVE_SLACK
                for name, sign in zip(names, rng.choice((-1.0, 1.0), size=len(names)))
            }
            for _ in range(6)
        ]
        for pattern in patterns:
            shifted = security_result(c, obs, exp, n_ec, perturb=pattern)
            assert shifted.n_pa >= plain.n_pa
            assert shifted.n1z_floor <= plain.n1z_floor
            assert shifted.nph_ceil >= plain.nph_ceil
