import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsbb84.channel import (
    NO_CLICK,
    ChannelModel,
    click_probabilities,
    click_probability_total,
    error_probability_x,
    eta_total,
    fock_click_oracle,
    generator,
    load_channel,
    routing_fraction,
    sample_block,
    single_photon_error_x,
    single_photon_yield,
)
from dsbb84.params import (
    BASES,
    INTENSITIES,
    THETA,
    ConfigurationError,
    DomainError,
    ProtocolConstants,
    poisson_pcs,
    truncation_n_max,
)


def constants(**overrides):
    cfg = dict(
        n_block=2,
        m=5000,
        p_intensity={"S": 0.7, "D": 0.2, "V": 0.1},
        mu={"S": 0.5, "D": 0.1, "V": 0.001},
        p_basis_alice=0.8,
        p_basis_bob=0.8,
        n_verify=32,
        e_bit_assumed=0.03,
        eps_secrecy=1e-6,
    )
    cfg.update(overrides)
    return ProtocolConstants(**cfg)


CH = ChannelModel(eta_ch=0.2, e_mis=0.03, p_dark=1e-5, eta_det=0.4)

# Frozen with an independent 50-digit evaluation of the detector-load
# closed form at mu = 0.5, matched Z basis, bit 0.
CLICK_ORACLE = (
    0.019211116530896725,
    0.00059809168079414419,
    1.1722357000096512e-05,
    0.98017906943130903,
)


def test_channel_validation():
    with pytest.raises(ConfigurationError):
        ChannelModel(eta_ch=0.5, loss_db_per_km=0.2, distance_km=10.0,
                     e_mis=0.0, p_dark=0.0, eta_det=1.0)
    with pytest.raises(ConfigurationError):
        ChannelModel(loss_db_per_km=0.2, e_mis=0.0, p_dark=0.0, eta_det=1.0)
    with pytest.raises(ConfigurationError):
        ChannelModel(eta_ch=0.0, e_mis=0.0, p_dark=0.0, eta_det=1.0)
    with pytest.raises(ConfigurationError):
        ChannelModel(eta_ch=0.5, e_mis=0.6, p_dark=0.0, eta_det=1.0)
    with pytest.raises(ConfigurationError):
        ChannelModel(eta_ch=0.5, e_mis=0.0, p_dark=1.0, eta_det=1.0)
    with pytest.raises(ConfigurationError):
        ChannelModel(eta_ch=0.5, e_mis=0.0, p_dark=0.0, eta_det=0.0)


def test_transmittance_from_fibre_budget():
    ch = ChannelModel(loss_db_per_km=0.2, distance_km=100.0,
                      e_mis=0.0, p_dark=0.0, eta_det=1.0)
    assert ch.transmittance == pytest.approx(1e-2, rel=1e-12)
    assert eta_total(ch) == pytest.approx(5e-3, rel=1e-12)


def test_load_channel_rejects_unknown_keys(tmp_path):
    import json

    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"eta_ch": 0.2, "e_mis": 0.0, "p_dark": 0.0,
                                "eta_det": 1.0, "oops": 3}))
    with pytest.raises(ConfigurationError, match="unknown"):
        load_channel(path)


def test_click_probabilities_frozen():
    got = click_probabilities(constants(), CH, "S", "Z", 0, "Z")
    for g, e in zip(got, CLICK_ORACLE):
        assert g == pytest.approx(e, rel=1e-12)


def test_clean_matched_rounds_have_exact_outcomes():
    ch = ChannelModel(eta_ch=0.5, e_mis=0.0, p_dark=0.0, eta_det=1.0)
    c = constants()
    for basis in BASES:
        p0_only0, p0_only1, p0_both, _ = click_probabilities(c, ch, "S", basis, 0, basis)
        assert p0_only1 == 0.0 and p0_both == 0.0 and p0_only0 > 0.0
        p1_only0, p1_only1, p1_both, _ = click_probabilities(c, ch, "S", basis, 1, basis)
        assert p1_only0 == 0.0 and p1_both == 0.0 and p1_only1 > 0.0


def test_mismatched_basis_splits_evenly():
    c = constants()
    for a_bit in (0, 1):
        p_only0, p_only1, _, _ = click_probabilities(c, CH, "S", "Z", a_bit, "X")
        assert p_only0 == pytest.approx(p_only1, rel=1e-9)


def test_click_probability_total_is_basis_independent():
    c = constants()
    for omega in INTENSITIES:
        expected = click_probability_total(CH, c.mu[omega])
        for alpha in BASES:
            for beta in BASES:
                for a_bit in (0, 1):
                    p = click_probabilities(c, CH, omega, alpha, a_bit, beta)
                    assert sum(p) == pytest.approx(1.0, abs=1e-12)
                    assert 1.0 - p[3] == pytest.approx(expected, rel=1e-12)


@given(
    mu=st.floats(min_value=0.0, max_value=5.0),
    eta_ch=st.floats(min_value=1e-4, max_value=1.0),
    e_mis=st.floats(min_value=0.0, max_value=0.5),
    p_dark=st.floats(min_value=0.0, max_value=0.2),
)
def test_click_probabilities_are_a_distribution(mu, eta_ch, e_mis, p_dark):
    ch = ChannelModel(eta_ch=eta_ch, e_mis=e_mis, p_dark=p_dark, eta_det=0.7)
    c = constants(mu={"S": mu + 0.2, "D": mu * 0.5 + 0.1, "V": 0.0})
    p = click_probabilities(c, ch, "S", "X", 1, "Z")
    assert all(v >= 0.0 for v in p)
    assert sum(p) == pytest.approx(1.0, abs=1e-12)


def test_fock_zero_photons_is_pure_dark():
    p_only0, p_only1, p_both, p_none = fock_click_oracle(0, CH, 0.0, "Z")
    d = CH.p_dark
    assert p_none == pytest.approx((1 - d) ** 2, rel=1e-14)
    assert p_only0 == pytest.approx(d * (1 - d), rel=1e-14)
    assert p_only1 == pytest.approx(d * (1 - d), rel=1e-14)
    assert p_both == pytest.approx(d * d, rel=1e-14)


def test_fock_rejects_large_photon_numbers():
    with pytest.raises(DomainError):
        fock_click_oracle(13, CH, 0.0, "Z")


def test_fock_single_photon_matches_helpers():
    # The scalar helpers must agree with the n = 1 oracle cell by cell.
    for ch in (CH, ChannelModel(eta_ch=0.9, e_mis=0.12, p_dark=0.01, eta_det=0.8)):
        p_only0, p_only1, p_both, p_none = fock_click_oracle(
            1, ch, THETA[(0, "X")], "X"
        )
        assert 1.0 - p_none == pytest.approx(single_photon_yield(ch), rel=1e-12)
        assert p_only1 + 0.5 * p_both == pytest.approx(
            single_photon_error_x(ch), rel=1e-12
        )


def test_poisson_mixture_of_fock_matches_closed_form():
    # The oracle enumerates photon splits; mixing it over the Poisson law
    # must land on the independent-detector-load closed form.
    c = constants()
    for omega in INTENSITIES:
        mu = c.mu[omega]
        n_top = min(truncation_n_max(mu), 12)
        for alpha, a_bit, beta in [("Z", 0, "Z"), ("X", 1, "X"), ("Z", 1, "X")]:
            mix = [0.0, 0.0, 0.0, 0.0]
            for n in range(n_top + 1):
                w = poisson_pcs(mu, n)
                cell = fock_click_oracle(n, CH, THETA[(a_bit, alpha)], beta)
                for i in range(4):
                    mix[i] += w * cell[i]
            closed = click_probabilities(c, CH, omega, alpha, a_bit, beta)
            for i in range(4):
                assert mix[i] == pytest.approx(closed[i], abs=1e-7)


def test_error_probability_x_matches_mixture():
    c = constants()
    for omega in ("S", "D"):
        mu = c.mu[omega]
        p_only0, p_only1, p_both, _ = click_probabilities(c, CH, omega, "X", 0, "X")
        assert error_probability_x(CH, mu) == pytest.approx(
            p_only1 + 0.5 * p_both, rel=1e-12
        )


def test_routing_fraction_limits():
    ch = ChannelModel(eta_ch=1.0, e_mis=0.0, p_dark=0.0, eta_det=1.0)
    assert routing_fraction(ch, 0.0) == 1.0
    assert routing_fraction(ch, math.pi) == 0.0
    assert routing_fraction(ch, math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    flipped = ChannelModel(eta_ch=1.0, e_mis=0.5, p_dark=0.0, eta_det=1.0)
    assert routing_fraction(flipped, 0.0) == pytest.approx(0.5)


def _rngs(seed):
    return generator(seed, 0, 0), generator(seed, 1, 0), generator(seed, 2, 0)


def test_sample_block_is_deterministic():
    c = constants()
    first = sample_block(c, CH, *_rngs(42))
    second = sample_block(c, CH, *_rngs(42))
    for name in ("omega_idx", "alpha", "a", "beta", "n_photons", "clicked", "b"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    third = sample_block(c, CH, *_rngs(43))
    assert not np.array_equal(first.b, third.b)


def test_sample_block_internal_consistency():
    c = constants(m=20000)
    block = sample_block(c, CH, *_rngs(7))
    assert len(block) == 20000
    assert np.all((block.b == NO_CLICK) == ~block.clicked)
    assert np.all((block.b >= NO_CLICK) & (block.b <= 1))
    assert set(np.unique(block.omega_idx)) <= {0, 1, 2}


def test_sample_block_click_rate_matches_closed_form():
    c = constants(m=200_000, mu={"S": 0.5, "D": 0.1, "V": 0.001})
    ch = ChannelModel(eta_ch=0.5, e_mis=0.02, p_dark=1e-4, eta_det=0.8)
    block = sample_block(c, ch, *_rngs(3))
    for idx, omega in enumerate(INTENSITIES):
        mask = block.omega_idx == idx
        rate = block.clicked[mask].mean()
        expected = click_probability_total(ch, c.mu[omega])
        sigma = math.sqrt(expected * (1 - expected) / mask.sum())
        assert abs(rate - expected) < 6 * sigma + 1e-9


def test_sample_block_error_rate_matches_closed_form():
    c = constants(m=400_000, p_basis_alice=0.5, p_basis_bob=0.5)
    ch = ChannelModel(eta_ch=0.5, e_mis=0.05, p_dark=1e-5, eta_det=0.8)
    block = sample_block(c, ch, *_rngs(5))
    matched_x = (block.alpha == 1) & (block.beta == 1) & (block.omega_idx == 0)
    clicked = matched_x & block.clicked
    err_rate = (block.b[clicked] != block.a[clicked]).mean()
    expected = error_probability_x(ch, c.mu["S"]) / click_probability_total(
        ch, c.mu["S"]
    )
    sigma = math.sqrt(expected * (1 - expected) / clicked.sum())
    assert abs(err_rate - expected) < 6 * sigma
