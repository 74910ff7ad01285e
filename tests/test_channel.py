import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsbb84.channel import (
    SETTINGS,
    ChannelModel,
    StreamKey,
    click_probabilities,
    click_probability_total,
    click_law,
    error_probability_x,
    eta_total,
    load_channel,
    routing_fraction,
    sample_block,
    setting_index,
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
)
from reference import chi2_statistic, chi2_upper, fock_click_oracle


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
    for bad in (dict(e_mis="0.01"), dict(p_dark=None), dict(eta_ch=True),
                dict(eta_det=float("inf"))):
        fields = {**dict(eta_ch=0.5, e_mis=0.0, p_dark=0.0, eta_det=1.0), **bad}
        with pytest.raises(ConfigurationError, match="real number"):
            ChannelModel(**fields)
    with pytest.raises(ConfigurationError, match="real number"):
        ChannelModel(loss_db_per_km=0.2, distance_km="100", e_mis=0.0,
                     p_dark=0.0, eta_det=1.0)


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
        n_top = 12
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


def _block(c, ch, seed, j=0):
    return sample_block(click_law(c, ch), seed, j)


def test_sample_block_is_deterministic():
    c = constants()
    first = _block(c, CH, 42)
    second = _block(c, CH, 42)
    for name in ("beta", "clicked", "offsets", "omega_idx", "alpha", "a", "cell", "b"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    third = _block(c, CH, 43)
    assert not np.array_equal(first.clicked, third.clicked)


def test_stream_keys_are_pinned():
    # Re-keying a stream changes every seeded output; the golden digests
    # would catch it too, but only after a full session.
    assert {key.name: int(key) for key in StreamKey} == {
        "ALICE": 0,
        "BOB": 1,
        "CHANNEL": 2,
        "POST_PROCESSING": 3,
        "GROUND_TRUTH": 4,
        "ALICE_UNCLICKED": 5,
        "VERIFY_ATTACK": 0xC0,
        "LDPC": 0xEC,
        "VERIFY_BOUNDS": 0x7A11,
    }


def test_blocks_of_one_session_differ():
    c = constants(m=20000)
    law = click_law(c, CH)
    first, second = sample_block(law, 42, 0), sample_block(law, 42, 1)
    assert (first.j, second.j) == (0, 1)
    assert not np.array_equal(first.clicked, second.clicked)
    assert not np.array_equal(first.beta, second.beta)


def test_sample_block_internal_consistency():
    c = constants(m=20000)
    block = _block(c, CH, 7)
    assert len(block) == 20000 and len(block.clicked) == 20000
    k = int(block.clicked.sum())
    assert k > 0
    assert np.array_equal(block.offsets, np.flatnonzero(block.clicked))
    for name in ("omega_idx", "alpha", "beta", "a", "cell", "b"):
        assert len(getattr(block, name)) == k
    assert set(np.unique(block.omega_idx)) <= {0, 1, 2}
    assert set(np.unique(block.beta)) <= {0, 1}
    assert set(np.unique(block.cell)) <= {0, 1, 2}
    assert set(np.unique(block.b)) <= {0, 1}
    single = block.cell < 2
    assert np.array_equal(block.b[single], block.cell[single])


def test_clean_matched_rounds_sample_exact_outcomes():
    c = constants(m=20000, p_basis_alice=0.5, p_basis_bob=0.5)
    ch = ChannelModel(eta_ch=0.5, e_mis=0.0, p_dark=0.0, eta_det=1.0)
    block = _block(c, ch, 11)
    matched = block.alpha == block.beta
    assert matched.sum() > 100
    assert np.array_equal(block.cell[matched], block.a[matched])
    assert np.array_equal(block.b[matched], block.a[matched])


def test_sample_block_click_rate_matches_closed_form():
    # Alice's settings of the unclicked rounds are drawn on demand, so the
    # per-intensity click rate over all rounds checks both laws.
    c = constants(m=200_000, mu={"S": 0.5, "D": 0.1, "V": 0.001})
    ch = ChannelModel(eta_ch=0.5, e_mis=0.02, p_dark=1e-4, eta_det=0.8)
    block = _block(c, ch, 3)
    omega_idx, alpha, _ = block.alice_settings(np.arange(len(block)))
    for idx, omega in enumerate(INTENSITIES):
        mask = omega_idx == idx
        share = mask.mean()
        sigma = math.sqrt(c.p_intensity[omega] * (1 - c.p_intensity[omega]) / len(block))
        assert abs(share - c.p_intensity[omega]) < 6 * sigma
        rate = block.clicked[mask].mean()
        expected = click_probability_total(ch, c.mu[omega])
        sigma = math.sqrt(expected * (1 - expected) / mask.sum())
        assert abs(rate - expected) < 6 * sigma + 1e-9
    sigma = math.sqrt(c.p_basis_alice * (1 - c.p_basis_alice) / len(block))
    assert abs((alpha == 0).mean() - c.p_basis_alice) < 6 * sigma


def test_sample_block_error_rate_matches_closed_form():
    c = constants(m=400_000, p_basis_alice=0.5, p_basis_bob=0.5)
    ch = ChannelModel(eta_ch=0.5, e_mis=0.05, p_dark=1e-5, eta_det=0.8)
    block = _block(c, ch, 5)
    clicked = (block.alpha == 1) & (block.beta == 1) & (block.omega_idx == 0)
    err_rate = (block.b[clicked] != block.a[clicked]).mean()
    expected = error_probability_x(ch, c.mu["S"]) / click_probability_total(
        ch, c.mu["S"]
    )
    sigma = math.sqrt(expected * (1 - expected) / clicked.sum())
    assert abs(err_rate - expected) < 6 * sigma


# Points of the c07 grid (mu_S, eta, e_mis, p_dark), with mu_D = mu_S / 2.
C07_POINTS = (
    (0.05, 1.0, 0.15, 1e-3),
    (0.3, 0.1, 0.01, 0.0),
    (0.6, 0.3, 0.05, 1e-3),
    (1.2, 0.6, 0.0, 0.0),
)


@pytest.mark.parametrize("point", C07_POINTS)
def test_cell_counts_match_click_probabilities(point):
    # Counts of the 24 setting combinations times the three click cells
    # (only 0, only 1, both) over 60 blocks, and of Alice's 12 settings on
    # the unclicked rounds, against the closed form. No basis of Bob's is
    # drawn for an unclicked round, so that cell sums over beta.
    mu, eta, e_mis, p_dark = point
    ch = ChannelModel(eta_ch=eta, e_mis=e_mis, p_dark=p_dark, eta_det=1.0)
    c = constants(
        m=20_000,
        p_intensity={"S": 0.5, "D": 0.3, "V": 0.2},
        mu={"S": mu, "D": mu / 2.0, "V": 0.0},
        p_basis_alice=0.6,
        p_basis_bob=0.7,
    )
    law = click_law(c, ch)
    n_blocks = 60
    observed = np.zeros((24, 3))
    observed_none = np.zeros(12)
    for j in range(n_blocks):
        block = sample_block(law, 1000 + j, j)
        combo = setting_index(block.omega_idx, block.alpha, block.a, block.beta)
        np.add.at(observed, (combo, block.cell), 1)
        omega_idx, alpha, a = block.alice_settings(np.flatnonzero(~block.clicked))
        np.add.at(observed_none, setting_index(omega_idx, alpha, a, 0) // 2, 1)
    expected = np.zeros((24, 3))
    expected_none = np.zeros(12)
    for row, (omega, alpha, a_bit, beta) in enumerate(SETTINGS):
        prior = (
            c.p_intensity[omega]
            * (c.p_basis_alice if alpha == "Z" else 1 - c.p_basis_alice)
            * 0.5
            * (c.p_basis_bob if beta == "Z" else 1 - c.p_basis_bob)
        )
        cells = click_probabilities(c, ch, omega, alpha, a_bit, beta)
        expected[row] = n_blocks * c.m * prior * np.array(cells[:3])
        expected_none[row // 2] += n_blocks * c.m * prior * cells[3]
    # A cell of probability zero is never drawn.
    assert np.all(observed[expected == 0.0] == 0)
    stat, df = chi2_statistic(
        np.append(observed, observed_none), np.append(expected, expected_none)
    )
    assert df >= 40
    assert stat < chi2_upper(df)


def test_alice_settings_of_unclicked_rounds_are_keyed_by_block():
    c = constants(m=20000)
    law = click_law(c, CH)
    block = sample_block(law, 9, 2)
    unclicked = np.flatnonzero(~block.clicked)
    named = np.sort(np.concatenate([block.offsets[:3], unclicked[[0, 5, 9]]]))
    first = block.alice_settings(named)
    again = sample_block(law, 9, 2).alice_settings(named)
    every = block.alice_settings(np.arange(c.m))
    for col, col2, full in zip(first, again, every):
        assert np.array_equal(col, col2)
        assert np.array_equal(col, full[named])
    pos = np.searchsorted(block.offsets, block.offsets[:3])
    clicked_part = np.isin(named, block.offsets)
    assert np.array_equal(first[0][clicked_part], block.omega_idx[pos])
    other_block = sample_block(law, 9, 3).alice_settings(np.arange(c.m))
    assert not all(np.array_equal(x, y) for x, y in zip(every, other_block))
