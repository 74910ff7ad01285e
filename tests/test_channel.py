import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsbb84.channel import (
    MAX_BLOCKS,
    SETTINGS,
    BlockSource,
    BlockStreams,
    ChannelModel,
    StreamKey,
    click_probabilities,
    click_probability_total,
    click_law,
    error_probability_x,
    eta_total,
    generator,
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
    load_constants,
    poisson_pcs,
)
import reference
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
    return sample_block(click_law(c, ch), BlockStreams(seed), j)


def test_sample_block_is_deterministic():
    c = constants()
    first = _block(c, CH, 42)
    second = _block(c, CH, 42)
    for name in ("beta", "offsets", "omega_idx", "alpha", "a", "cell", "b"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    third = _block(c, CH, 43)
    assert not np.array_equal(first.offsets, third.offsets)


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


# The first three 64-bit words of the one-key streams generator(seed,
# role), which seed the LDPC codes, Alice's post-processing and the
# verify-bounds check. Per-block streams reuse these keys at other
# counters, so these words must never move.
ONE_KEY_STREAMS = {
    (42, StreamKey.POST_PROCESSING): (
        12404917998224440681, 6918449135087662725, 9003281883469010665
    ),
    (7, StreamKey.LDPC): (
        6227596217006364814, 13629604987356939236, 10386938384452751009
    ),
    (0, StreamKey.VERIFY_BOUNDS): (
        7605971737573252114, 18065895369629380073, 7438519292190080742
    ),
    (2**64 - 1, StreamKey.GROUND_TRUTH): (
        4487025073392222821, 12244646616055251536, 1385445001978849086
    ),
}


@pytest.mark.parametrize("seed, role", sorted(ONE_KEY_STREAMS))
def test_one_key_streams_are_unchanged(seed, role):
    words = generator(seed, role).integers(0, 2**64, size=3, dtype=np.uint64)
    assert tuple(int(w) for w in words) == ONE_KEY_STREAMS[seed, role]
    keyed = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(role,)))
    assert generator(seed, role).bytes(80) == np.random.Generator(keyed).bytes(80)


def test_block_streams_take_their_own_counter_ranges():
    # Block j is the role's key with j + 1 in the top counter word; the
    # counter-0 stream and other blocks start elsewhere.
    streams = BlockStreams(5)
    for j in (0, 1, 2**32, MAX_BLOCKS - 1):
        ours = streams(StreamKey.CHANNEL, j).bytes(40)
        assert ours == reference.block_stream(5, StreamKey.CHANNEL, j).bytes(40)
    firsts = {
        streams(StreamKey.CHANNEL, j).bytes(32) for j in range(4)
    } | {generator(5, StreamKey.CHANNEL).bytes(32)}
    assert len(firsts) == 5
    for j in (-1, MAX_BLOCKS):
        with pytest.raises(ValueError):
            streams(StreamKey.ALICE, j)


BLOCK_FIELDS = ("beta", "offsets", "omega_idx", "alpha", "a", "cell", "b")


def assert_same_block(ours, theirs):
    assert (ours.j, len(ours)) == (theirs.j, len(theirs))
    for field in BLOCK_FIELDS:
        x, y = getattr(ours, field), getattr(theirs, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    calls=st.lists(
        st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=12
    ),
)
def test_blocks_do_not_depend_on_draw_order(seed, calls):
    # One source draws blocks in any order, with repeats, and between them
    # reads Alice's settings on unclicked rounds from another stream; every
    # block, and every setting read, equals the same one drawn alone.
    c = constants(m=3000)
    source = BlockSource(c, CH, seed)
    for j, unclicked in calls:
        block = source(j)
        alone = BlockSource(c, CH, seed)(j)
        assert_same_block(block, alone)
        if unclicked:
            rounds = np.setdiff1d(np.arange(len(alone)), alone.offsets)[::97]
            rounds = np.union1d(rounds, alone.offsets[:3])
            for x, y in zip(block.alice_settings(rounds), alone.alice_settings(rounds)):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def test_click_law_is_shared_by_equal_configurations_only():
    law = click_law(constants(), CH)
    assert click_law(constants(), ChannelModel(**CH.as_dict())) is law
    assert not law.cell_only0.flags.writeable
    assert not law.cell_not_both.flags.writeable
    other = click_law(constants(mu={"S": 0.6, "D": 0.1, "V": 0.001}), CH)
    assert other is not law and other.p_click != law.p_click
    other = click_law(constants(), dataclasses.replace(CH, e_mis=0.04))
    assert other is not law and not np.array_equal(other.cell_only0, law.cell_only0)
    assert click_law(constants(m=6000), CH).m == 6000


def test_blocks_of_one_session_differ():
    c = constants(m=20000)
    law = click_law(c, CH)
    streams = BlockStreams(42)
    first, second = sample_block(law, streams, 0), sample_block(law, streams, 1)
    assert (first.j, second.j) == (0, 1)
    assert not np.array_equal(first.offsets, second.offsets)
    assert not np.array_equal(first.beta, second.beta)


def test_sample_block_internal_consistency():
    c = constants(m=20000)
    block = _block(c, CH, 7)
    assert len(block) == 20000
    clicked = np.zeros(len(block), dtype=bool)
    clicked[block.offsets] = True
    k = int(clicked.sum())
    assert k > 0
    # The offsets are the clicked rounds, ascending, each named once.
    assert np.array_equal(block.offsets, np.flatnonzero(clicked))
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
    clicked = np.isin(np.arange(len(block)), block.offsets)
    for idx, omega in enumerate(INTENSITIES):
        mask = omega_idx == idx
        share = mask.mean()
        sigma = math.sqrt(c.p_intensity[omega] * (1 - c.p_intensity[omega]) / len(block))
        assert abs(share - c.p_intensity[omega]) < 6 * sigma
        rate = clicked[mask].mean()
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
        block = sample_block(law, BlockStreams(1000 + j), j)
        combo = setting_index(block.omega_idx, block.alpha, block.a, block.beta)
        np.add.at(observed, (combo, block.cell), 1)
        omega_idx, alpha, a = block.alice_settings(np.setdiff1d(np.arange(c.m), block.offsets))
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
    block = sample_block(law, BlockStreams(9), 2)
    unclicked = np.setdiff1d(np.arange(c.m), block.offsets)
    named = np.sort(np.concatenate([block.offsets[:3], unclicked[[0, 5, 9]]]))
    first = block.alice_settings(named)
    again = sample_block(law, BlockStreams(9), 2).alice_settings(named)
    every = block.alice_settings(np.arange(c.m))
    for col, col2, full in zip(first, again, every):
        assert np.array_equal(col, col2)
        assert np.array_equal(col, full[named])
    pos = np.searchsorted(block.offsets, block.offsets[:3])
    clicked_part = np.isin(named, block.offsets)
    assert np.array_equal(first[0][clicked_part], block.omega_idx[pos])
    other_block = sample_block(law, BlockStreams(9), 3).alice_settings(np.arange(c.m))
    assert not all(np.array_equal(x, y) for x, y in zip(every, other_block))


REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = json.loads((REPO / "perfbench" / "workloads.json").read_text())
# The benchmark's four laws, and a small block in which the vacuum
# intensity never clicks (mu_V = 0 and no dark counts), so that the inner
# cut point of the intensity law given a click is exactly 1.0 and a block
# may have no click at all.
TWIN_LAWS = {
    name: (load_constants(spec["constants"]), load_channel(spec["channel"]))
    for name, spec in WORKLOADS.items()
} | {
    "never-clicks": (
        constants(m=200, mu={"S": 0.5, "D": 0.1, "V": 0.0}),
        ChannelModel(eta_ch=0.2, e_mis=0.03, p_dark=0.0, eta_det=0.4),
    ),
}


def test_never_clicking_intensity_puts_a_cut_point_at_one():
    law = click_law(*TWIN_LAWS["never-clicks"])
    assert law.omega_cuts_click[1] == 1.0
    assert law.omega_cuts_none[1] < 1.0


@pytest.mark.parametrize("name", sorted(TWIN_LAWS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), j=st.integers(0, 2**32 - 1), data=st.data())
def test_sampler_matches_choice_reference(name, seed, j, data):
    # The sampler draws the intensity against two stored cut points and
    # reads the cells from two flat tables; the reference draws with
    # Generator.choice and one (24, 2) table, on streams it builds from the
    # documented key and counter layout. Same streams, same columns.
    c, ch = TWIN_LAWS[name]
    block = sample_block(click_law(c, ch), BlockStreams(seed), j)
    twin = reference.sample_block(reference.choice_click_law(c, ch), seed, j)
    assert_same_block(block, twin)

    def some(rounds):
        """A few of ``rounds``, in ascending order."""
        if not len(rounds):
            return rounds
        picks = data.draw(st.sets(st.integers(0, len(rounds) - 1), max_size=6))
        return rounds[sorted(picks)]

    # Alice's settings on the clicked rounds, on some unclicked rounds, and
    # on a mix of the two.
    unclicked = np.setdiff1d(np.arange(len(twin)), twin.offsets)
    mixed = np.union1d(some(twin.offsets), some(unclicked))
    for offs in (twin.offsets, some(unclicked), mixed):
        for ours, theirs in zip(block.alice_settings(offs), twin.alice_settings(offs)):
            assert np.array_equal(ours, theirs)
