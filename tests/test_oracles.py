import dataclasses

import numpy as np
import pytest

from dsbb84.channel import (
    SETTINGS,
    BlockStreams,
    ChannelModel,
    StreamKey,
    click_law,
    click_probabilities,
    sample_block,
    setting_index,
)
from dsbb84.oracles import kato_tail_mc
from dsbb84.params import (
    THETA,
    DomainError,
    ProtocolConstants,
    poisson_pcs,
)
from reference import (
    FOCK_MAX_PHOTONS,
    GroundTruthRun,
    chi2_statistic,
    chi2_upper,
    clicked_photon_numbers,
    fock_click_oracle,
    ground_truth_runs,
    photon_posterior,
    verification_mc,
)

DEMO = ProtocolConstants(
    n_block=50,
    m=100000,
    p_intensity={"S": 0.4, "D": 0.5, "V": 0.1},
    mu={"S": 0.6, "D": 0.2, "V": 0.0},
    p_basis_alice=0.7,
    p_basis_bob=0.7,
    n_verify=64,
    e_bit_assumed=0.015,
    eps_secrecy=1e-9,
)
DEMO_CHANNEL = ChannelModel(eta_ch=0.5, e_mis=0.005, p_dark=1e-6, eta_det=0.3)

LOSSY = ProtocolConstants(
    n_block=10,
    m=100000,
    p_intensity={"S": 0.7, "D": 0.2, "V": 0.1},
    mu={"S": 0.5, "D": 0.1, "V": 0.001},
    p_basis_alice=0.8,
    p_basis_bob=0.8,
    n_verify=32,
    e_bit_assumed=0.03,
    eps_secrecy=1e-6,
)
FIBER = ChannelModel(
    loss_db_per_km=0.2, distance_km=100.0, e_mis=0.01, p_dark=1e-6, eta_det=0.2
)


def test_tail_mc_rates_stay_under_budget():
    result = kato_tail_mc(n=10000, q=0.3, eps=1e-2, trials=20000, seed=5)
    assert result.trials == 20000
    assert result.forward_rate <= 1e-2
    assert result.reverse_rate <= 1e-2
    assert result.forward_violations > 0 or result.reverse_violations >= 0


def test_tail_mc_is_deterministic():
    a = kato_tail_mc(n=5000, q=0.2, eps=1e-2, trials=5000, seed=9)
    b = kato_tail_mc(n=5000, q=0.2, eps=1e-2, trials=5000, seed=9)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_tail_mc_validates_q():
    with pytest.raises(ValueError):
        kato_tail_mc(n=100, q=0.0, eps=1e-2, trials=10, seed=1)
    with pytest.raises(ValueError):
        kato_tail_mc(n=100, q=1.0, eps=1e-2, trials=10, seed=1)


def test_ground_truth_nonvacuous_coverage():
    (run,) = ground_truth_runs(DEMO, DEMO_CHANNEL, [3])
    assert not run.abort
    assert run.n1z_floor > 0
    assert run.n1z_floor <= run.n1z_true
    assert run.nph_true <= run.nph_ceil
    assert run.covered


def test_ground_truth_abort_counts_as_covered():
    (run,) = ground_truth_runs(LOSSY, FIBER, [3])
    assert run.abort
    assert run.covered
    assert run.n1z_floor == 0


def test_ground_truth_is_deterministic():
    a, b = ground_truth_runs(LOSSY, FIBER, [12, 12])
    assert a == b
    assert isinstance(a, GroundTruthRun)
    # A run depends on its own seed only, not on the seeds batched with it.
    assert ground_truth_runs(LOSSY, FIBER, [5, 12])[1] == a


def test_verification_attack_rate():
    attack = verification_mc(n_bits=64, n_verify=6, trials=20000, seed=9)
    assert attack.bound == pytest.approx(2**-6)
    assert attack.rate <= 1.5 * attack.bound
    assert attack.false_accepts > 0


def test_verification_attack_never_accepts_at_long_digests():
    attack = verification_mc(n_bits=48, n_verify=32, trials=200, seed=2)
    assert attack.false_accepts == 0


def test_photon_posterior_truncation_is_stated():
    _, truncated = photon_posterior(LOSSY, FIBER)
    assert 0.0 <= truncated < 1e-10
    _, truncated = photon_posterior(DEMO, DEMO_CHANNEL)
    assert 0.0 <= truncated < 1e-10


def test_ground_truth_refuses_heavy_truncation():
    bright = dataclasses.replace(LOSSY, mu={"S": 3.0, "D": 0.1, "V": 0.001})
    with pytest.raises(DomainError):
        ground_truth_runs(bright, FIBER, [1])


def test_clicked_photon_numbers_follow_the_fock_posterior():
    # Expected counts of n = 0, 1, 2, 3 and >= 4 per intensity, summed over
    # the clicked rounds of 20 blocks with each round's own posterior,
    # Poisson(n; mu) * fock_click_oracle(n)[cell] / click_probabilities[cell].
    c = dataclasses.replace(
        DEMO, n_block=20, m=20000, mu={"S": 1.2, "D": 0.6, "V": 0.05}
    )
    law = click_law(c, DEMO_CHANNEL)
    cdf, _ = photon_posterior(c, DEMO_CHANNEL)
    posterior = np.zeros((24, 3, 5))
    for row, (omega, alpha, a_bit, beta) in enumerate(SETTINGS):
        closed = click_probabilities(c, DEMO_CHANNEL, omega, alpha, a_bit, beta)
        for n in range(FOCK_MAX_PHOTONS + 1):
            cells = fock_click_oracle(n, DEMO_CHANNEL, THETA[(a_bit, alpha)], beta)
            for cell in range(3):
                if closed[cell] > 0.0:
                    posterior[row, cell, min(n, 4)] += (
                        poisson_pcs(c.mu[omega], n) * cells[cell] / closed[cell]
                    )
    observed = np.zeros((3, 5))
    expected = np.zeros((3, 5))
    streams = BlockStreams(77)
    for j in range(c.n_block):
        block = sample_block(law, streams, j)
        n = clicked_photon_numbers(cdf, block, streams(StreamKey.GROUND_TRUTH, j))
        combo = setting_index(block.omega_idx, block.alpha, block.a, block.beta)
        np.add.at(observed, (block.omega_idx, np.minimum(n, 4)), 1)
        np.add.at(expected, block.omega_idx, posterior[combo, block.cell])
    assert observed.sum() > 10000
    stat, df = chi2_statistic(observed, expected)
    assert df >= 8
    assert stat < chi2_upper(df)
