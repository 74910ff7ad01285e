import copy
import dataclasses
import json
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from dsbb84.params import (
    INTENSITIES,
    ConfigurationError,
    DomainError,
    ProtocolConstants,
    entropy_h,
    load_constants,
    poisson_pcs,
)
from reference import p_int_cond, p_int_joint
from scenarios import CONFIGS


def good_config(**overrides):
    """The shipped fiber constants on blocks of 1000 rounds, with
    ``overrides``, as the mapping a config file holds."""
    fiber = json.loads((CONFIGS / "fiber_constants.json").read_text(encoding="utf-8"))
    return {**fiber, "m": 1000, **overrides}


# Frozen with an independent 50-digit evaluation of the closed forms.
POISSON_ORACLE = [
    (0.5, 0, 0.60653065971263342),
    (0.5, 3, 0.012636055410679863),
    (0.1, 1, 0.090483741803595962),
    (2.0, 40, 1.8237520563982821e-37),
    (0.001, 2, 4.9950024991668752e-07),
]

ENTROPY_ORACLE = [
    (0.05, 0.28639695711595613),
    (0.11, 0.499915958164528),
    (0.25, 0.81127812445913286),
    (0.5, 1.0),
]


def test_poisson_frozen_values():
    for mu, n, expected in POISSON_ORACLE:
        assert poisson_pcs(mu, n) == pytest.approx(expected, rel=1e-13)


def test_poisson_zero_intensity_is_vacuum():
    assert poisson_pcs(0.0, 0) == 1.0
    assert poisson_pcs(0.0, 1) == 0.0
    assert poisson_pcs(0.0, 17) == 0.0


def test_poisson_domain_errors():
    with pytest.raises(DomainError):
        poisson_pcs(-0.1, 0)
    with pytest.raises(DomainError):
        poisson_pcs(0.5, -1)


def test_poisson_branches_agree_at_crossover():
    # n = 20 uses the direct product, n = 21 the log-space form; both
    # should sit on the same smooth curve.
    for mu in (0.3, 1.0, 5.0):
        direct = poisson_pcs(mu, 20)
        ratio = poisson_pcs(mu, 21) / direct
        assert ratio == pytest.approx(mu / 21.0, rel=1e-10)


@given(st.floats(min_value=1e-6, max_value=50.0))
def test_poisson_mass_above_cutoff_is_negligible(mu):
    n_max = math.ceil(mu + 12.0 * math.sqrt(mu) + 30.0)
    mass = math.fsum(poisson_pcs(mu, n) for n in range(n_max + 1))
    assert mass >= 1.0 - 1e-12


def test_entropy_frozen_values():
    for x, expected in ENTROPY_ORACLE:
        assert entropy_h(x) == pytest.approx(expected, rel=1e-13)


def test_entropy_edges_and_clamp():
    assert entropy_h(0.0) == 0.0
    assert entropy_h(0.5) == 1.0
    assert entropy_h(0.7) == 1.0
    assert entropy_h(1.0) == 1.0
    with pytest.raises(DomainError):
        entropy_h(-0.01)
    with pytest.raises(DomainError):
        entropy_h(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_range(x):
    assert 0.0 <= entropy_h(x) <= 1.0


@given(st.floats(min_value=1e-9, max_value=0.5), st.floats(min_value=0.0, max_value=1.0))
def test_entropy_monotone_below_half(x, frac):
    y = x * frac
    assert entropy_h(y) <= entropy_h(x) + 1e-15


def test_constants_accepts_good_config():
    c = ProtocolConstants(**good_config())
    assert c.n_total == 10_000


def test_constants_explicit_total_checked():
    c = load_constants(good_config(n_total=10_000))
    assert c.n_total == 10_000
    with pytest.raises(ConfigurationError):
        load_constants(good_config(n_total=9_999))


@pytest.mark.parametrize("total", [10_000.0, True, "10000", 0])
def test_load_constants_refuses_a_total_that_is_not_the_integer_product(total):
    with pytest.raises(ConfigurationError, match="n_total"):
        load_constants(good_config(n_total=total))


def test_total_is_derived_not_a_field():
    c = ProtocolConstants(**good_config())
    assert "n_total" not in {f.name for f in dataclasses.fields(c)}
    assert c.as_dict()["n_total"] == c.n_block * c.m == 10_000


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_block=0),
        dict(m=0),
        dict(p_intensity={"S": 0.7, "D": 0.3}),
        dict(p_intensity={"S": 0.7, "D": 0.2, "V": 0.2}),
        dict(p_intensity={"S": 0.8, "D": 0.2, "V": 0.0}),
        dict(mu={"S": 0.1, "D": 0.1, "V": 0.0}),
        dict(mu={"S": 0.5, "D": 0.0, "V": 0.0}),
        dict(mu={"S": 0.5, "D": 0.1, "V": -0.1}),
        dict(p_basis_alice=0.0),
        dict(p_basis_bob=1.0),
        dict(n_verify=-1),
        dict(n_verify=0),
        dict(e_bit_assumed=0.6),
        dict(eps_secrecy=0.0),
        dict(eps_secrecy=1.0),
        dict(p_basis_alice="0.5"),
        dict(p_intensity={"S": "0.7", "D": 0.2, "V": 0.1}),
        dict(mu={"S": "abc", "D": 0.1, "V": 0.0}),
        dict(eps_secrecy=None),
        dict(e_bit_assumed=True),
        dict(p_basis_bob=float("nan")),
        dict(mu=[0.5, 0.1, 0.0]),
    ],
)
def test_constants_rejects_bad_config(overrides):
    with pytest.raises(ConfigurationError):
        ProtocolConstants(**good_config(**overrides))


def test_constants_tables_stay_as_validated():
    # Both tables are read-only copies: neither a write through the
    # constants nor one to the caller's dict changes what was validated,
    # and a replaced table is validated again.
    mu = {"S": 0.5, "D": 0.1, "V": 0.001}
    c = ProtocolConstants(**good_config(mu=mu))
    with pytest.raises(TypeError):
        c.mu["V"] = 0.9
    with pytest.raises(TypeError):
        c.p_intensity["S"] = 5.0
    mu["V"] = 0.9
    assert c == ProtocolConstants(**good_config())
    with pytest.raises(ConfigurationError, match="mu_S > mu_D > mu_V"):
        dataclasses.replace(c, mu={**c.mu, "V": 0.2})
    vacuum = dataclasses.replace(c, mu={**c.mu, "V": 0.0})
    assert dict(vacuum.mu) == {"S": 0.5, "D": 0.1, "V": 0.0}
    assert c.as_dict()["mu"] == {"S": 0.5, "D": 0.1, "V": 0.001}
    for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert copied == c
        with pytest.raises(TypeError):
            copied.mu["V"] = 0.9


def test_load_constants_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "c.json"
    cfg = good_config()
    cfg["surprise"] = 1
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigurationError, match="unknown"):
        load_constants(path)
    cfg = good_config()
    del cfg["n_verify"]
    with pytest.raises(ConfigurationError, match="missing"):
        load_constants(cfg)


def test_load_constants_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(good_config()))
    c = load_constants(path)
    assert c == ProtocolConstants(**good_config())


def test_joint_and_conditional_tables():
    c = ProtocolConstants(**good_config())
    for n in (0, 1, 2, 7):
        total = sum(p_int_cond(c, w, n) for w in INTENSITIES)
        assert total == pytest.approx(1.0, abs=1e-12)
        for w in INTENSITIES:
            assert p_int_joint(c, w, n) == pytest.approx(
                c.p_intensity[w] * poisson_pcs(c.mu[w], n), rel=1e-14
            )
    with pytest.raises(DomainError):
        p_int_joint(c, "Q", 0)
