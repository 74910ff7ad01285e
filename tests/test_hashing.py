"""Hash family checks, including the exhaustive universality sweeps.

The small-parameter sweeps enumerate every seed of the family, so the
collision fractions here are exact statements about the construction, not
estimates.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsbb84 import hashing
from dsbb84.gf2 import BitString
from dsbb84.hashing import (
    PA_LABEL,
    VERIFY_LABEL,
    ModifiedToeplitz,
    expand_seed,
    toeplitz_for_seed,
)
from reference import bits as bits_of, toeplitz_matrix, word

# Frozen output of expand_seed(7, b"t", 16); pins the byte layout of the
# counter-mode expansion so a refactor cannot silently reshuffle seeds.
EXPAND_ORACLE = [0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0]


def bigint_apply(diagonals: BitString, n_in: int, n_out: int, x: BitString):
    """Row-by-row reference for ``ModifiedToeplitz.apply``.

    Row r of T in ascending column order is the reversed window
    d[r + w - 1] .. d[r]; with the diagonal word bit-reversed that window
    becomes a plain shift-and-mask per row. O(n_out * n_in / 64).
    """
    w = n_in - n_out
    n_d = len(diagonals)
    rev = int(format(word(diagonals), f"0{n_d}b")[::-1], 2) if n_d else 0
    mask = (1 << w) - 1
    left = word(x) & mask
    right = word(x) >> w
    out = 0
    for r in range(n_out):
        row = (rev >> (n_out - 1 - r)) & mask
        out |= (((row & left).bit_count() & 1) ^ ((right >> r) & 1)) << r
    return BitString.from_int(out, n_out)


def test_expand_seed_frozen():
    assert list(expand_seed(7, b"t", 16)) == EXPAND_ORACLE


def test_expand_seed_properties():
    a = expand_seed(1, b"x", 300)
    assert len(a) == 300
    assert a == expand_seed(1, b"x", 300)
    assert a != expand_seed(2, b"x", 300)
    assert a != expand_seed(1, b"y", 300)
    assert a[:256] == expand_seed(1, b"x", 256)
    assert len(expand_seed(1, b"x", 0)) == 0
    with pytest.raises(ValueError):
        expand_seed(-1, b"x", 8)
    with pytest.raises(ValueError):
        expand_seed(2**64, b"x", 8)


def test_toeplitz_matrix_structure():
    n, m = 10, 4
    d = expand_seed(9, b"t", n - 1)
    mat = toeplitz_matrix(d, n, m)
    w = n - m
    for r in range(m):
        for c in range(w):
            assert mat.entry(r, c) == d[r - c + w - 1]
        for c in range(w, n):
            assert mat.entry(r, c) == (1 if c - w == r else 0)


def test_toeplitz_validation():
    d9 = expand_seed(1, b"t", 9)
    with pytest.raises(ValueError):
        ModifiedToeplitz(d9, 10, 11)
    with pytest.raises(ValueError):
        ModifiedToeplitz(d9, 11, 4)
    with pytest.raises(ValueError):
        ModifiedToeplitz(d9, 10, 4).apply(BitString.zeros(9))


@given(st.integers(min_value=0, max_value=2**30 - 1))
def test_apply_matches_matrix(state):
    rng = random.Random(state)
    n = rng.randint(1, 24)
    m = rng.randint(0, n)
    d = BitString.from_int(rng.getrandbits(max(n - 1, 0)), max(n - 1, 0))
    mt = ModifiedToeplitz(d, n, m)
    x = BitString.from_int(rng.getrandbits(n), n)
    assert mt.apply(x) == toeplitz_matrix(d, n, m).mul_vec(x)


@st.composite
def mid_shapes(draw):
    n_in = draw(st.integers(min_value=1, max_value=4000))
    n_out = draw(
        st.one_of(
            st.sampled_from([0, 1, n_in - 1, n_in]),
            st.integers(min_value=0, max_value=n_in),
        )
    )
    return n_in, n_out, draw(st.integers(min_value=0, max_value=2**30 - 1))


@settings(deadline=None)
@given(mid_shapes())
def test_apply_matches_bigint_oracle_mid_sizes(shape):
    n_in, n_out, state = shape
    rng = random.Random(state)
    n_d = n_in - 1
    d = BitString.from_int(rng.getrandbits(n_d), n_d)
    x = BitString.from_int(rng.getrandbits(n_in), n_in)
    assert ModifiedToeplitz(d, n_in, n_out).apply(x) == bigint_apply(
        d, n_in, n_out, x
    )


def test_apply_matches_bigint_oracle_at_demo_size():
    n_in, n_out = 61_700, 8_800
    d = expand_seed(11, b"t", n_in - 1)
    x = expand_seed(12, b"x", n_in)
    assert ModifiedToeplitz(d, n_in, n_out).apply(x) == bigint_apply(
        d, n_in, n_out, x
    )


@st.composite
def cutover_shapes(draw):
    """Shapes on both sides of the direct/FFT cutover, and right at it."""
    # From about 1,330 input bits up, the middle n_out go to the FFT.
    n_in = draw(st.integers(min_value=1400, max_value=4000))
    edge = max(n for n in range(n_in // 2 + 1) if not hashing._uses_fft(n_in, n))
    n_out = draw(st.integers(min_value=edge - 3, max_value=edge + 4))
    return n_in, n_out, edge, draw(st.integers(0, 2**30 - 1))


@settings(deadline=None)
@given(cutover_shapes())
def test_apply_matches_bigint_oracle_across_cutover(shape):
    n_in, n_out, edge, state = shape
    assert hashing._uses_fft(n_in, n_out) == (n_out > edge)
    rng = random.Random(state)
    d = BitString.from_int(rng.getrandbits(n_in - 1), n_in - 1)
    x = BitString.from_int(rng.getrandbits(n_in), n_in)
    assert ModifiedToeplitz(d, n_in, n_out).apply(x) == bigint_apply(
        d, n_in, n_out, x
    )


@pytest.mark.parametrize("n_in,n_out", [
    (245_841, 64),  # the demo-x4 verification digest
    (9000, 21),  # an output length that is not a multiple of 8
    (1000, 13),
    (200, 150),  # n_out >= w
    (40, 33),  # w < 8
    (9, 2),
    (2, 1),
])
def test_direct_parity_matches_bigint_oracle(n_in, n_out):
    assert not hashing._uses_fft(n_in, n_out)
    for seed in range(3):
        d = expand_seed(seed, b"t", n_in - 1)
        x = expand_seed(seed, b"x", n_in)
        assert ModifiedToeplitz(d, n_in, n_out).apply(x) == bigint_apply(
            d, n_in, n_out, x
        )


def test_direct_parity_calls_no_float_product(monkeypatch):
    n_in, n_out = 245_841, 64
    d = expand_seed(5, b"t", n_in - 1)
    x = expand_seed(6, b"x", n_in)
    expected = bigint_apply(d, n_in, n_out, x)

    def refuse(*args, **kwargs):
        raise AssertionError("the direct path took a float product")

    for name in ("convolve", "correlate", "dot"):
        monkeypatch.setattr(np, name, refuse)
    assert ModifiedToeplitz(d, n_in, n_out).apply(x) == expected


def test_digests_are_summed_directly_and_keys_by_fft():
    # The verification digest and the final key of clean-short and demo-x4.
    assert not hashing._uses_fft(9000, 16)
    assert not hashing._uses_fft(245_841, 64)
    assert hashing._uses_fft(9000, 622)
    assert hashing._uses_fft(245_841, 73_770)


def test_fft_length_is_the_least_5_smooth_length():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 3000):
        length = hashing._fft_length(n)
        assert length >= n and smooth(length)
        assert not any(smooth(k) for k in range(n, length))
    assert hashing._fft_length(245_840) == 248_832


def test_apply_raises_when_convolution_is_inexact(monkeypatch):
    calls = []
    real_irfft = hashing.irfft

    def off_by_half(*args):
        calls.append(args)
        return real_irfft(*args) + 0.5

    monkeypatch.setattr(hashing, "irfft", off_by_half)
    n_in, n_out = 4000, 2000
    assert hashing._uses_fft(n_in, n_out)
    mt = ModifiedToeplitz(expand_seed(3, b"t", n_in - 1), n_in, n_out)
    with pytest.raises(FloatingPointError):
        mt.apply(expand_seed(4, b"x", n_in))
    assert len(calls) == 1


def test_stored_spectrum_carries_no_state():
    n_in, n_out = 4000, 2000
    assert hashing._uses_fft(n_in, n_out)
    d = expand_seed(21, b"t", n_in - 1)
    mt = ModifiedToeplitz(d, n_in, n_out)
    spectrum = mt._spectrum
    assert not spectrum.flags.writeable
    before = spectrum.copy()
    x1, x2 = expand_seed(22, b"x", n_in), expand_seed(23, b"x", n_in)
    for x in (x1, x2, x1):
        assert mt.apply(x) == bigint_apply(d, n_in, n_out, x)
    assert mt._spectrum is spectrum and np.array_equal(spectrum, before)


def test_toeplitz_for_seed_builds_the_member_of_its_key(monkeypatch):
    expansions = []
    real_expand = hashing.expand_seed

    def counting(seed, label, n_bits):
        expansions.append((label, seed, n_bits))
        return real_expand(seed, label, n_bits)

    monkeypatch.setattr(hashing, "expand_seed", counting)
    x = expand_seed(8, b"x", 3000)
    key = toeplitz_for_seed(PA_LABEL, 9, 3000, 700).apply(x)
    assert expansions == [(PA_LABEL, 9, 2999)]
    # Any change of label, seed or shape is another member.
    assert toeplitz_for_seed(VERIFY_LABEL, 9, 3000, 700).apply(x) != key
    assert toeplitz_for_seed(PA_LABEL, 10, 3000, 700).apply(x) != key
    assert toeplitz_for_seed(PA_LABEL, 9, 3000, 699).apply(x) != key[:699]
    # A plain builder: every call expands its seed again.
    assert toeplitz_for_seed(PA_LABEL, 9, 3000, 700).apply(x) == key
    assert len(expansions) == 5
    d = real_expand(9, b"pa", 2999)
    assert key == ModifiedToeplitz(d, 3000, 700).apply(x)


def test_linear_in_input():
    n, m = 20, 6
    d = expand_seed(4, b"t", n - 1)
    mt = ModifiedToeplitz(d, n, m)
    rng = random.Random(0)
    for _ in range(50):
        x = BitString.from_int(rng.getrandbits(n), n)
        y = BitString.from_int(rng.getrandbits(n), n)
        assert mt.apply(x ^ y) == mt.apply(x) ^ mt.apply(y)


def test_exhaustive_two_universality():
    # Over all 2^(n-1) family members, every nonzero input must hash to
    # zero for at most a 2^-m fraction; linearity turns pair collisions
    # into exactly this statement.
    n, m = 10, 4
    bound = 2 ** (n - 1 - m)
    for zw in range(1, 1 << n):
        z = BitString.from_int(zw, n)
        collisions = 0
        for dw in range(1 << (n - 1)):
            d = BitString.from_int(dw, n - 1)
            if word(ModifiedToeplitz(d, n, m).apply(z)) == 0:
                collisions += 1
        assert collisions <= bound, f"input {zw:#x} collides too often"


def test_exhaustive_surjectivity():
    n, m = 8, 3
    for dw in (0, 17, 93, 127):
        mt = ModifiedToeplitz(BitString.from_int(dw, n - 1), n, m)
        images = {word(mt.apply(BitString.from_int(xw, n))) for xw in range(1 << n)}
        assert len(images) == 1 << m


def test_toeplitz_for_seed_labels_and_edges():
    def digest(x, seed, n_out, label):
        return toeplitz_for_seed(label, seed, len(x), n_out).apply(x)

    x = BitString.from_int(0b1011011101, 10)
    assert VERIFY_LABEL == b"verify" and PA_LABEL == b"pa"
    assert digest(x, 42, 4, VERIFY_LABEL) != digest(x, 42, 4, PA_LABEL)
    assert len(digest(x, 1, 0, PA_LABEL)) == 0
    assert len(digest(bits_of([1]), 3, 1, VERIFY_LABEL)) == 1
    single = bits_of([1])
    assert digest(single, 5, 1, PA_LABEL) == single
