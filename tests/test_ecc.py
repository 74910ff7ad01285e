import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dsbb84.channel import StreamKey, generator
from dsbb84.ecc import (
    MAX_ITERATIONS,
    LdpcCode,
    code_for_seed,
    correct,
    syndrome_length,
)
from dsbb84.gf2 import BitString
from dsbb84.params import DomainError, entropy_h
from reference import Gf2Matrix, decode_syndrome as float64_decode
from reference import decode_syndrome_float32 as reference_decode


def random_key(n_bits, rng):
    word = int.from_bytes(rng.bytes((n_bits + 7) // 8), "little")
    return BitString.from_int(word & ((1 << n_bits) - 1), n_bits)


def flip_pattern(n_bits, rate, rng):
    flips = rng.random(n_bits) < rate
    word = int.from_bytes(np.packbits(flips, bitorder="little").tobytes(), "little")
    return BitString.from_int(word, n_bits)


def test_syndrome_length_rule():
    assert syndrome_length(1000, 0.5) == 1160
    assert syndrome_length(1000, 0.0) == 0
    assert syndrome_length(0, 0.1) == 0
    assert syndrome_length(9020, 0.01) == math.ceil(9020 * 1.16 * entropy_h(0.01))
    with pytest.raises(ValueError):
        syndrome_length(-1, 0.1)
    with pytest.raises(DomainError):
        syndrome_length(10, 1.2)


def test_code_is_deterministic_in_seed():
    a = LdpcCode(200, 40, seed=5)
    b = LdpcCode(200, 40, seed=5)
    c = LdpcCode(200, 40, seed=6)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_column_weight():
    for n_bits, n_rows, weight in ((400, 60, 3), (50, 2, 2)):
        code = LdpcCode(n_bits, n_rows, seed=11)
        assert code.rows.shape == (weight, n_bits)
        assert ((0 <= code.rows) & (code.rows < n_rows)).all()
        # The rows of one column are distinct, so no entry cancels.
        ordered = np.sort(code.rows, axis=0)
        assert (ordered[1:] != ordered[:-1]).all()


def dense_matrix(code):
    rows = [0] * code.n_rows
    for column_rows in code.rows.tolist():
        for c, r in enumerate(column_rows):
            rows[r] ^= 1 << c
    return Gf2Matrix(rows, code.n_bits)


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_sparse_syndrome_matches_dense_matrix(n_bits, n_rows, seed, rnd):
    code = LdpcCode(n_bits, n_rows, seed)
    x = BitString.from_int(rnd.getrandbits(n_bits), n_bits)
    assert code.syndrome(x) == dense_matrix(code).mul_vec(x)


def test_syndrome_is_linear():
    code = LdpcCode(120, 30, seed=2)
    rng = generator(8, 1)
    x = random_key(120, rng)
    y = random_key(120, rng)
    assert code.syndrome(x ^ y) == code.syndrome(x) ^ code.syndrome(y)


@pytest.mark.parametrize("n_bits,rate,actual", [
    (2000, 0.02, 0.01),
    (9000, 0.01, 0.005),
    (5000, 0.05, 0.03),
])
def test_decode_recovers_typical_errors(n_bits, rate, actual):
    rng = generator(31, n_bits)
    code = LdpcCode(n_bits, syndrome_length(n_bits, rate), seed=77)
    x_alice = random_key(n_bits, rng)
    x_bob = x_alice ^ flip_pattern(n_bits, actual, rng)
    corrected, converged, iters = correct(
        x_bob, code.syndrome(x_alice), code, rate
    )
    assert converged and 1 <= iters <= 60
    assert corrected == x_alice


def test_decode_zero_errors_is_immediate():
    code = LdpcCode(500, 100, seed=3)
    rng = generator(4, 0)
    x = random_key(500, rng)
    corrected, converged, iters = correct(x, code.syndrome(x), code, 0.02)
    assert converged and iters == 1
    assert corrected == x


def test_overwhelmed_decode_reports_failure():
    # Far more errors than the code is provisioned for: propagation stalls
    # and returns its last estimate, flagged unconverged, leaving the
    # verification hash to turn the mismatch into an abort.
    n_bits = 600
    code = LdpcCode(n_bits, syndrome_length(n_bits, 0.01), seed=13)
    rng = generator(99, 0)
    x_alice = random_key(n_bits, rng)
    x_bob = x_alice ^ flip_pattern(n_bits, 0.25, rng)
    target = code.syndrome(x_alice)
    corrected, converged, iters = correct(x_bob, target, code, 0.01)
    assert not converged and iters == MAX_ITERATIONS
    assert corrected != x_alice
    assert code.syndrome(corrected) != target


def test_decode_with_empty_last_row():
    # At 1.16 rows per bit some rows get no entries; an empty last row
    # must not break the per-row products of propagation.
    n_bits = 200
    code = LdpcCode(n_bits, syndrome_length(n_bits, 0.5), seed=3)
    assert not (code.rows == code.n_rows - 1).any()
    rng = generator(5, 0)
    x_alice = random_key(n_bits, rng)
    x_bob = x_alice ^ flip_pattern(n_bits, 0.01, rng)
    corrected, converged, _ = correct(x_bob, code.syndrome(x_alice), code, 0.05)
    assert converged and corrected == x_alice


def test_decode_syndrome_validates_length():
    code = LdpcCode(100, 20, seed=1)
    with pytest.raises(ValueError):
        code.decode_syndrome(BitString.zeros(19), 0.02)
    with pytest.raises(ValueError):
        code.syndrome(BitString.zeros(99))


def test_dimension_validation():
    with pytest.raises(ValueError):
        LdpcCode(0, 5, seed=1)
    with pytest.raises(ValueError):
        LdpcCode(5, 0, seed=1)


def test_decoder_beyond_16_bit_rows_matches_reference_decoder():
    # More rows than 16 bits index, and more rows than edges, so many rows
    # are empty, the last one among them; no edge may read their products.
    n_bits, n_rows = 20_000, 70_000
    code = LdpcCode(n_bits, n_rows, seed=21)
    hit = np.bincount(code.rows.ravel(), minlength=n_rows) > 0
    assert not hit[-1] and (~hit[:-1]).sum() > 10_000
    errors = BitString.from_array(generator(21, 0xE7).random(n_bits) < 0.2)
    target = code.syndrome(errors)
    estimate, converged, iterations = code.decode_syndrome(target, 0.2)
    assert converged and iterations > 1
    assert (estimate, converged, iterations) == reference_decode(code, target, 0.2)


def test_decoder_messages_are_float32(monkeypatch):
    seen = []
    for name in ("tanh", "arctanh"):
        real = getattr(np, name)

        def spy(x, out=None, _real=real):
            seen.append((x.dtype, out.dtype))
            return _real(x, out=out)

        monkeypatch.setattr(np, name, spy)
    code = LdpcCode(600, syndrome_length(600, 0.01), seed=13)
    rng = generator(99, 0)
    code.decode_syndrome(code.syndrome(flip_pattern(600, 0.25, rng)), 0.01)
    assert len(seen) == 2 * MAX_ITERATIONS
    assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}


@pytest.mark.parametrize("q", [0.004, 0.006])
def test_single_precision_fails_no_more_decodes(q):
    # Correctness rests on the verification hash, so the decoder's
    # precision may only cost decodes; here it may not cost any.
    n_bits, e_bit_assumed = 9000, 0.01
    failed32 = failed64 = 0
    for seed in range(40):
        code = LdpcCode(n_bits, syndrome_length(n_bits, e_bit_assumed), seed)
        errors = BitString.from_array(generator(seed, 0xE7).random(n_bits) < q)
        target = code.syndrome(errors)
        estimate, converged, _ = code.decode_syndrome(target, e_bit_assumed)
        failed32 += not (converged and estimate == errors)
        estimate, converged, _ = float64_decode(code, target, e_bit_assumed)
        failed64 += not (converged and estimate == errors)
    assert failed32 <= failed64


@st.composite
def decode_cases(draw):
    n_bits = draw(st.integers(min_value=1, max_value=300))
    # One and two rows give weight-1 and weight-2 codes; more rows than
    # three per bit leave some rows, often the last, empty.
    n_rows = draw(
        st.one_of(
            st.sampled_from([1, 2, 3]),
            st.integers(min_value=1, max_value=120),
            st.integers(min_value=3 * n_bits, max_value=3 * n_bits + 40),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    # From clean up to error rates no code at these rates decodes.
    rate = draw(st.sampled_from([0.0, 0.005, 0.02, 0.08, 0.25, 0.5]))
    crossover = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5]))
    state = draw(st.integers(min_value=0, max_value=2**32 - 1))
    # Half the targets are syndromes of an error pattern; the others are
    # arbitrary, possibly with a 1 on an empty row that no estimate meets.
    from_pattern = draw(st.booleans())
    return n_bits, n_rows, seed, rate, crossover, state, from_pattern


@settings(deadline=None)
@example((200, syndrome_length(200, 0.5), 3, 0.01, 0.05, 5, True))
@example((600, syndrome_length(600, 0.01), 13, 0.25, 0.01, 99, True))
# Stalled decodes whose last estimate changes when the row products are
# taken in descending edge order: the twin pins the order, not only the
# algebra.
@example((114, 100, 1721626191, 0.25, 0.01, 1028083929, True))
@example((60, 91, 4046344998, 0.0, 0.01, 2733801964, False))
@given(decode_cases())
def test_decoder_matches_reference_decoder(case):
    n_bits, n_rows, seed, rate, crossover, state, from_pattern = case
    code = LdpcCode(n_bits, n_rows, seed)
    rng = np.random.default_rng(state)
    if from_pattern:
        target = code.syndrome(BitString.from_array(rng.random(n_bits) < rate))
    else:
        target = BitString.from_array(rng.random(n_rows) < 0.5)
    estimate, converged, iterations = code.decode_syndrome(target, crossover)
    assert (estimate, converged, iterations) == reference_decode(
        code, target, crossover
    )
    if converged:
        assert code.syndrome(estimate) == target


def test_code_for_seed_keeps_the_last_code_built():
    code_for_seed.cache_clear()
    try:
        code = code_for_seed(300, 60, 5)
        assert code_for_seed(300, 60, 5) is code
        assert np.array_equal(code.rows, LdpcCode(300, 60, seed=5).rows)
        assert not code.rows.flags.writeable
        for key in ((300, 60, 6), (300, 61, 5), (301, 60, 5)):
            other = code_for_seed(*key)
            assert (other.n_bits, other.n_rows) == key[:2]
            assert not np.array_equal(other.rows[:, :300], code.rows)
        assert code_for_seed(300, 60, 5) is not code
        assert code_for_seed.cache_info().currsize == 1
    finally:
        code_for_seed.cache_clear()


@pytest.mark.parametrize("n_bits,n_rows,seed", [
    (1, 1, 0), (7, 2, 1), (50, 3, 2), (600, 100, 3), (245_841, 32_101, 7),
    # More rows than int32 holds: the code is only built, since a decode
    # would allocate an 8 GB row product.
    (1, 2**31 + 1, 0),
])
def test_code_rows_are_the_int64_draw(n_bits, n_rows, seed):
    # The rows as first drawn: int64 draws bumped past the rows already
    # chosen. The intp draw the build makes must take the same values.
    rng = generator(seed, StreamKey.LDPC)
    weight = min(3, n_rows)
    first = rng.integers(0, n_rows, size=n_bits)
    expected = [first]
    if weight >= 2:
        second = rng.integers(0, n_rows - 1, size=n_bits)
        second += second >= first
        expected.append(second)
    if weight >= 3:
        third = rng.integers(0, n_rows - 2, size=n_bits)
        third += third >= np.minimum(first, second)
        third += third >= np.maximum(first, second)
        expected.append(third)
    rows = LdpcCode(n_bits, n_rows, seed).rows
    assert rows.dtype == np.intp and not rows.flags.writeable
    assert np.array_equal(rows, np.array(expected))
