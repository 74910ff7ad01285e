import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dsbb84.gf2 import BitString
from reference import Gf2Matrix, bits as bits_of, word as word_of


def test_bitstring_construction_and_access():
    b = bits_of([1, 0, 1, 1, 0, 0, 1])
    assert len(b) == 7
    assert word_of(b) == 0b1001101
    assert b[0] == 1 and b[1] == 0 and b[-1] == 1
    assert list(b[2:5]) == [1, 1, 0]
    assert list(b) == [1, 0, 1, 1, 0, 0, 1]
    assert b.weight() == 4


def test_bitstring_rejects_bad_input():
    with pytest.raises(ValueError):
        BitString.from_int(0b100, 2)
    with pytest.raises(ValueError):
        BitString.from_int(-1, 4)
    with pytest.raises(IndexError):
        bits_of([1, 0])[2]


def test_bitstring_bytes_roundtrip_lsb_first():
    b = bits_of([1, 0, 0, 0, 0, 0, 0, 0, 1])
    data = b.to_bytes()
    assert data == bytes([0x01, 0x01])
    assert BitString.from_bytes(data, 9) == b
    with pytest.raises(ValueError):
        BitString.from_bytes(bytes([0x01, 0x02]), 9)
    with pytest.raises(ValueError):
        BitString.from_bytes(data, 17)


def test_bitstring_xor_and_concat():
    a = bits_of([1, 1, 0])
    b = bits_of([0, 1, 1])
    assert list(a ^ b) == [1, 0, 1]
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(ValueError):
        a ^ bits_of([1])


@given(st.binary(max_size=40), st.integers(min_value=0, max_value=7))
def test_bitstring_bytes_roundtrip_random(data, drop):
    n = max(len(data) * 8 - drop, 0)
    word = int.from_bytes(data, "little") & ((1 << n) - 1)
    b = BitString.from_int(word, n)
    assert BitString.from_bytes(b.to_bytes(), n) == b
    assert b.weight() == word.bit_count()


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
def test_bitstring_array_roundtrip(bits):
    b = bits_of(bits)
    arr = b.to_array()
    assert arr.dtype == np.uint8 and arr.tolist() == bits
    assert BitString.from_array(arr.astype(bool)) == b
    assert BitString.from_array(np.array(bits, dtype=np.int64)) == b


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.uint16])
def test_from_array_copies_once(dtype):
    # A value that is nonzero as uint8 is a 1: 256 wraps to 0, -1 to 255.
    values = np.array([0, 1, 2, 0, 255, 256, -1, 3, 0, 1] * 10_000)
    arr = (values != 0) if dtype is bool else values.astype(dtype)
    expected = (arr.astype(np.uint8) != 0).astype(np.uint8)
    kept = arr.copy()
    tracemalloc.start()
    try:
        b = BitString.from_array(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bits = b.to_array()
    assert bits.dtype == np.uint8 and np.array_equal(bits, expected)
    assert not bits.flags.writeable
    assert not np.shares_memory(bits, arr)
    assert np.array_equal(arr, kept) and arr.flags.writeable
    # One byte per bit is made, and nothing more.
    assert peak < 1.25 * len(arr)


@st.composite
def words(draw, max_bits=150):
    n = draw(st.integers(min_value=0, max_value=max_bits))
    return draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n


def model_bits(word, n):
    return [(word >> i) & 1 for i in range(n)]


@given(words(), words(), st.data())
def test_bitstring_matches_bigint_model(a, other, data):
    """Every operation agrees with the (word, length) big-int model."""
    word, n = a
    b = BitString.from_int(word, n)
    bits = model_bits(word, n)
    assert word_of(b) == word and len(b) == n
    assert list(b) == bits
    assert b.weight() == word.bit_count()
    assert b.to_bytes() == word.to_bytes((n + 7) // 8, "little")
    assert bits_of(bits) == BitString.from_array(np.array(bits)) == b
    assert repr(b).startswith(f"BitString({n} bits")
    if n:
        i = data.draw(st.integers(min_value=-n, max_value=n - 1))
        assert b[i] == bits[i]
    with pytest.raises(IndexError):
        b[n]

    start = data.draw(st.integers(min_value=-n - 2, max_value=n + 2))
    stop = data.draw(st.integers(min_value=-n - 2, max_value=n + 2))
    step = data.draw(st.sampled_from([None, 1, 2, 3, -1, -2]))
    piece = b[start:stop:step]
    assert list(piece) == bits[start:stop:step]
    assert word_of(piece) == sum(bit << i for i, bit in enumerate(bits[start:stop:step]))

    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert word_of(b ^ BitString.from_int(mask, n)) == word ^ mask
    assert b ^ BitString.zeros(n) == b

    other_word, other_n = other
    c = BitString.from_int(other_word, other_n)
    assert (b == c) == ((word, n) == (other_word, other_n))
    if b == c:
        assert hash(b) == hash(c)
    assert hash(b) == hash(BitString.from_bytes(b.to_bytes(), n))


@given(words(max_bits=80).filter(lambda a: a[1] % 8), st.data())
def test_bitstring_from_bytes_rejects_set_padding(a, data):
    word, n = a
    pad = data.draw(st.integers(min_value=n, max_value=8 * ((n + 7) // 8) - 1))
    raw = (word | (1 << pad)).to_bytes((n + 7) // 8, "little")
    with pytest.raises(ValueError):
        BitString.from_bytes(raw, n)


@given(words())
def test_bitstring_array_is_read_only(a):
    word, n = a
    b = BitString.from_int(word, n)
    arr = b.to_array()
    assert arr is b.to_array()
    for view in (arr, b[1:].to_array(), (b ^ b).to_array()):
        with pytest.raises(ValueError):
            view[...] = 1
    source = np.array(model_bits(word, n), dtype=np.uint8)
    copied = BitString.from_array(source)
    source[...] = 1
    assert word_of(copied) == word


def test_bitstring_from_array_takes_nonzero_as_one():
    assert list(BitString.from_array(np.array([0, 2, 255, 0]))) == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        BitString.from_array(np.array([[0, 1]]))


def test_matrix_from_dense_and_entry():
    m = Gf2Matrix.from_dense([[1, 0, 1], [0, 1, 1]])
    assert m.n_rows == 2 and m.n_cols == 3
    assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0 and m.entry(1, 2) == 1
    assert m.to_dense() == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(ValueError):
        Gf2Matrix.from_dense([[1, 0], [1]])
    with pytest.raises(ValueError):
        Gf2Matrix([0b100], 2)


def test_matrix_vector_product():
    m = Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
    x = bits_of([1, 0, 1])
    assert list(m.mul_vec(x)) == [1, 1, 0]
    with pytest.raises(ValueError):
        m.mul_vec(bits_of([1, 0]))


def test_rank_small_cases():
    assert Gf2Matrix.from_dense([[1, 0], [0, 1]]).rank() == 2
    assert Gf2Matrix.from_dense([[1, 1], [1, 1]]).rank() == 1
    assert Gf2Matrix([0, 0], 3).rank() == 0
