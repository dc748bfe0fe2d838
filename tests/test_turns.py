import numpy as np
import pytest

from phaseagg import turns


def test_add_sub_are_exact_group_ops():
    a, b = 2**31 + 123, 2**31 + 456
    assert turns.add(a, b) == (a + b) % turns.MODULUS
    assert turns.sub(a, b) == (a - b) % turns.MODULUS
    assert turns.sub(b, a) == (b - a) % turns.MODULUS
    assert turns.add(turns.MODULUS - 1, 1) == 0


def test_sub_then_add_roundtrips():
    gen = np.random.default_rng(0)
    for _ in range(200):
        a = int(gen.integers(0, turns.MODULUS))
        b = int(gen.integers(0, turns.MODULUS))
        assert turns.add(turns.sub(a, b), b) == a


def test_vector_ops_match_scalar():
    gen = np.random.default_rng(1)
    a = gen.integers(0, turns.MODULUS, size=50, dtype=np.uint64)
    b = gen.integers(0, turns.MODULUS, size=50, dtype=np.uint64)
    added = turns.add(a, b)
    subbed = turns.sub(a, b)
    for i in range(50):
        assert int(added[i]) == turns.add(int(a[i]), int(b[i]))
        assert int(subbed[i]) == turns.sub(int(a[i]), int(b[i]))


def test_total_matches_python_sum():
    gen = np.random.default_rng(2)
    values = [int(v) for v in gen.integers(0, turns.MODULUS, size=100)]
    assert turns.total(values) == sum(values) % turns.MODULUS


def test_vector_total():
    vecs = [np.array([turns.MODULUS - 1, 1], dtype=np.uint64),
            np.array([2, turns.MODULUS - 1], dtype=np.uint64)]
    out = turns.vector_total(vecs)
    assert list(out) == [1, 0]


def test_as_vector_rejects_floats():
    with pytest.raises(TypeError):
        turns.as_vector(np.array([0.5, 1.0]))
