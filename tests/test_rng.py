import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseagg import rng

WORDS = st.integers(0, 2**32 - 1)
# Key parts of zero, of one 32-bit word and of several words.
PARTS = st.one_of(st.just(0), WORDS, st.integers(2**32, 2**100))


def seed_sequence_turn(key) -> int:
    return int(np.random.SeedSequence(entropy=list(key)).generate_state(1, np.uint32)[0])


@st.composite
def batches(draw):
    prefix = draw(st.lists(PARTS, max_size=6))
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 4))
    columns = [draw(st.lists(WORDS, min_size=rows, max_size=rows)) for _ in range(width)]
    return prefix, columns


@settings(max_examples=300, deadline=None)
@given(batches())
def test_keyed_turns_equals_seed_sequence(batch):
    prefix, columns = batch
    got = rng.keyed_turns(prefix, *[np.array(c, dtype=np.uint64) for c in columns])
    assert got.dtype == np.uint64
    want = [seed_sequence_turn(list(prefix) + list(row)) for row in zip(*columns)]
    assert got.tolist() == want


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 3])
@pytest.mark.parametrize("iteration", [0, 2**32 - 1, 2**32, 2**70 + 3])
def test_channel_keys_at_word_boundaries(seed, iteration):
    i, j = np.triu_indices(6, k=1)
    got = rng.keyed_turns((seed, rng.CHANNEL_DOMAIN, iteration), i, j)
    want = [rng.keyed_turn(seed, rng.CHANNEL_DOMAIN, iteration, a, b) for a, b in zip(i, j)]
    assert got.tolist() == want


@pytest.mark.parametrize("prefix", [(), (5,), (5, 6), (5, 6, 7), (5, 6, 7, 8), (1,) * 9,
                                    (1,) * 40])
def test_key_lengths_below_and_above_the_pool(prefix):
    # The entropy pool holds four words: shorter keys pad it with hashed
    # zeros, longer ones mix their extra words into every pool word.
    column = np.array([0, 1, 2**32 - 1], dtype=np.int64)
    got = rng.keyed_turns(prefix, column)
    assert got.tolist() == [seed_sequence_turn(prefix + (int(v),)) for v in column]


def test_empty_batch():
    assert rng.keyed_turns((1, 2), np.array([], dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("column", [
    np.array([0, 2**32], dtype=np.uint64),
    np.array([3, -1], dtype=np.int64),
    [1, 2**70],
    np.array([0.0, 1.0]),
])
def test_columns_outside_one_word_are_refused(column):
    # A value of 2**32 or more is two entropy words; truncating it to 32
    # bits would silently derive the value of a different key.
    with pytest.raises(ValueError, match=r"column 0"):
        rng.keyed_turns((1,), column)


def test_column_lengths_must_agree():
    with pytest.raises(ValueError, match="equal lengths"):
        rng.keyed_turns((1,), np.arange(3), np.arange(4))


def test_needs_a_column():
    with pytest.raises(ValueError):
        rng.keyed_turns((1, 2))


def test_negative_prefix_refused():
    with pytest.raises(ValueError, match="non-negative"):
        rng.keyed_turns((-1,), np.arange(2))


@settings(max_examples=100, deadline=None)
@given(batches(), st.integers(1, 3), st.one_of(st.integers(0, 9), WORDS))
def test_keyed_turns_window_keys_the_iteration_as_a_column(batch, rounds, start):
    prefix, columns = batch
    start = min(start, 2**32 - rounds)
    got = rng.keyed_turns_window(prefix, start, rounds,
                                 *[np.array(c, dtype=np.uint64) for c in columns])
    assert got.shape == (rounds, len(columns[0]))
    want = [[seed_sequence_turn(list(prefix) + [start + r] + list(row))
             for row in zip(*columns)] for r in range(rounds)]
    assert got.tolist() == want


@pytest.mark.parametrize("start, rounds, columns, match", [
    (0, 1, (), "at least one key column"),
    (0, 0, (np.arange(2),), "at least one round"),
    (-1, 1, (np.arange(2),), r"\[0, 2\*\*32\)"),
    (2**32 - 1, 2, (np.arange(2),), r"\[0, 2\*\*32\)"),
    (0, 2, (np.array([2**32], dtype=np.uint64),), "column 1"),
    (0, 2, (np.arange(2), np.arange(3)), "equal lengths"),
])
def test_keyed_turns_window_refusals(start, rounds, columns, match):
    with pytest.raises(ValueError, match=match):
        rng.keyed_turns_window((1,), start, rounds, *columns)
