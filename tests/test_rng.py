import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseagg import rng
from phaseagg.channel import sample_round_channel

WORDS = st.integers(0, 2**32 - 1)
# Key parts of zero and of one 32-bit word: a key part is never wider.
PARTS = st.one_of(st.just(0), WORDS)


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
    assert got.dtype == np.uint32
    want = [seed_sequence_turn(list(prefix) + list(row)) for row in zip(*columns)]
    assert got.tolist() == want


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 3])
@pytest.mark.parametrize("iteration", [0, 2**32 - 1, 2**32, 2**70 + 3])
def test_channel_keys_at_word_boundaries(seed, iteration):
    i, j = np.triu_indices(6, k=1)
    if max(seed, iteration) >= 2**32:
        # A part of two words would make keys of different domains collide.
        for derive in (lambda: rng.keyed_turns((seed, rng.CHANNEL_DOMAIN, iteration), i, j),
                       lambda: rng.keyed_turn(seed, rng.CHANNEL_DOMAIN, iteration, 0, 1)):
            with pytest.raises(ValueError, match="below 2"):
                derive()
        return
    got = rng.keyed_turns((seed, rng.CHANNEL_DOMAIN, iteration), i, j)
    want = [rng.keyed_turn(seed, rng.CHANNEL_DOMAIN, iteration, a, b) for a, b in zip(i, j)]
    assert got.tolist() == want


def test_a_key_that_would_collide_across_domains_is_refused():
    # SeedSequence would read 2**32 + 1 as the words (1, 1) and pad the key
    # with zeros: the private phase key below would equal the channel key
    # (1, CHANNEL_DOMAIN, 2, 5, 9).
    for derive in (lambda: rng.keyed_turn(2**32 + 1, rng.PRIVATE_PHASE_DOMAIN, 5, 9),
                   lambda: rng.keyed_turn_vector(3, 2**32 + 1, rng.PRIVATE_STREAM_DOMAIN, 5),
                   lambda: rng.keyed_generator(2**32 + 1, rng.DATA_DOMAIN),
                   lambda: sample_round_channel(4, 0, 2**32 + 1)):
        with pytest.raises(ValueError, match=r"2\*\*32"):
            derive()


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


# Known answers.  Every keyed stream is pinned by literal values, so a
# change to any stream fails here, whatever derives it: the batched
# functions are checked against `keyed_turn` above, and `keyed_turn` itself,
# the per-symbol vectors and the generators are checked only here.
KNOWN_TURNS = [
    ((0,), 2968811710),
    ((7, rng.CHANNEL_DOMAIN, 3, 1, 2), 164147919),
    ((2**32 - 1, rng.PRIVATE_PHASE_DOMAIN, 9, 31), 2973760496),
]


@pytest.mark.parametrize("key, value", KNOWN_TURNS)
def test_keyed_turn_known_answers(key, value):
    assert rng.keyed_turn(*key) == value


def test_keyed_turns_and_window_known_answers():
    i, j = np.array([1, 0, 5]), np.array([2, 3, 6])
    round_3 = [164147919, 3230837730, 2326691543]
    assert rng.keyed_turns((7, rng.CHANNEL_DOMAIN, 3), i, j).tolist() == round_3
    window = rng.keyed_turns_window((7, rng.CHANNEL_DOMAIN), 3, 2, i, j)
    assert window.dtype == np.uint32
    assert window.tolist() == [round_3, [447938741, 1536407448, 190745167]]


@pytest.mark.parametrize("length, key, values", [
    (6, (7, rng.CHANNEL_STREAM_DOMAIN, 3, 1, 2),
     [4112932561, 4146609385, 2432552511, 3910551256, 1526406572, 2297685234]),
    (5, (11, rng.PRIVATE_STREAM_DOMAIN, 0, 4),
     [2455187384, 952717730, 3902938844, 274814494, 3024062576]),
])
def test_keyed_turn_vector_known_answers(length, key, values):
    stream = rng.keyed_turn_vector(length, *key)
    assert stream.dtype == np.uint32
    assert stream.tolist() == values


def test_keyed_generator_known_answers():
    assert rng.keyed_generator(7, rng.GROUPING_DOMAIN).integers(0, 2**32, size=4).tolist() == [
        3126384070, 4187737225, 2311545377, 3799187354]
    assert rng.keyed_generator(5, rng.GROUPING_DOMAIN).permutation(8).tolist() == [
        7, 1, 0, 3, 4, 2, 6, 5]
    assert rng.keyed_generator(3, rng.DATA_DOMAIN).standard_normal(3).tolist() == [
        -0.3366458403000541, 1.359267952661854, 2.5156727903302447]
    assert rng.keyed_generator(5, rng.DROPOUT_DOMAIN, 2).random(3).tolist() == [
        0.558524693217189, 0.7188475982300009, 0.23002977794923563]
