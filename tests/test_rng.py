import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseagg import masking, rng
from phaseagg.channel import pair_phases, sample_round_channel

WORDS = st.integers(0, 2**32 - 1)
# Key parts of zero and of one 32-bit word: a key part is never wider.
PARTS = st.one_of(st.just(0), WORDS)
KEYS = st.lists(PARTS, max_size=6)


def shake_words(length: int, *key: int) -> list[int]:
    """The documented stream, computed here: SHAKE256 of the key's part count
    and parts as little-endian uint32 words, read as little-endian words."""
    encoding = struct.pack(f"<{len(key) + 1}I", len(key), *key)
    words = hashlib.shake_256(encoding).digest(4 * length)
    return [int.from_bytes(words[4 * k:4 * k + 4], "little") for k in range(length)]


# Known answers.  Every masking value is read from `keyed_turn_vector`, so
# these pin every phase stream: the literal words, and the same words
# computed from `hashlib` over the documented encoding.
KNOWN_TURNS = [
    ((0,), 3175098688),
    ((7, rng.CHANNEL_DOMAIN, 3), 3026535010),
    ((2**32 - 1, rng.PRIVATE_PHASE_DOMAIN, 9), 226625869),
]


@pytest.mark.parametrize("key, value", KNOWN_TURNS)
def test_keyed_turn_known_answers(key, value):
    assert rng.keyed_turn(*key) == value == shake_words(1, *key)[0]


@pytest.mark.parametrize("length, key", [
    (6, (7, rng.CHANNEL_STREAM_DOMAIN, 3)),
    (5, (11, rng.PRIVATE_STREAM_DOMAIN, 0)),
    (3, ()),
    (0, (1, 2)),
])
def test_keyed_turn_vector_known_answers(length, key):
    stream = rng.keyed_turn_vector(length, *key)
    assert stream.dtype == np.uint32 and stream.flags.writeable
    assert stream.tolist() == shake_words(length, *key)


def test_keyed_turn_vector_literal_words():
    assert rng.keyed_turn_vector(4, 7, rng.CHANNEL_DOMAIN, 3).tolist() == [
        3026535010, 2762656003, 2277477274, 3588690925]


@pytest.mark.parametrize("length", [None, 4])
def test_a_rounds_pairs_and_private_rows_are_its_streams(length):
    # Scalar phases are word k of the round's stream, per-symbol ones row k
    # of `length` words; client 5's private phase is row 5.
    width = 1 if length is None else length
    words = shake_words(7 * width, 9, rng.CHANNEL_DOMAIN if length is None
                        else rng.CHANNEL_STREAM_DOMAIN, 2)
    pairs = pair_phases(9, 2, 7, length)
    assert pairs.tolist() == (words if length is None else
                              [words[k * width:(k + 1) * width] for k in range(7)])
    domain = rng.PRIVATE_PHASE_DOMAIN if length is None else rng.PRIVATE_STREAM_DOMAIN
    row = np.asarray(masking.sample_private_phase(5, 2, seed=9, length=length)).tolist()
    words = shake_words(6 * width, 9, domain, 2)[5 * width:]
    assert row == (words[0] if length is None else words)


@settings(max_examples=100, deadline=None)
@given(KEYS, st.integers(0, 64), st.integers(0, 64))
def test_a_shorter_stream_is_a_prefix_of_a_longer_one(key, n, m):
    n, m = sorted((n, m))
    longer = rng.keyed_turn_vector(m, *key)
    assert longer[:n].tolist() == rng.keyed_turn_vector(n, *key).tolist()


@settings(max_examples=200, deadline=None)
@given(KEYS, KEYS)
def test_the_key_encoding_is_injective(a, b):
    assert (rng._encode(tuple(a)) == rng._encode(tuple(b))) == (a == b)


# SHAKE256 absorbs 136 bytes, 34 words, per block: a key of 33 parts is
# one block with its count, and a longer one spans two.
@pytest.mark.parametrize("prefix", [(), (5,), (5, 6), (5, 6, 7), (5, 6, 7, 8), (1,) * 32,
                                    (1,) * 40])
def test_key_lengths_below_and_above_one_absorb_block(prefix):
    for last in (0, 1, 2**32 - 1):
        key = prefix + (last,)
        assert rng.keyed_turn_vector(3, *key).tolist() == shake_words(3, *key)


def test_zero_rows_read_nothing():
    assert rng.keyed_rows(0, None, 1, 2).shape == (0,)
    assert rng.keyed_rows(0, 4, 1, 2).shape == (0, 4)
    assert pair_phases(1, 2, 0).shape == (0,)


@pytest.mark.parametrize("part", [2**32, -1, 2**70, np.uint64(2**32)])
def test_key_parts_outside_one_word_are_refused(part):
    # Truncating a wider part to 32 bits would silently derive another key's value.
    for derive in (lambda: rng.keyed_turn_vector(2, 1, part),
                   lambda: rng.keyed_rows(2, 3, part, rng.CHANNEL_STREAM_DOMAIN),
                   lambda: rng.keyed_generator(part)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            derive()


def test_a_negative_length_is_refused():
    for derive in (lambda: rng.keyed_turn_vector(-1, 1),
                   lambda: rng.keyed_rows(-1, None, 1),
                   lambda: rng.keyed_rows(-1, 4, 1),
                   lambda: rng.keyed_rows(2, -1, 1)):
        with pytest.raises(ValueError, match="length >= 0"):
            derive()


def test_keys_that_differ_only_by_a_trailing_zero_differ():
    assert rng.keyed_turn(1, 2) != rng.keyed_turn(1, 2, 0)
    assert rng.keyed_turn() != rng.keyed_turn(0)


# SeedSequence's output mix (numpy/random/bit_generator.pyx): output word k
# is ((pool[k % 4] ^ c_k) * c_(k+1)) ^ its top half, with c_0 = _INIT_B and
# c_(k+1) = c_k * _MULT_B mod 2**32.
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _seed_sequence_consts(count: int) -> list[int]:
    consts = [_INIT_B]
    for _ in range(count):
        consts.append(consts[-1] * _MULT_B % 2**32)
    return consts


def predicted_by_word_0(stream) -> list[bool]:
    """Whether inverting word 0's output mix predicts words 4, 8 and 12."""
    consts = _seed_sequence_consts(13)
    word = int(stream[0])
    value = word ^ (word >> 16)  # an xorshift by half the width is its own inverse
    pool_0 = (value * pow(consts[1], -1, 2**32)) % 2**32 ^ consts[0]
    hits = []
    for k in (4, 8, 12):
        guess = ((pool_0 ^ consts[k]) * consts[k + 1]) % 2**32
        hits.append(guess ^ (guess >> 16) == int(stream[k]))
    return hits


def test_one_word_does_not_predict_every_fourth_word():
    keys = [(seed, rng.CHANNEL_STREAM_DOMAIN, t) for seed in range(10) for t in range(5)]
    # The predictor works: it predicts SeedSequence's stream for every key.
    assert all(all(predicted_by_word_0(
        np.random.SeedSequence(entropy=list(key)).generate_state(16, np.uint32)))
        for key in keys)
    assert not any(any(predicted_by_word_0(rng.keyed_turn_vector(16, *key))) for key in keys)


def test_no_stream_repeats_with_a_short_period():
    for key in [(seed, rng.CHANNEL_STREAM_DOMAIN, 4) for seed in range(20)]:
        stream = rng.keyed_turn_vector(64, *key)
        assert not any(np.array_equal(stream[p:], stream[:-p]) for p in range(1, 33))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 3])
@pytest.mark.parametrize("iteration", [0, 2**32 - 1, 2**32, 2**70 + 3])
def test_channel_keys_at_word_boundaries(seed, iteration):
    if max(seed, iteration) >= 2**32:
        # A part of two words is refused wherever a channel key is made.
        for derive in (lambda: pair_phases(seed, iteration, 3),
                       lambda: rng.keyed_turn(seed, rng.CHANNEL_DOMAIN, iteration),
                       lambda: sample_round_channel(6, iteration, seed)):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
                derive()
        return
    assert pair_phases(seed, iteration, 3).tolist() == shake_words(
        3, seed, rng.CHANNEL_DOMAIN, iteration)


def test_a_key_that_would_collide_across_domains_is_refused():
    # A part wider than one word (or negative) is refused: SeedSequence's
    # encoding read 2**32 + 1 as two words, so this private phase key once
    # equalled the channel key (1, CHANNEL_DOMAIN, 2, 5, 9).
    for derive in (lambda: rng.keyed_turn(2**32 + 1, rng.PRIVATE_PHASE_DOMAIN, 5, 9),
                   lambda: rng.keyed_turn_vector(3, 2**32 + 1, rng.PRIVATE_STREAM_DOMAIN, 5),
                   lambda: rng.keyed_turn(-1, rng.CHANNEL_DOMAIN),
                   lambda: rng.keyed_generator(2**32 + 1, rng.DATA_DOMAIN),
                   lambda: sample_round_channel(4, 0, 2**32 + 1)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            derive()


def test_keyed_generator_known_answers():
    assert rng.keyed_generator(7, rng.GROUPING_DOMAIN).integers(0, 2**32, size=4).tolist() == [
        3126384070, 4187737225, 2311545377, 3799187354]
    assert rng.keyed_generator(5, rng.GROUPING_DOMAIN).permutation(8).tolist() == [
        7, 1, 0, 3, 4, 2, 6, 5]
    assert rng.keyed_generator(3, rng.DATA_DOMAIN).standard_normal(3).tolist() == [
        -0.3366458403000541, 1.359267952661854, 2.5156727903302447]
    assert rng.keyed_generator(5, rng.DROPOUT_DOMAIN, 2).random(3).tolist() == [
        0.558524693217189, 0.7188475982300009, 0.23002977794923563]
