import numpy as np
import pytest
import scipy.stats

from phaseagg import rng, turns
from phaseagg.channel import (
    ChannelMatrix,
    get_phase,
    pair_phase_stream,
    pair_phase_window,
    sample_round_channel,
)
from phaseagg.errors import InvalidTopologyError, NoSelfChannelError


def every_pair(chan):
    """`get_phase` of every unordered pair of `chan`, in (i, j) order with i < j."""
    n = chan.num_clients
    return [get_phase(chan, i, j) for i in range(n) for j in range(i + 1, n)]


def test_two_clients_single_mirrored_value():
    chan = sample_round_channel(2, iteration=0, seed=7)
    # the one pair's value comes straight from the keyed generator
    expected = rng.keyed_turn(7, rng.CHANNEL_DOMAIN, 0, 0, 1)
    assert get_phase(chan, 0, 1) == expected
    assert get_phase(chan, 1, 0) == expected


def test_four_clients_six_independent_draws():
    chan = sample_round_channel(4, iteration=3, seed=9)
    seen = {}
    for i in range(4):
        for j in range(i + 1, 4):
            seen[(i, j)] = get_phase(chan, i, j)
            assert seen[(i, j)] == rng.keyed_turn(9, rng.CHANNEL_DOMAIN, 3, i, j)
    assert len(seen) == 6


def test_reciprocity_exact():
    chan = sample_round_channel(8, iteration=0, seed=42)
    for i in range(8):
        for j in range(8):
            if i != j:
                assert get_phase(chan, i, j) == get_phase(chan, j, i)


def test_matrices_differ_across_iterations():
    a = every_pair(sample_round_channel(8, iteration=0, seed=42))
    assert a != every_pair(sample_round_channel(8, iteration=1, seed=42))
    assert a != every_pair(sample_round_channel(8, iteration=0, seed=43))


def test_determinism_bit_identical():
    a = sample_round_channel(6, iteration=5, seed=13)
    b = sample_round_channel(6, iteration=5, seed=13)
    assert every_pair(a) == every_pair(b)
    i, j = np.triu_indices(6, k=1)
    assert pair_phase_window(6, 13, 5, 1, i, j)[0].tolist() == every_pair(a)


def test_too_few_clients():
    with pytest.raises(InvalidTopologyError):
        sample_round_channel(1, iteration=0, seed=0)


def test_no_self_channel():
    chan = sample_round_channel(3, iteration=0, seed=0)
    with pytest.raises(NoSelfChannelError):
        get_phase(chan, 0, 0)


def test_out_of_range_ids():
    chan = sample_round_channel(3, iteration=0, seed=0)
    with pytest.raises(IndexError):
        get_phase(chan, 0, 3)
    with pytest.raises(IndexError):
        get_phase(chan, -1, 1)


def test_every_pair_equals_keyed_turn_in_either_order():
    chan = sample_round_channel(7, iteration=4, seed=2**33 + 5)
    i, j = np.triu_indices(7, k=1)
    window = pair_phase_window(7, 2**33 + 5, 4, 1, i, j)[0]
    expected = [rng.keyed_turn(2**33 + 5, rng.CHANNEL_DOMAIN, 4, a, b)
                for a, b in zip(i.tolist(), j.tolist())]
    assert window.tolist() == expected
    assert [get_phase(chan, b, a) for a, b in zip(i, j)] == every_pair(chan) == expected


def test_pair_phase_window_in_either_order():
    chan = sample_round_channel(6, iteration=1, seed=3)
    a, b = np.array([0, 5, 2]), np.array([4, 1, 3])
    got = pair_phase_window(6, 3, 1, 1, a, b)[0]
    assert got.dtype == np.uint32
    assert got.tolist() == [get_phase(chan, i, j) for i, j in zip(a, b)]
    assert np.array_equal(pair_phase_window(6, 3, 1, 1, b, a)[0], got)
    assert pair_phase_window(6, 3, 1, 1, np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64)).shape == (1, 0)


def test_pair_phase_window_refuses_bad_pairs():
    for a, b, error in [([0, 2], [1, 2], NoSelfChannelError), ([0], [4], IndexError),
                        ([-1], [2], IndexError)]:
        with pytest.raises(error):
            pair_phase_window(4, 1, 0, 1, np.array(a), np.array(b))


def test_channel_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        sample_round_channel(3, iteration=0, seed=-1)


@pytest.mark.parametrize("iteration", [-1, 2**32, 2**40])
def test_channel_refuses_an_iteration_the_window_refuses(iteration):
    # One range for every path: a per-pair phase and a window alike.
    refusal = rf"^need seed >= 0 and iteration in \[0, 2\*\*32\), got 3, {iteration}$"
    with pytest.raises(ValueError, match=refusal):
        sample_round_channel(6, iteration=iteration, seed=3)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        pair_phase_window(6, 3, iteration, 1, np.array([0]), np.array([1]))


def test_the_last_iteration_of_the_range_is_served():
    chan = sample_round_channel(6, iteration=2**32 - 1, seed=3)
    assert pair_phase_window(6, 3, 2**32 - 1, 1, np.array([0]), np.array([1]))[0, 0] \
        == get_phase(chan, 0, 1)


def test_channel_needs_a_seed():
    # A channel's phases come from its seed alone: no table can stand in.
    with pytest.raises(TypeError):
        ChannelMatrix(3, 0)
    assert every_pair(ChannelMatrix(3, 0, 5)) == every_pair(sample_round_channel(3, 0, 5))


def window_samples(seed, pairs, rounds=10_000):
    """Each pair's phase at iterations 0..rounds-1 of a 4-client channel, (rounds, pairs).

    Its first 500 rows must equal the per-round path, `get_phase` on each
    iteration's channel.
    """
    a, b = (np.array(side) for side in zip(*pairs))
    samples = pair_phase_window(4, seed, 0, rounds, a, b)
    per_round = [[get_phase(sample_round_channel(4, iteration=t, seed=seed), *pair)
                  for pair in pairs] for t in range(500)]
    assert samples[:500].tolist() == per_round
    return samples


def test_entry_uniformity_chi_square():
    # 10^4 resampled matrices; fixed entry binned into 16 equal arcs.
    samples = window_samples(77, [(0, 1)])[:, 0]
    counts = np.bincount(((samples * np.uint64(16)) >> np.uint64(32)).astype(int),
                         minlength=16)
    _, p = scipy.stats.chisquare(counts)
    assert p >= 0.01


@pytest.mark.parametrize("pair_a,pair_b", [((0, 1), (2, 3)), ((0, 1), (0, 2))])
def test_entry_independence_proxy(pair_a, pair_b):
    a, b = window_samples(123, [pair_a, pair_b]).astype(np.float64).T
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_pair_stream_symmetric_and_deterministic():
    chan = sample_round_channel(4, iteration=1, seed=3)
    s_ij = pair_phase_stream(chan, 1, 3, 16)
    s_ji = pair_phase_stream(chan, 3, 1, 16)
    assert np.array_equal(s_ij, s_ji)
    assert np.array_equal(s_ij, pair_phase_stream(chan, 1, 3, 16))
    assert np.all(s_ij < turns.MODULUS)
