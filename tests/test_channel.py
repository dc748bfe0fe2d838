import numpy as np
import pytest
import scipy.stats

from phaseagg import rng, turns
from phaseagg.channel import (
    ChannelMatrix,
    get_phase,
    pair_phase_stream,
    pair_phases,
    sample_round_channel,
)
from phaseagg.errors import InvalidTopologyError, NoPairPhaseError, NoSelfChannelError
from phaseagg.masking import assign_subgroups, phase_rows, two_group_from_sides

# Clients 0-3 on the plus side, 4-7 on the minus side: 16 cross pairs.
HALVES = two_group_from_sides([0, 1, 2, 3], [4, 5, 6, 7])


def every_pair(chan, assignment):
    """`get_phase` of every cross pair of `assignment`, in `cross_pair_index` order."""
    plus, minus = assignment.cross_pair_index
    return [get_phase(chan, assignment, i, j) for i, j in zip(plus.tolist(), minus.tolist())]


def test_two_clients_single_mirrored_value():
    chan = sample_round_channel(2, iteration=0, seed=7)
    assignment = two_group_from_sides([0], [1])
    # The one pair is word 0 of the round's stream.
    expected = rng.keyed_turn(7, rng.CHANNEL_DOMAIN, 0)
    assert get_phase(chan, assignment, 0, 1) == expected
    assert get_phase(chan, assignment, 1, 0) == expected


def test_four_cross_pairs_read_their_places_in_the_rounds_stream():
    chan = sample_round_channel(4, iteration=3, seed=9)
    assignment = two_group_from_sides([0, 1], [2, 3])
    stream = rng.keyed_turn_vector(4, 9, rng.CHANNEL_DOMAIN, 3).tolist()
    # Plus-major order: (0, 2), (0, 3), (1, 2), (1, 3).
    for place, (i, j) in enumerate([(0, 2), (0, 3), (1, 2), (1, 3)]):
        assert get_phase(chan, assignment, i, j) == get_phase(chan, assignment, j, i) \
            == stream[place]
    assert len(set(stream)) == 4


def test_reciprocity_exact():
    chan = sample_round_channel(8, iteration=0, seed=42)
    for i in range(4):
        for j in range(4, 8):
            assert get_phase(chan, HALVES, i, j) == get_phase(chan, HALVES, j, i)


def test_matrices_differ_across_iterations():
    a = every_pair(sample_round_channel(8, iteration=0, seed=42), HALVES)
    assert a != every_pair(sample_round_channel(8, iteration=1, seed=42), HALVES)
    assert a != every_pair(sample_round_channel(8, iteration=0, seed=43), HALVES)


def test_determinism_bit_identical():
    a = sample_round_channel(8, iteration=5, seed=13)
    b = sample_round_channel(8, iteration=5, seed=13)
    assert every_pair(a, HALVES) == every_pair(b, HALVES)
    assert pair_phases(13, 5, 16).tolist() == every_pair(a, HALVES)


def test_too_few_clients():
    with pytest.raises(InvalidTopologyError):
        sample_round_channel(1, iteration=0, seed=0)


def test_no_self_channel():
    chan = sample_round_channel(3, iteration=0, seed=0)
    with pytest.raises(NoSelfChannelError):
        get_phase(chan, two_group_from_sides([0], [1, 2]), 0, 0)


def test_out_of_range_ids():
    chan = sample_round_channel(3, iteration=0, seed=0)
    assignment = two_group_from_sides([0], [1, 2])
    with pytest.raises(IndexError):
        get_phase(chan, assignment, 0, 3)
    with pytest.raises(IndexError):
        get_phase(chan, assignment, -1, 1)


def test_a_pair_on_one_side_or_in_two_groups_has_no_phase():
    chan = sample_round_channel(8, iteration=2, seed=5)
    subgroups = assign_subgroups(8, 2, 2, seed=3)
    plus = [i for i in range(8) if subgroups.tag_of[i] == "+"]
    other_group = next(j for j in range(8) if subgroups.group_of[j] != subgroups.group_of[0])
    for assignment, i, j in [(HALVES, 0, 1), (HALVES, 6, 4), (subgroups, *plus[:2]),
                             (subgroups, 0, other_group)]:
        for a, b in ((i, j), (j, i)):
            with pytest.raises(NoPairPhaseError, match=f"^clients {a} and {b} are not a "
                               "cross pair of the layout: a pair on one side, or in two "
                               "groups, has no phase$"):
                get_phase(chan, assignment, a, b)
            with pytest.raises(NoPairPhaseError):
                pair_phase_stream(chan, assignment, a, b, 3)


def test_a_layout_of_another_client_count_is_refused():
    chan = sample_round_channel(6, iteration=0, seed=1)
    with pytest.raises(ValueError, match="^a layout of 8 clients cannot read a channel of 6$"):
        get_phase(chan, HALVES, 0, 4)


def test_every_pair_reads_its_place_in_either_order():
    chan = sample_round_channel(13, iteration=4, seed=2**32 - 5)
    assignment = assign_subgroups(13, 3, 2, seed=7)
    plus, minus = assignment.cross_pair_index
    expected = pair_phases(2**32 - 5, 4, len(plus)).tolist()
    assert expected == rng.keyed_turn_vector(len(plus), 2**32 - 5, rng.CHANNEL_DOMAIN, 4).tolist()
    assert [get_phase(chan, assignment, b, a) for a, b in zip(plus.tolist(), minus.tolist())] \
        == every_pair(chan, assignment) == expected


def test_channel_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        sample_round_channel(3, iteration=0, seed=-1)


@pytest.mark.parametrize("iteration", [-1, 2**32, 2**40])
def test_channel_refuses_an_iteration_the_window_refuses(iteration):
    # One range and one text for both parts of a channel key, and the
    # round's stream refuses the same iterations.
    refusal = r"^need a seed and an iteration in \[0, 2\*\*32\), got seed {}, iteration {}$"
    with pytest.raises(ValueError, match=refusal.format(3, iteration)):
        sample_round_channel(6, iteration=iteration, seed=3)
    with pytest.raises(ValueError, match=refusal.format(iteration, 3)):
        sample_round_channel(6, iteration=3, seed=iteration)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        pair_phases(3, iteration, 1)


def test_the_last_iteration_of_the_range_is_served():
    chan = sample_round_channel(6, iteration=2**32 - 1, seed=3)
    assignment = two_group_from_sides([0, 2, 4], [1, 3, 5])
    assert pair_phases(3, 2**32 - 1, 1)[0] == get_phase(chan, assignment, 0, 1)


def test_channel_needs_a_seed():
    # A channel's phases come from its seed alone: no table can stand in.
    with pytest.raises(TypeError):
        ChannelMatrix(3, 0)
    assignment = two_group_from_sides([0], [1, 2])
    assert every_pair(ChannelMatrix(3, 0, 5), assignment) \
        == every_pair(sample_round_channel(3, 0, 5), assignment)


# Clients 0, 1 on the plus side and 2, 3 on the minus side: the cross pairs
# (0, 2), (0, 3), (1, 2), (1, 3) sit at places 0 to 3.
SQUARE = two_group_from_sides([0, 1], [2, 3])


def window_samples(seed, places, rounds=10_000):
    """The phases at `places` of SQUARE at iterations 0..rounds-1, (rounds, len(places)).

    Its first 500 rows must equal the per-round path, `get_phase` on each
    iteration's channel.
    """
    samples = np.array([row.pairs[places]
                        for row in phase_rows(SQUARE, seed, 0, rounds, private=False)])
    plus, minus = SQUARE.cross_pair_index
    per_round = [[get_phase(sample_round_channel(4, iteration=t, seed=seed), SQUARE,
                            int(plus[k]), int(minus[k])) for k in places] for t in range(500)]
    assert samples[:500].tolist() == per_round
    return samples


def test_entry_uniformity_chi_square():
    # 10^4 resampled channels; the pair (0, 2) binned into 16 equal arcs.
    samples = window_samples(77, [0])[:, 0]
    counts = np.bincount(((samples * np.uint64(16)) >> np.uint64(32)).astype(int),
                         minlength=16)
    _, p = scipy.stats.chisquare(counts)
    assert p >= 0.01


# Two disjoint pairs, (0, 2) and (1, 3), and two that share client 0, by place.
@pytest.mark.parametrize("pair_a,pair_b", [(0, 3), (0, 1)])
def test_entry_independence_proxy(pair_a, pair_b):
    a, b = window_samples(123, [pair_a, pair_b]).astype(np.float64).T
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_pair_stream_symmetric_and_deterministic():
    chan = sample_round_channel(4, iteration=1, seed=3)
    s_ij = pair_phase_stream(chan, SQUARE, 1, 3, 16)
    s_ji = pair_phase_stream(chan, SQUARE, 3, 1, 16)
    assert np.array_equal(s_ij, s_ji)
    assert np.array_equal(s_ij, pair_phase_stream(chan, SQUARE, 1, 3, 16))
    assert np.all(s_ij < turns.MODULUS)
    # The pair (1, 3) is place 3: words 48 to 63 of the round's stream.
    stream = rng.keyed_turn_vector(64, 3, rng.CHANNEL_STREAM_DOMAIN, 1)
    assert s_ij.tolist() == stream[48:].tolist()
