import numpy as np
import pytest

from phaseagg import turns
from phaseagg.analysis import chi_square_uniformity
from phaseagg.channel import get_phase, sample_round_channel
from phaseagg.codec import QuantizationConfig, modulate
from phaseagg.errors import DegenerateGroupError, ShapeError, UnrecoverableRoundError
from phaseagg.masking import (
    MINUS,
    PLUS,
    GroupAssignment,
    apply_mask,
    assign_subgroups,
    compute_group_mask,
    mask_shares,
    sample_private_phase,
    two_group_from_sides,
)
from phaseagg.config import ALG1
from phaseagg.protocol import run_round


def test_single_counterpart_mask_is_that_phase():
    assignment = two_group_from_sides([0], [1])
    chan = sample_round_channel(2, iteration=0, seed=1)
    assert compute_group_mask(0, assignment, chan) == get_phase(chan, 0, 1)


def test_two_counterpart_mask_is_modular_sum():
    assignment = two_group_from_sides([0], [1, 2])
    chan = sample_round_channel(3, iteration=0, seed=2)
    mask = compute_group_mask(0, assignment, chan)
    a, b = get_phase(chan, 0, 1), get_phase(chan, 0, 2)
    assert mask == (a + b) % turns.MODULUS


def test_mask_pair_cancellation_identity():
    # Sum of plus-side masks equals sum of minus-side masks, exactly: every
    # cross pair contributes once to each side.  Brute-forced over the 16
    # cross pairs of an 8-client even split, for many channels.
    assignment = two_group_from_sides([0, 1, 2, 3], [4, 5, 6, 7])
    for seed in range(20):
        chan = sample_round_channel(8, iteration=seed, seed=seed)
        plus = turns.total(
            compute_group_mask(i, assignment, chan) for i in [0, 1, 2, 3]
        )
        minus = turns.total(
            compute_group_mask(i, assignment, chan) for i in [4, 5, 6, 7]
        )
        brute = turns.total(
            get_phase(chan, i, j) for i in [0, 1, 2, 3] for j in [4, 5, 6, 7]
        )
        assert plus == minus == brute


def test_subgroup_mask_stays_inside_own_group():
    assignment = assign_subgroups(8, 2, 2, seed=3)
    chan = sample_round_channel(8, iteration=0, seed=3)
    for i in range(8):
        mask = compute_group_mask(i, assignment, chan)
        comp = assignment.complementary_set(i)
        assert all(assignment.group_of[j] == assignment.group_of[i] for j in comp)
        assert mask == turns.total(get_phase(chan, i, j) for j in comp)


@pytest.mark.parametrize("change, problem", [
    (dict(group_of=(0, 0, 0, 99, 1, 1, 1, 1)), r"group labels must lie in range\(2\), got 99"),
    (dict(group_of=(0, 0, 0, -1, 1, 1, 1, 1)), r"group labels must lie in range\(2\), got -1"),
    (dict(num_groups=0), "need at least one group, got 0"),
    # More groups than clients, one label past int64: the first empty side is named.
    (dict(num_groups=2**64 - 1, group_of=(0, 0, 0, 2**63, 1, 1, 1, 1)),
     r"group 2 has an empty '\+' side"),
    (dict(num_groups=2**70, group_of=(0, 0, 0, 2**69, 1, 1, 1, 1)),
     r"group 2 has an empty '\+' side"),
    (dict(subgroup_size=None), "subgroup mode needs an int subgroup_size, got None"),
    (dict(mode="two-group"),
     "two-group mode needs one group and no subgroup_size, got 2 groups and subgroup_size 2"),
    (dict(subgroup_size=0), "subgroup_size 0 cannot split 8 clients into 2 groups"),
    (dict(subgroup_size=3), "subgroup_size 3 cannot split 8 clients into 2 groups"),
    (dict(tag_of=("-", "+", "-", "+", "+", "-", "+", "-")),
     r"subgroup_size 2 needs \(plus, minus\) sides \[\(2, 2\), \(2, 2\)\], "
     r"got \[\(3, 1\), \(1, 3\)\]"),
])
def test_a_group_label_outside_the_group_count_is_refused(change, problem):
    assignment = assign_subgroups(8, 2, 2, seed=3)
    assert sorted(assignment.group_of) == [0, 0, 0, 0, 1, 1, 1, 1]
    fields = dict(assignment.to_json_dict(), group_of=assignment.group_of,
                  tag_of=assignment.tag_of)
    assert GroupAssignment(**fields) == assignment
    with pytest.raises(ValueError, match=f"^{problem}$"):
        GroupAssignment(**dict(fields, **change))


def test_degenerate_complementary_set():
    # GroupAssignment's constructor rejects empty sides, so a degenerate
    # layout can only come from a hand-rolled assignment object.
    class Lopsided:
        group_of = (0, 0)
        tag_of = (PLUS, PLUS)

        def complementary_set(self, i):
            return ()

    chan = sample_round_channel(2, iteration=0, seed=1)
    with pytest.raises(DegenerateGroupError):
        compute_group_mask(0, Lopsided(), chan)


class TestApplyMask:
    def test_zero_mask_is_identity(self):
        sym = np.array([1, 2, 3], dtype=np.uint64)
        assert np.array_equal(apply_mask(sym, 0, PLUS), sym)

    def test_grid_addition(self):
        out = apply_mask(np.array([2**30], dtype=np.uint64), 2**31, PLUS)
        assert out[0] == 2**30 + 2**31

    def test_plus_then_minus_restores(self):
        gen = np.random.default_rng(11)
        for _ in range(1000):
            sym = gen.integers(0, turns.MODULUS, size=4, dtype=np.uint64)
            mask = int(gen.integers(0, turns.MODULUS))
            back = apply_mask(apply_mask(sym, mask, PLUS), mask, MINUS)
            assert np.array_equal(back, sym)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            apply_mask(np.zeros(1, dtype=np.uint64), 1, "x")

    def test_vector_mask_rotates_each_symbol(self):
        sym = np.array([0, 5, 2**32 - 1], dtype=np.uint64)
        mask = np.array([1, 2, 3], dtype=np.uint64)
        assert list(apply_mask(sym, mask, PLUS)) == [1, 7, 2]
        assert list(apply_mask(sym, mask, MINUS)) == [2**32 - 1, 3, 2**32 - 4]

    @pytest.mark.parametrize("symbols, mask", [
        ([5], np.arange(3)),
        (np.arange(3), np.arange(2)),
        (np.arange(2), np.zeros((2, 1), dtype=np.uint64)),
    ])
    def test_a_mask_of_another_shape_is_refused(self, symbols, mask):
        # Broadcasting would silently make a message of another length.
        for direction in (PLUS, MINUS):
            with pytest.raises(ShapeError, match="cannot rotate"):
                apply_mask(symbols, mask, direction)


class TestPrivatePhase:
    def test_deterministic(self):
        assert sample_private_phase(3, 7, seed=5) == sample_private_phase(3, 7, seed=5)

    def test_distinct_streams(self):
        phases = {sample_private_phase(i, 0, seed=5) for i in range(64)}
        assert len(phases) == 64

    def test_changes_per_iteration(self):
        assert sample_private_phase(0, 0, seed=5) != sample_private_phase(0, 1, seed=5)

    def test_uniformity(self):
        samples = np.array(
            [sample_private_phase(0, t, seed=5) for t in range(10_000)],
            dtype=np.uint64,
        )
        assert chi_square_uniformity(samples, bins=16).passed

    def test_per_symbol_vector(self):
        p = sample_private_phase(1, 2, seed=5, length=8)
        assert p.shape == (8,)
        assert np.array_equal(p, sample_private_phase(1, 2, seed=5, length=8))


class TestMaskedUniformity:
    """Rotating by a uniform phase makes any plaintext look uniform."""

    @pytest.mark.parametrize("plaintext", ["constant", "two-point", "uniform"])
    def test_masked_symbols_uniform(self, plaintext):
        cfg = QuantizationConfig(clip=1.0, levels=4, modulus=16)
        gen = np.random.default_rng(17)
        if plaintext == "constant":
            digits = np.zeros(16_000, dtype=np.int64)
        elif plaintext == "two-point":
            digits = np.tile([0, 3], 8_000).astype(np.int64)
        else:
            digits = gen.integers(0, 4, size=16_000)
        symbols = modulate(digits, cfg)
        masks = np.array(
            [sample_private_phase(0, t, seed=19) for t in range(16_000)],
            dtype=np.uint64,
        )
        masked = turns.add(symbols, masks)
        assert chi_square_uniformity(masked, bins=16).passed


class TestReconstruction:
    """A dropped client's shares sum to the part of its mask survivors hold."""

    def test_full_survivors_rebuild_exactly(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=23)
        shares = mask_shares(1, [0, 2, 3], assignment, chan)
        assert turns.total(p for _, p in shares) == compute_group_mask(1, assignment, chan)
        streams = mask_shares(1, [0, 2, 3], assignment, chan, length=5)
        assert np.array_equal(turns.vector_total([p for _, p in streams]),
                              compute_group_mask(1, assignment, chan, length=5))

    def test_missing_counterpart_share(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=23)
        true_mask = compute_group_mask(1, assignment, chan)
        rebuilt = turns.total(p for _, p in mask_shares(1, [0, 3], assignment, chan))
        assert rebuilt == turns.sub(true_mask, get_phase(chan, 1, 2))

    def test_no_survivor_counterparts(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=23)
        assert mask_shares(1, [0], assignment, chan) == []
        with pytest.raises(UnrecoverableRoundError):
            run_round(np.zeros((4, 2), dtype=np.int64), assignment, chan,
                      QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4),
                      version=ALG1, seed=23, dropped=[1, 2, 3], naive_remedy=True)

    def test_dropped_cannot_survive(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=23)
        with pytest.raises(ValueError):
            mask_shares(1, [0, 1, 2], assignment, chan)

    def test_share_list_identifies_revealers(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=23)
        shares = mask_shares(0, [1, 2, 3], assignment, chan)
        assert [j for j, _ in shares] == [2, 3]
        assert all(phase == get_phase(chan, 0, j) for j, phase in shares)
