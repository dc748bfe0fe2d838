import dataclasses
import itertools
import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phaseagg import turns
from phaseagg.analysis import chi_square_uniformity
from phaseagg.channel import pair_phase_window, sample_round_channel
from phaseagg.codec import QuantizationConfig, dequantize_mean, modulate
from phaseagg.config import ALG1, ALG2, check_version
from phaseagg.errors import (
    InfeasibleGroupingError,
    InvalidDigitError,
    InsufficientClientsError,
    PhaseAggError,
    ResidualMaskError,
    RevealSafetyError,
    SecurityFloorError,
    ShapeError,
    TranscriptFormatError,
    UnrecoverableRoundError,
)
from phaseagg.masking import (
    MINUS,
    PLUS,
    MaskedSymbols,
    assign_subgroups,
    assign_two_groups,
    check_layout,
    compute_group_mask,
    mask_shares,
    round_phases,
    sample_private_phase,
    signed_masks,
    two_group_from_sides,
)
from phaseagg.protocol import (
    client_message,
    dropout_correction,
    ps_aggregate_and_decode,
    run_round,
)
from phaseagg.transcript import (
    _DEDUPE_FLOATS,
    TRANSCRIPT_FORMAT,
    ClientMessage,
    _audit_reveal_safety,
    aggregate,
    float_list_json,
    read_transcript_line,
    write_transcripts,
)
from test_golden import run_golden


def pair_partners(assignment, i) -> tuple:
    """Client i's partners in the assignment's cross-pair index, ascending."""
    plus, minus = assignment.cross_pair_index
    return tuple(sorted(minus[plus == i].tolist() + plus[minus == i].tolist()))


def channel_pairs(assignment, chan, length=None) -> np.ndarray:
    """The cross-pair values a round on `chan` reads, per symbol with `length`."""
    return round_phases(assignment, chan, 0, private=False, length=length).pairs


def small_cfg(levels=5, clients=8):
    return QuantizationConfig.with_auto_modulus(1.0, levels, max_clients=clients)


def message_fields(msg) -> tuple:
    """A message's owner and symbols."""
    return msg.owner, msg.masked.symbols.tolist()


@st.composite
def round_cases(draw):
    """A random layout, dimension, mode, version, drop set and delayed client."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        clients = draw(st.integers(4, 10))
        assignment = assign_two_groups(clients, seed=seed)
    else:
        size = draw(st.integers(2, 3))
        groups = draw(st.integers(1, 3))
        clients = groups * 2 * size + draw(st.integers(0, 2 * size - 1))
        assignment = assign_subgroups(clients, groups, size, seed=seed)
    absent = draw(st.lists(st.integers(0, clients - 1), unique=True,
                           max_size=clients - 1))
    delayed = None
    if absent and draw(st.booleans()):
        delayed = absent.pop()
    return {
        "assignment": assignment,
        "dimension": draw(st.integers(1, 5)),
        "per_symbol": draw(st.booleans()),
        "version": draw(st.sampled_from([ALG1, ALG2])),
        "dropped": absent,
        "delayed": delayed,
        "seed": seed,
        "iteration": draw(st.integers(0, 50)),
    }


class TestTwoGroupAssignment:
    def test_four_clients_split_two_two(self):
        a = assign_two_groups(4, seed=0)
        assert a.plus_size() == 2
        assert a.num_clients == 4

    def test_five_clients_always_two_three(self):
        for seed in range(50):
            a = assign_two_groups(5, seed=seed)
            assert a.plus_size() in (2, 3)

    def test_seeded_partition_reproducible(self):
        a = assign_two_groups(8, seed=1)
        assert a.tag_of == ('+', '+', '-', '+', '-', '+', '-', '-')
        assert a.tag_of == assign_two_groups(8, seed=1).tag_of

    def test_too_few_clients(self):
        with pytest.raises(InsufficientClientsError):
            assign_two_groups(3, seed=0)

    def test_explicit_sides_must_partition(self):
        with pytest.raises(ValueError):
            two_group_from_sides([0, 1], [1, 2])


class TestSubgroupAssignment:
    def test_sixteen_four_two(self):
        a = assign_subgroups(16, 4, 2, seed=2)
        assert a.num_groups == 4
        for g in range(4):
            assert a.group_of.count(g) == 4
            assert len(a.side(g, PLUS)) == 2
            assert len(a.side(g, MINUS)) == 2

    def test_remainder_goes_to_last_group(self):
        a = assign_subgroups(17, 4, 2, seed=2)
        sizes = [a.group_of.count(g) for g in range(4)]
        assert sorted(sizes[:-1]) == [4, 4, 4]
        assert sizes[-1] == 5
        assert len(a.side(3, PLUS)) >= 2 and len(a.side(3, MINUS)) >= 2

    def test_group_count_must_match_division(self):
        with pytest.raises(InfeasibleGroupingError):
            assign_subgroups(8, 1, 2, seed=0)
        a = assign_subgroups(8, 2, 2, seed=0)
        assert a.num_groups == 2

    def test_security_floor(self):
        with pytest.raises(SecurityFloorError, match="security floor"):
            assign_subgroups(8, 2, 1, seed=0)

    def test_too_few_clients(self):
        with pytest.raises(InfeasibleGroupingError):
            assign_subgroups(7, 2, 2, seed=0)

    def test_assignment_roundtrips_through_json(self):
        a = assign_subgroups(16, 4, 2, seed=2)
        t = run_round(np.zeros((16, 2), dtype=np.int64), a, sample_round_channel(16, 0, 2),
                      small_cfg(levels=2, clients=16), seed=2)
        assert read_transcript_line(t.to_json_line()).assignment == a


class TestCheckLayout:
    @pytest.mark.parametrize("args, error", [
        (("two-group", 3), InsufficientClientsError),
        (("subgroup", 8, 2, 1), SecurityFloorError),
        (("subgroup", 8, 0, 2), InfeasibleGroupingError),
        (("subgroup", 7, 2, 2), InfeasibleGroupingError),
        (("subgroup", 8, 1, 2), InfeasibleGroupingError),
        (("ring", 8), ValueError),
    ])
    def test_refuses_what_the_constructors_refuse(self, args, error):
        with pytest.raises(error):
            check_layout(*args)

    def test_accepts_what_the_constructors_build(self):
        check_layout("two-group", 4)
        check_layout("subgroup", 17, 4, 2)

    def test_refuses_a_huge_layout_without_allocating(self):
        # Building 2**33 clients' labels would need tens of GB; the layout
        # check must refuse the group count from the numbers alone.
        tracemalloc.start()
        try:
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                with pytest.raises(InfeasibleGroupingError):
                    assign_subgroups(2**33, 1, 2, seed=0)
                with pytest.raises(InfeasibleGroupingError):
                    check_layout("subgroup", 2**33, 1, 2)
                best = min(best, time.perf_counter() - start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert best < 0.010
        assert peak < 1 << 20


def test_check_version_knows_the_two_algorithms_only():
    check_version(ALG1)
    check_version(ALG2)
    with pytest.raises(ValueError, match="'alg3'"):
        check_version("alg3")
    with pytest.raises(ValueError, match="unknown protocol version"):
        run_round(np.zeros((4, 2), dtype=np.int64), assign_two_groups(4, 0),
                  sample_round_channel(4, 0, 0), small_cfg(clients=4),
                  version="alg3", seed=0)


class TestClientMessage:
    def test_degenerate_channel_equals_plain_modulation(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=3)
        cfg = small_cfg(clients=4)
        digits = np.array([0, 1, 2, 3])
        msg = client_message(0, digits, assignment, chan, ALG1, seed=3, cfg=cfg)
        mask = compute_group_mask(0, assignment, chan)
        assert np.array_equal(turns.sub(msg.masked.symbols, mask), modulate(digits, cfg))

    def test_private_phase_is_the_only_alg2_difference(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=6, seed=3)
        cfg = small_cfg(clients=4)
        digits = np.array([1, 4, 0, 2])
        for i in range(4):
            plain = client_message(i, digits, assignment, chan, ALG1, seed=3, cfg=cfg)
            private = client_message(i, digits, assignment, chan, ALG2, seed=3, cfg=cfg)
            delta = turns.sub(private.masked.symbols, plain.masked.symbols)
            u = sample_private_phase(i, 6, seed=3)
            assert np.all(delta == u)

    def test_direction_follows_side_tag(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=3)
        cfg = small_cfg(clients=4)
        digits = np.array([1, 2])
        # Client 0 is on the plus side and adds its mask; client 2 subtracts it.
        for i, rotate in ((0, turns.add), (2, turns.sub)):
            msg = client_message(i, digits, assignment, chan, ALG1, 3, cfg)
            mask = compute_group_mask(i, assignment, chan)
            assert np.array_equal(msg.masked.symbols, rotate(modulate(digits, cfg), mask))

    @pytest.mark.parametrize("digits", [[1], [1, 2]])
    @pytest.mark.parametrize("version", [ALG1, ALG2])
    def test_a_length_other_than_the_digit_count_is_refused(self, digits, version):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=3)
        with pytest.raises(ShapeError, match="length 5"):
            client_message(0, digits, assignment, chan, version, 3, small_cfg(clients=4),
                           length=5)
        msg = client_message(0, digits, assignment, chan, version, 3, small_cfg(clients=4),
                             length=len(digits))
        assert msg.masked.symbols.shape == (len(digits),)

    def test_a_message_is_its_owner_and_symbols(self):
        assert [f.name for f in dataclasses.fields(ClientMessage)] == ["owner", "masked"]
        assert [f.name for f in dataclasses.fields(MaskedSymbols)] == ["symbols"]

    def test_message_symbols_look_uniform_over_rounds(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        cfg = small_cfg(clients=4)
        digits = np.array([3])  # constant plaintext
        # Client 0's mask sums its pairs (0, 2) and (0, 3); one window holds every round.
        pairs = pair_phase_window(4, 29, 0, 10_000, np.array([0, 0]), np.array([2, 3]))
        samples = turns.add(modulate(digits, cfg), pairs.sum(axis=1, dtype=np.uint64))
        per_round = [client_message(0, digits, assignment,
                                    sample_round_channel(4, iteration=t, seed=29), ALG1,
                                    seed=29, cfg=cfg).masked.symbols[0] for t in range(500)]
        assert samples[:500].tolist() == per_round
        assert chi_square_uniformity(samples, bins=16).passed

    def test_unknown_version_rejected(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=3)
        with pytest.raises(ValueError):
            client_message(0, [0], assignment, chan, "alg3", 3, small_cfg())


class TestAggregateAndDecode:
    def test_matches_plaintext_oracle(self):
        assignment = two_group_from_sides([0, 2], [1, 3])
        cfg = small_cfg(levels=5, clients=4)
        gen = np.random.default_rng(31)
        for t in range(25):
            chan = sample_round_channel(4, iteration=t, seed=31)
            digits = [gen.integers(0, 5, size=6) for _ in range(4)]
            messages = [
                client_message(i, digits[i], assignment, chan, ALG1, 31, cfg)
                for i in range(4)
            ]
            symbols = np.stack([m.masked.symbols for m in messages])
            digit_sums, mean = ps_aggregate_and_decode(symbols, 0, cfg)
            oracle_sums = np.sum(digits, axis=0)
            assert np.array_equal(digit_sums, oracle_sums)
            oracle_mean = (np.array(digits) * (2 / 4) - 1).mean(axis=0)
            assert np.allclose(mean, oracle_mean, atol=1e-12)

    def test_all_zero_digits(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        cfg = small_cfg(levels=5, clients=4)
        chan = sample_round_channel(4, iteration=0, seed=33)
        messages = [
            client_message(i, np.zeros(3, dtype=np.int64), assignment, chan,
                           ALG1, 33, cfg)
            for i in range(4)
        ]
        symbols = np.stack([m.masked.symbols for m in messages])
        digit_sums, mean = ps_aggregate_and_decode(symbols, 0, cfg)
        assert np.array_equal(digit_sums, np.zeros(3, dtype=np.int64))
        assert np.all(mean == -1.0)

    def test_missing_message_breaks_cancellation(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        cfg = small_cfg(levels=5, clients=4)
        chan = sample_round_channel(4, iteration=0, seed=35)
        messages = [
            client_message(i, np.array([1, 2]), assignment, chan, ALG1, 35, cfg)
            for i in range(3)  # client 3 omitted, no correction
        ]
        with pytest.raises(ResidualMaskError):
            ps_aggregate_and_decode(np.stack([m.masked.symbols for m in messages]), 0, cfg)

    def test_empty_round_unrecoverable(self):
        with pytest.raises(UnrecoverableRoundError):
            ps_aggregate_and_decode(np.empty((0, 3), dtype=np.uint64), 0, small_cfg())


class TestDropoutCorrection:
    def test_no_dropouts_correction_is_private_phase_sum(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=2, seed=37)
        transcript = run_round(np.zeros((4, 2), dtype=np.int64), assignment, chan,
                               small_cfg(clients=4), version=ALG2, seed=37)
        reveals = transcript.reveals
        expected = turns.sub(0, turns.total(sample_private_phase(i, 2, seed=37)
                                            for i in range(4)))
        assert dropout_correction(reveals, assignment) == expected
        assert dropout_correction((), assignment) == 0
        assert [(r["kind"], r["clients"]) for r in reveals] == [("private-phases", [0, 1, 2, 3])]
        assert transcript.counters["recovery_messages"] == 0
        assert transcript.counters["private_phase_reveals"] == 4

    def test_single_dropout_all_choices(self):
        cfg = small_cfg(levels=5, clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        gen = np.random.default_rng(39)
        for dropped in range(4):
            chan = sample_round_channel(4, iteration=dropped, seed=39)
            digits = [gen.integers(0, 5, size=4) for _ in range(4)]
            transcript = run_round(digits, assignment, chan, cfg, version=ALG2,
                                   seed=39, dropped=[dropped])
            survivor_sum = np.sum(
                [digits[i] for i in range(4) if i != dropped], axis=0
            )
            assert np.array_equal(np.array(transcript.aggregate), survivor_sum)

    def test_dropout_on_each_side_simultaneously(self):
        cfg = small_cfg(levels=5, clients=6)
        assignment = two_group_from_sides([0, 1, 2], [3, 4, 5])
        gen = np.random.default_rng(41)
        chan = sample_round_channel(6, iteration=0, seed=41)
        digits = [gen.integers(0, 5, size=3) for _ in range(6)]
        transcript = run_round(digits, assignment, chan, cfg, version=ALG2,
                               seed=41, dropped=[0, 4])
        survivor_sum = np.sum([digits[i] for i in (1, 2, 3, 5)], axis=0)
        assert np.array_equal(np.array(transcript.aggregate), survivor_sum)

    def test_fully_dropped_side_is_unrecoverable(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=43)
        with pytest.raises(UnrecoverableRoundError, match="the '-' side of group 0 lost"):
            run_round(np.zeros((4, 2), dtype=np.int64), assignment, chan,
                      small_cfg(clients=4), version=ALG2, seed=43, dropped=[2, 3])

    def test_all_dropped_is_unrecoverable(self):
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=43)
        with pytest.raises(UnrecoverableRoundError, match="every client dropped out"):
            run_round(np.zeros((4, 2), dtype=np.int64), assignment, chan,
                      small_cfg(clients=4), version=ALG2, seed=43, dropped=[0, 1, 2, 3])

    @pytest.mark.parametrize("version, naive_remedy",
                             [(ALG1, False), (ALG2, False), (ALG1, True)])
    @pytest.mark.parametrize("dropped, named", [([8], 8), ([-1], -1), ([1, 9], 9)])
    def test_a_drop_id_outside_the_layout_is_an_index_error(self, version, naive_remedy,
                                                            dropped, named):
        # The drop set is checked before anything else: under alg1 too, where
        # any dropout would otherwise refuse the round as unrecoverable.
        assignment = assign_subgroups(8, 2, 2, seed=1)
        chan = sample_round_channel(8, iteration=0, seed=1)
        with pytest.raises(IndexError, match=f"dropped client {named} is not in"):
            run_round(np.ones((8, 3), dtype=np.int64), assignment, chan,
                      small_cfg(levels=4, clients=8), version=version, seed=1,
                      dropped=dropped, naive_remedy=naive_remedy)

    def test_reveal_log_never_pairs_mask_and_private_phase(self):
        assignment = assign_subgroups(8, 2, 2, seed=45)
        cfg = small_cfg(levels=5, clients=8)
        gen = np.random.default_rng(45)
        for t in range(30):
            chan = sample_round_channel(8, iteration=t, seed=45)
            digits = [gen.integers(0, 5, size=2) for _ in range(8)]
            dropped = [int(gen.integers(0, 8))]
            try:
                transcript = run_round(digits, assignment, chan, cfg,
                                       version=ALG2, seed=45, dropped=dropped)
            except UnrecoverableRoundError:
                continue
            log = legacy_reveals(transcript.reveals)
            private = {r["client"] for r in log if r["kind"] == "private-phase"}
            for client in private:
                comp = set(assignment.complementary_set(client))
                exposed = set()
                for r in log:
                    if r["kind"] == "mask-share":
                        if r["dropped"] == client:
                            exposed.add(r["revealer"])
                        elif r["revealer"] == client:
                            exposed.add(r["dropped"])
                assert not comp.issubset(exposed)


    def test_reveal_safety_audit_raises_typed_error(self):
        # Client 0's private phase plus both shares of its mask (toward 2
        # and 3) would expose its plaintext.
        assignment = two_group_from_sides([0, 1], [2, 3])
        reveals = [
            {"kind": "private-phases", "clients": [0], "phases": np.array([1], np.uint64)},
            {"kind": "mask-shares", "dropped": 2, "revealers": [0],
             "phases": np.array([2], np.uint64)},
            {"kind": "mask-shares", "dropped": 3, "revealers": [0],
             "phases": np.array([3], np.uint64)},
        ]
        with pytest.raises(RevealSafetyError) as err:
            _audit_reveal_safety(reveals, assignment)
        assert isinstance(err.value, PhaseAggError)
        _audit_reveal_safety(reveals[:2], assignment)


class TestRoundEngine:
    """The batched round equals the per-client definitions, value for value."""

    @settings(max_examples=60, deadline=None)
    @given(round_cases())
    def test_signed_masks_match_compute_group_mask(self, case):
        assignment = case["assignment"]
        n = assignment.num_clients
        chan = sample_round_channel(n, iteration=case["iteration"], seed=case["seed"])
        length = case["dimension"] if case["per_symbol"] else None
        masks = signed_masks(assignment, channel_pairs(assignment, chan, length))
        assert masks.dtype == np.uint32
        assert masks.shape == ((n, length) if case["per_symbol"] else (n,))
        for i in range(n):
            ref = compute_group_mask(i, assignment, chan, length=length)
            if assignment.tag_of[i] == MINUS:
                ref = turns.sub(0, ref)
            assert np.array_equal(masks[i], ref)

    @pytest.mark.parametrize("length", [None, 2])
    def test_signed_masks_refuse_a_row_of_another_layout(self, length):
        assignment = assign_subgroups(8, 2, 2, seed=3)
        pairs = channel_pairs(assignment, sample_round_channel(8, 0, 3), length)
        with pytest.raises(ValueError, match="need 8 cross-pair phases"):
            signed_masks(assignment, pairs[:-1])

    def test_cross_pair_index_matches_complementary_sets(self):
        assignment = assign_subgroups(13, 2, 3, seed=4)
        plus, minus = assignment.cross_pair_index
        for i in range(13):
            assert pair_partners(assignment, i) == assignment.complementary_set(i)
        assert len(plus) == len(minus) == assignment.cross_pair_count()
        assert not plus.flags.writeable and not minus.flags.writeable

    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_private_phases_match_sample_private_phase(self, per_symbol):
        length = 4 if per_symbol else None
        assignment = assign_two_groups(8, seed=1)
        chan = sample_round_channel(8, iteration=9, seed=1)
        batch = round_phases(assignment, chan, 2**32 - 1, private=True, length=length).private
        assert batch.shape == ((8, 4) if per_symbol else (8,))
        assert batch.dtype == np.uint32
        for i, phase in enumerate(batch):
            assert np.array_equal(phase, sample_private_phase(i, 9, seed=2**32 - 1,
                                                              length=length))
        assert round_phases(assignment, chan, 1, private=False, length=length).private is None

    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_round_messages_match_client_message(self, per_symbol):
        assignment = assign_subgroups(12, 2, 3, seed=8)
        chan = sample_round_channel(12, iteration=1, seed=8)
        cfg = small_cfg(levels=4, clients=12)
        digits = [np.array([i % 4, (i + 1) % 4, 3]) for i in range(12)]
        transcript = run_round(digits, assignment, chan, cfg, version=ALG2, seed=8,
                               dropped=[2], delayed=9, per_symbol=per_symbol)
        senders = [m.owner for m in transcript.messages]
        assert senders == [i for i in range(12) if i not in (2, 9)]
        for msg in transcript.messages:
            ref = client_message(msg.owner, digits[msg.owner], assignment, chan, ALG2,
                                 8, cfg, length=3 if per_symbol else None)
            assert message_fields(msg) == message_fields(ref)


class TestTranscriptEncoding:
    """The JSON form holds plain Python numbers, byte for byte as before."""

    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_json_matches_per_element_conversion(self, per_symbol):
        assignment = assign_subgroups(12, 2, 3, seed=8)
        chan = sample_round_channel(12, iteration=1, seed=8)
        cfg = small_cfg(levels=4, clients=12)
        gen = np.random.default_rng(63)
        digits = [gen.integers(0, 4, size=5) for _ in range(12)]
        transcript = run_round(digits, assignment, chan, cfg, version=ALG2, seed=8,
                               dropped=[2], per_symbol=per_symbol)
        encoded = transcript.to_json_dict()
        assert encoded["transcript_format"] == TRANSCRIPT_FORMAT
        assert encoded["mask_mode"] == ("per-symbol" if per_symbol else "scalar")
        assert encoded["version"] == ALG2
        for row, msg in zip(encoded["messages"], transcript.messages):
            assert set(row) == {"owner", "symbols"}
            assert all(type(s) is int for s in row["symbols"])
            assert np.array_equal(np.array(row["symbols"], dtype=np.uint64),
                                  msg.masked.symbols)
        assert all(type(x) is int for x in encoded["aggregate"])
        assert all(type(x) is float for x in encoded["decoded_mean"])
        shares, private = encoded["reveals"]
        assert (shares["kind"], shares["dropped"]) == ("mask-shares", 2)
        assert (private["kind"], private["clients"]) == (
            "private-phases", [i for i in range(12) if i != 2])
        for record, kept in zip(encoded["reveals"], transcript.reveals):
            assert np.array(record["phases"]).shape == kept["phases"].shape
            assert all(type(x) is int for x in np.ravel(record["phases"]).tolist())

        # The element-by-element form the encoder used to write.
        sums = np.sum([digits[i] for i in range(12) if i != 2], axis=0)
        reference = dict(
            encoded,
            messages=[dict(row, symbols=[int(s) for s in msg.masked.symbols])
                      for row, msg in zip(encoded["messages"], transcript.messages)],
            reveals=[dict(r, phases=[[int(x) for x in p] if per_symbol else int(p)
                                     for p in r["phases"]])
                     for r in transcript.reveals],
            aggregate=[int(x) for x in sums],
            decoded_mean=[float(x) for x in dequantize_mean(sums, 11, cfg)],
        )

        def dump(d):
            return json.dumps(d, sort_keys=True, separators=(",", ":"))

        assert dump(encoded) == dump(reference)


def canonical_line(transcript) -> bytes:
    return json.dumps(transcript.to_json_dict(), sort_keys=True,
                      separators=(",", ":")).encode()


def small_round(**kwargs):
    """An alg2 round of 8 clients and 10 symbols, client 5 dropped: one record of each kind."""
    return run_round(np.ones((8, 10), dtype=np.int64), assign_subgroups(8, 2, 2, seed=3),
                     sample_round_channel(8, iteration=0, seed=3),
                     small_cfg(levels=4, clients=8), version=ALG2, seed=3, dropped=[5],
                     **kwargs)


def with_arrays(transcript, symbols=None, aggregate=None, shares=None, private=None):
    """`transcript` with its symbol matrix, aggregate or reveal phases replaced."""
    first, second = transcript.reveals
    return dataclasses.replace(
        transcript,
        symbols=transcript.symbols if symbols is None else symbols,
        senders=transcript.senders if symbols is None else tuple(range(len(symbols))),
        aggregate=transcript.aggregate if aggregate is None else aggregate,
        reveals=(first if shares is None else dict(first, phases=shares),
                 second if private is None else dict(second, phases=private)))


# 0, one below, at and one above every power of ten, the 10**4 and 10**8
# group boundaries, and the largest value below 2**32.
EDGE_VALUES = sorted({0, 9, 99999999, 100000000, 2**32 - 1}
                     | {10**k + e for k in range(1, 10) for e in (-1, 0, 1)})


@st.composite
def integer_arrays(draw, ndim):
    """An `ndim`-dimensional integer array in [0, 2**32) of any width and
    either byte order, laid out contiguous, strided, reversed, transposed
    or in Fortran order, and maybe read-only; possibly empty."""
    dtype = draw(st.one_of(hnp.integer_dtypes(endianness="?"),
                           hnp.unsigned_integer_dtypes(endianness="?")))
    top = min(int(np.iinfo(dtype).max), 2**32 - 1)
    matrix = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                     max_side=6),
                             elements=st.one_of(st.integers(0, top), st.sampled_from(
                                 [v for v in EDGE_VALUES if v <= top]))))
    array = draw(st.sampled_from(
        [matrix.ravel(), matrix.ravel()[::2], matrix.ravel()[::-1], matrix.T[0]]
        if ndim == 1 and matrix.shape[1] else
        [matrix.ravel(), matrix.ravel()[::2], matrix.ravel()[::-1]] if ndim == 1 else
        [matrix, matrix[:, ::2], matrix[::-1, ::-1], matrix.T, np.asfortranarray(matrix)]))
    if draw(st.booleans()):
        array = array.view()
        array.setflags(write=False)
    return array


# Arrays the writer refuses in place of a one-dimensional array, with the
# message each is refused with.  In place of a matrix, each is its one row.
BAD_ARRAYS = [
    (np.array([0, 2**32], dtype=np.uint64), r"\[0, 2\*\*32\)"),
    (np.array([2**64 - 1], dtype=np.uint64), r"\[0, 2\*\*32\)"),
    (np.array([2**63], dtype=np.uint64), r"\[0, 2\*\*32\)"),
    (np.array([0, 0, 0, 0, -1], dtype=np.int64), r"\[0, 2\*\*32\)"),
    (np.array([1.0, 2.0]), "dtype kinds"),
    (np.array([True]), "dtype kinds"),
    (np.array([]), "dtype kinds"),
    (np.array(5), "dimensional"),
    (np.zeros((2, 2), dtype=np.uint64), "dimensional"),
]
BAD_IDS = ["2**32", "2**64-1", "2**63", "negative", "float", "bool", "empty-float", "0-d",
           "2-d"]


class TestLineRendering:
    """`RoundTranscript.to_json_parts` writes what json.dumps writes for
    `to_json_dict()`, whatever the layout of its integer arrays."""

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.data())
    def test_any_width_byte_order_and_layout_matches_json_dumps(self, per_symbol, data):
        phases = 2 if per_symbol else 1
        transcript = with_arrays(small_round(per_symbol=per_symbol),
                                 *(data.draw(integer_arrays(ndim)) for ndim in (2, 1, phases,
                                                                                phases)))
        assert transcript.to_json_line() == canonical_line(transcript)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(st.sampled_from([np.uint64, np.int64]),
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40),
                      elements=st.one_of(st.sampled_from(EDGE_VALUES),
                                         st.integers(0, 2**32 - 1))))
    def test_symbol_matrices_match_json_dumps(self, matrix):
        transcript = with_arrays(small_round(), symbols=matrix)
        assert transcript.to_json_line() == canonical_line(transcript)

    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_edge_values_in_every_integer_array(self, per_symbol):
        row = np.array(EDGE_VALUES, dtype=np.uint64)
        shares, private = (np.stack([row[::-1]] * 2), np.stack([row] * 3)) if per_symbol else (
            row[::-1], row)
        transcript = with_arrays(small_round(per_symbol=per_symbol),
                                 symbols=np.stack([row, row[::-1]]), aggregate=row,
                                 shares=shares, private=private.astype(np.int64))
        line = transcript.to_json_line()
        assert line == canonical_line(transcript)
        assert b"[4294967295,1000000001,1000000000" in line

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_edge_value_alone(self, value):
        one = np.array([value], dtype=np.uint64)
        for per_symbol, phases, text in [(False, one, b'"phases":[%d]'),
                                         (True, one[:, None], b'"phases":[[%d]]')]:
            transcript = with_arrays(small_round(per_symbol=per_symbol), symbols=one[:, None],
                                     aggregate=one, shares=phases, private=phases)
            line = transcript.to_json_line()
            assert line == canonical_line(transcript)
            for each in [b'"aggregate":[%d]', b'"symbols":[%d]', text]:
                assert line.count(each % value) == 1 + (each == text)

    @pytest.mark.parametrize("shape", [(0, 10), (3, 0), (0, 0)])
    def test_empty_arrays(self, shape):
        empty = np.zeros(shape, dtype=np.int64)
        for per_symbol, shares, private in [(False, np.zeros(0, ">i2"), np.zeros(0, np.uint32)),
                                            (True, empty.T, empty)]:
            transcript = with_arrays(small_round(per_symbol=per_symbol), symbols=empty,
                                     aggregate=np.zeros(0, int), shares=shares, private=private)
            assert transcript.to_json_line() == canonical_line(transcript)

    def test_one_long_row_and_many_short_rows(self):
        gen = np.random.default_rng(5)
        for shape in [(1, 2**16 + 3), (2**14, 3)]:
            transcript = with_arrays(small_round(), symbols=gen.integers(
                0, 2**32, size=shape, dtype=np.uint64))
            assert transcript.to_json_line() == canonical_line(transcript)

    @pytest.mark.parametrize("bad, match", BAD_ARRAYS, ids=BAD_IDS)
    @pytest.mark.parametrize("field", ["symbols", "aggregate", "shares", "private"])
    def test_every_bad_array_is_refused_before_the_first_part(self, field, bad, match,
                                                              monkeypatch):
        # The symbols and, per symbol, the private phases are matrices.
        per_symbol = field == "private"
        transcript = with_arrays(small_round(per_symbol=per_symbol), **{
            field: bad[None] if field == "symbols" or per_symbol else bad})
        import orjson

        monkeypatch.setattr(orjson, "dumps", None)  # no part may be made
        with pytest.raises(ValueError, match=match):
            transcript.to_json_parts()

    # 19 senders of 5,000 symbols, 6 whole rows a block; 7 short rows fit one block.
    @pytest.mark.parametrize("clients, width, blocks", [(20, 5000, [6, 6, 6, 1]), (8, 10, [7])],
                             ids=["four-blocks", "one-block"])
    def test_a_line_is_one_orjson_call_per_block_of_rows(self, monkeypatch, clients, width,
                                                         blocks):
        import orjson

        transcript = run_round(np.random.default_rng(67).integers(0, 4, size=(clients, width)),
                               assign_two_groups(clients, seed=4),
                               sample_round_channel(clients, iteration=0, seed=4),
                               small_cfg(levels=4, clients=clients), version=ALG2, seed=4,
                               dropped=[3])
        calls = []
        dumps = orjson.dumps
        monkeypatch.setattr(orjson, "dumps",
                            lambda value, **k: calls.append((value, dumps(value, **k)))
                            or calls[-1][1])
        parts = transcript.to_json_parts()
        assert calls == []  # checked now, rendered as the parts are taken
        parts = [bytes(part) for part in parts]
        assert b"".join(parts) == canonical_line(transcript)
        rows = [(value, text) for value, text in calls if isinstance(value, list)]
        assert [len(value) for value, _ in rows] == blocks
        assert [m["owner"] for value, _ in rows for m in value] == list(transcript.senders)
        assert [sorted(value) for value, _ in calls if isinstance(value, dict)] == [
            ["aggregate", "assignment", "codec_metrics", "counters"],
            ["delayed", "delayed_discarded", "dropped", "iteration", "mask_mode"],
            ["num_contributors", "reveals", "transcript_format", "version"]]
        assert len(calls) == len(blocks) + 3
        assert max(map(len, parts)) <= max(len(text) - 2 for _, text in rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-05, 0.1, 1 / 3]))))
    def test_float_lists_match_json_dumps(self, values):
        # Repeated past `_DEDUPE_FLOATS`, the values take the dedupe path too.
        for vector in (values, values * (_DEDUPE_FLOATS // max(1, len(values)) + 1)):
            expected = json.dumps(vector, separators=(",", ":")).encode()
            assert float_list_json(np.array(vector, dtype=np.float64)) == expected
        transcript = dataclasses.replace(small_round(),
                                         decoded_mean=np.array(values, dtype=np.float64))
        assert transcript.to_json_line() == canonical_line(transcript)

    def test_zero_and_negative_zero_stay_apart(self):
        values = [0.0, -0.0, 0.0, -0.0]
        assert float_list_json(np.array(values)) == b"[0.0,-0.0,0.0,-0.0]"
        assert float_list_json(np.array(values * _DEDUPE_FLOATS)) \
            == b"[" + b",".join([b"0.0,-0.0,0.0,-0.0"] * _DEDUPE_FLOATS) + b"]"
        with pytest.raises(ValueError, match="one-dimensional"):
            float_list_json(np.zeros((2, 2)))

    def test_a_refused_line_leaves_only_whole_lines(self, tmp_path):
        good = run_round(np.ones((8, 10), dtype=np.int64), assign_subgroups(8, 2, 2, seed=3),
                         sample_round_channel(8, iteration=0, seed=3),
                         small_cfg(levels=4, clients=8), version=ALG2, seed=3, dropped=[5])
        # A revealed phase off the grid is refused after the symbol rows.
        shares, private = good.reveals
        bad = dataclasses.replace(good, reveals=(
            dict(shares, phases=np.array([1, 2**32], dtype=np.uint64)), private))
        path = tmp_path / "transcripts.jsonl"
        # The path already holds a longer file, which must leave no trace.
        path.write_bytes(good.to_json_line() * 4 + b"\nold\n")
        with pytest.raises(ValueError):
            write_transcripts([good, bad], path)
        assert path.read_bytes() == good.to_json_line() + b"\n"

    # Short rows; rows of 3,000 and 5,000 symbols, 10 and 6 to a block, so
    # that 12 or 9 senders leave a short last block; and rows longer than a block.
    @pytest.mark.parametrize("width", [7, 3000, 5000, 2**15 + 5])
    @pytest.mark.parametrize("per_symbol", [False, True])
    @pytest.mark.parametrize("version", [ALG1, ALG2])
    def test_written_file_equals_the_joined_lines(self, tmp_path, width, per_symbol,
                                                  version):
        assignment = assign_subgroups(12, 2, 3, seed=8)
        cfg = small_cfg(levels=4, clients=12)
        gen = np.random.default_rng(65)
        transcripts = [
            run_round(gen.integers(0, 4, size=(12, width)), assignment,
                      sample_round_channel(12, iteration=t, seed=8), cfg, version=version,
                      seed=8, dropped=dropped, delayed=delayed, per_symbol=per_symbol,
                      naive_remedy=version == ALG1)
            for t, (dropped, delayed) in enumerate([((), None), ((1, 7), 4)])]
        path = tmp_path / "transcripts.jsonl"
        write_transcripts(transcripts, path)
        lines = [t.to_json_line() + b"\n" for t in transcripts]
        assert path.read_bytes() == b"".join(lines)
        assert lines == [json.dumps(t.to_json_dict(), sort_keys=True,
                                    separators=(",", ":")).encode() + b"\n"
                         for t in transcripts]

    def test_a_failed_block_leaves_only_the_lines_before_it(self, tmp_path, monkeypatch):
        import orjson

        transcripts = [run_round(np.random.default_rng(68).integers(0, 4, size=(12, 5000)),
                                 assign_subgroups(12, 2, 3, seed=8),
                                 sample_round_channel(12, iteration=t, seed=8),
                                 small_cfg(levels=4, clients=12), version=ALG2, seed=8)
                       for t in range(2)]
        first = transcripts[0].to_json_line() + b"\n"
        path = tmp_path / "transcripts.jsonl"
        path.write_bytes(first * 3)  # an older, longer file leaves no trace
        # Each line is five orjson calls: two key groups, blocks of 6 and 6
        # rows, then the keys after "messages".  Call 9 is the second line's
        # second block.
        calls, sizes = [], []
        dumps = orjson.dumps

        def failing(value, **kwargs):
            calls.append(value)
            if len(calls) == 9:
                sizes.append(path.stat().st_size)
                raise MemoryError("no room for this block")
            return dumps(value, **kwargs)

        monkeypatch.setattr(orjson, "dumps", failing)
        with pytest.raises(MemoryError):
            write_transcripts(transcripts, path)
        assert [len(block) for block in calls[7:9]] == [6, 6]
        assert sizes[0] > len(first)  # the second line's first block was written
        assert path.read_bytes() == first

    @pytest.mark.parametrize("d, limit", [(4096, 3 * 2**19), (16384, 3 * 2**20)])
    def test_writing_a_wide_round_holds_one_block_at_a_time(self, tmp_path, d, limit):
        n = 64
        cfg = small_cfg(levels=16, clients=n)
        digits = np.random.default_rng(66).integers(0, 16, size=(n, d))
        transcript = run_round(digits, assign_two_groups(n, seed=9),
                               sample_round_channel(n, iteration=0, seed=9), cfg,
                               version=ALG1, seed=9)
        path = tmp_path / "transcripts.jsonl"
        write_transcripts([transcript], path)  # imports orjson once
        tracemalloc.start()
        try:
            write_transcripts([transcript], path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Lines of 2.9 and 11.7 MB.  Held whole in orjson's output, they
        # peaked at 4.55 and 18.2 MB traced; a block of rows at a time, at
        # 0.66 and 2.06 MB.
        assert path.stat().st_size > 700 * d
        assert peak <= limit


class TestRunRound:
    def test_counters_two_group(self):
        cfg = small_cfg(levels=5, clients=8)
        assignment = assign_two_groups(8, seed=47)
        chan = sample_round_channel(8, iteration=0, seed=47)
        digits = [np.zeros(2, dtype=np.int64)] * 8
        transcript = run_round(digits, assignment, chan, cfg, version=ALG1, seed=47)
        l = assignment.plus_size()
        assert transcript.counters["phase_estimations"] == l * (8 - l)
        assert transcript.counters["uplink_messages"] == 8
        assert transcript.counters["recovery_messages"] == 0

    def test_counters_subgroup(self):
        cfg = small_cfg(levels=5, clients=16)
        assignment = assign_subgroups(16, 4, 2, seed=49)
        chan = sample_round_channel(16, iteration=0, seed=49)
        digits = [np.zeros(2, dtype=np.int64)] * 16
        transcript = run_round(digits, assignment, chan, cfg, version=ALG1, seed=49)
        assert transcript.counters["phase_estimations"] == 4 * 2 * 2
        assert transcript.counters["phase_estimations"] == 16 * 2 // 2

    def test_recovery_message_count_is_surviving_complement(self):
        cfg = small_cfg(levels=5, clients=8)
        assignment = assign_subgroups(8, 2, 2, seed=51)
        chan = sample_round_channel(8, iteration=0, seed=51)
        digits = [np.zeros(2, dtype=np.int64)] * 8
        dropped = assignment.side(0, PLUS)[0]
        transcript = run_round(digits, assignment, chan, cfg, version=ALG2,
                               seed=51, dropped=[dropped])
        assert transcript.counters["recovery_messages"] == 2

    def test_alg1_dropout_unrecoverable_without_remedy(self):
        cfg = small_cfg(levels=5, clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=53)
        digits = [np.zeros(2, dtype=np.int64)] * 4
        with pytest.raises(UnrecoverableRoundError):
            run_round(digits, assignment, chan, cfg, version=ALG1, seed=53,
                      dropped=[1])

    def test_naive_remedy_decodes_but_is_flagged_insecure_path(self):
        cfg = small_cfg(levels=5, clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=53)
        gen = np.random.default_rng(53)
        digits = [gen.integers(0, 5, size=3) for _ in range(4)]
        transcript = run_round(digits, assignment, chan, cfg, version=ALG1,
                               seed=53, dropped=[1], naive_remedy=True)
        survivor_sum = np.sum([digits[i] for i in (0, 2, 3)], axis=0)
        assert np.array_equal(np.array(transcript.aggregate), survivor_sum)
        assert transcript.counters["private_phase_reveals"] == 0

    def test_transcripts_deterministic(self):
        cfg = small_cfg(levels=5, clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        gen1 = np.random.default_rng(55)
        gen2 = np.random.default_rng(55)
        chan = sample_round_channel(4, iteration=0, seed=55)
        d1 = [gen1.integers(0, 5, size=3) for _ in range(4)]
        d2 = [gen2.integers(0, 5, size=3) for _ in range(4)]
        t1 = run_round(d1, assignment, chan, cfg, version=ALG2, seed=55, dropped=[2])
        t2 = run_round(d2, assignment, chan, cfg, version=ALG2, seed=55, dropped=[2])
        assert t1.to_json_dict() == t2.to_json_dict()

    def test_masked_sum_equals_unmasked_sum_random_rounds(self):
        # masked aggregate always reduces to the unmasked modular symbol sum
        gen = np.random.default_rng(57)
        for t in range(40):
            clients = int(gen.choice([4, 5, 8]))
            cfg = small_cfg(levels=5, clients=clients)
            assignment = assign_two_groups(clients, seed=57 + t)
            chan = sample_round_channel(clients, iteration=t, seed=57)
            digits = [gen.integers(0, 5, size=4) for _ in range(clients)]
            messages = [
                client_message(i, digits[i], assignment, chan, ALG1, 57, cfg)
                for i in range(clients)
            ]
            masked_sum = turns.vector_total([m.masked.symbols for m in messages])
            unmasked_sum = turns.vector_total(
                [modulate(d, cfg) for d in digits]
            )
            assert np.array_equal(masked_sum, unmasked_sum)

    def test_digits_for_the_wrong_number_of_clients(self):
        with pytest.raises(ShapeError, match="^need digits for all 4 clients, got 3$"):
            run_round(np.zeros((3, 2), dtype=np.int64), two_group_from_sides([0, 1], [2, 3]),
                      sample_round_channel(4, iteration=0, seed=59), small_cfg(clients=4),
                      version=ALG1, seed=59)

    def test_dimension_mismatch(self):
        cfg = small_cfg(levels=5, clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=59)
        digits = [np.zeros(2, dtype=np.int64)] * 3 + [np.zeros(3, dtype=np.int64)]
        with pytest.raises(ShapeError):
            run_round(digits, assignment, chan, cfg, version=ALG1, seed=59)

    @pytest.mark.parametrize("bad", [1.5, np.nan, -1, 5])
    def test_digits_that_are_not_valid_integers_are_refused(self, bad):
        cfg = small_cfg(levels=5, clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=59)
        digits = [np.array([1.0, 2.0])] * 3 + [np.array([bad, 2.0])]
        with pytest.raises(InvalidDigitError):
            run_round(digits, assignment, chan, cfg, version=ALG1, seed=59)

    def test_per_symbol_mode_round(self):
        cfg = small_cfg(levels=5, clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=61)
        gen = np.random.default_rng(61)
        digits = [gen.integers(0, 5, size=5) for _ in range(4)]
        transcript = run_round(digits, assignment, chan, cfg, version=ALG2,
                               seed=61, dropped=[3], per_symbol=True)
        survivor_sum = np.sum([digits[i] for i in (0, 1, 2)], axis=0)
        assert np.array_equal(np.array(transcript.aggregate), survivor_sum)
        assert transcript.mask_mode == "per-symbol"


class TestExhaustiveDropPatterns:
    """Any drop pattern either decodes the survivor sum or raises, decided
    by whether every subgroup side keeps a survivor."""

    def _expect_feasible(self, assignment, dropped):
        survivors = set(range(assignment.num_clients)) - set(dropped)
        if not survivors:
            return False
        for g in range(assignment.num_groups):
            for tag in (PLUS, MINUS):
                if not survivors.intersection(assignment.side(g, tag)):
                    return False
        return True

    @pytest.mark.parametrize("layout", ["two-group", "subgroup"])
    def test_every_pattern(self, layout):
        if layout == "two-group":
            clients = 6
            assignment = assign_two_groups(clients, seed=63)
        else:
            clients = 8
            assignment = assign_subgroups(clients, 2, 2, seed=63)
        cfg = small_cfg(levels=3, clients=clients)
        gen = np.random.default_rng(63)
        digits = [gen.integers(0, 3, size=2) for _ in range(clients)]
        chan = sample_round_channel(clients, iteration=0, seed=63)
        for pattern in itertools.product([False, True], repeat=clients):
            dropped = [i for i, d in enumerate(pattern) if d]
            if self._expect_feasible(assignment, dropped):
                transcript = run_round(digits, assignment, chan, cfg,
                                       version=ALG2, seed=63, dropped=dropped)
                survivor_sum = np.sum(
                    [digits[i] for i in range(clients) if i not in dropped],
                    axis=0,
                )
                assert np.array_equal(np.array(transcript.aggregate), survivor_sum)
            else:
                with pytest.raises(UnrecoverableRoundError):
                    run_round(digits, assignment, chan, cfg, version=ALG2,
                              seed=63, dropped=dropped)


def _recoverable(assignment, absent) -> bool:
    return all(set(assignment.side(g, tag)) - set(absent)
               for g in range(assignment.num_groups) for tag in (PLUS, MINUS))


def first_lost_side(assignment, absent) -> str:
    """The refusal naming the first side, scanning every (group, tag), that lost every client."""
    lost = [(g, tag) for g in range(assignment.num_groups) for tag in (PLUS, MINUS)
            if set(assignment.side(g, tag)) <= set(absent)]
    g, tag = lost[0]
    return f"the {tag!r} side of group {g} lost all its clients"


def legacy_reveals(records) -> list:
    """The per-share reveal log of a `reveals` list, one entry per revealed phase."""
    log = []
    for r in records:
        if r["kind"] == "mask-shares":
            log += [{"kind": "mask-share", "dropped": r["dropped"], "revealer": j,
                     "phase": phase} for j, phase in zip(r["revealers"], r["phases"])]
        else:
            log += [{"kind": "private-phase", "client": j, "phase": phase}
                    for j, phase in zip(r["clients"], r["phases"])]
    return log


def per_share_audit(log, assignment) -> int | None:
    """The reveal audit as it ran on the legacy per-share log.

    Returns the client it would refuse (the smallest one whose private phase
    and every mask share are revealed), or None.
    """
    private = {r["client"] for r in log if r["kind"] == "private-phase"}
    exposed: dict[int, set[int]] = {}
    for r in log:
        if r["kind"] != "mask-share":
            continue
        exposed.setdefault(r["dropped"], set()).add(r["revealer"])
        exposed.setdefault(r["revealer"], set()).add(r["dropped"])
    for client in sorted(private.intersection(exposed)):
        comp = assignment.complementary_set(client)
        if comp and exposed[client].issuperset(comp):
            return client
    return None


class TestRevealAuditProperty:
    """The audit on reveal records agrees with the per-share audit on their expansion."""

    @settings(max_examples=150, deadline=None)
    @given(round_cases(), st.data())
    def test_fires_exactly_when_the_per_share_audit_does(self, case, data):
        assignment = case["assignment"]
        n = assignment.num_clients
        absent = case["dropped"] + ([case["delayed"]] if case["delayed"] is not None else [])
        records = []
        if _recoverable(assignment, absent):
            chan = sample_round_channel(n, iteration=case["iteration"], seed=case["seed"])
            transcript = run_round(
                np.zeros((n, case["dimension"]), dtype=np.int64), assignment, chan,
                small_cfg(levels=4, clients=n), version=case["version"], seed=case["seed"],
                dropped=case["dropped"], delayed=case["delayed"],
                per_symbol=case["per_symbol"], naive_remedy=case["version"] == ALG1)
            records = list(transcript.reveals)
            assert per_share_audit(legacy_reveals(records), assignment) is None
        # A server that asks for more than the protocol does: private phases
        # of any clients, and any shares of any client's mask.
        extra = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        if extra:
            records.append({"kind": "private-phases", "clients": extra,
                            "phases": np.zeros(len(extra), dtype=np.uint64)})
        for i in data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3)):
            revealers = data.draw(st.lists(st.sampled_from(assignment.complementary_set(i)),
                                           unique=True))
            records.append({"kind": "mask-shares", "dropped": i, "revealers": revealers,
                            "phases": np.zeros(len(revealers), dtype=np.uint64)})
        records = data.draw(st.permutations(records))
        refused = per_share_audit(legacy_reveals(records), assignment)
        if refused is None:
            _audit_reveal_safety(records, assignment)
        else:
            with pytest.raises(RevealSafetyError, match=f"client {refused}'s private phase"):
                _audit_reveal_safety(records, assignment)


class TestMatrixRoundProperty:
    """The (senders, d) matrix round equals the per-client definitions."""

    @settings(max_examples=80, deadline=None)
    @given(round_cases(), st.data())
    def test_rows_equal_client_message(self, tmp_path_factory, case, data):
        assignment = case["assignment"]
        n, d = assignment.num_clients, case["dimension"]
        cfg = small_cfg(levels=4, clients=n)
        digits = data.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 3)))
        chan = sample_round_channel(n, iteration=case["iteration"], seed=case["seed"])
        absent = case["dropped"] + ([case["delayed"]] if case["delayed"] is not None else [])
        kwargs = dict(version=case["version"], seed=case["seed"], dropped=case["dropped"],
                      delayed=case["delayed"], per_symbol=case["per_symbol"],
                      naive_remedy=case["version"] == ALG1)
        if not _recoverable(assignment, absent):
            with pytest.raises(UnrecoverableRoundError) as refused:
                run_round(digits, assignment, chan, cfg, **kwargs)
            assert str(refused.value).startswith(first_lost_side(assignment, absent))
            return
        transcript = run_round(digits, assignment, chan, cfg, **kwargs)
        # Neither a written line nor the JSON dict builds the messages.
        path = tmp_path_factory.mktemp("round") / "transcripts.jsonl"
        write_transcripts([transcript], path)
        line = transcript.to_json_line()
        assert path.read_bytes() == line + b"\n"
        assert line == json.dumps(
            transcript.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()
        assert "messages" not in vars(transcript)
        # The line reads back into the same round, which writes the same line.
        back = read_transcript_line(line)
        assert back.to_json_line() == line
        assert back.senders == transcript.senders
        for name, dtype in (("symbols", np.uint32), ("aggregate", np.int64),
                            ("decoded_mean", np.float64)):
            array, kept = getattr(back, name), getattr(transcript, name)
            assert array.dtype == dtype and not array.flags.writeable
            assert array.shape == kept.shape
            assert array.tobytes() == kept.astype(dtype).tobytes()
        assert len(back.reveals) == len(transcript.reveals)
        for record, kept in zip(back.reveals, transcript.reveals):
            assert dict(record, phases=None) == dict(kept, phases=None)
            assert record["phases"].dtype == np.uint32 and not record["phases"].flags.writeable
            assert np.array_equal(record["phases"], kept["phases"])

        senders = [i for i in range(n) if i not in absent]
        assert transcript.senders == tuple(senders)
        assert transcript.symbols.shape == (len(senders), d)
        assert transcript.symbols.dtype == np.uint32
        assert not transcript.symbols.flags.writeable
        assert [m.owner for m in transcript.messages] == senders
        length = d if case["per_symbol"] else None
        for k, msg in enumerate(transcript.messages):
            ref = client_message(msg.owner, digits[msg.owner], assignment, chan,
                                 case["version"], case["seed"], cfg, length=length)
            assert message_fields(msg) == message_fields(ref)
            assert np.array_equal(msg.masked.symbols, ref.masked.symbols)
            assert msg.masked.symbols.dtype == ref.masked.symbols.dtype
            assert not msg.masked.symbols.flags.writeable
            assert np.shares_memory(msg.masked.symbols, transcript.symbols)
            assert np.array_equal(msg.masked.symbols, transcript.symbols[k])
        assert transcript.messages is transcript.messages
        assert [(m.owner, m.masked.symbols.tolist()) for m in transcript.messages] == [
            (row["owner"], row["symbols"]) for row in transcript.to_json_dict()["messages"]]
        assert list(transcript.aggregate) == digits[senders].sum(axis=0).tolist()
        # One reveal record per query, equal to the per-client shares and phases.
        shares = [r for r in transcript.reveals if r["kind"] == "mask-shares"]
        assert [r["dropped"] for r in shares] == sorted(absent)
        for record in transcript.reveals:
            assert record["phases"].dtype == np.uint32
            assert not record["phases"].flags.writeable
            if record["kind"] == "mask-shares":
                ref = mask_shares(record["dropped"], senders, assignment, chan,
                                  length=length)
                assert record["revealers"] == [j for j, _ in ref]
                phases = np.array([p for _, p in ref], dtype=np.uint64)
                assert record["phases"].shape == phases.shape
                assert np.array_equal(record["phases"], phases)
            else:
                assert record["kind"] == "private-phases"
                assert record["clients"] == senders
                assert record["phases"].tolist() == [
                    np.asarray(sample_private_phase(i, case["iteration"], case["seed"],
                                                    length=length)).tolist()
                    for i in senders]
        assert len(transcript.reveals) == len(shares) + (case["version"] == ALG2)
        # A sequence of rows gives the same round as the matrix.
        again = run_round(list(digits), assignment, chan, cfg, **kwargs)
        assert again.to_json_line() == line

    @settings(max_examples=80, deadline=None)
    @given(round_cases(), st.data())
    def test_a_refusal_names_the_first_lost_side(self, case, data):
        # Wipe out a drawn set of sides, keeping one client alive, so rounds
        # that lose sides in several groups, or both sides of one, are common.
        assignment = case["assignment"]
        n = assignment.num_clients
        sides = [(g, tag) for g in range(assignment.num_groups) for tag in (PLUS, MINUS)]
        wiped = data.draw(st.lists(st.sampled_from(sides), min_size=1, unique=True))
        absent = {i for g, tag in wiped for i in assignment.side(g, tag)}
        absent |= set(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
        alive = data.draw(st.sampled_from(range(n)))
        absent.discard(alive)
        assume(not _recoverable(assignment, absent))
        chan = sample_round_channel(n, iteration=case["iteration"], seed=case["seed"])
        with pytest.raises(UnrecoverableRoundError) as refused:
            run_round(np.zeros((n, 2), dtype=np.int64), assignment, chan,
                      small_cfg(levels=4, clients=n), version=ALG2, seed=case["seed"],
                      dropped=sorted(absent))
        assert str(refused.value).startswith(first_lost_side(assignment, absent))

    @settings(max_examples=40, deadline=None)
    @given(round_cases())
    def test_assignment_sides_match_a_scan(self, case):
        a = case["assignment"]
        labels = list(zip(a.group_of, a.tag_of))
        for g in range(a.num_groups):
            for tag in (PLUS, MINUS):
                assert a.side(g, tag) == tuple(
                    i for i, key in enumerate(labels) if key == (g, tag))
        for i in range(a.num_clients):
            assert a.complementary_set(i) == pair_partners(a, i)
        assert a.cross_pair_count() == len(a.cross_pair_index[0])
        # Client i's k-th pair position joins it to its k-th counterpart.
        plus, minus = a.cross_pair_index
        positions = []
        for i in range(a.num_clients):
            side, others, places = a.pairs_of(i)
            assert (tuple(side), tuple(others)) == (a.side(a.group_of[i], a.tag_of[i]),
                                                    a.complementary_set(i))
            ends = [(int(plus[k]), int(minus[k])) for k in places]
            assert ends == [(i, j) if a.tag_of[i] == PLUS else (j, i) for j in others]
            positions += places
        assert sorted(positions) == sorted(2 * list(range(a.cross_pair_count())))

    def test_each_cross_pair_stream_is_expanded_once(self, monkeypatch):
        from phaseagg import masking

        assignment = assign_subgroups(14, 2, 3, seed=5)
        chan = sample_round_channel(14, iteration=2, seed=5)
        cfg = small_cfg(levels=4, clients=14)
        calls = []
        original = masking.pair_phase_stream

        def counted(channel, i, j, length):
            calls.append((min(i, j), max(i, j)))
            return original(channel, i, j, length)

        monkeypatch.setattr(masking, "pair_phase_stream", counted)
        digits = np.ones((14, 3), dtype=np.int64)
        transcript = run_round(digits, assignment, chan, cfg, version=ALG2, seed=5,
                               dropped=[assignment.side(0, PLUS)[0]],
                               delayed=assignment.side(1, MINUS)[0], per_symbol=True)
        assert len(calls) == len(set(calls)) == assignment.cross_pair_count()
        assert transcript.counters["recovery_messages"] > 0

    @pytest.mark.parametrize("bad", [1.5, np.nan, -1, 4])
    def test_one_bad_digit_in_the_matrix_is_refused(self, bad):
        assignment = assign_subgroups(8, 2, 2, seed=3)
        chan = sample_round_channel(8, iteration=0, seed=3)
        digits = np.ones((8, 3))
        digits[5, 1] = bad
        with pytest.raises(InvalidDigitError):
            run_round(digits, assignment, chan, small_cfg(levels=4, clients=8),
                      version=ALG2, seed=3)

    @pytest.mark.parametrize("version", [ALG1, ALG2])
    @pytest.mark.parametrize("as_rows", [False, True])
    def test_a_round_with_every_client_absent_is_unrecoverable(self, version, as_rows):
        assignment = assign_subgroups(8, 2, 2, seed=3)
        chan = sample_round_channel(8, iteration=0, seed=3)
        digits = np.ones((8, 3), dtype=np.int64)
        with pytest.raises(UnrecoverableRoundError):
            run_round(list(digits) if as_rows else digits, assignment, chan,
                      small_cfg(levels=4, clients=8), version=version, seed=3,
                      dropped=range(7), delayed=7, naive_remedy=version == ALG1)

    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_round_never_derives_a_scalar_phase_one_key_at_a_time(self, per_symbol,
                                                                  monkeypatch):
        # `rng.keyed_turn` is the one-key definition behind `get_phase`: the
        # round reads its row, whose scalar phases are hashed in batches.
        from phaseagg import rng

        assignment = assign_subgroups(14, 2, 3, seed=5)
        chan = sample_round_channel(14, iteration=2, seed=5)
        monkeypatch.setattr(rng, "keyed_turn", None)
        transcript = run_round(np.ones((14, 3), dtype=np.int64), assignment, chan,
                               small_cfg(levels=4, clients=14), version=ALG2, seed=5,
                               dropped=[assignment.side(0, PLUS)[0]],
                               delayed=assignment.side(1, MINUS)[0], per_symbol=per_symbol)
        assert transcript.counters["recovery_messages"] > 0

    def test_scalar_round_hashes_only_cross_pairs_and_every_client_once(self, monkeypatch):
        from phaseagg import rng

        assignment = assign_subgroups(20, 2, 4, seed=6)
        chan = sample_round_channel(20, iteration=3, seed=6)
        calls = []
        original = rng.keyed_turns

        def counted(prefix, *columns):
            result = original(prefix, *columns)
            calls.append((prefix[1], len(result)))
            return result

        monkeypatch.setattr(rng, "keyed_turns", counted)
        dropped = [assignment.side(0, MINUS)[0], assignment.side(1, PLUS)[1]]
        run_round(np.ones((20, 4), dtype=np.int64), assignment, chan,
                  small_cfg(levels=4, clients=20), version=ALG2, seed=6, dropped=dropped)
        # The round's row holds every client's private phase, dropped or not.
        assert calls == [(rng.CHANNEL_DOMAIN, assignment.cross_pair_count()),
                         (rng.PRIVATE_PHASE_DOMAIN, 20)]
        assert assignment.cross_pair_count() < 20 * 19 // 2

    def test_correction_subtracts_the_survivors_phase_array(self):
        assignment = assign_subgroups(8, 2, 2, seed=9)
        chan = sample_round_channel(8, iteration=1, seed=9)
        dropped = [assignment.side(1, MINUS)[0]]
        survivors = [i for i in range(8) if i not in dropped]
        reveals = run_round(np.zeros((8, 2), dtype=np.int64), assignment, chan,
                            small_cfg(clients=8), version=ALG2, seed=9, dropped=dropped).reveals
        correction = dropout_correction(reveals, assignment)
        masks_only = dropout_correction(reveals[:-1], assignment)
        phases = [sample_private_phase(i, 1, seed=9) for i in survivors]
        assert correction == turns.sub(masks_only, turns.total(phases))
        # A minus-side client's rebuilt mask is subtracted.
        assert masks_only == turns.sub(0, compute_group_mask(dropped[0], assignment, chan))
        assert legacy_reveals(reveals)[-len(survivors):] == [
            {"kind": "private-phase", "client": i, "phase": p}
            for i, p in zip(survivors, phases)]
        assert type(correction) is int
        assert all(not r["phases"].flags.writeable for r in reveals)


class TestServerHalf:
    """The server half reads only the view, so a written line reaggregates as written."""

    @settings(max_examples=80, deadline=None)
    @given(round_cases(), st.data())
    def test_a_read_back_line_reaggregates_bit_for_bit(self, case, data):
        assignment = case["assignment"]
        n, d = assignment.num_clients, case["dimension"]
        cfg = small_cfg(levels=4, clients=n)
        digits = data.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 3)))
        # Keep one client of every side, so that every round decodes.
        dropped, delayed = set(case["dropped"]), case["delayed"]
        for g in range(assignment.num_groups):
            for tag in (PLUS, MINUS):
                side = assignment.side(g, tag)
                if dropped.union([delayed]).issuperset(side):
                    dropped.discard(side[0])
                    delayed = None if delayed == side[0] else delayed
        written = run_round(digits, assignment,
                            sample_round_channel(n, iteration=case["iteration"],
                                                 seed=case["seed"]), cfg,
                            version=case["version"], seed=case["seed"], dropped=dropped,
                            delayed=delayed, per_symbol=case["per_symbol"],
                            naive_remedy=case["version"] == ALG1)
        # The written sums are the senders' plaintext sums, so a server half
        # that signs or drops a record wrongly fails here, not only below.
        senders = [i for i in range(n) if i not in dropped and i != delayed]
        sums = digits[senders].sum(axis=0)
        assert written.aggregate.tolist() == sums.tolist()
        assert written.decoded_mean.tobytes() == dequantize_mean(sums, len(senders),
                                                                 cfg).tobytes()
        back = read_transcript_line(written.to_json_line())
        digit_sums, mean, counters = aggregate(back, cfg)
        assert digit_sums.dtype == np.int64 and not digit_sums.flags.writeable
        assert digit_sums.tobytes() == back.aggregate.tobytes()
        assert mean.dtype == np.float64 and not mean.flags.writeable
        assert mean.tobytes() == back.decoded_mean.tobytes()
        assert counters == back.counters == written.counters

    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_a_line_gives_away_every_complete_groups_digit_sum(self, per_symbol):
        # Groups share no pairs, so each group's masks cancel inside it, and
        # alg2 reveals the survivors' private phases one by one: from the
        # line alone, a group without a drop decodes to its own digit sum.
        assignment = assign_subgroups(16, 4, 2, seed=3)
        cfg = small_cfg(levels=4, clients=16)
        digits = np.random.default_rng(3).integers(0, 4, size=(16, 5))
        line = run_round(digits, assignment, sample_round_channel(16, iteration=0, seed=3),
                         cfg, version=ALG2, seed=3, dropped=[5],
                         per_symbol=per_symbol).to_json_line()
        view = read_transcript_line(line)
        (private,) = [r for r in view.reveals if r["kind"] == "private-phases"]
        unmasked = dict(zip(view.senders, view.symbols - private["phases"].reshape(
            len(view.senders), -1)))
        complete = [g for g in range(4) if g != view.assignment.group_of[5]]
        assert len(complete) == 3
        for g in complete:
            members = [i for i in range(16) if view.assignment.group_of[i] == g]
            total = np.sum([unmasked[i] for i in members], axis=0, dtype=np.uint32)
            assert not (total % cfg.step).any()
            assert (total // cfg.step).tolist() == digits[members].sum(axis=0).tolist()


@st.composite
def layouts(draw):
    """Subgroup layouts with and without a remainder group, and two-group layouts of any sides."""
    if draw(st.booleans()):
        size = draw(st.integers(2, 4))
        groups = draw(st.integers(1, 5))
        extra = draw(st.one_of(st.just(0), st.integers(1, 2 * size - 1)))
        return assign_subgroups(groups * 2 * size + extra, groups, size,
                                seed=draw(st.integers(0, 2**16)))
    clients = draw(st.permutations(range(draw(st.integers(2, 12)))))
    split = draw(st.integers(1, len(clients) - 1))
    return two_group_from_sides(clients[:split], clients[split:])


def reference_layout(a):
    """A layout's sides and cross pairs built client by client from its labels.

    (sides, pairs): sides[g, tag] lists the side's clients in increasing
    order, and pairs lists (plus, minus) group by group, plus-major.
    """
    sides = {(g, tag): [i for i in range(a.num_clients)
                        if (a.group_of[i], a.tag_of[i]) == (g, tag)]
             for g in range(a.num_groups) for tag in (PLUS, MINUS)}
    pairs = [(i, j) for g in range(a.num_groups)
             for i in sides[g, PLUS] for j in sides[g, MINUS]]
    return sides, pairs


class TestLayoutRuns:
    """GroupAssignment's runs are its one derived form, read-only, and agree with its labels."""

    @settings(max_examples=80, deadline=None)
    @given(layouts())
    def test_runs_agree_with_a_per_client_reference(self, a):
        sides, pairs = reference_layout(a)
        for (g, tag), clients in sides.items():
            assert a.side(g, tag) == tuple(clients)
        plus, minus = a.cross_pair_index
        assert list(zip(plus.tolist(), minus.tolist())) == pairs
        assert a.cross_pair_count() == len(pairs)
        for i in range(a.num_clients):
            g, tag = a.group_of[i], a.tag_of[i]
            others = tuple(sides[g, MINUS if tag == PLUS else PLUS])
            assert a.complementary_set(i) == others
            # Entry k of i's positions is its pair with its k-th counterpart.
            ends = [(i, j) if tag == PLUS else (j, i) for j in others]
            side, counterparts, positions = a.pairs_of(i)
            assert (tuple(side), tuple(counterparts)) == (tuple(sides[g, tag]), others)
            assert list(positions) == [pairs.index(end) for end in ends]
        # The runs are the maximal stretches of groups of equal shape.
        shapes = [(len(sides[g, PLUS]), len(sides[g, MINUS])) for g in range(a.num_groups)]
        group, pair = 0, 0
        for k, run in enumerate(a.runs):
            assert (run.first_group, run.first_pair) == (group, pair)
            for row, ids in enumerate(zip(run.plus.tolist(), run.minus.tolist())):
                assert ids == (sides[group + row, PLUS], sides[group + row, MINUS])
            count = len(run.plus)
            assert count and set(shapes[group:group + count]) == {shapes[group]}
            if k:
                assert shapes[group - 1] != shapes[group]
            group += count
            pair += count * shapes[group - 1][0] * shapes[group - 1][1]
        assert group == a.num_groups and pair == len(pairs)

    @settings(max_examples=40, deadline=None)
    @given(layouts())
    def test_arrays_are_read_only_and_derived_once(self, a):
        arrays = [*a.cross_pair_index, *(side for run in a.runs for side in (run.plus, run.minus))]
        for arr in arrays:
            assert arr.dtype == np.int64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        assert a.runs is a.runs and a.cross_pair_index is a.cross_pair_index

    @pytest.mark.parametrize("clients, groups, size, shapes", [
        (11, 2, 2, [(1, 2, 2), (1, 4, 3)]),
        (8, 2, 2, [(2, 2, 2)]),
        (4097, 1024, 2, [(1023, 2, 2), (1, 3, 2)]),
    ])
    def test_remainder_joins_the_last_group(self, clients, groups, size, shapes):
        a = assign_subgroups(clients, groups, size, seed=5)
        assert [(*run.plus.shape, run.minus.shape[1]) for run in a.runs] == shapes
        assert a.cross_pair_count() == sum(g * p * m for g, p, m in shapes)

    def test_two_groups_are_one_run(self):
        a = assign_two_groups(9, seed=4)
        (run,) = a.runs
        assert run.plus.shape == (1, a.plus_size())


class TestReadTranscriptLine:
    """`read_transcript_line` is the inverse of the writer."""

    @pytest.mark.parametrize("config", ["alg1_baseline", "alg2_dropout", "per_symbol_round"])
    def test_golden_lines_write_back_byte_for_byte(self, tmp_path, config):
        out = run_golden(config, tmp_path)
        written = (out / "transcripts.jsonl").read_bytes()
        with (out / "transcripts.jsonl").open("rb") as lines:
            transcripts = [read_transcript_line(line, number)
                           for number, line in enumerate(lines, start=1)]
        write_transcripts(transcripts, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == written

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_finite_number_is_refused(self, token):
        line = small_round().to_json_line()
        row = json.loads(line)
        row["decoded_mean"][1] = float(token.lower().replace("inity", ""))
        bad = json.dumps(row)
        assert token in bad
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: 'decoded_mean\[1\]' must be float, got {token}$"):
            read_transcript_line(bad, 2)
        row = json.loads(line)
        row["counters"]["uplink_messages"] = float("nan")
        with pytest.raises(TranscriptFormatError, match=r"^line 2: 'counters.uplink_messages' "):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("text", ["1e999", "-1e999"])
    def test_a_number_that_reads_as_infinite_is_refused(self, text):
        row = json.loads(small_round().to_json_line())
        row["decoded_mean"][1] = float(text)
        bad = json.dumps(row).replace("Infinity", "1e999")
        assert text in bad and "Infinity" not in bad
        with pytest.raises(TranscriptFormatError, match=rf"^line 2: 'decoded_mean\[1\]' "
                                                        rf"must be finite, got {float(text)}$"):
            read_transcript_line(bad, 2)

    @pytest.mark.parametrize("edit, field", [
        (lambda row: row["messages"][2].update(owner=8), "messages[2].owner"),
        (lambda row: row.update(dropped=[5, -1]), "dropped[1]"),
        (lambda row: row.update(delayed=8, delayed_discarded=True), "delayed"),
        (lambda row: row["reveals"][0].update(dropped=-1), "reveals[0].dropped")])
    def test_a_client_id_outside_the_assignment_is_refused(self, edit, field):
        row = json.loads(small_round().to_json_line())
        edit(row)
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: '{re.escape(field)}' must be a client id below 8, "
                                 r"got -?\d+$"):
            read_transcript_line(json.dumps(row), 2)

    def test_a_listed_value_matches_only_a_value_of_its_type(self):
        row = json.loads(small_round().to_json_line())
        row["transcript_format"] = 2.0
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'transcript_format' must be 2, got 2.0$"):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("field, value", [("iteration", 2**64), ("iteration", -2**63 - 1),
                                              ("counters.recovery_messages", 10**30)])
    def test_an_integer_wider_than_64_bits_is_refused(self, field, value):
        row = json.loads(small_round().to_json_line())
        fields = row
        for key in field.split(".")[:-1]:
            fields = fields[key]
        fields[field.split(".")[-1]] = value
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: '{field}' must fit in 64 bits, got {value}$"):
            read_transcript_line(json.dumps(row), 2)
        fields[field.split(".")[-1]] = abs(value) // 2**40  # in range: reads and writes back
        line = json.dumps(row, sort_keys=True, separators=(",", ":")).encode()
        assert read_transcript_line(line).to_json_line() == line

    def test_num_contributors_must_count_the_messages(self):
        row = json.loads(small_round().to_json_line())
        row["messages"] = row["messages"][:4]
        row["num_contributors"] = 99
        with pytest.raises(TranscriptFormatError,
                           match="^line 7: 'num_contributors' must equal the line's 4 "
                                 "messages, got 99$"):
            read_transcript_line(json.dumps(row), 7)
        row["num_contributors"] = 4
        row["reveals"] = []  # the records name senders that are cut
        assert read_transcript_line(json.dumps(row)).senders == (0, 1, 2, 3)

    def test_codec_metrics_are_the_three_bit_counts(self):
        row = json.loads(small_round().to_json_line())
        row["codec_metrics"]["payload_bits"] = 1.5
        with pytest.raises(TranscriptFormatError,
                           match=r"^transcript line: 'codec_metrics.payload_bits' must be int"):
            read_transcript_line(json.dumps(row))

    def test_an_unknown_assignment_field_is_refused(self):
        row = json.loads(small_round().to_json_line())
        row["assignment"]["ring"] = 1
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'assignment' is not a group assignment: .*'ring'"):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("field, value, problem", [
        ("group_of", [0, 0, 0, 99, 1, 1, 1, 1], r"group labels must lie in range\(2\), got 99"),
        ("group_of", [0, 0, 0, -1, 1, 1, 1, 1], r"group labels must lie in range\(2\), got -1"),
        ("num_groups", 0, "need at least one group, got 0")])
    def test_an_assignment_with_a_group_outside_its_count_is_refused(self, field, value,
                                                                      problem):
        row = json.loads(small_round().to_json_line())
        assert sorted(row["assignment"]["group_of"]) == [0, 0, 0, 0, 1, 1, 1, 1]
        row["assignment"][field] = value
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: 'assignment' is not a group assignment: {problem}$"):
            read_transcript_line(json.dumps(row), 2)

    def test_a_negative_iteration_is_refused(self):
        row = json.loads(small_round().to_json_line())
        row["iteration"] = -1
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'iteration' must be non-negative, got -1$"):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("iteration", [2**32, 2**63 - 1])
    def test_an_iteration_past_one_word_is_refused(self, iteration):
        row = json.loads(small_round().to_json_line())
        row["iteration"] = iteration
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: 'iteration' must be below 2\*\*32, got {iteration}$"):
            read_transcript_line(json.dumps(row), 2)
        row["iteration"] = 2**32 - 1
        assert read_transcript_line(json.dumps(row), 2).iteration == 2**32 - 1

    def test_two_messages_of_one_owner_are_refused(self):
        row = json.loads(small_round().to_json_line())
        row["messages"][3]["owner"] = row["messages"][2]["owner"]
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'messages\[3\].owner' repeats client 2$"):
            read_transcript_line(json.dumps(row), 2)

    def test_a_client_dropped_twice_is_refused(self):
        row = json.loads(small_round().to_json_line())
        row["dropped"] = [5, 5]
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'dropped\[1\]' repeats client 5$"):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("edit, field, problem", [
        (lambda row: row["reveals"][0]["phases"].pop(), "reveals[0].phases",
         "must hold one row per listed revealer (2), got 1"),
        (lambda row: row["reveals"][1]["phases"].append(3), "reveals[1].phases",
         "must hold one row per listed client (7), got 8"),
        (lambda row: row["reveals"][0]["revealers"].pop(), "reveals[0].phases",
         "must hold one row per listed revealer (1), got 2")],
        ids=["row-cut", "row-added", "revealer-cut"])
    def test_a_reveal_record_holds_one_phase_row_per_listed_client(self, edit, field, problem):
        row = json.loads(small_round().to_json_line())
        assert [len(r["phases"]) for r in row["reveals"]] == [2, 7]
        edit(row)
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: '{re.escape(field)}' {re.escape(problem)}$"):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("kind, field", [(0, "revealers"), (1, "clients")])
    def test_a_revealer_or_private_phases_client_must_be_a_sender(self, kind, field):
        row = json.loads(small_round().to_json_line())
        row["reveals"][kind][field][1] = 5
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: 'reveals\[{kind}\].{field}\[1\]' names client 5, "
                                 "who sent no message$"):
            read_transcript_line(json.dumps(row), 2)

    def test_a_mask_shares_record_is_for_a_dropped_or_delayed_client(self):
        row = json.loads(small_round().to_json_line())
        row["reveals"][0]["dropped"] = 2
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'reveals\[0\].dropped' must be a dropped or the "
                                 "delayed client, got 2$"):
            read_transcript_line(json.dumps(row), 2)
        row.update(dropped=[], delayed=5, delayed_discarded=True)  # 2 is still a sender
        with pytest.raises(TranscriptFormatError, match=r"'reveals\[0\].dropped'"):
            read_transcript_line(json.dumps(row), 2)

    def test_dropped_holds_no_sender(self):
        row = json.loads(small_round().to_json_line())
        row["dropped"] = [0, 5]
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'dropped\[0\]' names client 0, who sent a message$"):
            read_transcript_line(json.dumps(row), 2)

    def test_the_delayed_client_is_no_sender(self):
        row = json.loads(small_round(delayed=2).to_json_line())
        assert row["delayed"] == 2 and ("mask-shares", 2) in [
            (r["kind"], r.get("dropped")) for r in row["reveals"]]
        row["messages"].append(dict(row["messages"][0], owner=2))
        row["num_contributors"] += 1
        with pytest.raises(TranscriptFormatError,
                           match=r"^line 2: 'delayed' names client 2, who sent a message$"):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("per_symbol", [False, True])
    @pytest.mark.parametrize("version, naive_remedy", [(ALG1, True), (ALG2, False)])
    def test_every_line_run_round_writes_reads_back(self, version, naive_remedy, per_symbol):
        # A dropped and a delayed client, each with a mask-shares record.
        transcript = run_round(np.ones((8, 10), dtype=np.int64),
                               assign_subgroups(8, 2, 2, seed=3),
                               sample_round_channel(8, iteration=0, seed=3),
                               small_cfg(levels=4, clients=8), version=version, seed=3,
                               dropped=[5], delayed=2, naive_remedy=naive_remedy,
                               per_symbol=per_symbol)
        assert [(r["kind"], r.get("dropped")) for r in transcript.reveals][:2] == [
            ("mask-shares", 2), ("mask-shares", 5)]
        line = transcript.to_json_line()
        assert read_transcript_line(line).to_json_line() == line

    @pytest.mark.parametrize("field", ["aggregate", "decoded_mean"])
    def test_a_vector_shorter_than_the_symbol_rows_is_refused(self, field):
        row = json.loads(small_round().to_json_line())
        row[field].pop()
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: '{field}' must hold 10 values, got 9$"):
            read_transcript_line(json.dumps(row), 2)

    @pytest.mark.parametrize("field, empty", [
        ("messages[].symbols", lambda row: [m.update(symbols=[]) for m in row["messages"]]),
        ("messages[].symbols", lambda row: row.update(messages=[], num_contributors=0)),
        ("aggregate", lambda row: row.update(aggregate=[])),
        ("reveals[1].phases", lambda row: row["reveals"][1].update(phases=[]))])
    def test_an_empty_integer_list_is_refused(self, field, empty):
        row = json.loads(small_round().to_json_line())
        empty(row)
        with pytest.raises(TranscriptFormatError,
                           match=rf"^line 2: '{re.escape(field)}' must be a [12]-deep "):
            read_transcript_line(json.dumps(row), 2)

    def test_fields_outside_the_schema_are_dropped(self):
        line = small_round().to_json_line()
        row = json.loads(line)
        for fields in (row, row["counters"], row["codec_metrics"], row["reveals"][0],
                       row["reveals"][1], row["messages"][0]):
            fields["note"] = "é 1e-05"
        row["codec_metrics"]["rate"] = 1e-05
        back = read_transcript_line(json.dumps(row, ensure_ascii=False))
        assert back.to_json_line() == line == canonical_line(back)
