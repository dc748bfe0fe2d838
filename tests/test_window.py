"""A training run's keyed phases, derived a window of rounds at a time.

`masking.phase_window` derives many rounds' rows: scalar cross-pair and
private phases in one batch each, per-symbol streams once each.  Every
value must equal its per-key definition (`rng.keyed_turn` of the pair's
key, `pair_phase_stream`, `sample_private_phase`), every signed mask its
per-client one (`compute_group_mask`), and a run's artifacts
must not depend on the window size: the reference run below makes every
round derive its own row, as a direct `run_round` call does.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseagg import cli, fl, protocol, rng
from phaseagg.channel import (
    pair_phase_stream,
    pair_phase_window,
    sample_round_channel,
)
from phaseagg.config import ALG1, ALG2
from phaseagg.errors import ResidualMaskError
from phaseagg.masking import (
    MINUS,
    assign_subgroups,
    assign_two_groups,
    compute_group_mask,
    phase_window,
    private_phase_window,
    round_phases,
    sample_private_phase,
    signed_masks,
)
from phaseagg.protocol import run_round

from test_protocol import round_cases, small_cfg

MAX_ITERATION = 2**32 - 1


@st.composite
def layouts(draw):
    """A two-group or subgroup layout, the last group with any remainder."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return assign_two_groups(draw(st.integers(4, 10)), seed=seed)
    size = draw(st.integers(2, 3))
    groups = draw(st.integers(1, 4))
    # A remainder with two groups or more makes a second run of one group.
    extra = draw(st.one_of(st.just(0), st.integers(1, 2 * size - 1)))
    return assign_subgroups(groups * 2 * size + extra, groups, size, seed=seed)


# A seed is one key word: `rng` refuses a wider key part.
seeds = st.one_of(st.integers(0, 40), st.integers(0, MAX_ITERATION), st.just(MAX_ITERATION))


@st.composite
def windows(draw):
    """(start, rounds) of a window that lies inside [0, 2**32)."""
    rounds = draw(st.integers(1, 4))
    start = draw(st.one_of(st.integers(0, 40), st.integers(0, MAX_ITERATION),
                           st.just(2**32 - rounds)))
    return min(start, 2**32 - rounds), rounds


# Two runs, (2, 2) groups then one of (3, 2), at both widths.
TWO_RUNS = assign_subgroups(13, 3, 2, seed=7)


class TestWindowValues:
    @settings(max_examples=40, deadline=None)
    @given(assignment=layouts(), seed=seeds, window=windows(), private=st.booleans(),
           length=st.one_of(st.none(), st.integers(1, 5)))
    @example(assignment=TWO_RUNS, seed=3, window=(5, 3), private=True, length=None)
    @example(assignment=TWO_RUNS, seed=3, window=(5, 3), private=True, length=4)
    def test_every_value_equals_its_per_round_definition(self, assignment, seed, window,
                                                         private, length):
        start, rounds = window
        rows = phase_window(assignment, seed, start, rounds, private=private, length=length)
        assert len(rows) == rounds
        if assignment is TWO_RUNS:
            assert [len(run.plus) for run in assignment.runs] == [2, 1]
        plus, minus = assignment.cross_pair_index
        pairs = list(zip(plus.tolist(), minus.tolist()))
        minus_side = [i for i, tag in enumerate(assignment.tag_of) if tag == MINUS]
        for r, row in enumerate(rows):
            t = start + r
            assert (row.iteration, row.length) == (t, length)
            chan = sample_round_channel(assignment.num_clients, t, seed)
            if length is None:
                assert row.pairs.dtype == np.uint32
                assert row.pairs.tolist() == [
                    rng.keyed_turn(seed, rng.CHANNEL_DOMAIN, t, min(a, b), max(a, b))
                    for a, b in pairs]
            else:
                assert row.pairs.dtype == np.uint32
                assert row.pairs.tolist() == [pair_phase_stream(chan, a, b, length).tolist()
                                              for a, b in pairs]
            masks = np.array([compute_group_mask(i, assignment, chan, length=length)
                              for i in range(assignment.num_clients)], dtype=np.uint32)
            masks[minus_side] = -masks[minus_side]
            assert row.masks.dtype == np.uint32 and np.array_equal(row.masks, masks)
            if not private:
                assert row.private is None
                continue
            assert row.private.dtype == np.uint32
            assert row.private.tolist() == [
                np.asarray(sample_private_phase(i, t, seed, length=length)).tolist()
                for i in range(assignment.num_clients)]

    @settings(max_examples=60, deadline=None)
    @given(case=round_cases(), rounds=st.integers(1, 5))
    def test_every_rows_masks_are_the_signed_masks_of_its_pairs(self, case, rounds):
        assignment = case["assignment"]
        length = case["dimension"] if case["per_symbol"] else None
        rows = phase_window(assignment, case["seed"], case["iteration"], rounds,
                            private=case["version"] == ALG2, length=length)
        for row in rows:
            expected = signed_masks(assignment, row.pairs)
            assert row.masks.dtype == expected.dtype == np.uint32
            assert np.array_equal(row.masks, expected)
        chan = sample_round_channel(assignment.num_clients, case["iteration"], case["seed"])
        own = round_phases(assignment, chan, case["seed"], private=case["version"] == ALG2,
                           length=length)
        assert np.array_equal(own.masks, rows[0].masks)

    @pytest.mark.parametrize("per_symbol", [False, True])
    @pytest.mark.parametrize("version, dropped", [(ALG1, []), (ALG2, [1, 4])])
    def test_a_row_with_one_mask_off_by_one_is_refused(self, per_symbol, version, dropped):
        # The correction comes from the revealed pairs, never from the masks,
        # so a mask the pairs do not sum to leaves the aggregate off the grid.
        assignment = assign_subgroups(8, 2, 2, seed=2)
        chan = sample_round_channel(8, iteration=1, seed=2)
        kwargs = dict(version=version, seed=2, dropped=dropped, per_symbol=per_symbol)
        (row,) = phase_window(assignment, 2, 1, 1, private=version == ALG2,
                              length=3 if per_symbol else None)
        digits = np.ones((8, 3), dtype=np.int64)
        cfg = small_cfg(levels=4, clients=8)
        run_round(digits, assignment, chan, cfg, phases=row, **kwargs)
        masks = row.masks.copy()
        masks[5] += 1  # uint32 wraps mod 2**32
        with pytest.raises(ResidualMaskError):
            run_round(digits, assignment, chan, cfg, phases=row._replace(masks=masks), **kwargs)

    @settings(max_examples=40, deadline=None)
    @given(assignment=layouts(), seed=seeds, rounds=st.integers(1, 4),
           start=st.integers(0, 2**40))
    def test_an_iteration_past_one_word_is_refused(self, assignment, seed, rounds, start):
        # The window's last iteration lies at or past 2**32.
        start = max(start, 2**32 - rounds + 1)
        plus, minus = assignment.cross_pair_index
        clients = range(assignment.num_clients)
        for derive in (
            lambda: phase_window(assignment, seed, start, rounds, private=False),
            lambda: phase_window(assignment, seed, start, rounds, private=True),
            lambda: pair_phase_window(assignment.num_clients, seed, start, rounds,
                                      plus, minus),
            lambda: private_phase_window(clients, start, rounds, seed),
        ):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
                derive()

    def test_one_round_calls_refuse_what_the_window_refuses(self):
        # The round's channel refuses the iteration before any phase is derived.
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            sample_round_channel(6, iteration=2**32, seed=3)
        with pytest.raises(ValueError, match="at least one round"):
            private_phase_window([0], 5, 0, seed=3)


    def test_round_refuses_a_row_it_cannot_use(self):
        assignment = assign_two_groups(6, seed=2)
        chan = sample_round_channel(6, iteration=1, seed=2)
        (row,) = phase_window(assignment, 2, 1, 1, private=False)
        digits = np.ones((6, 3), dtype=np.int64)
        cfg = small_cfg(levels=4, clients=6)
        with pytest.raises(ValueError, match="private phases"):
            run_round(digits, assignment, chan, cfg, version=ALG2, seed=2, phases=row)
        with pytest.raises(ValueError, match="length None cannot serve round 1, length 3"):
            run_round(digits, assignment, chan, cfg, seed=2, per_symbol=True, phases=row)
        with pytest.raises(ValueError, match="cross-pair phases"):
            run_round(digits, assignment, chan, cfg, seed=2,
                      phases=row._replace(pairs=row.pairs[:-1]))
        with pytest.raises(ValueError, match="need 6 clients' masks"):
            run_round(digits, assignment, chan, cfg, seed=2,
                      phases=row._replace(masks=row.masks[:-1]))

    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_round_refuses_the_next_rounds_row(self, per_symbol):
        assignment = assign_two_groups(6, seed=2)
        chan = sample_round_channel(6, iteration=1, seed=2)
        kwargs = dict(version=ALG2, seed=2, per_symbol=per_symbol)
        this, after = phase_window(assignment, 2, 1, 2, private=True,
                                   length=3 if per_symbol else None)
        digits = np.ones((6, 3), dtype=np.int64)
        cfg = small_cfg(levels=4, clients=6)
        assert run_round(digits, assignment, chan, cfg, phases=this, **kwargs).to_json_line() \
            == run_round(digits, assignment, chan, cfg, **kwargs).to_json_line()
        with pytest.raises(ValueError, match="phases of round 2, length .* cannot serve round 1,"):
            run_round(digits, assignment, chan, cfg, phases=after, **kwargs)

    def test_round_refuses_a_stream_row_under_scalar_masks(self):
        assignment = assign_two_groups(6, seed=2)
        chan = sample_round_channel(6, iteration=1, seed=2)
        (row,) = phase_window(assignment, 2, 1, 1, private=True, length=3)
        with pytest.raises(ValueError, match="length 3 cannot serve round 1, length None"):
            run_round(np.ones((6, 3), dtype=np.int64), assignment, chan,
                      small_cfg(levels=4, clients=6), version=ALG2, seed=2, phases=row)


def test_a_window_holds_its_words_and_little_more():
    # 2,048 rounds of an 8-client alg2 layout with 16 cross pairs, 32 words a
    # round (16 pairs, 8 masks, 8 private phases): 65,536 words, 256 KB.
    assignment = assign_two_groups(8, seed=1)
    assert assignment.cross_pair_count() == 16
    phase_window(assignment, 1, 0, 1, private=True)  # derive the layout's arrays untraced
    tracemalloc.start()
    try:
        window = phase_window(assignment, 1, 0, 2048, private=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(window) == 2048 and window[2047].iteration == 2047
    assert held <= 1.25 * 2**16 * 4


def artifacts(config) -> tuple:
    """A run's history rows and transcript lines, as bytes."""
    history = fl.TrainingHistory()
    lines = [t.to_json_line() for t in fl.training_rounds(config, history)]
    return [dataclasses.astuple(r) for r in history.rows], lines


def words_per_round(config) -> int:
    """The words of one round's row: its pairs, masks and private phases times the phase length."""
    keys = (config.build_assignment().cross_pair_count() + config.clients
            + (config.clients if config.protocol_version == ALG2 else 0))
    return keys * (config.dimension if config.per_symbol_masks else 1)


def replaced(name: str, **changes):
    return dataclasses.replace(cli.load_config(name), **changes)


def threshold_config():
    """alg2_dropout with a loss threshold that stops it after round 4 of 8."""
    config = replaced("alg2_dropout")
    losses = [row.loss for row in fl.run_training(config).rows]
    assert min(losses[:4]) > losses[4]
    return dataclasses.replace(config, loss_threshold=(min(losses[:4]) + losses[4]) / 2)


CONFIGS = {
    "alg2_dropout": lambda: replaced("alg2_dropout"),
    "delayed": lambda: replaced("attack_private_phase", rounds=10),
    "loss_threshold": threshold_config,
    "alg1_baseline": lambda: replaced("alg1_baseline", rounds=10),
    "per_symbol": lambda: replaced("alg2_dropout", per_symbol_masks=True),
}


class TestRunArtifactsDoNotDependOnTheWindow:
    @pytest.fixture(scope="class", params=sorted(CONFIGS))
    def case(self, request):
        config = CONFIGS[request.param]()
        original = protocol.run_iteration

        def per_round(theta, config, datasets, assignment, phases, residual):
            channel = sample_round_channel(config.clients, phases.iteration, config.seed)
            own = round_phases(assignment, channel, config.seed,
                               private=config.protocol_version == ALG2,
                               length=config.phase_length)
            return original(theta, config, datasets, assignment, own, residual)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "run_iteration", per_round)
            reference = artifacts(config)
        return config, reference

    @pytest.mark.parametrize("window", ["one round", "three rounds", "default"])
    def test_equal_to_per_round_derivation(self, case, window, monkeypatch):
        config, reference = case
        if window == "one round":
            monkeypatch.setattr(fl, "WINDOW_WORDS", 1)
        elif window == "three rounds":
            monkeypatch.setattr(fl, "WINDOW_WORDS", 3 * words_per_round(config))
        assert artifacts(config) == reference

    def test_cases_cover_what_they_name(self, case):
        config, (rows, lines) = case
        if config.loss_threshold is not None:
            # Stops at round 4, inside a three-round window (3..5).
            assert len(rows) == 5 < config.rounds
        else:
            assert len(rows) == config.rounds
        if config.name == "alg2_dropout" and not config.per_symbol_masks:
            assert any(json.loads(line)["dropped"] for line in lines)
        if config.delayed_client is not None:
            assert all(json.loads(line)["delayed"] == config.delayed_client
                       for line in lines)


@pytest.mark.parametrize("name, version, domains", [
    ("alg2_dropout", ALG2, [rng.CHANNEL_DOMAIN, rng.PRIVATE_PHASE_DOMAIN]),
    ("alg1_baseline", ALG1, [rng.CHANNEL_DOMAIN]),
])
def test_each_window_is_one_batch_per_domain(name, version, domains, monkeypatch):
    config = replaced(name, rounds=8)
    assert config.protocol_version == version
    monkeypatch.setattr(fl, "WINDOW_WORDS", 3 * words_per_round(config))
    calls = []
    original = rng.keyed_turns

    def recorded(prefix, *columns):
        calls.append((prefix[1], len(columns[0])))
        return original(prefix, *columns)

    monkeypatch.setattr(rng, "keyed_turns", recorded)
    fl.run_training(config)
    pairs = config.build_assignment().cross_pair_count()
    sizes = {rng.CHANNEL_DOMAIN: pairs, rng.PRIVATE_PHASE_DOMAIN: config.clients}
    # Windows of 3, 3 and 2 rounds; the rounds derive nothing themselves.
    assert calls == [(domain, rounds * sizes[domain])
                     for rounds in (3, 3, 2) for domain in domains]


@pytest.mark.parametrize("window", [1, 3])
def test_a_per_symbol_run_expands_each_stream_once_per_round(window, monkeypatch):
    config = replaced("alg2_dropout", per_symbol_masks=True, rounds=4)
    monkeypatch.setattr(fl, "WINDOW_WORDS", window * words_per_round(config))
    keys = []
    original = rng.keyed_turn_vector

    def recorded(length, *key):
        assert length == config.dimension
        keys.append(key)
        return original(length, *key)

    monkeypatch.setattr(rng, "keyed_turn_vector", recorded)
    fl.run_training(config)
    pairs = config.build_assignment().cross_pair_count()
    assert len(keys) == len(set(keys)) == config.rounds * (pairs + config.clients)


def test_a_layout_past_the_window_holds_one_round_of_keys(monkeypatch):
    # One group of two 257-client sides: 66,049 cross pairs, more than one
    # window's keys, so every round is a window of its own.
    config = cli.parse_config({
        "name": "wide", "clients": 514, "dimension": 1, "samples_per_client": 1,
        "grouping": {"mode": "subgroup", "groups": 1, "subgroup_size": 257},
        "protocol_version": "alg1", "quantization": {"clip": 1.0, "levels": 4},
        "rounds": 1, "learning_rate": 0.1, "seed": 3,
    })
    assert words_per_round(config) == 257 * 257 + 514 > fl.WINDOW_WORDS
    rows = []
    original = rng.keyed_turns

    def recorded(prefix, *columns):
        rows.append(len(columns[0]))
        return original(prefix, *columns)

    monkeypatch.setattr(rng, "keyed_turns", recorded)

    def traced_peak(rounds: int) -> int:
        fl.run_training(config)  # warm the caches outside the trace
        tracemalloc.start()
        try:
            fl.run_training(dataclasses.replace(config, rounds=rounds))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = traced_peak(1)
    rows.clear()
    three = traced_peak(3)
    assert rows == [257 * 257] * 4
    # A window of three rounds would hold three rounds' keys (~3x the peak).
    assert three < 1.3 * one
