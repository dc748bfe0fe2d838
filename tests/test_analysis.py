import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseagg import turns
from phaseagg.analysis import (
    chi_square_uniformity,
    delayed_client_attack,
    difference_leak_probe,
    exact_masking_information,
    mutual_information_estimate,
    verify_overhead,
)
from phaseagg.channel import sample_round_channel
from phaseagg.codec import QuantizationConfig
from phaseagg.config import ALG1, ALG2
from phaseagg.errors import UnderpoweredTestError
from phaseagg.masking import (
    MINUS,
    PLUS,
    assign_subgroups,
    assign_two_groups,
    sample_private_phase,
    two_group_from_sides,
)
from phaseagg.protocol import client_message, run_round
from phaseagg.transcript import delayed_message_estimate, read_transcript_line


class TestChiSquare:
    def test_uniform_draws_pass(self):
        gen = np.random.default_rng(101)
        samples = gen.integers(0, turns.MODULUS, size=16_000, dtype=np.uint64)
        report = chi_square_uniformity(samples, bins=16)
        assert report.passed
        assert report.sample_count == 16_000

    def test_identical_samples_fail(self):
        samples = np.full(16_000, 123456789, dtype=np.uint64)
        report = chi_square_uniformity(samples, bins=16)
        assert not report.passed
        assert report.p_value == pytest.approx(0.0, abs=1e-30)

    def test_underpowered_rejected(self):
        with pytest.raises(UnderpoweredTestError):
            chi_square_uniformity(np.zeros(100, dtype=np.uint64), bins=16)
        with pytest.raises(UnderpoweredTestError):
            chi_square_uniformity(np.zeros(16_000, dtype=np.uint64), bins=4)

    def test_masked_constant_plaintext_passes(self):
        cfg = QuantizationConfig(clip=1.0, levels=4, modulus=16)
        symbol = np.uint64(0)  # constant all-zero digit
        masks = np.array(
            [sample_private_phase(0, t, seed=103) for t in range(10_000)],
            dtype=np.uint64,
        )
        masked = turns.add(np.full(10_000, symbol, dtype=np.uint64), masks)
        assert chi_square_uniformity(masked, bins=16).passed


class TestMutualInformation:
    def test_identity_mapping_high(self):
        gen = np.random.default_rng(105)
        x = gen.integers(0, 16, size=25_600)
        y = (x.astype(np.uint64) << np.uint64(28))  # one bin per label
        mi = mutual_information_estimate(x, y, bins=16)
        assert mi >= 3.9

    def test_independent_pairs_near_zero(self):
        gen = np.random.default_rng(107)
        x = gen.integers(0, 4, size=16_000)
        y = gen.integers(0, turns.MODULUS, size=16_000, dtype=np.uint64)
        assert mutual_information_estimate(x, y, bins=16) < 0.01

    def test_protocol_messages_leak_nothing(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        gen = np.random.default_rng(109)
        xs, ys = [], []
        for t in range(500):
            chan = sample_round_channel(4, iteration=t, seed=109)
            for i in range(4):
                digits = gen.integers(0, 4, size=8)
                msg = client_message(i, digits, assignment, chan, ALG2,
                                     seed=109, cfg=cfg)
                xs.append(digits)
                ys.append(msg.masked.symbols)
        mi = mutual_information_estimate(np.concatenate(xs), np.concatenate(ys),
                                         bins=16)
        assert mi < 0.01

    def test_underpowered_rejected(self):
        with pytest.raises(UnderpoweredTestError):
            mutual_information_estimate(np.zeros(100), np.zeros(100, dtype=np.uint64))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information_estimate(np.zeros(5), np.zeros(6, dtype=np.uint64))


class TestExactSmallGrid:
    def test_conditionals_uniform_and_zero_information(self):
        report = exact_masking_information(plaintexts=[0, 3, 7, 12], grid_bits=4)
        assert report.grid_size == 16
        assert report.conditionals_uniform
        assert report.mutual_information_bits == 0.0

    def test_all_plaintexts(self):
        report = exact_masking_information(plaintexts=range(16), grid_bits=4)
        assert report.conditionals_uniform
        assert report.mutual_information_bits == 0.0

    def test_duplicate_plaintexts_rejected(self):
        with pytest.raises(ValueError):
            exact_masking_information(plaintexts=[0, 16], grid_bits=4)


class TestDelayedClientAttack:
    def test_naive_remedy_recovers_everything(self):
        outcome = delayed_client_attack(ALG1, trials=50, seed=111)
        assert outcome.succeeded
        assert outcome.full_recovery_rate == 1.0
        assert outcome.element_accuracy == 1.0

    def test_private_phase_defeats_attack(self):
        outcome = delayed_client_attack(ALG2, trials=2000,
                                        seed=111, dimension=8)
        assert not outcome.succeeded
        assert outcome.binomial_p_value >= 0.01
        assert outcome.element_mismatch_rate >= 1 - 1 / outcome.modulus - 0.02
        assert outcome.mutual_information_bits is not None
        assert outcome.mutual_information_bits < 0.01

    @pytest.mark.parametrize("tag", [PLUS, MINUS])
    def test_naive_remedy_unmasks_a_late_client_of_either_side(self, tag):
        assignment = assign_two_groups(5, seed=112)
        delayed = assignment.side(0, tag)[0]
        outcome = delayed_client_attack(ALG1, assignment=assignment, trials=20, seed=112,
                                        delayed=delayed)
        assert outcome.full_recovery_rate == 1.0

    def test_naive_remedy_recovers_every_digit_per_symbol(self):
        outcome = delayed_client_attack(ALG1, trials=20, seed=114, per_symbol=True)
        assert outcome.full_recovery_rate == outcome.element_accuracy == 1.0

    def test_per_symbol_private_phases_leave_one_in_m_guessing(self):
        # Each element is its own trial: its residual is its own stream word.
        outcome = delayed_client_attack(ALG2, trials=200, seed=114, per_symbol=True)
        assert outcome.full_recoveries == 0
        assert outcome.binomial_p_value >= 0.01

    @pytest.mark.parametrize("per_symbol", [False, True])
    @pytest.mark.parametrize("version", [ALG1, ALG2])
    def test_the_attack_runs_no_per_client_definition(self, monkeypatch, version, per_symbol):
        expected = delayed_client_attack(version, trials=5, seed=116, per_symbol=per_symbol)

        def refuse(*args, **kwargs):
            raise AssertionError("the attack ran a per-client definition")

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "phaseagg"]:
            for name in ("client_message", "compute_group_mask", "sample_private_phase",
                         "get_phase"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert delayed_client_attack(version, trials=5, seed=116,
                                     per_symbol=per_symbol) == expected

    def test_a_view_read_back_holds_no_late_message_to_estimate(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4)
        view = run_round([np.arange(3) % 4] * 4, two_group_from_sides([0, 1], [2, 3]),
                         sample_round_channel(4, iteration=0, seed=116), cfg, version=ALG2,
                         seed=116, delayed=1)
        assert delayed_message_estimate(view, cfg).shape == (3,)
        with pytest.raises(ValueError, match="holds no late message"):
            delayed_message_estimate(read_transcript_line(view.to_json_line()), cfg)

    def test_unknown_version(self):
        with pytest.raises(ValueError):
            delayed_client_attack("alg3")

    @pytest.mark.parametrize("version", [ALG2, "alg3"])
    def test_no_trial_is_refused_before_any_round(self, monkeypatch, version):
        def refuse(*args, **kwargs):
            raise AssertionError("a round ran")

        monkeypatch.setattr("phaseagg.analysis.run_round", refuse)
        with pytest.raises(ValueError, match="^the attack needs at least one trial, got 0$"):
            delayed_client_attack(version, trials=0)

    @pytest.mark.parametrize("delayed", [-1, 4])
    def test_a_delayed_client_outside_the_layout_is_refused(self, delayed):
        with pytest.raises(IndexError, match=f"^delayed client {delayed} out of range$"):
            delayed_client_attack(ALG1, trials=1, delayed=delayed)


class TestOverhead:
    def test_two_group_even_split(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=8)
        assignment = two_group_from_sides([0, 1, 2, 3], [4, 5, 6, 7])
        chan = sample_round_channel(8, iteration=0, seed=113)
        digits = [np.zeros(2, dtype=np.int64)] * 8
        t = run_round(digits, assignment, chan, cfg, version=ALG1, seed=113)
        report = verify_overhead([t])
        assert report.measured_per_round == 16 == (8 // 2) ** 2
        assert report.exact_match
        assert report.recovery_messages_exact

    def test_subgroup_formula(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=16)
        assignment = assign_subgroups(16, 4, 2, seed=115)
        chan = sample_round_channel(16, iteration=0, seed=115)
        digits = [np.zeros(2, dtype=np.int64)] * 16
        t = run_round(digits, assignment, chan, cfg, version=ALG1, seed=115)
        report = verify_overhead([t])
        assert report.measured_per_round == 4 * 2 * 2 == 16 * 2 // 2
        assert report.exact_match

    def test_recovery_messages_per_dropped_client(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=8)
        assignment = assign_subgroups(8, 2, 2, seed=117)
        chan = sample_round_channel(8, iteration=0, seed=117)
        digits = [np.zeros(2, dtype=np.int64)] * 8
        dropped = assignment.side(1, "+")[0]
        t = run_round(digits, assignment, chan, cfg, version=ALG2, seed=117,
                      dropped=[dropped])
        assert t.counters["recovery_messages"] == 2
        report = verify_overhead([t])
        assert report.recovery_messages_exact

    def test_a_withheld_revealer_fails_the_recovery_check(self):
        # A line cannot say this since its reader derives the revealers; a view can.
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=8)
        assignment = assign_subgroups(8, 2, 2, seed=117)
        dropped = assignment.side(1, "+")[0]
        t = run_round([np.zeros(2, dtype=np.int64)] * 8, assignment,
                      sample_round_channel(8, iteration=0, seed=117), cfg, version=ALG2,
                      seed=117, dropped=[dropped])
        shares, private = t.reveals
        t.reveals = (dict(shares, revealers=shares["revealers"][1:],
                          phases=shares["phases"][1:]), private)
        report = verify_overhead([t])
        assert report.exact_match and not report.recovery_messages_exact
        assert report.failure == (f"recovery check failed: round 0 revealed 1 mask shares "
                                  f"of client {dropped}, 2 expected")

    def test_reads_transcripts_without_rendering_symbols(self, monkeypatch):
        from phaseagg.transcript import RoundTranscript

        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=8)
        assignment = assign_subgroups(8, 2, 2, seed=118)
        chan = sample_round_channel(8, iteration=0, seed=118)
        t = run_round([np.zeros(2, dtype=np.int64)] * 8, assignment, chan, cfg,
                      version=ALG2, seed=118, dropped=[assignment.side(0, "-")[0]],
                      delayed=assignment.side(1, "+")[0])
        expected = verify_overhead([read_transcript_line(t.to_json_line())])

        def refuse(self):
            raise AssertionError("verify_overhead rendered a transcript's symbols")

        monkeypatch.setattr(RoundTranscript, "to_json_dict", refuse)
        monkeypatch.setattr(RoundTranscript, "to_json_line", refuse)
        assert verify_overhead([t]) == expected
        assert expected.recovery_messages_exact

    def test_rounds_of_another_layout_are_counted_against_their_own(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=16)
        small = run_round([np.zeros(2, dtype=np.int64)] * 4, two_group_from_sides([0, 1], [2, 3]),
                          sample_round_channel(4, iteration=0, seed=120), cfg, version=ALG2,
                          seed=120)
        assignment = assign_subgroups(16, 2, 4, seed=120)
        large = run_round([np.zeros(2, dtype=np.int64)] * 16, assignment,
                          sample_round_channel(16, iteration=1, seed=120), cfg, version=ALG2,
                          seed=120, dropped=[12])
        # Client 12 is beyond the first round's four clients.
        report = verify_overhead([small, large])
        assert report.recovery_messages_exact
        assert not report.exact_match
        assert report.failure.startswith("overhead check failed: round 1 measured 32 ")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_counts_are_exact_for_every_accepted_subgroup_layout(self, data):
        """Every (N, K, L) that `check_layout` accepts up to N = 64, the
        remainder N - 2KL included, under both versions; alg2 drops a
        random set that leaves each side a survivor."""
        n = data.draw(st.integers(4, 64), label="clients")
        sub = data.draw(st.integers(2, n // 2), label="subgroup_size")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        version = data.draw(st.sampled_from([ALG1, ALG2]), label="version")
        assignment = assign_subgroups(n, n // (2 * sub), sub, seed=seed)
        dropped = set()
        if version == ALG2:
            flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="drops")
            dropped = {i for i, flag in enumerate(flags) if flag}
            for g in range(assignment.num_groups):
                for tag in (PLUS, MINUS):
                    if dropped.issuperset(assignment.side(g, tag)):
                        dropped.discard(assignment.side(g, tag)[0])
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=n)
        t = run_round(np.zeros((n, 2), dtype=np.int64), assignment,
                      sample_round_channel(n, iteration=0, seed=seed), cfg,
                      version=version, seed=seed, dropped=dropped)
        report = verify_overhead([t])
        assert report.exact_match and report.recovery_messages_exact
        assert report.failure is None

    def test_works_from_transcripts_read_from_their_lines(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=8)
        assignment = two_group_from_sides([0, 1, 2], [3, 4, 5, 6, 7])
        chan = sample_round_channel(8, iteration=0, seed=119)
        digits = [np.zeros(2, dtype=np.int64)] * 8
        t = run_round(digits, assignment, chan, cfg, version=ALG1, seed=119)
        report = verify_overhead([read_transcript_line(t.to_json_line())])
        assert report.measured_per_round == 3 * 5
        assert report.exact_match


class TestDifferenceLeak:
    def test_scalar_mask_reveals_digit_differences(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=121)
        digits = np.array([0, 3, 1, 2])
        msg = client_message(0, digits, assignment, chan, ALG2, seed=121, cfg=cfg)
        report = difference_leak_probe(msg.masked.symbols[None], "scalar", cfg)
        assert report.mask_mode == "scalar"
        assert report.digit_differences_recovered
        assert report.on_grid_fraction == 1.0
        expected = [(3 - 0) % cfg.modulus, (1 - 3) % cfg.modulus,
                    (2 - 1) % cfg.modulus]
        assert list(report.recovered_sample) == expected

    def test_per_symbol_mask_differences_uniform(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        gen = np.random.default_rng(123)
        messages = []
        for t in range(30):
            chan = sample_round_channel(4, iteration=t, seed=123)
            digits = gen.integers(0, 4, size=64)
            messages.append(
                client_message(0, digits, assignment, chan, ALG2, seed=123,
                               cfg=cfg, length=64)
            )
        symbols = np.stack([m.masked.symbols for m in messages])
        report = difference_leak_probe(symbols, "per-symbol", cfg)
        assert report.mask_mode == "per-symbol"
        assert not report.digit_differences_recovered
        assert report.uniformity is not None
        assert report.uniformity.passed

    def test_single_symbol_messages_have_no_differences(self):
        cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4)
        assignment = two_group_from_sides([0, 1], [2, 3])
        chan = sample_round_channel(4, iteration=0, seed=125)
        msg = client_message(0, [2], assignment, chan, ALG1, seed=125, cfg=cfg)
        report = difference_leak_probe(msg.masked.symbols[None], "scalar", cfg)
        assert report.num_differences == 0
        assert not report.digit_differences_recovered
