"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Thresholds and sample sizes are fixed here, not tuned: exact integer
equality wherever masks are supposed to cancel, significance 0.01 for
every statistical check, and the stated wall-clock budgets.
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest
import scipy.stats

from phaseagg import turns
from phaseagg.analysis import (
    chi_square_uniformity,
    delayed_client_attack,
    exact_masking_information,
    mutual_information_estimate,
    verify_overhead,
)
from phaseagg.channel import pair_phase_window, sample_round_channel
from phaseagg.cli import load_config, run_scenario
from phaseagg.codec import QuantizationConfig, modulate
from phaseagg.config import ALG1, ALG2
from phaseagg.errors import UnrecoverableRoundError
from phaseagg.masking import (
    MINUS,
    PLUS,
    assign_subgroups,
    assign_two_groups,
    two_group_from_sides,
)
from phaseagg.protocol import client_message, run_round
from reference import plaintext_training, secure_training


def test_criterion_1_exact_aggregation():
    """Decoded digit sums equal plaintext sums for 1000 rounds across the grid."""
    start = time.perf_counter()
    grid = list(itertools.product([4, 8, 16, 32], [1, 8, 64], [4, 16, 256]))
    gen = np.random.default_rng(1001)
    for k in range(1000):
        clients, dim, levels = grid[k % len(grid)]
        cfg = QuantizationConfig.with_auto_modulus(1.0, levels, max_clients=clients)
        assignment = assign_two_groups(clients, seed=k)
        chan = sample_round_channel(clients, iteration=k, seed=1001)
        digits = [gen.integers(0, levels, size=dim) for _ in range(clients)]
        version = ALG1 if k % 2 == 0 else ALG2
        transcript = run_round(digits, assignment, chan, cfg, version=version,
                               seed=1001)
        plaintext_sums = np.sum(digits, axis=0)
        assert np.array_equal(np.array(transcript.aggregate), plaintext_sums), \
            f"round {k}: S={clients} d={dim} q={levels} {version}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: exact aggregation, 1000 rounds over "
          f"S x d x q grid, {elapsed:.1f}s")


def test_criterion_2_dropout_recovery_exhaustive():
    """Every feasible drop pattern decodes the survivor sum; others raise."""
    start = time.perf_counter()
    cases = []
    for layout, clients in [("two-group", 6), ("subgroup", 8)]:
        if layout == "two-group":
            assignment = assign_two_groups(clients, seed=2002)
        else:
            assignment = assign_subgroups(clients, 2, 2, seed=2002)
        cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=clients)
        gen = np.random.default_rng(2002)
        digits = [gen.integers(0, 4, size=3) for _ in range(clients)]
        chan = sample_round_channel(clients, iteration=0, seed=2002)
        feasible = infeasible = 0
        for pattern in itertools.product([False, True], repeat=clients):
            dropped = [i for i, d in enumerate(pattern) if d]
            survivors = set(range(clients)) - set(dropped)
            ok = bool(survivors) and all(
                survivors.intersection(assignment.side(g, tag))
                for g in range(assignment.num_groups)
                for tag in (PLUS, MINUS)
            )
            if ok:
                transcript = run_round(digits, assignment, chan, cfg,
                                       version=ALG2, seed=2002, dropped=dropped)
                expected = np.sum([digits[i] for i in survivors], axis=0)
                assert np.array_equal(np.array(transcript.aggregate), expected)
                feasible += 1
            else:
                with pytest.raises(UnrecoverableRoundError):
                    run_round(digits, assignment, chan, cfg, version=ALG2,
                              seed=2002, dropped=dropped)
                infeasible += 1
        cases.append((layout, feasible, infeasible))
        assert feasible + infeasible == 2 ** clients
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: dropout recovery exhaustive "
          f"{cases}, {elapsed:.1f}s")


def test_criterion_3_masking_uniformity():
    """Masked symbols are uniform for three plaintext shapes; exact on 2^4 grid."""
    cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4)
    assignment = two_group_from_sides([0, 1], [2, 3])
    gen = np.random.default_rng(3003)
    distributions = {
        "constant": lambda: 0,
        "two-point": lambda: 3 if gen.integers(0, 2) else 0,
        "uniform": lambda: int(gen.integers(0, 4)),
    }
    # Client 0 is on the plus side: its symbol is its digit's point plus the
    # sum of its channel phases to the minus side, at every round at once.
    others = list(assignment.complementary_set(0))
    masks = pair_phase_window(4, 3003, 0, 16_000, [0] * len(others), others).sum(axis=1)
    for name, draw in distributions.items():
        digits = np.array([[draw()] for _ in range(16_000)])
        samples = (modulate(digits, cfg)[:, 0] + masks) % turns.MODULUS
        for t in range(500):
            chan = sample_round_channel(4, iteration=t, seed=3003)
            msg = client_message(0, digits[t], assignment, chan, ALG1, seed=3003, cfg=cfg)
            assert samples[t] == msg.masked.symbols[0]
        report = chi_square_uniformity(samples, bins=16)
        assert report.passed, f"{name}: p={report.p_value}"

    small = exact_masking_information(plaintexts=range(16), grid_bits=4)
    assert small.conditionals_uniform
    assert small.mutual_information_bits == 0.0
    print("\nACCEPTANCE 3 PASS: masked-symbol uniformity (3 plaintext "
          "distributions, 16 bins x 16000 samples) and exact zero "
          "information on the 2^4 grid")


def test_criterion_4_mutual_information_bound():
    """Plaintext digit vs masked symbol MI < 0.01 bits; estimator sanity >= 3.9."""
    cfg = QuantizationConfig.with_auto_modulus(1.0, 4, max_clients=4)
    assignment = two_group_from_sides([0, 1], [2, 3])
    gen = np.random.default_rng(4004)
    xs, ys = [], []
    for t in range(500):
        chan = sample_round_channel(4, iteration=t, seed=4004)
        for i in range(4):
            digits = gen.integers(0, 4, size=8)
            msg = client_message(i, digits, assignment, chan, ALG2,
                                 seed=4004, cfg=cfg)
            xs.append(digits)
            ys.append(msg.masked.symbols)
    mi = mutual_information_estimate(np.concatenate(xs), np.concatenate(ys),
                                     bins=16)
    assert mi < 0.01

    control_x = gen.integers(0, 16, size=25_600)
    control_y = control_x.astype(np.uint64) << np.uint64(28)
    control = mutual_information_estimate(control_x, control_y, bins=16)
    assert control >= 3.9
    print(f"\nACCEPTANCE 4 PASS: MI(plaintext; masked) = {mi:.5f} bits "
          f"< 0.01 on 16000 pairs; identity control = {control:.3f} bits")


def test_criterion_5_overhead_formulas():
    """Measured phase estimations equal l(N-l), (N/2)^2 and K L^2 = N L / 2."""
    for n in [8, 16, 32, 64]:
        cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=n)
        digits = [np.zeros(1, dtype=np.int64)] * n

        even = two_group_from_sides(range(n // 2), range(n // 2, n))
        chan = sample_round_channel(n, iteration=0, seed=5005)
        t_even = run_round(digits, even, chan, cfg, version=ALG1, seed=5005)
        measured = t_even.counters["phase_estimations"]
        assert measured == (n // 2) ** 2 == even.plus_size() * (n - even.plus_size())
        assert verify_overhead([t_even]).exact_match

        random_split = assign_two_groups(n, seed=n)
        t_rand = run_round(digits, random_split, chan, cfg, version=ALG1, seed=5005)
        l = random_split.plus_size()
        assert t_rand.counters["phase_estimations"] == l * (n - l)

        sub = assign_subgroups(n, n // 4, 2, seed=n)
        t_sub = run_round(digits, sub, chan, cfg, version=ALG1, seed=5005)
        assert t_sub.counters["phase_estimations"] == (n // 4) * 4 == n * 2 // 2
        assert verify_overhead([t_sub]).exact_match

    # one non-minimal subgroup size, K L^2 = N L / 2 with L = 4
    cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=32)
    digits = [np.zeros(1, dtype=np.int64)] * 32
    sub = assign_subgroups(32, 4, 4, seed=5005)
    chan = sample_round_channel(32, iteration=0, seed=5005)
    t_sub = run_round(digits, sub, chan, cfg, version=ALG1, seed=5005)
    assert t_sub.counters["phase_estimations"] == 4 * 16 == 32 * 4 // 2
    print("\nACCEPTANCE 5 PASS: overhead formulas exact for N in {8,16,32,64}, "
          "two-group and subgroup modes")


def test_criterion_6_delayed_client_attack():
    """Naive recovery unmasks 100%; private phases reduce it to 1/M guessing."""
    naive = delayed_client_attack(ALG1, trials=200, seed=6006)
    assert naive.succeeded
    assert naive.full_recovery_rate == 1.0
    assert naive.element_accuracy == 1.0

    guarded = delayed_client_attack(ALG2, trials=2000, seed=6006)
    assert not guarded.succeeded
    assert guarded.binomial_p_value is not None
    assert guarded.binomial_p_value >= 0.01, (
        f"recovery rate {guarded.full_recovery_rate} distinguishable from "
        f"1/{guarded.modulus}"
    )
    print(f"\nACCEPTANCE 6 PASS: naive remedy recovers 100% of digits; "
          f"private-phase recovery rate {guarded.full_recovery_rate:.4f} vs "
          f"1/M = {guarded.guessing_baseline:.4f} "
          f"(binomial p = {guarded.binomial_p_value:.3f})")


def test_criterion_7_end_to_end_training():
    """200 rounds, S=8, d=8, eta=0.1, q=2^16: converged and bit-identical."""
    start = time.perf_counter()
    config = dataclasses.replace(load_config("alg1_baseline"), rounds=200)
    assert config.compare_baseline
    secure, thetas = secure_training(config)
    plain = plaintext_training(config)
    assert secure.final_loss < 0.01 * secure.initial_loss
    assert secure.diverged is None
    assert len(thetas) == len(plain.thetas) == 200
    for a, b in zip(thetas, plain.thetas):
        assert np.array_equal(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: loss {secure.initial_loss:.3f} -> "
          f"{secure.final_loss:.2e} (ratio {secure.final_loss / secure.initial_loss:.2e}); "
          f"secure trajectory bit-identical to plaintext baseline, {elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    """Re-running a scenario with the same seed gives byte-identical artifacts."""
    config = load_config("alg2_dropout")
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(config, a, "run")
    run_scenario(config, b, "run")
    for name in ["history.csv", "transcripts.jsonl"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # and the transcripts actually exercised recovery
    rows = [json.loads(line) for line in (a / "transcripts.jsonl").read_text().splitlines()]
    assert any(row["dropped"] for row in rows)
    print("\nACCEPTANCE 8 PASS: byte-identical history.csv and "
          "transcripts.jsonl across re-runs")
