"""Show that every correctness check passes on real output and fails on altered output.

    python3 perfbench/selftest.py

Runs small real rounds and a short training run through phaseagg, feeds
their outputs to the checks in `checks.py`, then alters one value at a
time (a digit sum, a counter, a symbol, a loss, a digest byte) and
requires the matching check to fail.  Exits non-zero if any check passes
an altered output or fails a real one.
"""

from __future__ import annotations

import copy
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import phaseagg as pa  # noqa: E402
import phaseagg.cli  # noqa: E402,F401
import checks  # noqa: E402
from worker import CLIP, LEVELS, Workload, training_config  # noqa: E402

N, D, SUBGROUP, SEED = 16, 8, 4, 3
DROPPED = [1, 6]


def real_round(per_symbol: bool) -> dict:
    cfg = pa.QuantizationConfig.with_auto_modulus(clip=CLIP, levels=LEVELS, max_clients=N)
    assignment = pa.assign_subgroups(N, N // (2 * SUBGROUP), SUBGROUP, SEED)
    digits = np.random.default_rng(SEED).integers(0, LEVELS, size=(N, D))
    channel = pa.sample_round_channel(N, 0, SEED)
    t = pa.run_round(list(digits), assignment, channel, cfg, version="alg2", seed=SEED,
                     dropped=DROPPED, per_symbol=per_symbol)
    senders = [i for i in range(N) if i not in DROPPED]
    return {
        "aggregate": list(t.aggregate), "decoded_mean": list(t.decoded_mean),
        "counters": dict(t.counters),
        "symbols": [np.array(m.masked.symbols) for m in t.messages],
        "digits": digits, "senders": senders, "dropped": list(DROPPED),
        "group_of": assignment.group_of, "tag_of": assignment.tag_of,
        "per_symbol": per_symbol,
    }


def round_checks(r: dict) -> checks.Checker:
    chk = checks.Checker()
    checks.check_dropout_set(chk, "round", r["dropped"], r["group_of"], r["tag_of"])
    checks.check_round(
        chk, "round", aggregate=r["aggregate"], decoded_mean=r["decoded_mean"],
        counters=r["counters"], sums=r["digits"][r["senders"]].sum(axis=0),
        senders=len(r["senders"]),
        expected=checks.expected_counters(r["dropped"], r["group_of"], r["tag_of"],
                                          "subgroup", SUBGROUP),
        clip=CLIP, levels=LEVELS)
    step = checks.GRID // checks.psk_modulus(N, LEVELS)
    checks.check_symbol_differences(chk, "round", r["symbols"], step, r["per_symbol"])
    return chk


def altered(r: dict, change) -> dict:
    r = copy.deepcopy(r)
    change(r)
    return r


def bump(key, index=0, amount=1):
    def change(r):
        r[key][index] += amount
    return change


def bump_counter(name):
    def change(r):
        r["counters"][name] += 1
    return change


def bump_symbol(r):
    r["symbols"][0][3] = (r["symbols"][0][3] + 1) % checks.GRID


def unmask_message(r):
    step = checks.GRID // checks.psk_modulus(N, LEVELS)
    r["symbols"][0] = r["digits"][r["senders"][0]].astype(np.int64) * step


def empty_a_side(r):
    group_of, tag_of = np.asarray(r["group_of"]), np.asarray(r["tag_of"])
    side = np.flatnonzero((group_of == 0) & (tag_of == "+"))
    r["dropped"] = sorted(set(r["dropped"]) | set(int(i) for i in side))


def training_losses():
    spec = Workload(N, 4, SUBGROUP, False, 1, 1.0)
    dropouts = [[t % N] for t in range(6)]
    config = pa.cli.parse_config(training_config(spec, SEED, 6, dropouts))
    history = pa.fl.run_training(config, "secure")
    datasets, _ = pa.fl.make_synthetic_task(N, 4, config.samples_per_client, SEED)
    expected, _, _ = checks.plaintext_training(
        [(d.features, d.targets) for d in datasets], 6, config.learning_rate,
        CLIP, LEVELS, dropouts)
    return [row.loss for row in history.rows], expected


def main() -> int:
    scalar, per_symbol = real_round(False), real_round(True)
    cases = [
        ("real scalar round", round_checks(scalar), True),
        ("real per-symbol round", round_checks(per_symbol), True),
        ("one digit sum +1", round_checks(altered(scalar, bump("aggregate", 2))), False),
        ("one decoded mean +1e-9",
         round_checks(altered(scalar, bump("decoded_mean", 1, 1e-9))), False),
    ]
    for name in ("phase_estimations", "uplink_messages", "recovery_messages",
                 "private_phase_reveals"):
        cases.append((f"counter {name} +1",
                      round_checks(altered(scalar, bump_counter(name))), False))
    cases += [
        ("one scalar-masked symbol +1", round_checks(altered(scalar, bump_symbol)), False),
        ("one per-symbol message sent unmasked",
         round_checks(altered(per_symbol, unmask_message)), False),
        ("dropout set emptying a side", round_checks(altered(scalar, empty_a_side)), False),
    ]
    losses, expected = training_losses()
    chk = checks.Checker()
    checks.check_losses(chk, losses, expected)
    cases.append(("real training losses", chk, True))
    chk = checks.Checker()
    checks.check_losses(chk, [*losses[:3], losses[3] * (1 + 1e-6), *losses[4:]], expected)
    cases.append(("one loss altered by 1e-6", chk, False))
    digest = hashlib.sha256(b'{"aggregate":[1,2]}\n').hexdigest()
    for name, other, should_pass in (
            ("equal transcript digests", digest, True),
            ("transcript with one byte altered",
             hashlib.sha256(b'{"aggregate":[1,3]}\n').hexdigest(), False)):
        chk = checks.Checker()
        checks.check_equal_digests(chk, "replay", digest, other)
        cases.append((name, chk, should_pass))

    wrong = 0
    for name, chk, should_pass in cases:
        good = chk.ok == should_pass
        wrong += not good
        verdict = "passes" if chk.ok else f"fails ({chk.failures[0]})"
        print(f"{'ok  ' if good else 'BAD '} {name}: check {verdict}")
    print(f"{len(cases) - wrong}/{len(cases)} cases behave as required")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
