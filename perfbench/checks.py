"""Correctness checks for benchmark rounds, computed apart from the program.

Every expected value here comes from the benchmark's own inputs (the
generated digits and dropout sets) or from a closed form, never from a
stored copy of earlier output.  Each check appends a message to a
`Checker` instead of raising, so one run reports every failure at once and
`selftest.py` can show that each check fails on an altered output.
"""

from __future__ import annotations

import numpy as np

GRID = 1 << 32


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    KEPT = 20  # messages kept; the count covers every failure

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.failures) < self.KEPT:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return self.count == 0


def psk_modulus(clients: int, levels: int) -> int:
    """Smallest power-of-two PSK order whose digit sums cannot wrap."""
    needed = clients * (levels - 1) + 1
    return 1 << (needed - 1).bit_length()


def groups_and_sides(group_of, tag_of):
    """{(group, tag): array of client ids} from the assignment labels."""
    group_of = np.asarray(group_of)
    tag_of = np.asarray(tag_of)
    return {
        (int(g), str(t)): np.flatnonzero((group_of == g) & (tag_of == t))
        for g in np.unique(group_of) for t in ("+", "-")
    }


def complementary(client: int, group_of, tag_of, sides) -> np.ndarray:
    other = "-" if tag_of[client] == "+" else "+"
    return sides[(int(group_of[client]), other)]


def check_dropout_set(chk: Checker, where: str, dropped, group_of, tag_of) -> None:
    """Every side of every group keeps a survivor, so recovery can proceed."""
    gone = set(int(i) for i in dropped)
    for (g, t), members in groups_and_sides(group_of, tag_of).items():
        if len(members) and all(int(i) in gone for i in members):
            chk.fail(f"{where}: dropout set {sorted(gone)} empties side {t!r} of group {g}")


def expected_counters(dropped, group_of, tag_of, mode: str, subgroup_size) -> dict:
    """Closed-form round counters for one dropout set under alg2."""
    n = len(group_of)
    sides = groups_and_sides(group_of, tag_of)
    if mode == "two-group":
        plus = int(np.sum(np.asarray(tag_of) == "+"))
        estimations = plus * (n - plus)
    else:
        groups = len(np.unique(group_of))
        estimations = groups * subgroup_size * subgroup_size
    gone = set(int(i) for i in dropped)
    recovery = sum(
        sum(1 for j in complementary(i, group_of, tag_of, sides) if int(j) not in gone)
        for i in gone
    )
    return {
        "phase_estimations": estimations,
        "uplink_messages": n - len(gone),
        "recovery_messages": recovery,
        "private_phase_reveals": n - len(gone),
    }


def check_round(chk: Checker, where: str, *, aggregate, decoded_mean, counters,
                sums, senders: int, expected: dict, clip: float, levels: int) -> None:
    """Aggregate, decoded mean and counters of one round against the inputs.

    `sums` is the benchmark's own integer digit sum over the round's
    senders and `expected` its closed-form counters.
    """
    sums = np.asarray(sums, dtype=np.int64)
    got = np.asarray(aggregate, dtype=np.int64)
    if got.shape != sums.shape or not np.array_equal(got, sums):
        bad = np.flatnonzero(got != sums) if got.shape == sums.shape else np.array([])
        chk.fail(f"{where}: aggregate differs from the digit sum at {bad[:5].tolist()}")
    mean = sums / senders * (2.0 * clip / (levels - 1)) - clip
    got_mean = np.asarray(decoded_mean, dtype=np.float64)
    if got_mean.shape != mean.shape or not np.all(np.abs(got_mean - mean) <= 1e-12):
        chk.fail(f"{where}: decoded_mean differs from the dequantized sum by more than 1e-12")
    for key, value in expected.items():
        if counters.get(key) != value:
            chk.fail(f"{where}: counter {key} is {counters.get(key)}, expected {value}")


def check_symbol_differences(chk: Checker, where: str, symbols_by_message,
                             step: int, per_symbol: bool) -> None:
    """The documented scalar-mask leak holds, and per-symbol masks close it.

    Under a scalar mask every consecutive difference inside one message is
    a multiple of the constellation step 2**32/M; under per-symbol masks
    some difference in every message is not.
    """
    for k, symbols in enumerate(symbols_by_message):
        s = np.asarray(symbols, dtype=np.int64)
        if s.size < 2:
            continue
        on_grid = (np.diff(s) % step) == 0
        if per_symbol and on_grid.all():
            chk.fail(f"{where}: message {k} differences all lie on the grid under per-symbol masks")
        if not per_symbol and not on_grid.all():
            chk.fail(f"{where}: message {k} has an off-grid difference under a scalar mask")
        if np.any((s < 0) | (s >= GRID)):
            chk.fail(f"{where}: message {k} holds a symbol off the 2**32 grid")


def plaintext_training(datasets, rounds: int, learning_rate: float, clip: float,
                       levels: int, dropouts):
    """Quantized SGD without masks, written from the algorithm's definition.

    Returns (losses, digit sums, sender counts) per round; `dropouts[t]` is
    the set of clients that do not contribute in round t.
    """
    dim = datasets[0][0].shape[1]
    theta = np.zeros(dim)
    count = sum(x.shape[0] for x, _ in datasets)
    losses, sums, senders = [], [], []
    for t in range(rounds):
        loss = 0.0
        for x, y in datasets:
            r = x @ theta - y
            loss += float(r @ r) / 2.0
        losses.append(loss / count)
        digit_sum = np.zeros(dim, dtype=np.int64)
        live = [i for i in range(len(datasets)) if i not in set(dropouts[t])]
        for i in live:
            x, y = datasets[i]
            grad = x.T @ (x @ theta - y) / x.shape[0]
            scaled = (np.clip(grad, -clip, clip) + clip) * (levels - 1) / (2 * clip)
            digit_sum += np.rint(scaled).astype(np.int64)
        mean = digit_sum / len(live) * (2 * clip / (levels - 1)) - clip
        theta = theta - learning_rate * mean
        sums.append(digit_sum)
        senders.append(len(live))
    return losses, sums, senders


def check_losses(chk: Checker, losses, expected) -> None:
    """history.csv losses equal the plaintext loop's, to 1e-9 relative."""
    if len(losses) != len(expected):
        chk.fail(f"history.csv has {len(losses)} rounds, expected {len(expected)}")
        return
    got, want = np.asarray(losses), np.asarray(expected)
    bad = np.flatnonzero(np.abs(got - want) > 1e-9 * np.maximum(1.0, np.abs(want)))
    if bad.size:
        chk.fail(f"history.csv loss differs from the plaintext loop at rounds {bad[:5].tolist()}")


def check_equal_digests(chk: Checker, where: str, first, second) -> None:
    if first != second:
        chk.fail(f"{where}: transcripts of two runs with the same seed differ")
