"""Group layouts and phase masks: who masks against whom, and with what.

A `GroupAssignment` labels each client with a group and a side, `PLUS` or
`MINUS`.  `assign_two_groups` and `assign_subgroups` draw a layout from a
seed, `two_group_from_sides` states one, and `check_layout` refuses a
grouping neither can build (a scenario config asks it without building
one).  The assignment derives its sides, its cross pairs and its
minus-side flags once, as read-only arrays.

A client's group mask is the mod-2**32 sum of its channel phases to every
client in the complementary set (the other group, or the other subgroup of
its own group).  Because each cross pair contributes the same phase to one
client on the plus side and one on the minus side, the masks cancel
exactly when the aggregator adds plus-side messages and subtracts nothing:
each client bakes the sign into its own rotation direction.

Rotating a constellation point by a phase that is uniform on the grid
makes the result uniform regardless of the plaintext, which is the entire
privacy argument; the statistical evidence lives in `analysis`.

By default one scalar mask rotates every symbol of a message (which leaks
pairwise symbol differences - measured, not hidden: see
`analysis.difference_leak_probe`).  The per-symbol mode expands each
pairwise channel key into a stream of independent per-element masks.

Every phase and mask is a plain value: an int turn, or a uint32 vector of
`length` turns in per-symbol mode, whose sums wrap mod 2**32 unreduced.
Each function takes `length=None` for the scalar mode and the symbol
count for the per-symbol one.

A round reads every keyed phase from one `RoundPhases` row: each cross
pair's channel phase, or per symbol its stream, in the order of
`GroupAssignment.cross_pair_index`, every client's private phase (alg2)
by client id, and every client's signed group mask, derived from the
pairs.  `phase_window` derives the rows of a window of rounds: scalar
phases hashed in one batch per domain and every round's masks in one
`signed_masks` call, streams expanded once each by `pair_phase_stream`
and `sample_private_phase`.  `round_phases` derives one round's row from
its channel, as a direct `protocol.run_round` call does.  When a phase is
derived is a simulation detail: every value is the same keyed function
of (seed, round, ids).

`signed_masks` gives every client its group mask, negated on the minus
side, by one sum per side of each group's (|plus|, |minus|, *width)
block of pairs, whatever the width: () for a round's scalar phases,
(length,) for its streams, (rounds,) for a window's scalar phases.  The
dropout correction reads a dropped client's shares from the row's pairs,
never its masks, at the positions `GroupAssignment.pair_positions`
caches.  `compute_group_mask`, `sample_private_phase`, `mask_shares` and
`apply_mask` are the per-client definitions those arrays are tested
against: they read each phase from its definition, `get_phase` or
`pair_phase_stream`, not from a batch.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng, turns
from .channel import (
    ChannelMatrix,
    get_phase,
    pair_phase_stream,
    pair_phase_window,
    sample_round_channel,
)
from .errors import (
    DegenerateGroupError,
    InfeasibleGroupingError,
    InsufficientClientsError,
    SecurityFloorError,
    ShapeError,
)

PLUS = "+"
MINUS = "-"

SCALAR_MASKS = "scalar"
PER_SYMBOL_MASKS = "per-symbol"

TWO_GROUP = "two-group"
SUBGROUP = "subgroup"


@dataclass(frozen=True)
class GroupAssignment:
    """Per-client (group id, side tag) labels.

    Two-group mode is a single exchange group whose plus side and minus
    side are the two client groups, and has no `subgroup_size`; subgroup
    mode has `num_groups` groups whose sides are the two subgroups of int
    size `subgroup_size` (the last group absorbs any remainder, split as
    evenly as possible).  A layout that breaks its mode's rule, labels a
    client outside the group count, leaves a side empty or, in subgroup
    mode, has sides other than `assign_subgroups` builds is refused.
    """

    mode: str
    group_of: tuple[int, ...]
    tag_of: tuple[str, ...]
    num_groups: int
    subgroup_size: int | None = None

    def __post_init__(self):
        if self.mode not in (TWO_GROUP, SUBGROUP):
            raise ValueError(f"unknown assignment mode {self.mode!r}")
        if self.mode == SUBGROUP and not isinstance(self.subgroup_size, int):
            raise ValueError("subgroup mode needs an int subgroup_size, "
                             f"got {self.subgroup_size!r}")
        if self.mode == TWO_GROUP and (self.num_groups, self.subgroup_size) != (1, None):
            raise ValueError(f"two-group mode needs one group and no subgroup_size, got "
                             f"{self.num_groups} groups and subgroup_size {self.subgroup_size!r}")
        if len(self.group_of) != len(self.tag_of):
            raise ValueError("group and tag labels must cover the same clients")
        if any(tag not in (PLUS, MINUS) for tag in self.tag_of):
            raise ValueError("tags must be '+' or '-'")
        if self.num_groups < 1:
            raise ValueError(f"need at least one group, got {self.num_groups}")
        for g in self.group_of:
            if not 0 <= g < self.num_groups:
                raise ValueError(f"group labels must lie in range({self.num_groups}), got {g}")
        for g in range(self.num_groups):
            for tag in (PLUS, MINUS):
                if not self.side(g, tag):
                    raise ValueError(f"group {g} has an empty {tag!r} side")
        if self.mode == TWO_GROUP:
            return
        n, size, groups = self.num_clients, self.subgroup_size, self.num_groups
        if size < 1 or groups != n // (2 * size):
            raise ValueError(f"subgroup_size {size} cannot split {n} clients into {groups} groups")
        want = _subgroup_sides(n, groups, size)
        got = [(len(self.side(g, PLUS)), len(self.side(g, MINUS))) for g in range(groups)]
        if got != want:
            raise ValueError(f"subgroup_size {size} needs (plus, minus) sides {want}, got {got}")

    @property
    def num_clients(self) -> int:
        return len(self.group_of)

    @cached_property
    def _sides(self) -> dict[tuple[int, str], tuple[int, ...]]:
        """Every (group, tag) side's clients in increasing order, derived once."""
        sides: dict[tuple[int, str], list[int]] = {}
        for i, key in enumerate(zip(self.group_of, self.tag_of)):
            sides.setdefault(key, []).append(i)
        return {key: tuple(clients) for key, clients in sides.items()}

    def side(self, group: int, tag: str) -> tuple[int, ...]:
        return self._sides.get((group, tag), ())

    @cached_property
    def _complements(self) -> tuple[tuple[int, ...], ...]:
        """Every client's complementary set, in client order."""
        return tuple(self.side(g, MINUS if t == PLUS else PLUS)
                     for g, t in zip(self.group_of, self.tag_of))

    def complementary_set(self, i: int) -> tuple[int, ...]:
        """Clients whose channel phases form i's group mask, derived once per layout."""
        return self._complements[i]

    @cached_property
    def side_index(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per group, its plus and its minus side as read-only int64 client arrays.

        Each side is in increasing client order, as `side` gives it.
        """
        index = []
        for g in range(self.num_groups):
            sides = tuple(np.array(self.side(g, tag), dtype=np.int64) for tag in (PLUS, MINUS))
            for arr in sides:
                arr.setflags(write=False)
            index.append(sides)
        return tuple(index)

    @cached_property
    def cross_pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cross pair as read-only (P,) arrays of its plus and minus client.

        Pairs run group by group, each group plus-major with both sides in
        increasing client order, so group g's stretch, reshaped to
        (|plus|, |minus|), is its block of pairs.
        """
        index = (np.concatenate([np.repeat(p, m.size) for p, m in self.side_index]),
                 np.concatenate([np.tile(m, p.size) for p, m in self.side_index]))
        for arr in index:
            arr.setflags(write=False)
        return index

    @cached_property
    def pair_positions(self) -> tuple[np.ndarray, ...]:
        """Per client, the read-only int64 positions of its pairs in `cross_pair_index`.

        Entry k of client i's array is its pair with `complementary_set(i)[k]`:
        a row of its group's (|plus|, |minus|) grid of positions on the plus
        side, a column on the minus side.
        """
        positions: list = [None] * self.num_clients
        start = 0
        for plus, minus in self.side_index:
            grid = np.arange(start, start + plus.size * minus.size).reshape(plus.size, minus.size)
            grid.setflags(write=False)
            for i, row in zip(plus.tolist(), grid):
                positions[i] = row
            for j, column in zip(minus.tolist(), grid.T):
                positions[j] = column
            start += grid.size
        return tuple(positions)

    def cross_pair_count(self) -> int:
        """Unordered pairs that must estimate a phase: sum over groups of |plus|*|minus|."""
        return self.cross_pair_index[0].size

    def plus_size(self) -> int:
        return sum(1 for t in self.tag_of if t == PLUS)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "group_of": list(self.group_of),
            "tag_of": list(self.tag_of),
            "num_groups": self.num_groups,
            "subgroup_size": self.subgroup_size,
        }


def check_layout(mode: str, num_clients: int, num_groups: int | None = None,
                 subgroup_size: int | None = None) -> None:
    """Refuse a grouping that `assign_two_groups`/`assign_subgroups` cannot build.

    Both call it first; a scenario config calls it to check its grouping
    without building one, so it must allocate nothing.
    """
    if mode == TWO_GROUP:
        if num_clients < 4:
            raise InsufficientClientsError(
                f"two-group aggregation needs at least 4 clients, got {num_clients}"
            )
        return
    if mode != SUBGROUP:
        raise ValueError(f"grouping mode must be 'two-group' or 'subgroup', got {mode!r}")
    if subgroup_size < 2:
        raise SecurityFloorError(
            f"subgroup size must be at least 2, got {subgroup_size}: with a single "
            "counterpart, one revealed share exposes a client's whole mask "
            "(the security floor)"
        )
    if num_groups < 1:
        raise InfeasibleGroupingError(f"need at least one group, got {num_groups}")
    if num_groups != num_clients // (2 * subgroup_size):
        raise InfeasibleGroupingError(
            f"{num_clients} clients at subgroup size {subgroup_size} need "
            f"{num_clients // (2 * subgroup_size)} groups, not {num_groups}"
        )


def assign_two_groups(num_clients: int, seed: int) -> GroupAssignment:
    """Random two-group split with at least two clients on each side.

    Splits violating the minimum are redrawn, so the result is
    deterministic for a given seed.
    """
    check_layout(TWO_GROUP, num_clients)
    gen = rng.keyed_generator(seed, rng.GROUPING_DOMAIN)
    while True:
        sides = gen.integers(0, 2, size=num_clients)
        plus = int(np.sum(sides == 0))
        if 2 <= plus <= num_clients - 2:
            break
    tags = tuple(PLUS if s == 0 else MINUS for s in sides)
    return GroupAssignment(mode=TWO_GROUP, group_of=(0,) * num_clients,
                           tag_of=tags, num_groups=1, subgroup_size=None)


def two_group_from_sides(plus_side: Iterable[int],
                         minus_side: Iterable[int]) -> GroupAssignment:
    """Explicit two-group layout (tests and demos)."""
    plus = tuple(plus_side)
    minus = tuple(minus_side)
    size = len(plus) + len(minus)
    if sorted(plus + minus) != list(range(size)):
        raise ValueError("sides must partition clients 0..S-1")
    tags = [MINUS] * size
    for i in plus:
        tags[i] = PLUS
    return GroupAssignment(mode=TWO_GROUP, group_of=(0,) * size,
                           tag_of=tuple(tags), num_groups=1, subgroup_size=None)


def _subgroup_sides(num_clients: int, num_groups: int, size: int) -> list[tuple[int, int]]:
    """Each group's (plus, minus) side sizes as `assign_subgroups` builds them."""
    last = num_clients - 2 * size * (num_groups - 1)
    return [(size, size)] * (num_groups - 1) + [((last + 1) // 2, last // 2)]


def assign_subgroups(num_clients: int, num_groups: int, subgroup_size: int,
                     seed: int) -> GroupAssignment:
    """Random split into `num_groups` groups of two subgroups of `subgroup_size`.

    Requires num_groups == num_clients // (2 * subgroup_size); the
    remainder joins the last group, split as evenly as possible between
    its sides (both stay >= subgroup_size).
    """
    check_layout(SUBGROUP, num_clients, num_groups, subgroup_size)
    order = rng.keyed_generator(seed, rng.GROUPING_DOMAIN).permutation(num_clients)
    group_of = [0] * num_clients
    tag_of = [PLUS] * num_clients
    start = 0
    for g, (plus_count, minus_count) in enumerate(
            _subgroup_sides(num_clients, num_groups, subgroup_size)):
        chunk = order[start:start + plus_count + minus_count]
        start += chunk.size
        for pos, client in enumerate(chunk):
            group_of[int(client)] = g
            tag_of[int(client)] = PLUS if pos < plus_count else MINUS
    return GroupAssignment(mode=SUBGROUP, group_of=tuple(group_of),
                           tag_of=tuple(tag_of), num_groups=num_groups,
                           subgroup_size=subgroup_size)



@dataclass(frozen=True)
class MaskedSymbols:
    """Symbol vector after rotation; what the aggregator actually sees.

    `symbols` is always a uint32 vector of turns: `protocol.client_message`
    builds it with `apply_mask`, and `transcript.RoundTranscript.messages`
    makes it a read-only view of one row of the round's symbol matrix.
    The round, protocol version and mask mode belong to the round's
    transcript, and the rotation direction is the owner's side tag in the
    round's `GroupAssignment`.
    """

    symbols: np.ndarray


def compute_group_mask(i: int, assignment: GroupAssignment,
                       channel: ChannelMatrix, *, length: int | None = None):
    """Sum the phases between client i and its complementary set.

    An int turn, or with `length` the (length,) sum of the pairs' streams.
    """
    others = assignment.complementary_set(i)
    if not others:
        raise DegenerateGroupError(f"client {i} has an empty complementary set")
    if length is None:
        return turns.total(get_phase(channel, i, j) for j in others)
    return turns.vector_total([pair_phase_stream(channel, i, j, length) for j in others])


def check_pair_row(assignment: GroupAssignment, pairs: np.ndarray) -> None:
    """Refuse, with ValueError, a row of cross-pair values not one per pair of `assignment`."""
    if len(pairs) != assignment.cross_pair_count():
        raise ValueError(f"need {assignment.cross_pair_count()} cross-pair phases, "
                         f"got shape {pairs.shape}")


def signed_masks(assignment: GroupAssignment, pairs: np.ndarray) -> np.ndarray:
    """Every client's group mask signed by its side: an (N, *width) uint32 array.

    `pairs` is a (P, *width) array of cross-pair values in
    `cross_pair_index` order: a row's scalar phases (width ()) or streams
    (width (length,)), or a window's (rounds, P) scalar phases transposed
    (width (rounds,)).  Row i is `compute_group_mask(i, ...)` for a
    plus-side client and its negation mod 2**32 for a minus-side one: the
    offset client i adds to its symbols.  Each group's pairs, reshaped to
    its (|plus|, |minus|, *width) block, are summed over the minus side
    for a plus-side client and over the plus side for a minus-side one.
    """
    check_pair_row(assignment, pairs)
    width = pairs.shape[1:]
    masks = np.zeros((assignment.num_clients, *width), dtype=np.uint32)
    start = 0
    for plus, minus in assignment.side_index:
        stop = start + plus.size * minus.size
        block = pairs[start:stop].reshape(plus.size, minus.size, *width)
        masks[plus] = block.sum(axis=1, dtype=np.uint32)
        masks[minus] = -block.sum(axis=0, dtype=np.uint32)
        start = stop
    return masks


def apply_mask(symbols, mask, direction: str) -> np.ndarray:
    """Rotate every symbol by +mask or -mask on the grid.

    `mask` is an int or a vector as long as `symbols`; a vector of any
    other shape raises ShapeError.  Applying the same mask with "+" then
    "-" restores the input exactly.
    """
    if direction not in (PLUS, MINUS):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    base = turns.as_vector(symbols)
    if np.ndim(mask) and np.shape(mask) != base.shape:
        raise ShapeError(f"a mask of shape {np.shape(mask)} cannot rotate "
                         f"symbols of shape {base.shape}")
    return turns.add(base, mask) if direction == PLUS else turns.sub(base, mask)


def sample_private_phase(i: int, t: int, seed: int, *, length: int | None = None):
    """Uniform private phase for client i at iteration t: an int, or (length,) turns.

    Keyed on a domain separate from every channel stream, so it is
    independent of all pairwise phases.
    """
    if length is None:
        return rng.keyed_turn(seed, rng.PRIVATE_PHASE_DOMAIN, t, i)
    return rng.keyed_turn_vector(length, seed, rng.PRIVATE_STREAM_DOMAIN, t, i)


def private_phase_window(clients, start: int, rounds: int, seed: int) -> np.ndarray:
    """The clients' scalar private phases at `rounds` iterations from `start`.

    A (rounds, k) uint32 array in one batch: entry [r, c] equals
    `sample_private_phase(clients[c], start + r, seed)`.  Iterations must
    lie in [0, 2**32).
    """
    return rng.keyed_turns_window((seed, rng.PRIVATE_PHASE_DOMAIN), start, rounds,
                                  np.array([int(i) for i in clients], dtype=np.int64))


class RoundPhases(NamedTuple):
    """One round's keyed phases, read by every mask, share and correction of it.

    Every array is uint32 turns.  `pairs` holds every cross pair's channel
    phase in `cross_pair_index` order: (P,) phases, or (P, length) streams
    per symbol.  `private` holds every client's private phase indexed by
    client id, (N,) or (N, length), or is None when the round needs none
    (alg1).  `masks` holds every client's signed group mask, derived from
    `pairs` and indexed by client id: row i is
    `signed_masks(assignment, pairs)[i]`, (N,) or (N, length).  A round
    adds its senders' masks to their symbols; the dropout correction reads
    the pairs, never the masks.
    """

    iteration: int
    pairs: np.ndarray
    private: np.ndarray | None
    masks: np.ndarray

    @property
    def length(self) -> int | None:
        """None for scalar phases, or the per-symbol stream length."""
        return self.pairs.shape[1] if self.pairs.ndim == 2 else None


def round_phases(assignment: GroupAssignment, channel: ChannelMatrix, seed: int, *,
                 private: bool, length: int | None = None) -> RoundPhases:
    """One round's row: its channel's cross-pair values, their masks and, with `private`, `seed`'s.

    Scalar phases are the one-round case of the window functions; with
    `length` each stream is expanded once, by `pair_phase_stream` and
    `sample_private_phase`.  The masks are `signed_masks` of the pairs.
    """
    t, clients = channel.iteration, range(assignment.num_clients)
    plus, minus = assignment.cross_pair_index
    if length is None:
        pairs = pair_phase_window(channel.num_clients, channel.seed, t, 1, plus, minus)[0]
        return RoundPhases(t, pairs,
                           private_phase_window(clients, t, 1, seed)[0] if private else None,
                           signed_masks(assignment, pairs))
    streams = np.dtype((np.uint32, length))
    pairs = np.fromiter((pair_phase_stream(channel, i, j, length)
                         for i, j in zip(plus.tolist(), minus.tolist())), streams, plus.size)
    phases = (np.fromiter((sample_private_phase(i, t, seed, length=length) for i in clients),
                          streams, len(clients)) if private else None)
    return RoundPhases(t, pairs, phases, signed_masks(assignment, pairs))


def phase_window(assignment: GroupAssignment, seed: int, start: int, rounds: int, *,
                 private: bool, length: int | None = None) -> list[RoundPhases]:
    """The rows of `rounds` consecutive rounds from `start`, row r that of round start + r.

    Scalar phases take one batch for every cross pair's channel phase in
    the window, one `signed_masks` call for every round's masks (over the
    window's pairs transposed, width (rounds,)) and, with `private`, one
    more batch for every client's private phase.  Streams are expanded
    round by round, as `round_phases` does on the round's seeded channel,
    and so are their masks.
    """
    n = assignment.num_clients
    if length is not None:
        return [round_phases(assignment, sample_round_channel(n, t, seed), seed,
                             private=private, length=length)
                for t in range(start, start + rounds)]
    plus, minus = assignment.cross_pair_index
    pairs = pair_phase_window(n, seed, start, rounds, plus, minus)
    privates = (private_phase_window(range(n), start, rounds, seed)
                if private else (None,) * rounds)
    masks = signed_masks(assignment, pairs.T).T
    return [RoundPhases(start + r, p, q, m)
            for r, (p, q, m) in enumerate(zip(pairs, privates, masks))]


def mask_shares(dropped: int, survivors, assignment: GroupAssignment,
                channel: ChannelMatrix, *, length: int | None = None):
    """The (revealer, phase) shares surviving counterparts hold for a dropped client.

    Each surviving member of the dropped client's complementary set knows
    exactly one contributing phase, or stream with `length`, and can send
    it to the aggregator.
    """
    alive = set(survivors)
    if dropped in alive:
        raise ValueError(f"client {dropped} cannot be both dropped and surviving")
    return [(j, get_phase(channel, dropped, j) if length is None
             else pair_phase_stream(channel, dropped, j, length))
            for j in assignment.complementary_set(dropped) if j in alive]
