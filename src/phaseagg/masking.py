"""Group layouts and phase masks: who masks against whom, and with what.

A `GroupAssignment` labels each client with a group and a side, `PLUS` or
`MINUS`.  `assign_two_groups` and `assign_subgroups` draw a layout from a
seed, `two_group_from_sides` states one, and `check_layout` refuses a
grouping neither can build (a scenario config asks it without building
one).  The assignment derives one form of its layout, once: its `runs`
of consecutive groups of equal (|plus|, |minus|) shape, each holding its
sides as read-only (groups, |side|) arrays of client ids.  Its sides,
cross pairs and every client's pair positions are read from them.

A client's group mask is the mod-2**32 sum of its channel phases to its
complementary set (the other side of its group).  Each cross pair adds
the same phase to one plus-side and one minus-side mask, and each client
bakes its side's sign into its rotation, so the masks cancel in the sum.
A grid-uniform phase makes the rotated symbol uniform whatever the
plaintext (evidence in `analysis`).  One scalar mask per message leaks
pairwise symbol differences (`analysis.difference_leak_probe`); the
per-symbol mode expands each pair's key into a stream instead.

Every phase and mask is an int turn, or a uint32 vector of `length`
turns, summed mod 2**32; `length=None` is the scalar mode.  A round reads
every keyed phase from one `RoundPhases` row: the cross pairs' phases in
`cross_pair_index` order, every client's private phase (alg2) and signed
group mask.  `phase_window` derives a `PhaseWindow`, each kind one array
with a leading rounds axis, and `round_phases` the one-round window on a
round's channel.  Every phase is the same keyed function of (seed,
round, ids) whenever it is derived.

`signed_masks` takes one sum per side of each run's (groups, |plus|,
|minus|, *width) block of pairs, whatever the width.  The dropout
correction reads a dropped client's shares from the row's pairs, never
its masks, at the positions `GroupAssignment.pairs_of` computes.
`compute_group_mask`, `sample_private_phase`, `mask_shares` and
`apply_mask` are the per-client definitions those arrays are tested
against: they read each phase from its definition, `get_phase` or
`pair_phase_stream`, not from a batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
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


class Run(NamedTuple):
    """Groups of one shape in a row: read-only (groups, |plus|) and (groups, |minus|) client ids.

    Row k holds group `first_group + k`'s sides, each in increasing client
    order; `plus[k, a]` meets `minus[k, b]` at `cross_pair_index` position
    first_pair + (k * |plus| + a) * |minus| + b.
    """

    first_group: int
    first_pair: int
    plus: np.ndarray
    minus: np.ndarray


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
        n = len(self.group_of)
        if len(self.tag_of) != n:
            raise ValueError("group and tag labels must cover the same clients")
        if self.tag_of.count(PLUS) + self.tag_of.count(MINUS) != n:
            raise ValueError("tags must be '+' or '-'")
        if self.num_groups < 1:
            raise ValueError(f"need at least one group, got {self.num_groups}")
        if n and not (min(self.group_of) >= 0 and max(self.group_of) < self.num_groups):
            bad = next(g for g in self.group_of if not 0 <= g < self.num_groups)
            raise ValueError(f"group labels must lie in range({self.num_groups}), got {bad}")
        # With more groups than clients, a side below group n + 1 is empty.
        _, sizes = self._side_keys(min(self.num_groups, n + 1))
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            g, minus = divmod(int(empty[0]), 2)
            raise ValueError(f"group {g} has an empty {(PLUS, MINUS)[minus]!r} side")
        if self.mode == TWO_GROUP:
            return
        size, groups = self.subgroup_size, self.num_groups
        if size < 1 or groups != n // (2 * size):
            raise ValueError(f"subgroup_size {size} cannot split {n} clients into {groups} groups")
        want = _subgroup_sides(n, groups, size)
        if not np.array_equal(sizes, want):
            raise ValueError(f"subgroup_size {size} needs (plus, minus) sides "
                             f"{list(map(tuple, want.tolist()))}, "
                             f"got {list(map(tuple, sizes.tolist()))}")

    @property
    def num_clients(self) -> int:
        return len(self.group_of)

    def _side_keys(self, groups: int) -> tuple[np.ndarray, np.ndarray]:
        """(keys, sizes): keys[i] is client i's side, 2 * group (+ 1 on the minus side), a group
        at or past `groups` read as `groups`; sizes[g] is (|plus|, |minus|) for g < `groups`."""
        # Capped before the cast, so a label too wide for int64 casts too.
        labels = np.minimum(np.array(self.group_of), groups).astype(np.int64)
        # Every tag is one character, '+' or '-'.
        minus = np.frombuffer("".join(self.tag_of).encode(), dtype=np.uint8) == ord(MINUS)
        keys = 2 * labels + minus
        return keys, np.bincount(keys, minlength=2 * groups + 2)[:2 * groups].reshape(groups, 2)

    @cached_property
    def runs(self) -> tuple[Run, ...]:
        """The runs of equal (|plus|, |minus|) shape in group order; `assign_*` make 1 or 2."""
        keys, sizes = self._side_keys(self.num_groups)
        # A stable sort lists the sides in (group, tag) order, each in client order.
        order = np.argsort(keys, kind="stable")
        order.setflags(write=False)
        changes = np.flatnonzero(np.any(sizes[1:] != sizes[:-1], axis=1)) + 1
        bounds = [0, *changes.tolist(), self.num_groups]
        runs, client, pair = [], 0, 0
        for first, stop in zip(bounds, bounds[1:]):
            p, m = sizes[first].tolist()
            ids = order[client:client + (stop - first) * (p + m)].reshape(stop - first, p + m)
            runs.append(Run(first, pair, ids[:, :p], ids[:, p:]))
            client += ids.size
            pair += (stop - first) * p * m
        return tuple(runs)

    def _run_of(self, group: int) -> tuple[Run, int]:
        """The run holding `group`, and the group's row in it."""
        for run in self.runs:
            row = group - run.first_group
            if 0 <= row < len(run.plus):
                return run, row
        raise IndexError(f"group {group} is not in the layout")

    def side(self, group: int, tag: str) -> tuple[int, ...]:
        """The group's `tag` side, in increasing client order."""
        run, row = self._run_of(group)
        return tuple((run.plus if tag == PLUS else run.minus)[row].tolist())

    def side_size(self, group: int, tag: str) -> int:
        """len(side(group, tag)), read from its run's shape."""
        run, _ = self._run_of(group)
        return (run.plus if tag == PLUS else run.minus).shape[1]

    def complementary_set(self, i: int) -> tuple[int, ...]:
        """Clients whose channel phases form i's group mask: the other side of its group."""
        return self.side(self.group_of[i], MINUS if self.tag_of[i] == PLUS else PLUS)

    def pairs_of(self, i: int) -> tuple[list[int], list[int], range]:
        """(i's side, its complementary set, i's pair positions in `cross_pair_index`).

        Entry k of the positions is i's pair with the set's k-th client: a row
        of its group's (|plus|, |minus|) block on the plus side, a column on
        the minus side.
        """
        run, row = self._run_of(self.group_of[i])
        plus, minus = run.plus[row].tolist(), run.minus[row].tolist()
        m = len(minus)
        block = run.first_pair + row * len(plus) * m
        if self.tag_of[i] == PLUS:
            start = block + plus.index(i) * m
            return plus, minus, range(start, start + m)
        return minus, plus, range(block + minus.index(i), block + len(plus) * m, m)

    @cached_property
    def cross_pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cross pair as read-only (P,) arrays of its plus and minus client.

        Pairs run group by group, each plus-major, so a run's stretch is its
        (groups, |plus|, |minus|) block of pairs.
        """
        index = (np.concatenate([np.repeat(r.plus, r.minus.shape[1], axis=1).ravel()
                                 for r in self.runs]),
                 np.concatenate([np.tile(r.minus, r.plus.shape[1]).ravel() for r in self.runs]))
        for arr in index:
            arr.setflags(write=False)
        return index

    def cross_pair_count(self) -> int:
        """Unordered pairs that must estimate a phase: sum over groups of |plus|*|minus|."""
        last = self.runs[-1]
        return last.first_pair + last.plus.size * last.minus.shape[1]

    def plus_size(self) -> int:
        return self.tag_of.count(PLUS)

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
        minus = gen.integers(0, 2, size=num_clients)
        if 2 <= num_clients - int(minus.sum()) <= num_clients - 2:
            return two_group_from_sides(np.flatnonzero(minus == 0).tolist(),
                                        np.flatnonzero(minus).tolist())


def two_group_from_sides(plus_side: Iterable[int],
                         minus_side: Iterable[int]) -> GroupAssignment:
    """Explicit two-group layout (tests and demos)."""
    plus, minus = tuple(plus_side), tuple(minus_side)
    size = len(plus) + len(minus)
    if sorted(plus + minus) != list(range(size)):
        raise ValueError("sides must partition clients 0..S-1")
    tags = np.full(size, MINUS)
    tags[list(plus)] = PLUS
    return GroupAssignment(mode=TWO_GROUP, group_of=(0,) * size,
                           tag_of=tuple(tags.tolist()), num_groups=1, subgroup_size=None)


def _subgroup_sides(num_clients: int, num_groups: int, size: int) -> np.ndarray:
    """Each group's (plus, minus) side sizes as `assign_subgroups` builds them, (groups, 2)."""
    last = num_clients - 2 * size * (num_groups - 1)
    sides = np.full((num_groups, 2), size)
    sides[-1] = (last + 1) // 2, last // 2
    return sides


def assign_subgroups(num_clients: int, num_groups: int, subgroup_size: int,
                     seed: int) -> GroupAssignment:
    """Random split into `num_groups` groups of two subgroups of `subgroup_size`.

    Requires num_groups == num_clients // (2 * subgroup_size); the
    remainder joins the last group, split as evenly as possible between
    its sides (both stay >= subgroup_size).
    """
    check_layout(SUBGROUP, num_clients, num_groups, subgroup_size)
    order = rng.keyed_generator(seed, rng.GROUPING_DOMAIN).permutation(num_clients)
    # The permutation fills the sides in turn, group by group, plus side first;
    # a side's key is 2 * group plus 1 on the minus side.
    keys = np.empty(num_clients, dtype=np.int64)
    keys[order] = np.repeat(np.arange(2 * num_groups),
                            _subgroup_sides(num_clients, num_groups, subgroup_size).ravel())
    return GroupAssignment(mode=SUBGROUP, group_of=tuple((keys // 2).tolist()),
                           tag_of=tuple(np.array([PLUS, MINUS])[keys % 2].tolist()),
                           num_groups=num_groups, subgroup_size=subgroup_size)


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
    (width (length,)), or a window's phases with the rounds axis moved
    after the pairs (width (rounds,) or (rounds, length)).  Row i is
    `compute_group_mask(i, ...)` for a plus-side client and its negation
    mod 2**32 for a minus-side one: the offset client i adds to its
    symbols.  Each run's pairs, reshaped to its (groups, |plus|, |minus|,
    *width) block, are summed over the minus side for its plus-side
    clients and over the plus side for its minus-side ones.
    """
    check_pair_row(assignment, pairs)
    width = pairs.shape[1:]
    masks = np.zeros((assignment.num_clients, *width), dtype=np.uint32)
    for run in assignment.runs:
        (groups, p), m = run.plus.shape, run.minus.shape[1]
        block = pairs[run.first_pair:run.first_pair + groups * p * m].reshape(
            groups, p, m, *width)
        masks[run.plus] = block.sum(axis=2, dtype=np.uint32)
        masks[run.minus] = -block.sum(axis=1, dtype=np.uint32)
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


@dataclass(frozen=True, eq=False)
class PhaseWindow(Sequence):
    """The rows of consecutive rounds from `start`, each kind one array with a leading rounds axis.

    `pairs` is (rounds, P, *width), `masks` and `private` (or None) are
    (rounds, N, *width).  Item r is round start + r's `RoundPhases` of views.
    """

    start: int
    pairs: np.ndarray
    private: np.ndarray | None
    masks: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, r: int) -> RoundPhases:
        r = range(len(self))[r]  # IndexError past the window ends iteration
        return RoundPhases(self.start + r, self.pairs[r],
                           None if self.private is None else self.private[r], self.masks[r])


def _phases(assignment: GroupAssignment, first: ChannelMatrix, rounds: int, seed: int, *,
            private: bool, length: int | None) -> PhaseWindow:
    """The window of `rounds` rounds from `first`'s, on channels keyed as `first` is: one batch
    per domain or one expansion per stream, and one `signed_masks` call for every round."""
    t, clients = first.iteration, range(assignment.num_clients)
    plus, minus = assignment.cross_pair_index
    if length is None:
        pairs = pair_phase_window(first.num_clients, first.seed, t, rounds, plus, minus)
        privates = private_phase_window(clients, t, rounds, seed) if private else None
    else:
        channels = [first, *(sample_round_channel(first.num_clients, u, first.seed)
                             for u in range(t + 1, t + rounds))]
        ends = list(zip(plus.tolist(), minus.tolist()))
        streams = np.dtype((np.uint32, length))
        pairs = np.fromiter((pair_phase_stream(c, i, j, length) for c in channels
                             for i, j in ends), streams, rounds * len(ends))
        pairs = pairs.reshape(rounds, -1, length)
        privates = (np.fromiter((sample_private_phase(i, c.iteration, seed, length=length)
                                 for c in channels for i in clients), streams,
                                rounds * len(clients)).reshape(rounds, -1, length)
                    if private else None)
    masks = np.moveaxis(signed_masks(assignment, np.moveaxis(pairs, 0, 1)), 1, 0)
    return PhaseWindow(t, pairs, privates, masks)


def round_phases(assignment: GroupAssignment, channel: ChannelMatrix, seed: int, *,
                 private: bool, length: int | None = None) -> RoundPhases:
    """One round's row, the one-round window on `channel`; private phases keyed by `seed`."""
    return _phases(assignment, channel, 1, seed, private=private, length=length)[0]


def phase_window(assignment: GroupAssignment, seed: int, start: int, rounds: int, *,
                 private: bool, length: int | None = None) -> PhaseWindow:
    """The rows of `rounds` consecutive rounds from `start`, on `seed`'s channels.

    The window holds three arrays whatever its length, so its memory is its words.
    """
    return _phases(assignment, sample_round_channel(assignment.num_clients, start, seed),
                   rounds, seed, private=private, length=length)


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
