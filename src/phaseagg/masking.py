"""Phase masks: group masks, private phases, and their application.

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

Every phase and mask is a plain value: an int turn, or a uint64 vector of
`length` turns in per-symbol mode.  Each function takes `length=None` for
the scalar mode and the symbol count for the per-symbol one.

A round reads every keyed phase from one `RoundPhases` row: each cross
pair's channel phase, or per symbol its stream, in the order of
`GroupAssignment.cross_pair_index`, and every client's private phase
(alg2) by client id.  `phase_window` derives the rows of a window of
rounds: scalar phases hashed in one batch per domain, streams expanded
once each by `pair_phase_stream` and `sample_private_phase`.
`round_phases` derives one round's row from its channel, as a direct
`protocol.run_round` call does.  When a phase is derived is a simulation
detail: every value is the same keyed function of (seed, round, ids).

`cross_pair_blocks` splits a row's pairs into one (|plus side|, |minus
side|) block per group, and `group_masks` sums a block axis for every
client's mask, writing each side through the assignment's cached
`side_index` arrays; the dropout correction reads its shares from the
same blocks.  `compute_group_mask`, `sample_private_phase`, `mask_shares`
and `apply_mask` are the per-client definitions those arrays are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import rng, turns
from .channel import (
    ChannelMatrix,
    get_phase,
    pair_phase_stream,
    pair_phase_window,
    sample_round_channel,
)
from .errors import DegenerateGroupError

if TYPE_CHECKING:
    from .protocol import GroupAssignment

PLUS = "+"
MINUS = "-"

SCALAR_MASKS = "scalar"
PER_SYMBOL_MASKS = "per-symbol"


@dataclass(frozen=True)
class MaskedSymbols:
    """Symbol vector after rotation; what the aggregator actually sees.

    `symbols` is always a uint64 vector of turns: `protocol.client_message`
    builds it with `apply_mask`, and `protocol.RoundTranscript.messages`
    makes it a read-only view of one row of the round's symbol matrix.
    """

    symbols: np.ndarray
    owner: int
    iteration: int
    direction: str
    mask_mode: str = SCALAR_MASKS


def compute_group_mask(i: int, assignment: "GroupAssignment",
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


def cross_pair_blocks(assignment: "GroupAssignment", pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """A row's cross-pair values (`RoundPhases.pairs`) split into one block per group.

    Block g is a view of shape (|plus side|, |minus side|) of scalar
    phases, or (|plus side|, |minus side|, length) of streams: [a, b]
    belongs to the pair (plus[a], minus[b]), sides in increasing client
    order.  Both endpoints' masks and the dropout correction index into
    the blocks.
    """
    if len(pairs) != assignment.cross_pair_count():
        raise ValueError(f"need {assignment.cross_pair_count()} cross-pair phases, "
                         f"got shape {pairs.shape}")
    blocks, start = [], 0
    for p, m in assignment.side_index:
        stop = start + p.size * m.size
        blocks.append(pairs[start:stop].reshape(p.size, m.size, *pairs.shape[1:]))
        start = stop
    return tuple(blocks)


def group_masks(assignment: "GroupAssignment", blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """Every client's group mask at once: (N,) turns, or (N, length) per symbol.

    A mask sums one axis of its group's block from `cross_pair_blocks`: a
    plus-side client sums its row, a minus-side client its column.  Row i
    equals `compute_group_mask(i, ...)`.
    """
    masks = np.empty((assignment.num_clients, *blocks[0].shape[2:]), dtype=np.uint64)
    # Each phase is < 2**32, so uint64 sums N terms exactly before reducing.
    for (plus, minus), block in zip(assignment.side_index, blocks):
        masks[plus] = block.sum(axis=1, dtype=np.uint64)
        masks[minus] = block.sum(axis=0, dtype=np.uint64)
    return turns.reduce_in_place(masks)


def apply_mask(symbols, mask, direction: str) -> np.ndarray:
    """Rotate every symbol by +mask or -mask on the grid.

    `mask` is an int or a vector as long as `symbols`.  Applying the same
    mask with "+" then "-" restores the input exactly.
    """
    if direction not in (PLUS, MINUS):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    base = turns.as_vector(symbols)
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

    A (rounds, k) uint64 array in one batch: entry [r, c] equals
    `sample_private_phase(clients[c], start + r, seed)`.  Iterations must
    lie in [0, 2**32).
    """
    return rng.keyed_turns_window((seed, rng.PRIVATE_PHASE_DOMAIN), start, rounds,
                                  np.array([int(i) for i in clients], dtype=np.int64))


class RoundPhases(NamedTuple):
    """One round's keyed phases, read by every mask, share and correction of it.

    `pairs` holds every cross pair's channel phase in `cross_pair_index`
    order: (P,) uint64 turns, or (P, length) uint32 streams per symbol.
    `private` holds every client's private phase indexed by client id,
    (N,) uint64 or (N, length) uint32, or is None when the round needs
    none (alg1).
    """

    iteration: int
    pairs: np.ndarray
    private: np.ndarray | None

    @property
    def length(self) -> int | None:
        """None for scalar phases, or the per-symbol stream length."""
        return self.pairs.shape[1] if self.pairs.ndim == 2 else None


def round_phases(assignment: "GroupAssignment", channel: ChannelMatrix, seed: int, *,
                 private: bool, length: int | None = None) -> RoundPhases:
    """One round's row: its channel's cross-pair values and, with `private`, `seed`'s.

    Scalar phases are the one-round case of the window functions (an
    explicit channel reads its table); with `length` each stream is
    expanded once, by `pair_phase_stream` and `sample_private_phase`.
    """
    t, clients = channel.iteration, range(assignment.num_clients)
    plus, minus = assignment.cross_pair_index
    if length is None:
        return RoundPhases(t, channel.pair_phases(plus, minus),
                           private_phase_window(clients, t, 1, seed)[0] if private else None)
    # uint32 holds every stream value and halves the row's memory.
    streams = np.dtype((np.uint32, length))
    pairs = np.fromiter((pair_phase_stream(channel, i, j, length)
                         for i, j in zip(plus.tolist(), minus.tolist())), streams, plus.size)
    phases = (np.fromiter((sample_private_phase(i, t, seed, length=length) for i in clients),
                          streams, len(clients)) if private else None)
    return RoundPhases(t, pairs, phases)


def phase_window(assignment: "GroupAssignment", seed: int, start: int, rounds: int, *,
                 private: bool, length: int | None = None) -> list[RoundPhases]:
    """The rows of `rounds` consecutive rounds from `start`, row r that of round start + r.

    Scalar phases take one batch for every cross pair's channel phase in
    the window and, with `private`, one more for every client's private
    phase.  Streams are expanded round by round, as `round_phases` does
    on the round's seeded channel.
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
    return [RoundPhases(start + r, p, q) for r, (p, q) in enumerate(zip(pairs, privates))]


def mask_shares(dropped: int, survivors, assignment: "GroupAssignment",
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
