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

A round works on whole arrays.  Each cross pair's value is derived once,
into one (|plus side|, |minus side|) block per group, in the order of
`GroupAssignment.cross_pair_index`: `cross_pair_phases` hashes every
scalar phase in one batch, and its per-symbol twin `cross_pair_streams`
expands every pair's stream.  `group_masks` sums a block axis for every
client's mask in both modes, writing each side through the assignment's
cached `side_index` arrays; the dropout correction reads its shares from
the same blocks, and `private_phase_array` gives every sender's private
phase.  The round keeps the masked symbols as one matrix; a
`MaskedSymbols` is built only when `RoundTranscript.messages` is read.
`compute_group_mask`, `sample_private_phase`, `mask_shares` and
`apply_mask` are the per-client definitions those arrays are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import rng, turns
from .channel import ChannelMatrix, get_phase, pair_phase_stream
from .codec import SymbolVector
from .errors import DegenerateGroupError, UnrecoverableRoundError

if TYPE_CHECKING:
    from .protocol import GroupAssignment

PLUS = "+"
MINUS = "-"

SCALAR_MASKS = "scalar"
PER_SYMBOL_MASKS = "per-symbol"


@dataclass(frozen=True)
class GroupMask:
    """A client's aggregate channel-phase mask for one iteration.

    `phase` is a scalar turn, or a turn vector in per-symbol mode.
    `contributing_pairs` records every (owner, other) link that was
    estimated to build it, for overhead accounting.
    """

    owner: int
    iteration: int
    phase: int | np.ndarray
    contributing_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PrivatePhase:
    """Client-local uniform phase, known to nobody until revealed."""

    owner: int
    iteration: int
    phase: int | np.ndarray


@dataclass(frozen=True)
class MaskedSymbols:
    """Symbol vector after rotation; what the aggregator actually sees.

    `symbols` is always a uint64 vector of turns: `apply_mask` builds it
    with `turns` arithmetic, and `protocol.RoundTranscript.messages` makes
    it a read-only view of one row of the round's symbol matrix.
    """

    symbols: np.ndarray
    owner: int | None
    iteration: int | None
    direction: str
    mask_mode: str = SCALAR_MASKS

    @property
    def dimension(self) -> int:
        return int(self.symbols.shape[0])


def compute_group_mask(i: int, assignment: "GroupAssignment",
                       channel: ChannelMatrix, *, per_symbol: bool = False,
                       length: int | None = None) -> GroupMask:
    """Sum the phases between client i and its complementary set."""
    others = assignment.complementary_set(i)
    if not others:
        raise DegenerateGroupError(f"client {i} has an empty complementary set")
    pairs = tuple((i, j) for j in others)
    if per_symbol:
        if length is None:
            raise ValueError("per-symbol masks need the symbol count")
        phase = turns.vector_total(
            [pair_phase_stream(channel, i, j, length) for j in others]
        )
    else:
        phase = turns.total(get_phase(channel, i, j) for j in others)
    return GroupMask(owner=i, iteration=channel.iteration, phase=phase,
                     contributing_pairs=pairs)


def _group_blocks(assignment: "GroupAssignment", pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Split (P, ...) values over the cross-pair index into per-group views.

    Block g has shape (|plus side|, |minus side|, ...): [a, b] belongs to the
    pair (plus[a], minus[b]), sides in increasing client order.
    """
    blocks, start = [], 0
    for plus, minus in assignment.side_index:
        stop = start + plus.size * minus.size
        blocks.append(pairs[start:stop].reshape(plus.size, minus.size, *pairs.shape[1:]))
        start = stop
    return tuple(blocks)


def cross_pair_phases(assignment: "GroupAssignment",
                      channel: ChannelMatrix) -> tuple[np.ndarray, ...]:
    """Every cross pair's scalar phase, all hashed in one batch.

    One uint64 block per group, of shape (|plus side|, |minus side|): [a, b]
    is the phase of the pair (plus[a], minus[b]).  The scalar twin of
    `cross_pair_streams`.
    """
    plus, minus = assignment.cross_pair_index
    return _group_blocks(assignment, channel.pair_phases(plus, minus))


def cross_pair_streams(assignment: "GroupAssignment", channel: ChannelMatrix,
                       length: int) -> tuple[np.ndarray, ...]:
    """Every cross pair's per-symbol stream, each expanded exactly once.

    One uint32 block per group, of shape (|plus side|, |minus side|,
    length): [a, b] is the stream of the pair (plus[a], minus[b]).
    """
    if length is None:
        raise ValueError("per-symbol masks need the symbol count")
    plus, minus = assignment.cross_pair_index
    # uint32 holds every stream value and halves the blocks' memory.
    streams = np.empty((len(plus), length), dtype=np.uint32)
    for k, (i, j) in enumerate(zip(plus.tolist(), minus.tolist())):
        streams[k] = pair_phase_stream(channel, i, j, length)
    return _group_blocks(assignment, streams)


def cross_pair_blocks(assignment: "GroupAssignment", channel: ChannelMatrix, *,
                      per_symbol: bool = False,
                      length: int | None = None) -> tuple[np.ndarray, ...]:
    """A round's cross-pair blocks, per symbol or scalar.

    `cross_pair_streams` in per-symbol mode, else `cross_pair_phases`.
    Both endpoints' masks and the dropout correction index into them.
    """
    if per_symbol:
        return cross_pair_streams(assignment, channel, length)
    return cross_pair_phases(assignment, channel)


def group_masks(assignment: "GroupAssignment", channel: ChannelMatrix, *,
                per_symbol: bool = False, length: int | None = None,
                blocks: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Every client's group mask at once: (N,) turns, or (N, length) per-symbol.

    A mask sums one axis of its group's cross-pair block (`blocks`, or
    `cross_pair_blocks` when not given): a plus-side client sums its row,
    a minus-side client its column.  Row i equals
    `compute_group_mask(i, ...).phase`.
    """
    if blocks is None:
        blocks = cross_pair_blocks(assignment, channel, per_symbol=per_symbol,
                                   length=length)
    masks = np.empty((assignment.num_clients, *blocks[0].shape[2:]), dtype=np.uint64)
    # Each phase is < 2**32, so uint64 sums N terms exactly before reducing.
    for (plus, minus), block in zip(assignment.side_index, blocks):
        masks[plus] = block.sum(axis=1, dtype=np.uint64)
        masks[minus] = block.sum(axis=0, dtype=np.uint64)
    return turns.reduce_in_place(masks)


def apply_mask(symbols: SymbolVector | MaskedSymbols, mask: int | np.ndarray,
               direction: str) -> MaskedSymbols:
    """Rotate every symbol by +mask or -mask on the grid.

    Applying the same mask with "+" then "-" restores the input exactly.
    """
    if direction not in (PLUS, MINUS):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    base = turns.as_vector(symbols.symbols)
    shifted = turns.add(base, mask) if direction == PLUS else turns.sub(base, mask)
    mask_is_vector = isinstance(mask, np.ndarray) and np.ndim(mask) > 0
    prior = getattr(symbols, "mask_mode", SCALAR_MASKS)
    mode = PER_SYMBOL_MASKS if (mask_is_vector or prior == PER_SYMBOL_MASKS) else SCALAR_MASKS
    return MaskedSymbols(symbols=shifted, owner=symbols.owner,
                         iteration=symbols.iteration, direction=direction,
                         mask_mode=mode)


def sample_private_phase(i: int, t: int, seed: int, *, per_symbol: bool = False,
                         length: int | None = None) -> PrivatePhase:
    """Uniform private phase for client i at iteration t.

    Keyed on a domain separate from every channel stream, so it is
    independent of all pairwise phases.
    """
    if per_symbol:
        if length is None:
            raise ValueError("per-symbol private phases need the symbol count")
        phase = rng.keyed_turn_vector(length, seed, rng.PRIVATE_STREAM_DOMAIN, t, i)
    else:
        phase = rng.keyed_turn(seed, rng.PRIVATE_PHASE_DOMAIN, t, i)
    return PrivatePhase(owner=i, iteration=t, phase=phase)


def private_phase_array(clients, t: int, seed: int, *, per_symbol: bool = False,
                        length: int | None = None) -> np.ndarray:
    """The clients' private phases stacked in their given order.

    (k,) uint64 turns, scalar phases derived in one batch; (k, length) in
    per-symbol mode.  Row r equals `sample_private_phase(clients[r], ...).phase`.
    """
    clients = [int(i) for i in clients]
    if per_symbol:
        if length is None:
            raise ValueError("per-symbol private phases need the symbol count")
        phases = np.empty((len(clients), length), dtype=np.uint64)
        for r, i in enumerate(clients):
            phases[r] = sample_private_phase(i, t, seed, per_symbol=True,
                                             length=length).phase
        return phases
    return rng.keyed_turns((seed, rng.PRIVATE_PHASE_DOMAIN, t),
                           np.array(clients, dtype=np.int64))


def mask_shares(dropped: int, survivors, assignment: "GroupAssignment",
                channel: ChannelMatrix, *, per_symbol: bool = False,
                length: int | None = None):
    """The (revealer, phase) shares surviving counterparts hold for a dropped client.

    Each surviving member of the dropped client's complementary set knows
    exactly one contributing phase and can send it to the aggregator.
    """
    alive = set(survivors)
    if dropped in alive:
        raise ValueError(f"client {dropped} cannot be both dropped and surviving")
    shares = []
    for j in assignment.complementary_set(dropped):
        if j not in alive:
            continue
        if per_symbol:
            if length is None:
                raise ValueError("per-symbol shares need the symbol count")
            phase = pair_phase_stream(channel, dropped, j, length)
        else:
            phase = get_phase(channel, dropped, j)
        shares.append((j, phase))
    return shares


def reconstruct_dropped_mask(dropped: int, survivors, assignment: "GroupAssignment",
                             channel: ChannelMatrix, *, per_symbol: bool = False,
                             length: int | None = None):
    """Rebuild a dropped client's mask from the shares survivors hold.

    Phases toward other dropped clients are deliberately excluded: in the
    round correction those terms cancel pairwise by reciprocity, so only
    survivor shares are ever requested.
    """
    shares = mask_shares(dropped, survivors, assignment, channel,
                         per_symbol=per_symbol, length=length)
    if not shares:
        raise UnrecoverableRoundError(
            f"no surviving counterpart can reconstruct the mask of client {dropped}"
        )
    if per_symbol:
        return turns.vector_total([phase for _, phase in shares])
    return turns.total(phase for _, phase in shares)
