"""Reciprocal wireless channel phases, one channel per training iteration.

The channel between clients i and j imposes the same phase shift in both
directions, so both endpoints observe an identical value nobody else can
see.  Phases are i.i.d. uniform on the 2**32 grid, constant within an
iteration and freshly sampled across iterations.  Path loss, noise and
geometry are out of scope: independence between pairs is modeled directly.

A channel is keyed by (seed, iteration) and stores no phases.  Within a
run the group layout is fixed, and only its cross pairs (a plus-side and
a minus-side client of one group) have a phase.  A round's cross-pair
phases are one keyed stream, `rng.keyed_rows` of (seed, CHANNEL_DOMAIN,
iteration), or of CHANNEL_STREAM_DOMAIN per symbol, read in the layout's
`cross_pair_index` order: `pair_phases` reads a round's pairs at once.
`get_phase` and `pair_phase_stream` are the per-pair definitions: each
reads the same row, at the place `GroupAssignment.pairs_of` gives the
pair.  A pair on one side, or in two groups, has no phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidTopologyError, NoPairPhaseError, NoSelfChannelError


@dataclass(frozen=True)
class ChannelMatrix:
    """The key of one iteration's symmetric pairwise channel phases.

    The channel derives any cross pair's phase from (seed, iteration, the
    pair's place in the layout) on demand, so dropout recovery needs
    nothing stored.  A client has no channel to itself.  Instances are
    immutable and safe to share across concurrent simulations.
    """

    num_clients: int
    iteration: int
    seed: int


def sample_round_channel(num_clients: int, iteration: int, seed: int) -> ChannelMatrix:
    """The reciprocal channel of one iteration, keyed by (seed, iteration).

    Nothing is hashed here: `pair_phases`, `get_phase` and
    `pair_phase_stream` derive the pairs they are asked for.
    Deterministic: identical arguments give identical phases.
    """
    if num_clients < 2:
        raise InvalidTopologyError(
            f"need at least 2 clients to form a channel, got {num_clients}"
        )
    if not (0 <= seed < 2**32 and 0 <= iteration < 2**32):
        raise ValueError(f"need a seed and an iteration in [0, 2**32), "
                         f"got seed {seed}, iteration {iteration}")
    return ChannelMatrix(num_clients=num_clients, iteration=iteration, seed=seed)


def pair_phases(seed: int, iteration: int, pairs: int, length: int | None = None) -> np.ndarray:
    """The first `pairs` cross-pair phases of a round, in `cross_pair_index` order.

    A (pairs,) uint32 array, or (pairs, length) streams per symbol.
    """
    domain = rng.CHANNEL_DOMAIN if length is None else rng.CHANNEL_STREAM_DOMAIN
    return rng.keyed_rows(pairs, length, seed, domain, iteration)


def check_clients(channel: ChannelMatrix, clients: int) -> None:
    """Refuse, with ValueError, a layout of another client count than the channel's."""
    if clients != channel.num_clients:
        raise ValueError(f"a layout of {clients} clients cannot read "
                         f"a channel of {channel.num_clients}")


# The layout is a `masking.GroupAssignment`, named in annotations only:
# `channel` sits below `masking` and imports nothing of it.
def _pair_position(channel: ChannelMatrix, assignment: masking.GroupAssignment,
                   i: int, j: int) -> int:
    """The place of the pair (i, j) in the layout's `cross_pair_index` order.

    Refuses a self pair, out-of-range ids, a layout of another client
    count, and a pair the layout gives no phase.
    """
    check_clients(channel, assignment.num_clients)
    n = channel.num_clients
    if i == j:
        raise NoSelfChannelError(f"client {i} has no channel to itself")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"client ids ({i}, {j}) out of range for {n} clients")
    _, others, places = assignment.pairs_of(i)
    if j not in others:
        raise NoPairPhaseError(f"clients {i} and {j} are not a cross pair of the layout: "
                               "a pair on one side, or in two groups, has no phase")
    return places[others.index(j)]


def get_phase(channel: ChannelMatrix, assignment: masking.GroupAssignment,
              i: int, j: int) -> int:
    """Phase of the cross pair (i, j), the pair's definition; reciprocal by construction."""
    place = _pair_position(channel, assignment, i, j)
    return int(pair_phases(channel.seed, channel.iteration, place + 1)[place])


def pair_phase_stream(channel: ChannelMatrix, assignment: masking.GroupAssignment,
                      i: int, j: int, length: int) -> np.ndarray:
    """Per-symbol phase stream of the cross pair (i, j): `length` independent grid values.

    Used by the per-symbol masking mode: both endpoints read the same row
    of the round's stream.
    """
    place = _pair_position(channel, assignment, i, j)
    return pair_phases(channel.seed, channel.iteration, place + 1, length)[place]
