"""Reciprocal wireless channel phases, one channel per training iteration.

The channel between clients i and j imposes the same phase shift in both
directions, so both endpoints observe an identical value nobody else can
see.  Phases are i.i.d. uniform on the 2**32 grid, constant within an
iteration and freshly sampled across iterations.  Path loss, noise and
geometry are out of scope: independence between pairs is modeled directly.

A channel is keyed by (seed, iteration) and stores no phases.  A pair's
phase is `keyed_turn(seed, CHANNEL_DOMAIN, iteration, min, max)`, and
`get_phase` derives exactly that, one pair at a time.  `pair_phase_window`
derives the phases of the pairs it is asked for over a window of
consecutive iterations, in one batch: a training run derives its cross
pairs' phases for many rounds at once, and a round on its own is the
one-round window.  Per symbol, `pair_phase_stream` expands one pair's key
into its stream; a round's row (`masking.RoundPhases`) expands each cross
pair's once.  When a phase is derived does not change it: each is the
same keyed function of (seed, iteration, pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidTopologyError, NoSelfChannelError


@dataclass(frozen=True)
class ChannelMatrix:
    """The key of one iteration's symmetric pairwise channel phases.

    The channel derives any pair's phase from (seed, iteration, pair) on
    demand, so dropout recovery needs nothing stored.  A client has no
    channel to itself.  Instances are immutable and safe to share across
    concurrent simulations.
    """

    num_clients: int
    iteration: int
    seed: int


def _ordered_pairs(num_clients: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a[k], b[k]) as (min, max) arrays, refusing self and out-of-range pairs."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if lo.size:
        if np.any(lo == hi):
            raise NoSelfChannelError("a client has no channel to itself")
        if lo.min() < 0 or hi.max() >= num_clients:
            raise IndexError(f"client ids out of range for {num_clients} clients")
    return lo, hi


def _ordered_pair(num_clients: int, i: int, j: int) -> tuple[int, int]:
    """The pair (i, j) as (min, max), refusing a self pair and out-of-range ids."""
    if i == j:
        raise NoSelfChannelError(f"client {i} has no channel to itself")
    if not (0 <= i < num_clients and 0 <= j < num_clients):
        raise IndexError(f"client ids ({i}, {j}) out of range for {num_clients} clients")
    return (i, j) if i < j else (j, i)


def pair_phase_window(num_clients: int, seed: int, start: int, rounds: int,
                      a, b) -> np.ndarray:
    """Phases of the pairs (a[k], b[k]) at `rounds` iterations from `start`.

    A (rounds, pairs) uint32 array in one batch: entry [r, k] is
    `keyed_turn(seed, CHANNEL_DOMAIN, start + r, min, max)` of pair k.
    Iterations must lie in [0, 2**32).
    """
    lo, hi = _ordered_pairs(num_clients, a, b)
    return rng.keyed_turns_window((seed, rng.CHANNEL_DOMAIN), start, rounds, lo, hi)


def sample_round_channel(num_clients: int, iteration: int, seed: int) -> ChannelMatrix:
    """The reciprocal channel of one iteration, keyed by (seed, iteration).

    Each unordered pair {i, j} gets one independent uniform grid value,
    `keyed_turn(seed, CHANNEL_DOMAIN, iteration, min, max)`.  Nothing is
    hashed here: `get_phase` and `pair_phase_window` derive the pairs they
    are asked for.  Deterministic: identical arguments give identical phases.
    """
    if num_clients < 2:
        raise InvalidTopologyError(
            f"need at least 2 clients to form a channel, got {num_clients}"
        )
    if seed < 0 or not 0 <= iteration < 2**32:
        raise ValueError(f"need seed >= 0 and iteration in [0, 2**32), got {seed}, {iteration}")
    return ChannelMatrix(num_clients=num_clients, iteration=iteration, seed=seed)


def get_phase(channel: ChannelMatrix, i: int, j: int) -> int:
    """Phase of the link between i and j, the pair's definition; reciprocal by construction."""
    lo, hi = _ordered_pair(channel.num_clients, i, j)
    return rng.keyed_turn(channel.seed, rng.CHANNEL_DOMAIN, channel.iteration, lo, hi)


def pair_phase_stream(channel: ChannelMatrix, i: int, j: int, length: int) -> np.ndarray:
    """Per-symbol phase stream a pair derives from its shared channel key.

    Used by the per-symbol masking mode: both endpoints expand the pairwise
    randomness into `length` independent grid values.
    """
    lo, hi = _ordered_pair(channel.num_clients, i, j)
    return rng.keyed_turn_vector(
        length, channel.seed, rng.CHANNEL_STREAM_DOMAIN, channel.iteration, lo, hi
    )
