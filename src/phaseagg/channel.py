"""Reciprocal wireless channel phases, one channel per training iteration.

The channel between clients i and j imposes the same phase shift in both
directions, so both endpoints observe an identical value nobody else can
see.  Phases are i.i.d. uniform on the 2**32 grid, constant within an
iteration and freshly sampled across iterations.  Path loss, noise and
geometry are out of scope: independence between pairs is modeled directly.

A channel is keyed by (seed, iteration) and stores no phases.
`pair_phase_window` derives the phases of exactly the pairs it is asked
for over a window of consecutive iterations, in one batch: a training run
derives its cross pairs' phases for many rounds at once, and
`ChannelMatrix.pair_phases` is the one-round case, so a round on its own
hashes only the cross pairs its layout uses.
Per symbol, `pair_phase_stream` expands one pair's key into its stream;
a round's row (`masking.RoundPhases`) expands each cross pair's once.
When a phase is derived does not change it: each is the same keyed
function of (seed, iteration, pair).  The dense N x N table
`ChannelMatrix.phases` is built on first use, for `get_phase`, tests and
demos; the round path never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .errors import InvalidTopologyError, NoSelfChannelError


@dataclass(frozen=True)
class ChannelMatrix:
    """Symmetric per-iteration pairwise channel phases.

    The channel derives any pair's phase from (seed, iteration, pair) on
    demand, so dropout recovery needs nothing stored.  The diagonal is
    unused: a client has no channel to itself.  Instances are immutable
    and safe to share across concurrent simulations.
    """

    num_clients: int
    iteration: int
    seed: int

    def pair_phases(self, a, b) -> np.ndarray:
        """Phases of the pairs (a[k], b[k]) as uint32 turns: the one-round `pair_phase_window`."""
        return pair_phase_window(self.num_clients, self.seed, self.iteration, 1, a, b)[0]

    @cached_property
    def phases(self) -> np.ndarray:
        """Read-only dense (N, N) uint32 phase table, built on first use."""
        n = self.num_clients
        table = np.zeros((n, n), dtype=np.uint32)
        i, j = np.triu_indices(n, k=1)
        table[i, j] = table[j, i] = self.pair_phases(i, j)
        table.setflags(write=False)
        return table


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
    hashed here: `ChannelMatrix.pair_phases` derives the pairs a round
    uses.  Deterministic: identical arguments give identical phases.
    """
    if num_clients < 2:
        raise InvalidTopologyError(
            f"need at least 2 clients to form a channel, got {num_clients}"
        )
    if seed < 0 or iteration < 0:
        raise ValueError(f"seed and iteration must be non-negative, got {seed}, {iteration}")
    return ChannelMatrix(num_clients=num_clients, iteration=iteration, seed=seed)


def get_phase(channel: ChannelMatrix, i: int, j: int) -> int:
    """Phase of the link between i and j; reciprocal by construction."""
    return int(channel.phases[_ordered_pair(channel.num_clients, i, j)])


def pair_phase_stream(channel: ChannelMatrix, i: int, j: int, length: int) -> np.ndarray:
    """Per-symbol phase stream a pair derives from its shared channel key.

    Used by the per-symbol masking mode: both endpoints expand the pairwise
    randomness into `length` independent grid values.
    """
    lo, hi = _ordered_pair(channel.num_clients, i, j)
    return rng.keyed_turn_vector(
        length, channel.seed, rng.CHANNEL_STREAM_DOMAIN, channel.iteration, lo, hi
    )
