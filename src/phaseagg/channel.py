"""Reciprocal wireless channel phases, one matrix per training iteration.

The channel between clients i and j imposes the same phase shift in both
directions, so both endpoints observe an identical value nobody else can
see.  Phases are i.i.d. uniform on the 2**32 grid, constant within an
iteration and freshly sampled across iterations.  Path loss, noise and
geometry are out of scope: independence between pairs is modeled directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, turns
from .errors import InvalidTopologyError, NoSelfChannelError


@dataclass(frozen=True)
class ChannelMatrix:
    """Symmetric per-iteration table of pairwise channel phases.

    The diagonal is unused (a client has no channel to itself).  `seed` is
    the key the matrix was derived from; it is retained so that any entry,
    or a per-symbol phase stream for a pair, can be re-derived without the
    matrix itself (dropout recovery depends on this).  Instances are
    immutable and safe to share across concurrent simulations.
    """

    num_clients: int
    iteration: int
    phases: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self.phases.setflags(write=False)

    def phase(self, i: int, j: int) -> int:
        return get_phase(self, i, j)


def sample_round_channel(num_clients: int, iteration: int, seed: int) -> ChannelMatrix:
    """Sample the reciprocal phase matrix for one iteration.

    Each unordered pair {i, j} gets one independent uniform grid value,
    keyed by (seed, iteration, i, j), mirrored across the diagonal.  All
    pairs are derived in one batch, each equal to its own `keyed_turn`.
    Deterministic: identical arguments give a bit-identical matrix.
    """
    if num_clients < 2:
        raise InvalidTopologyError(
            f"need at least 2 clients to form a channel, got {num_clients}"
        )
    phases = np.zeros((num_clients, num_clients), dtype=np.uint64)
    i, j = np.triu_indices(num_clients, k=1)
    phases[i, j] = rng.keyed_turns((seed, rng.CHANNEL_DOMAIN, iteration), i, j)
    phases[j, i] = phases[i, j]
    return ChannelMatrix(num_clients=num_clients, iteration=iteration,
                         phases=phases, seed=seed)


def channel_from_phases(phases, iteration: int = 0) -> ChannelMatrix:
    """Build a matrix from explicit phases (tests, degenerate channels).

    The table must be square and symmetric off the diagonal.
    """
    table = turns.as_vector(np.asarray(phases)).reshape(np.shape(phases))
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise InvalidTopologyError(f"phase table must be square, got {table.shape}")
    if table.shape[0] < 2:
        raise InvalidTopologyError("need at least 2 clients to form a channel")
    if not np.array_equal(table, table.T):
        raise InvalidTopologyError("phase table must be symmetric (reciprocity)")
    return ChannelMatrix(num_clients=table.shape[0], iteration=iteration,
                         phases=table, seed=None)


def get_phase(channel: ChannelMatrix, i: int, j: int) -> int:
    """Phase of the link between i and j; reciprocal by construction."""
    if i == j:
        raise NoSelfChannelError(f"client {i} has no channel to itself")
    s = channel.num_clients
    if not (0 <= i < s and 0 <= j < s):
        raise IndexError(f"client ids ({i}, {j}) out of range for {s} clients")
    return int(channel.phases[i, j])


def pair_phase_stream(channel: ChannelMatrix, i: int, j: int, length: int) -> np.ndarray:
    """Per-symbol phase stream a pair derives from its shared channel key.

    Used by the per-symbol masking mode: both endpoints expand the pairwise
    randomness into `length` independent grid values.  Requires a seeded
    matrix (an explicit-phase matrix has no key to expand).
    """
    if i == j:
        raise NoSelfChannelError(f"client {i} has no channel to itself")
    s = channel.num_clients
    if not (0 <= i < s and 0 <= j < s):
        raise IndexError(f"client ids ({i}, {j}) out of range for {s} clients")
    if channel.seed is None:
        raise InvalidTopologyError(
            "per-symbol streams need a seeded channel matrix"
        )
    lo, hi = (i, j) if i < j else (j, i)
    return rng.keyed_turn_vector(
        length, channel.seed, rng.CHANNEL_STREAM_DOMAIN, channel.iteration, lo, hi
    )
