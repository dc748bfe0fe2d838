"""Keyed randomness derivation: one keyed function for every masking value.

Every random quantity in a simulation is a pure function of a key tuple
(scenario seed, domain tag, round index, ...), so any value can be
re-derived on demand without storing anything.  Dropout recovery and
transcript replay rely on this.  Every key part is one word, in
[0, 2**32); `_check_key` refuses any other.

`keyed_turn_vector(length, *key)` is the one keyed function: the first
`length` little-endian uint32 words of SHAKE256 (FIPS 202, stdlib
`hashlib.shake_256`) of the key's encoding.  A key of n parts is encoded
as n + 1 little-endian uint32 words, the count n and then the parts, so
two keys share an encoding only if they are equal.  SHAKE256 is an
extendable-output function: a shorter output is a prefix of a longer
one, so a word's place in the stream fixes it, whatever length is read.
`keyed_turn` is the stream's first word.  `keyed_rows` reads a stream as
rows, one word each or `length` words per symbol: a round's channel and
private phases are one stream per (seed, domain, round), each pair or
client reading the row at its place.

`keyed_generator`, for data, grouping and dropouts, is numpy's Generator
seeded with the key through SeedSequence.  Domain tags keep the
independent streams (channel phases, private phases, grouping, data,
dropouts) from ever sharing a key.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

CHANNEL_DOMAIN = 1
PRIVATE_PHASE_DOMAIN = 2
GROUPING_DOMAIN = 3
DATA_DOMAIN = 4
DROPOUT_DOMAIN = 5
CHANNEL_STREAM_DOMAIN = 6
PRIVATE_STREAM_DOMAIN = 7


def _check_key(key: tuple) -> list[int]:
    """The key's parts as ints, each one word in [0, 2**32); else ValueError."""
    parts = [int(part) for part in key]
    for part in parts:
        if not 0 <= part < 2**32:
            raise ValueError(f"key parts must lie in [0, 2**32), got {part} in {key}")
    return parts


def _encode(key: tuple) -> bytes:
    """The key's part count, then its parts, as little-endian uint32 words."""
    parts = _check_key(key)
    return struct.pack(f"<{len(parts) + 1}I", len(parts), *parts)


def keyed_turn_vector(length: int, *key: int) -> np.ndarray:
    """The first `length` words of the key's SHAKE256 stream, as uniform uint32 turns."""
    if length < 0:
        raise ValueError(f"need a length >= 0, got {length}")
    words = hashlib.shake_256(_encode(key)).digest(4 * length)
    return np.frombuffer(words, dtype="<u4").astype(np.uint32)


def keyed_turn(*key: int) -> int:
    """The first word of the key's stream: one uniform value on the 2**32 grid."""
    return int(keyed_turn_vector(1, *key)[0])


def keyed_rows(rows: int, length: int | None, *key: int) -> np.ndarray:
    """The key's stream as `rows` rows: (rows,) words, or (rows, length) per symbol.

    Row k is words k * length to (k + 1) * length of the stream (word k
    for `length=None`), so a row does not depend on how many are read.
    """
    if length is None:
        return keyed_turn_vector(rows, *key)
    return keyed_turn_vector(rows * length, *key).reshape(rows, length)


def keyed_generator(*key: int) -> np.random.Generator:
    """A full Generator for shuffles / floats, keyed by the same key words."""
    return np.random.default_rng(np.random.SeedSequence(entropy=_check_key(key)))
