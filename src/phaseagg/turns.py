"""Exact angle arithmetic on the 2**32 fixed-point grid.

An angle ("turn") is an unsigned 32-bit integer v representing
2*pi*v / 2**32 radians.  Addition and subtraction are exact group
operations modulo 2**32, so mask application and cancellation are
bit-exact: no floating-point modulo-2*pi drift can ever accumulate.

Scalars are plain Python ints in [0, 2**32); vectors are numpy uint64
arrays holding values in the same range (uint64 leaves headroom so a
single add never overflows before reduction).
"""

from __future__ import annotations

import numpy as np

GRID_BITS = 32
MODULUS = 1 << GRID_BITS
_MASK = MODULUS - 1
_MASK_U64 = np.uint64(_MASK)


def reduce(value):
    """Map an int or integer array into the canonical range [0, 2**32)."""
    if isinstance(value, np.ndarray):
        return value.astype(np.uint64, copy=False) & _MASK_U64
    return int(value) & _MASK


def reduce_in_place(values: np.ndarray) -> np.ndarray:
    """Reduce a uint64 array into [0, 2**32) without a temporary; returns it."""
    values &= _MASK_U64
    return values


def as_vector(values) -> np.ndarray:
    """Canonical uint64 vector of turns."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"turn vectors must be integral, got dtype {arr.dtype}")
    return arr.astype(np.uint64, copy=False) & _MASK_U64


def add(a, b):
    """(a + b) mod 2**32, exact; works elementwise on vectors."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64)) & _MASK_U64
    return (int(a) + int(b)) & _MASK


def sub(a, b):
    """(a - b) mod 2**32, exact; works elementwise on vectors."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        # uint64 subtraction wraps mod 2**64; masking to 32 bits gives the
        # correct result because 2**32 divides 2**64.
        return (np.asarray(a, dtype=np.uint64) - np.asarray(b, dtype=np.uint64)) & _MASK_U64
    return (int(a) - int(b)) & _MASK


def total(values) -> int:
    """Mod-2**32 sum of an iterable of scalar turns."""
    acc = 0
    for v in values:
        acc += int(v)
    return acc & _MASK


def vector_total(vectors) -> np.ndarray:
    """Elementwise mod-2**32 sum of a sequence of turn vectors."""
    stack = np.stack([as_vector(v) for v in vectors])
    # Each value < 2**32 and uint64 accumulates exactly for < 2**32 terms.
    return np.sum(stack, axis=0, dtype=np.uint64) & _MASK_U64


def to_radians(value):
    """Angle in radians, in [0, 2*pi)."""
    if isinstance(value, np.ndarray):
        return value.astype(np.float64) * (2.0 * np.pi / MODULUS)
    return (int(value) & _MASK) * (2.0 * np.pi / MODULUS)

