"""Exact angle arithmetic on the 2**32 fixed-point grid.

An angle ("turn") is an unsigned 32-bit integer v representing
2*pi*v / 2**32 radians.  Addition and subtraction are exact group
operations modulo 2**32, so mask application and cancellation are
bit-exact: no floating-point modulo-2*pi drift can ever accumulate.

Scalars are plain Python ints in [0, 2**32); vectors are numpy uint32
arrays, whose wrap-around is the group's arithmetic: a uint32 sum,
difference or negation needs no reduction.  `as_vector` is the one
conversion of another integer array, reducing it mod 2**32.
"""

from __future__ import annotations

import numpy as np

GRID_BITS = 32
MODULUS = 1 << GRID_BITS
_MASK = MODULUS - 1


def as_vector(values) -> np.ndarray:
    """Canonical uint32 vector of turns: integer values reduced mod 2**32."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"turn vectors must be integral, got dtype {arr.dtype}")
    # Narrowing an integer to uint32 keeps its low 32 bits, its residue mod 2**32.
    return arr.astype(np.uint32, copy=False)


def add(a, b):
    """(a + b) mod 2**32, exact; works elementwise on vectors."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return as_vector(a) + as_vector(b)
    return (int(a) + int(b)) & _MASK


def sub(a, b):
    """(a - b) mod 2**32, exact; works elementwise on vectors."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return as_vector(a) - as_vector(b)
    return (int(a) - int(b)) & _MASK


def total(values) -> int:
    """Mod-2**32 sum of an iterable of scalar turns."""
    acc = 0
    for v in values:
        acc += int(v)
    return acc & _MASK


def vector_total(vectors) -> np.ndarray:
    """Elementwise mod-2**32 sum of a sequence of turn vectors."""
    return np.stack([as_vector(v) for v in vectors]).sum(axis=0, dtype=np.uint32)
