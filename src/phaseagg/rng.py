"""Keyed, counter-based randomness derivation.

Every random quantity in a simulation is a pure function of a key tuple
(scenario seed, domain tag, round index, ids...).  Keys are hashed through
numpy's SeedSequence, which is a fixed avalanche mix of the key words, so
any single value - e.g. the channel phase of one pair at one iteration -
can be re-derived on demand without storing anything.  Dropout recovery
and transcript replay rely on this.

`keyed_turn` is the reference definition of one value.  `keyed_turns`
derives a whole batch of keys that share a prefix (every cross pair a
round uses, every sender's private phase) in a few dozen elementwise
uint32 array operations; each of its values is bit-identical to
`keyed_turn` on the same key, so batching changes no stream.  The shared
prefix is hashed once as Python ints, and hash steps whose result never
reaches the first output word are skipped.  `keyed_turns_window` batches
the same keys over a window of consecutive iterations, the iteration
becoming a key column, so a training run can derive many rounds' values
in one call.  The order in which values are derived is a simulation
detail: each is the same keyed function of its key, however it is batched.

Domain tags keep the independent streams (channel phases, private phases,
grouping, data, dropouts) from ever colliding on the same key.
"""

from __future__ import annotations

import functools

import numpy as np

CHANNEL_DOMAIN = 1
PRIVATE_PHASE_DOMAIN = 2
GROUPING_DOMAIN = 3
DATA_DOMAIN = 4
DROPOUT_DOMAIN = 5
CHANNEL_STREAM_DOMAIN = 6
PRIVATE_STREAM_DOMAIN = 7

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


@functools.lru_cache(maxsize=None)
def _hash_consts(steps: int) -> tuple[int, ...]:
    """hashmix's running constant before each of `steps` steps and after the last.

    A key of w words takes 4 * max(w, 4) steps; each word count is built once.
    """
    consts = [_INIT_A]
    for _ in range(steps):
        consts.append((consts[-1] * _MULT_A) & _MASK32)
    return tuple(consts)


def _check_key(key: tuple) -> list[int]:
    parts = []
    for part in key:
        part = int(part)
        if part < 0:
            raise ValueError(f"key parts must be non-negative, got {part} in {key}")
        parts.append(part)
    return parts


def keyed_turn(*key: int) -> int:
    """One uniform value on the 2**32 grid, derived from the key."""
    ss = np.random.SeedSequence(entropy=_check_key(key))
    return int(ss.generate_state(1, np.uint32)[0])


def _words(part: int) -> list[int]:
    """SeedSequence's coercion of one key part: little-endian 32-bit words."""
    words = [part & _MASK32]
    part >>= 32
    while part:
        words.append(part & _MASK32)
        part >>= 32
    return words


def _column(values, name: str) -> np.ndarray:
    """A key column as uint32, refusing anything that would need truncation.

    A uint32 column is returned as it is, not copied: the hash never
    writes to its columns.
    """
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise ValueError(f"keyed_turns column {name} must be a 1-D integer array")
    if arr.dtype == np.uint32:
        return arr
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > _MASK32):
        raise ValueError(
            f"keyed_turns column {name} holds values outside [0, 2**32); "
            "use keyed_turn for multi-word key parts"
        )
    return arr.astype(np.uint32)


def _hashmix(value, step: int, consts: tuple[int, ...]):
    """SeedSequence's hashmix at hash step `step`, of an int or a uint32 array."""
    if isinstance(value, int):
        value = ((value ^ consts[step]) * consts[step + 1]) & _MASK32
        return value ^ (value >> _XSHIFT)
    value = value ^ np.uint32(consts[step])
    value *= np.uint32(consts[step + 1])
    value ^= value >> np.uint32(_XSHIFT)
    return value


def _mix(x, y):
    """SeedSequence's mix of two pool words, each an int or a uint32 array."""
    if isinstance(x, int) and isinstance(y, int):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> _XSHIFT)
    if isinstance(x, int):
        value = y * np.uint32(_MIX_MULT_R)
        np.subtract(np.uint32((_MIX_MULT_L * x) & _MASK32), value, out=value)
    else:
        value = x * np.uint32(_MIX_MULT_L)
        value -= (np.uint32((_MIX_MULT_R * y) & _MASK32) if isinstance(y, int)
                  else y * np.uint32(_MIX_MULT_R))
    value ^= value >> np.uint32(_XSHIFT)
    return value


def keyed_turns(prefix, *columns) -> np.ndarray:
    """keyed_turn(*prefix, col0[k], col1[k], ...) for every row k, as uint32 turns.

    The prefix parts may be any non-negative ints; every column value must
    lie in [0, 2**32) so that it is one entropy word.  All keys then have
    the same word count, and SeedSequence's hash constants depend only on
    that count, so its entropy mix and first output word run as a fixed
    sequence of elementwise operations over the whole batch.

    Only what reaches the output is computed.  The prefix words are the
    same in every row, so they are hashed and mixed as Python ints, and a
    pool word becomes an array only once a column word reaches it.  The
    first output word reads pool word 0 alone, and after the all-pairs mix
    every word is updated from itself, so an update is skipped unless it
    writes word 0 or a word that a later pass reads as its source; the hash
    constant still advances for every skipped step.
    """
    if not columns:
        raise ValueError("keyed_turns needs at least one key column")
    cols = [_column(c, str(k)) for k, c in enumerate(columns)]
    rows = cols[0].shape[0]
    if any(c.shape[0] != rows for c in cols):
        raise ValueError("keyed_turns columns must have equal lengths")
    entropy = [w for part in _check_key(tuple(prefix)) for w in _words(part)] + cols
    steps = _POOL_SIZE * max(len(entropy), _POOL_SIZE)
    consts = _hash_consts(steps)

    # Words past the key's end are hashed zeros.
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, i, consts)
            for i in range(_POOL_SIZE)]
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src == dst:
                continue
            # Word 0 reaches the output; a word above `src` is a later source.
            if dst == 0 or dst > src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], step, consts))
            step += 1
    for word in entropy[_POOL_SIZE:]:
        pool[0] = _mix(pool[0], _hashmix(word, step, consts))
        step += _POOL_SIZE

    # generate_state: the first output word comes from pool[0] alone.
    state = pool[0] ^ np.uint32(_INIT_B)
    state *= np.uint32((_INIT_B * _MULT_B) & _MASK32)
    state ^= state >> np.uint32(_XSHIFT)
    return state


def keyed_turns_window(prefix, start: int, rounds: int, *columns) -> np.ndarray:
    """keyed_turns over `rounds` consecutive iterations, as a (rounds, rows) array.

    Entry [r, k] is keyed_turn(*prefix, start + r, col0[k], col1[k], ...):
    the iteration is the first key column, so every value is hashed from
    the same words as a `keyed_turns` call with the iteration ending its
    prefix.  Every iteration must be one entropy word, in [0, 2**32).
    """
    start, rounds = int(start), int(rounds)
    if rounds < 1:
        raise ValueError(f"a window needs at least one round, got {rounds}")
    if start < 0 or start + rounds - 1 > _MASK32:
        raise ValueError(f"window iterations {start}..{start + rounds - 1} "
                         "must lie in [0, 2**32)")
    if not columns:
        raise ValueError("keyed_turns_window needs at least one key column")
    cols = [_column(c, str(k + 1)) for k, c in enumerate(columns)]
    rows = cols[0].shape[0]
    # Built as uint32 once, so `keyed_turns` takes every column without a copy.
    iterations = np.repeat(np.arange(rounds, dtype=np.uint32) + np.uint32(start), rows)
    flat = keyed_turns(prefix, iterations, *(np.tile(c, rounds) for c in cols))
    return flat.reshape(rounds, rows)


def keyed_turn_vector(length: int, *key: int) -> np.ndarray:
    """A uint32 vector of `length` uniform grid values derived from the key."""
    ss = np.random.SeedSequence(entropy=_check_key(key))
    return ss.generate_state(length, np.uint32)


def keyed_generator(*key: int) -> np.random.Generator:
    """A full Generator for shuffles / floats, keyed like keyed_turn."""
    return np.random.default_rng(np.random.SeedSequence(entropy=_check_key(key)))
