"""Gradient quantization and phase-shift-keying transport.

Each gradient element is clipped to [-clip, +clip], quantized to one of
`levels` integer digits, and carried as one M-PSK constellation point on
the 2**32 grid.  M is chosen with enough headroom that a modulo-2**32 sum
of every client's symbols equals the plain integer digit sum - no
wraparound - which is what lets the aggregator decode exactly.

Digits and symbols are plain arrays: `quantize` returns the int64 digits,
and `modulate` the uint32 constellation points (turns) of a vector or a
whole (clients, d) matrix.

FEC here is structural bookkeeping: the simulated channel is noiseless,
so the code must be a lossless inverse pair and its redundancy r only
feeds the reported L + r bit metrics.  A round never runs the code; it
reports `FecConfig.redundancy_bits`, and the tests check the inverse pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import turns
from .errors import (
    CorruptedAggregateError,
    FramingError,
    InvalidDigitError,
    InvalidGradientError,
    ResidualMaskError,
    ShapeError,
)


@dataclass(frozen=True)
class QuantizationConfig:
    """Clipping range, digit count per element, and PSK order.

    `modulus` must be a power of two (so constellation points land exactly
    on the 2**32 grid) and at least max_clients*(levels-1)+1 for the
    deployment's client count, so digit sums never wrap.
    """

    clip: float
    levels: int
    modulus: int

    def __post_init__(self):
        if not np.isfinite(self.clip) or self.clip <= 0:
            raise ValueError(f"clip must be positive and finite, got {self.clip}")
        if self.levels < 2:
            raise ValueError(f"need at least 2 quantization levels, got {self.levels}")
        m = self.modulus
        if m < 2 or (m & (m - 1)) != 0 or m > turns.MODULUS:
            raise ValueError(
                f"modulus must be a power of two dividing 2**32, got {m}"
            )
        if m < self.levels:
            raise ValueError(
                f"modulus {m} cannot carry digits up to {self.levels - 1}"
            )

    @property
    def step(self) -> int:
        """Grid units per constellation point: 2**32 / M, exact."""
        return turns.MODULUS // self.modulus

    @property
    def bits_per_digit(self) -> int:
        return max(1, (self.levels - 1).bit_length())

    def payload_bits(self, dimension: int) -> int:
        """L: bits to represent one quantized gradient vector."""
        return dimension * self.bits_per_digit

    def require_headroom(self, num_clients: int) -> None:
        if self.modulus < num_clients * (self.levels - 1) + 1:
            raise ValueError(
                f"modulus {self.modulus} can wrap for {num_clients} clients at "
                f"{self.levels} levels; need at least "
                f"{num_clients * (self.levels - 1) + 1}"
            )

    @classmethod
    def with_auto_modulus(cls, clip: float, levels: int,
                          max_clients: int) -> "QuantizationConfig":
        """Smallest power-of-two modulus that cannot wrap for max_clients."""
        if max_clients < 1:
            raise ValueError(f"an auto modulus needs at least 1 client, got {max_clients}")
        needed = max_clients * (levels - 1) + 1
        if needed > turns.MODULUS:
            raise ValueError(
                f"{max_clients} clients at {levels} levels exceed the 2**32 grid"
            )
        modulus = 1 << (needed - 1).bit_length()
        return cls(clip=clip, levels=levels, modulus=modulus)


def quantize(gradient, cfg: QuantizationConfig) -> np.ndarray:
    """Clip to [-clip, clip] and map to int64 digits in [0, levels).

    Rounding is deterministic (round-half-even), so the secure and
    plaintext paths stay bit-identical.
    """
    g = np.asarray(gradient, dtype=np.float64)
    if np.count_nonzero(np.isfinite(g)) < g.size:
        raise InvalidGradientError("gradient contains non-finite elements")
    # (clip(g) + clip) * (levels - 1) / (2 * clip), one operation at a time
    # in the clipped copy, so every value rounds exactly as the expression.
    scaled = np.minimum(np.maximum(g, -cfg.clip), cfg.clip)
    scaled += cfg.clip
    scaled *= cfg.levels - 1
    scaled /= 2 * cfg.clip
    return np.rint(scaled).astype(np.int64)


def dequantize_mean(digit_sums, num_contributors: int,
                    cfg: QuantizationConfig) -> np.ndarray:
    """Map summed digits back to the mean gradient of the contributors."""
    if num_contributors < 1:
        raise ValueError("need at least one contributor to form a mean")
    sums = np.asarray(digit_sums, dtype=np.int64)
    hi = num_contributors * (cfg.levels - 1)
    # A negative sum reads as 2**63 or more in uint64, above any bound below
    # 2**63, so one comparison finds a sum outside [0, hi] at either end.
    if np.count_nonzero(sums.view(np.uint64) > min(hi, 2**63 - 1)):
        raise CorruptedAggregateError(
            f"digit sums outside [0, {hi}] for {num_contributors} contributors"
        )
    # (sums / n) * (2 * clip / (levels - 1)) - clip, in place in the quotient.
    mean = sums / num_contributors
    mean *= 2 * cfg.clip / (cfg.levels - 1)
    mean -= cfg.clip
    return mean


def modulate(digits, cfg: QuantizationConfig) -> np.ndarray:
    """Map digits to constellation points: digit * (2**32 / M).

    `digits` may be one client's digit vector, a (clients, d) matrix of
    them, or a sequence of rows; every check covers the whole input, and the
    symbols come back as one fresh uint32 array of the stacked shape.  A
    sequence of integer arrays is stacked straight into that array; rows of
    unequal length raise ShapeError.
    """
    if (isinstance(digits, (list, tuple)) and digits
            and all(isinstance(r, np.ndarray) and r.dtype.kind in "iu" for r in digits)):
        try:
            symbols = np.stack(digits, dtype=np.uint64, casting="unsafe")
        except ValueError as exc:
            raise ShapeError(f"digit rows disagree on shape: {exc}") from None
    else:
        digits = np.asarray(digits)
        if digits.dtype.kind not in "iu":
            if not np.array_equal(digits, np.floor(digits)):
                raise InvalidDigitError(
                    f"digits must be whole numbers, got fractional or non-finite "
                    f"{digits.dtype} values"
                )
            if np.any(digits < 0) or np.any(digits >= cfg.levels):
                raise _range_error(digits, cfg)
        symbols = digits.astype(np.uint64)
    # uint64 wraps a negative integer digit to 2**64 - |digit|, above any
    # level count, so one max finds a digit outside [0, levels) at either end.
    if symbols.size and symbols.max() >= cfg.levels:
        raise _range_error(np.asarray(digits), cfg)
    # A checked digit's point is below levels * step <= 2**32: uint32 holds both.
    points = symbols.astype(np.uint32)
    points *= np.uint32(cfg.step)
    return points


def _range_error(digits: np.ndarray, cfg: QuantizationConfig) -> InvalidDigitError:
    return InvalidDigitError(
        f"digits must lie in [0, {cfg.levels}), got range [{digits.min()}, {digits.max()}]"
    )


def decode_sum(aggregate, cfg: QuantizationConfig) -> np.ndarray:
    """Recover integer digit sums from a mask-cancelled phase aggregate.

    The aggregate must be an exact multiple of the constellation step in
    every element; anything else means mask cancellation failed (for
    example an uncorrected dropout) and raises ResidualMaskError.
    """
    agg = turns.as_vector(aggregate)
    # The step is a power of two dividing 2**32: its low bits are the
    # offset from the grid.
    off = np.count_nonzero(agg & (cfg.step - 1))
    if off:
        raise ResidualMaskError(
            f"{off} aggregate element(s) off the constellation grid; "
            "a mask did not cancel"
        )
    sums = agg.astype(np.int64)
    sums >>= cfg.step.bit_length() - 1
    return sums


def demodulate_nearest(symbols, cfg: QuantizationConfig) -> np.ndarray:
    """Nearest constellation point for possibly off-grid phases.

    This is the receiver an attacker runs after de-rotating a message: it
    returns values in [0, M), not clamped to the digit range.
    """
    # A phase past the last point's half-step wraps, as uint32 does, to point 0.
    return ((turns.as_vector(symbols) + cfg.step // 2) // cfg.step).astype(np.int64)


# --- bit-level bookkeeping -------------------------------------------------

@dataclass(frozen=True)
class FecConfig:
    """Structural channel code: identity, or repetition by `repeat`."""

    scheme: str = "none"
    repeat: int = 1

    def __post_init__(self):
        if self.scheme not in ("none", "repetition"):
            raise ValueError(f"unknown FEC scheme {self.scheme!r}")
        if self.scheme == "repetition" and self.repeat < 2:
            raise ValueError("repetition code needs repeat >= 2")
        if self.scheme == "none" and self.repeat != 1:
            raise ValueError("scheme 'none' takes no repeat factor")

    def redundancy_bits(self, payload_bits: int) -> int:
        """r: extra bits added on top of the L payload bits."""
        if self.scheme == "none":
            return 0
        return payload_bits * (self.repeat - 1)


def digits_to_bits(digits, cfg: QuantizationConfig) -> np.ndarray:
    """Big-endian fixed-width bit expansion of a digit vector."""
    d = np.asarray(digits, dtype=np.int64)
    if np.any(d < 0) or np.any(d >= cfg.levels):
        raise InvalidDigitError("digits out of range for bit expansion")
    width = cfg.bits_per_digit
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((d[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)


def bits_to_digits(bits, cfg: QuantizationConfig) -> np.ndarray:
    """Inverse of digits_to_bits."""
    b = np.asarray(bits, dtype=np.int64)
    width = cfg.bits_per_digit
    if b.size % width != 0:
        raise FramingError(f"bit count {b.size} is not a multiple of width {width}")
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return (b.reshape(-1, width) * weights).sum(axis=1)


def fec_encode(bits, cfg: FecConfig) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    if cfg.scheme == "none":
        return bits.copy()
    return np.repeat(bits, cfg.repeat)


def fec_decode(bits, cfg: FecConfig) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    if cfg.scheme == "none":
        return bits.copy()
    if bits.size % cfg.repeat != 0:
        raise FramingError(
            f"bit count {bits.size} is not a multiple of repeat {cfg.repeat}"
        )
    blocks = bits.reshape(-1, cfg.repeat)
    # Majority vote; on the noiseless channel every copy agrees anyway.
    return (blocks.sum(axis=1) * 2 > cfg.repeat).astype(np.uint8)
