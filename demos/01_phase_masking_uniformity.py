"""Why rotating by a shared random phase hides a constellation point.

Every angle lives on an exact 2**32 fixed-point grid, so mask application
and removal are integer group operations with no floating-point drift.
Adding a uniform random phase to ANY plaintext symbol makes the result
uniform; we show that statistically on the full grid and exactly, by
exhaustive enumeration, on a reduced 16-point grid.
"""

import numpy as np

from phaseagg import turns
from phaseagg.analysis import chi_square_uniformity, exact_masking_information
from phaseagg.codec import QuantizationConfig, modulate
from phaseagg.masking import sample_private_phase

cfg = QuantizationConfig(clip=1.0, levels=4, modulus=16)

print("A digit is carried as one of M=16 constellation points:")
for digit in range(4):
    point = modulate([digit], cfg)[0]
    print(f"  digit {digit} -> grid value {int(point):>10d} "
          f"({2 * np.pi * int(point) / turns.MODULUS:.4f} rad)")

print("\nMask the SAME digit (3) with a fresh uniform phase 16000 times:")
symbol = modulate([3], cfg)[0]
masks = np.array([sample_private_phase(0, t, seed=1) for t in range(16_000)],
                 dtype=np.uint64)
masked = turns.add(np.full(16_000, symbol, dtype=np.uint64), masks)
report = chi_square_uniformity(masked, bins=16)
print(f"  chi-square over 16 arcs: statistic={report.statistic:.1f}, "
      f"p={report.p_value:.3f}, uniform at alpha=0.01: {report.passed}")

print("\nExhaustive check on a 16-point grid (every plaintext, every mask):")
small = exact_masking_information(plaintexts=range(16), grid_bits=4)
print(f"  conditional distribution uniform for every plaintext: "
      f"{small.conditionals_uniform}")
print(f"  mutual information(plaintext; masked) = "
      f"{small.mutual_information_bits} bits (exactly zero)")

print("\nAnd the mask comes off exactly, because the grid is a group:")
restored = turns.sub(masked[:3], masks[:3])
print(f"  first three unmasked values: {[int(v) for v in restored]} "
      f"(all equal the original {int(symbol)})")
