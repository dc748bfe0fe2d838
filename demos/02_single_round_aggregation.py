"""One aggregation round, end to end, with every mask visible.

Four clients quantize a gradient vector, rotate it by the sum of their
reciprocal channel phases toward the other group (plus side adds, minus
side subtracts), and upload.  The server sums what it received: the
masks cancel pairwise and the decoded digit sums equal the plaintext
sums exactly - while every individual message looks like noise.
"""

import numpy as np

from phaseagg.channel import get_phase, sample_round_channel
from phaseagg.codec import QuantizationConfig, quantize
from phaseagg.config import ALG1
from phaseagg.masking import two_group_from_sides
from phaseagg.protocol import run_round

gradients = [
    np.array([0.8, -0.3, 0.1]),
    np.array([-0.5, 0.9, 0.0]),
    np.array([0.2, 0.2, -0.7]),
    np.array([-0.1, -0.6, 0.4]),
]

cfg = QuantizationConfig.with_auto_modulus(clip=1.0, levels=16, max_clients=4)
assignment = two_group_from_sides([0, 1], [2, 3])
channel = sample_round_channel(4, iteration=0, seed=42)

print("Reciprocal channel phases (same value seen from both ends):")
for i in range(4):
    for j in range(i + 1, 4):
        print(f"  phase({i},{j}) = {get_phase(channel, i, j):>10d} "
              f"= phase({j},{i}) = {get_phase(channel, j, i):>10d}")

digits = [quantize(g, cfg) for g in gradients]
print("\nQuantized digits per client:")
for i, d in enumerate(digits):
    side = "plus" if assignment.tag_of[i] == "+" else "minus"
    print(f"  client {i} ({side} side): {list(d)}")

transcript = run_round(digits, assignment, channel, cfg, version=ALG1, seed=42)

print("\nWhat the server sees (masked symbols, one row per client):")
for msg in transcript.messages:
    print(f"  client {msg.owner} [{assignment.tag_of[msg.owner]}]: "
          f"{[int(s) for s in msg.masked.symbols]}")

print("\nServer-side decode after summing all messages:")
print(f"  decoded digit sums: {transcript.aggregate.tolist()}")
print(f"  plaintext digit sums: {np.sum(digits, axis=0).tolist()}")
print(f"  decoded mean gradient: "
      f"{[round(v, 4) for v in transcript.decoded_mean.tolist()]}")
print(f"  true quantized mean:   "
      f"{[round(float(v), 4) for v in np.mean([(d * 2 / 15) - 1 for d in digits], axis=0)]}")
print(f"\nphase estimations this round: "
      f"{transcript.counters['phase_estimations']} (= 2 x 2 cross pairs)")
