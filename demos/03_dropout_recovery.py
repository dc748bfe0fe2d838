"""Client dropouts: why a correction is needed and how it is built.

A dropped client's mask never reaches the server, so the pairwise
cancellation breaks and the phase sum lands off the constellation grid.
Under the private-phase protocol the server asks the dropped client's
counterparts for their phase shares, rebuilds the missing mask, asks
survivors for their private phases, and decodes the survivor sum exactly.
The reveal log never contains both a client's private phase and enough
shares to rebuild that same client's mask.
"""

import numpy as np

from phaseagg.channel import sample_round_channel
from phaseagg.codec import QuantizationConfig
from phaseagg.errors import ResidualMaskError, UnrecoverableRoundError
from phaseagg.config import ALG2
from phaseagg.masking import two_group_from_sides
from phaseagg.protocol import ps_aggregate_and_decode, run_round

cfg = QuantizationConfig.with_auto_modulus(clip=1.0, levels=8, max_clients=6)
assignment = two_group_from_sides([0, 1, 2], [3, 4, 5])
channel = sample_round_channel(6, iteration=0, seed=9)
rng = np.random.default_rng(9)
digits = [rng.integers(0, 8, size=4) for _ in range(6)]

print("Client 4 drops out mid-round.\n")
transcript = run_round(digits, assignment, channel, cfg, version=ALG2,
                       seed=9, dropped=[4])

print("Naive attempt: sum the five arriving messages with no correction:")
try:
    ps_aggregate_and_decode(transcript.symbols, 0, cfg)
except ResidualMaskError as err:
    print(f"  ResidualMaskError: {err}")

print("\nProtocol recovery:")
survivor_sum = np.sum([digits[i] for i in range(6) if i != 4], axis=0)
print(f"  decoded digit sums: {transcript.aggregate.tolist()}")
print(f"  survivor plaintext sums: {survivor_sum.tolist()}")
print(f"  recovery messages: {transcript.counters['recovery_messages']} "
      f"(one share per surviving counterpart of client 4)")
print(f"  private phases revealed: "
      f"{transcript.counters['private_phase_reveals']} (one per survivor)")

print("\nReveal log (one record per query):")
for record in transcript.reveals:
    if record["kind"] == "mask-shares":
        print(f"  clients {record['revealers']} each reveal their shared phase "
              f"with dropped client {record['dropped']}")
    else:
        print(f"  clients {record['clients']} each reveal their private phase")

print("\nIf a whole subgroup vanishes, the round is refused instead of "
      "decoded unsafely:")
try:
    run_round(digits, assignment, channel, cfg, version=ALG2, seed=9,
              dropped=[3, 4, 5])
except UnrecoverableRoundError as err:
    print(f"  UnrecoverableRoundError: {err}")
