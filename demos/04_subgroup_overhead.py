"""Communication overhead: two big groups versus many small subgroups.

Establishing masks costs one phase-estimation handshake per cross pair.
With two groups of N/2 that is (N/2)^2 handshakes per round; splitting
the clients into K groups of two L-sized subgroups cuts it to
K*L^2 = N*L/2, at the price of recovery robustness: the smaller the
subgroup, the fewer dropouts it takes to make a round unrecoverable.
"""

import numpy as np

from phaseagg.analysis import verify_overhead
from phaseagg.channel import sample_round_channel
from phaseagg.codec import QuantizationConfig
from phaseagg.config import ALG1
from phaseagg.masking import assign_subgroups, two_group_from_sides
from phaseagg.protocol import run_round

print(f"{'N':>4} {'layout':>22} {'measured':>9} {'formula':>18}")
for n in [8, 16, 32, 64]:
    cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=n)
    digits = [np.zeros(1, dtype=np.int64)] * n
    channel = sample_round_channel(n, iteration=0, seed=4)

    even = two_group_from_sides(range(n // 2), range(n // 2, n))
    t = run_round(digits, even, channel, cfg, version=ALG1, seed=4)
    measured = t.counters["phase_estimations"]
    print(f"{n:>4} {'two groups of N/2':>22} {measured:>9} "
          f"{'(N/2)^2 = ' + str((n // 2) ** 2):>18}")

    sub = assign_subgroups(n, n // 4, 2, seed=4)
    t = run_round(digits, sub, channel, cfg, version=ALG1, seed=4)
    measured = t.counters["phase_estimations"]
    print(f"{n:>4} {'K=N/4 groups, L=2':>22} {measured:>9} "
          f"{'N*L/2 = ' + str(n * 2 // 2):>18}")

print("\nverify_overhead confirms the counts are exact, not approximate:")
n = 32
cfg = QuantizationConfig.with_auto_modulus(1.0, 3, max_clients=n)
digits = [np.zeros(1, dtype=np.int64)] * n
channel = sample_round_channel(n, iteration=0, seed=4)
transcripts = [
    run_round(digits, assign_subgroups(n, 4, 4, seed=4), channel, cfg,
              version=ALG1, seed=4)
]
report = verify_overhead(transcripts)
print(f"  N=32, K=4, L=4: measured {report.measured_per_round}, "
      f"formula {report.formula_per_round}, exact: {report.exact_match}")

print("\nThe trade-off: at L=2 a single unlucky pair of dropouts in one "
      "subgroup\nmakes the round unrecoverable, while larger L costs "
      "proportionally more\nhandshakes per round (N*L/2).")
