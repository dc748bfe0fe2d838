"""Full distributed training through the masked aggregation pipeline.

Eight clients fit a linear model by distributed SGD.  Every round the
clients quantize their gradients, mask them with channel phases, and the
server decodes only the average.  Because masking is information-lossless
the secure run is bit-for-bit identical to an insecure baseline that sums
the same quantized digits in the clear - privacy costs nothing in
accuracy here, only communication.  The config turns the baseline on, so
the one training run checks every round against the baseline's step and
names the first round that differs; the demo exits 1 if one does.
"""

import sys

from phaseagg import fl
from phaseagg.cli import load_config

config = load_config("alg1_baseline")
print(f"clients={config.clients}, dimension={config.dimension}, "
      f"rounds={config.rounds}, learning rate={config.learning_rate}, "
      f"quantization levels={config.levels}")

secure = fl.run_training(config)

print("\nround   loss (secure)   masked uplinks   phase estimations")
for row in secure.rows[::10]:
    print(f"{row.round:>5}   {row.loss:>13.6f}   {row.uplink:>14}   "
          f"{row.phase_estimations:>17}")
print(f"{secure.rows[-1].round:>5}   {secure.rows[-1].loss:>13.6f}")

identical = config.compare_baseline and secure.diverged is None
print(f"\nloss: {secure.initial_loss:.4f} -> {secure.final_loss:.2e} "
      f"({secure.final_loss / secure.initial_loss:.2e} of initial)")
print(f"secure trajectory bit-identical to plaintext baseline: {identical}")
if not identical:
    print(f"  first round that differs: {secure.diverged}")

total_masked = sum(r.uplink for r in secure.rows)
total_est = sum(r.phase_estimations for r in secure.rows)
print(f"total masked uplink messages: {total_masked}")
print(f"total phase estimations: {total_est}")
sys.exit(0 if identical else 1)
