"""Reproduce the reference figures that ROADMAP.md quotes, on this host.

    python3 perfbench/baselines.py

Prints the median over five repeats of:
- `import phaseagg` in a fresh interpreter;
- `sample_round_channel` at N=256;
- one `run_round` at N=64, d=4096 (two-group, alg2, scalar masks), and
  writing its transcript with `cli.write_transcripts`, with the bytes written.
These are reference points for the README, not benchmark metrics.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
REPEATS = 5

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import phaseagg; print(time.perf_counter() - t)")


def main() -> int:
    imports = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                                    stdout=subprocess.PIPE, text=True).stdout)
               for _ in range(REPEATS)]
    print(f"import phaseagg                      {statistics.median(imports) * 1e3:9.1f} ms")

    import numpy as np
    import phaseagg as pa
    import phaseagg.cli

    channel = []
    for t in range(REPEATS):
        start = time.perf_counter()
        pa.sample_round_channel(256, t, 1)
        channel.append(time.perf_counter() - start)
    print(f"sample_round_channel N=256           {statistics.median(channel) * 1e3:9.1f} ms")

    cfg = pa.QuantizationConfig.with_auto_modulus(clip=1.0, levels=16, max_clients=64)
    assignment = pa.assign_two_groups(64, 1)
    path = ROOT / "perfbench" / "out" / "baseline.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    rounds, writes = [], []
    for t in range(REPEATS):
        digits = list(np.random.default_rng(t).integers(0, 16, size=(64, 4096)))
        chan = pa.sample_round_channel(64, t, 1)
        start = time.perf_counter()
        transcript = pa.run_round(digits, assignment, chan, cfg, version="alg2", seed=1)
        middle = time.perf_counter()
        pa.cli.write_transcripts([transcript], path)
        writes.append(time.perf_counter() - middle)
        rounds.append(middle - start)
    print(f"run_round N=64 d=4096                {statistics.median(rounds) * 1e3:9.1f} ms")
    print(f"write_transcripts N=64 d=4096        {statistics.median(writes) * 1e3:9.1f} ms"
          f"  {path.stat().st_size / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
