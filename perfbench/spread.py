"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

For every metric it prints the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance
as a share of the median, which is what the bounds in BENCHMARK.json are
compared against.  Raw results go to `perfbench/out/spread-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out = HERE / "out" / f"spread-{args.workload}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    with out.open("a") as log:
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"seed": seed, **result}) + "\n")
            runs.append(result)
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    print(f"{'metric':42s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/median':>10s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{name:42s} {q2:14.4f} {q1:14.4f} {q3:14.4f} {share:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
