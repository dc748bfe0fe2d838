"""Benchmark of phaseagg's masked aggregation round.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout.  Each workload runs in worker processes
(`worker.py`) that import phaseagg from the checkout's `src/`.  With
`--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs the workload once traced and prints the per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The exit status is
non-zero, with no result printed, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from worker import MAINS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide_vector", "many_clients_dropout", "per_symbol_dropout", "small_training")
# Launch order of one end-to-end run: setup, main, setup, main, setup.  The
# main processes run the same rounds and replay each other; the setup-only
# launches between them time setup across the whole run, not only at its start.
LAUNCHES = ("setup",) + ("main", "setup") * MAINS
DEADLINE_S = 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def launch(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker process; add its setup time measured from launch."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    env = dict(os.environ, **SINGLE_THREAD)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before launching a worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - start - result["gen_s"]
    return result


def nearest_rank(sorted_values, rank: int) -> float:
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def round_tail(durations) -> tuple[float, float]:
    """The tail round time in ms, with ten rounds beyond it, and its percentile."""
    ms = sorted(d * 1e3 for d in durations)
    n = len(ms)
    if n < 40:
        raise BenchError(f"only {n} rounds completed; a tail needs 40")
    return nearest_rank(ms, n - 10), 100.0 * (n - 10) / n


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    launches = [launch(workload, seed, seconds, mode, deadline) for mode in LAUNCHES]
    mains = [r for r, mode in zip(launches, LAUNCHES) if mode == "main"]
    durations = [d for m in mains for d in m["durations"]]
    rounds = sum(m["rounds"] for m in mains)
    tail_ms, tail_pct = round_tail(durations)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in launches), "s"),
        "round_tail_ms": (tail_ms, "ms"),
        "transcript_bytes_per_round": (sum(m["transcript_bytes"] for m in mains) / rounds,
                                       "bytes"),
        "peak_rss_mb": (max(m["peak_rss_mb"] for m in mains), "MB"),
    }
    # Printed for reading, left out of the result: on a host whose speed
    # changes for minutes at a time they move with it (see README.md).
    unbounded = {
        "rounds_per_s": f"{len(durations) / sum(m['loop_s'] for m in mains):.4f} 1/s",
        "round_p50_ms": f"{statistics.median(durations) * 1e3:.4f} ms",
    }
    replay = checks.Checker()
    for other in mains[1:]:
        checks.check_equal_digests(replay, "main replay", mains[0]["digest"], other["digest"])
    failures = [f for m in mains for f in m["failures"]] + replay.failures
    return {"workload": workload, "correct": not failures,
            "failures": failures, "attempted": rounds,
            "failed": sum(m["failed"] for m in mains),
            "metrics": metrics,
            "notes": {"round_tail_ms": f"p{tail_pct:g}",
                      **{name: f"{text} (not bounded)" for name, text in unbounded.items()}}}


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    traced = launch(workload, seed, seconds, "traced", deadline)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["setup.import_s"] = (traced["import_s"], "s")
    failures = traced["failures"]
    return {"workload": workload, "correct": not failures, "failures": failures,
            "attempted": traced["rounds"], "failed": traced["failed"], "metrics": metrics,
            "notes": {"absent": ", ".join(traced["absent"]) or "none"}}


def report(result: dict) -> None:
    print(f"{result['workload']}: {result['attempted']} rounds attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for message in result["failures"]:
        print(f"  check failed: {message}")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:42s} {value:14.4f} {unit:6s} {note}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"  {name}: {note}")


def summary(results) -> dict:
    single = len(results) == 1
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): {"value": value, "unit": unit}
            for r in results for name, (value, unit) in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "phaseagg" / "__init__.py").is_file():
        print(f"error: no phaseagg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = [measure(name, args.seed, args.seconds, deadline) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    print(json.dumps(summary(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
