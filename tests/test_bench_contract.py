"""The benchmark still runs on this checkout and prints a full, correct result.

`perfbench/` drives the program through these interfaces, and a change to
any of them makes the benchmark print no result at all:

* `protocol.run_round`, timed in `wide_vector`, and `protocol.run_iteration`,
  timed inside `phaseagg run` in `small_training`;
* `ClientMessage.masked.symbols`, the uint64 symbols of each message;
* `cli.write_transcripts`, which writes each `wide_vector` round;
* `cli.main` and `cli.load_config`, which run and load `small_training`;
* `messages[].symbols` in `transcripts.jsonl`, read back as integer lists.

Each test runs one gated workload of `BENCHMARK.json` for one second
(about 1 to 3 s of wall time with its worker processes).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_prints_every_metric(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    missing = {m["name"] for m in BENCHMARK["end_to_end"]} - set(result["metrics"])
    assert not missing
