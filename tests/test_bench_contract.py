"""The benchmark still runs on this checkout and prints a full, correct result.

`perfbench/` drives the program through these interfaces, and a change to
any of them makes the benchmark print no result at all:

* `protocol.run_round`, timed in `wide_vector`, and `protocol.run_iteration`,
  timed inside `phaseagg run` in `small_training`;
* `ClientMessage.masked.symbols`, the uint32 symbols of each message;
* `cli.write_transcripts`, which writes each `wide_vector` round;
* `cli.main` and `cli.load_config`, which run and load `small_training`;
* `messages[].symbols` in `transcripts.jsonl`, read back as integer lists.

Each test runs one gated workload of `BENCHMARK.json` for one second
(about 1 to 3 s of wall time with its worker processes), untraced for the
end-to-end metrics and traced for the per-layer ones.  The last line must
parse as strict JSON, with no NaN or Infinity, and the traced run must list
every `per_layer` metric: the tracer drops the metrics of a function it
cannot find.  The traced run wraps `cli.write_transcripts`, so the writer's
time, spent while it streams each line's parts to the file, must show
there, and `cli.parse_config`, which `small_training` calls to load its
config.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def refuse_constant(name: str):
    raise ValueError(f"the result holds {name}, which is not a measurement")


def run_benchmark(workload: str, trace: int) -> dict:
    """One second of `workload`; its last stdout line, a correct result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_prints_every_metric(workload):
    result = run_benchmark(workload, trace=0)
    missing = {m["name"] for m in BENCHMARK["end_to_end"]} - set(result["metrics"])
    assert not missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_times_the_transcript_writer(workload):
    metrics = run_benchmark(workload, trace=1)["metrics"]
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(metrics)
    assert not missing
    assert metrics["cli.write_transcripts.self_ms"]["value"] > 0
    assert metrics["cli.write_transcripts.bytes_per_round"]["value"] > 0
    if workload == "small_training":
        assert metrics["cli.parse_config.ms"]["value"] > 0
