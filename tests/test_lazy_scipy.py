"""`scipy`, `orjson` and `concurrent.futures` load only when a command needs them.

Only a computed p-value loads scipy, only a written transcript loads
orjson, and only `run --jobs` with more than one job loads
concurrent.futures (and the logging package with it).  Each test drives
`cli.main` in a fresh interpreter, because the test process itself has
long since imported them.  The script reports, after the imports and
after each command, whether "scipy", "orjson" and "concurrent.futures"
are in `sys.modules`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.stats

from test_golden import PER_SYMBOL_ROUND

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import phaseagg, phaseagg.cli
from phaseagg import cli
def loaded():
    return [name in sys.modules for name in ("scipy", "orjson", "concurrent.futures")]
steps = [[None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    steps.append([code, *loaded()])
print(json.dumps(steps))
"""


def probe(commands, cwd) -> list:
    """[[exit code, scipy, orjson, concurrent.futures loaded]] after the imports, then each command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def write_config(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def test_import_run_and_scalar_round_leave_scipy_unloaded(tmp_path):
    steps = probe([
        ["run", "--config", "alg1_baseline", "--out", str(tmp_path / "run")],
        ["round", "--config", "alg2_dropout", "--out", str(tmp_path / "round")],
        ["attack", "--config", "attack_naive", "--out", str(tmp_path / "attack")],
    ], tmp_path)
    assert steps == [[None, False, False, False], [0, False, True, False],
                     [0, False, True, False], [0, False, True, False]]


def test_per_symbol_round_loads_scipy_for_its_chi_square(tmp_path):
    # The golden per-symbol round, with enough symbols per message that the
    # leak probe's chi-square test has 100 samples per cell (9 senders x 199
    # differences >= 1600); at the golden dimension of 6 it is underpowered.
    config = write_config(tmp_path / "round.json", dict(PER_SYMBOL_ROUND, dimension=200))
    out = tmp_path / "out"
    steps = probe([["round", "--config", config, "--out", str(out)]], tmp_path)
    # scipy.stats itself imports concurrent.futures.
    assert steps == [[None, False, False, False], [0, True, True, True]]

    uniformity = json.loads((out / "report.json").read_text())["difference_leak"]["uniformity"]
    assert uniformity is not None
    transcript = json.loads((out / "transcripts.jsonl").read_text())
    counts = [0] * 16
    for message in transcript["messages"]:
        symbols = message["symbols"]
        for a, b in zip(symbols, symbols[1:]):
            counts[(((b - a) % 2**32) * 16) >> 32] += 1
    assert sum(counts) == uniformity["sample_count"] == 9 * 199
    assert uniformity["p_value"] == float(scipy.stats.chisquare(np.array(counts)).pvalue)


def test_alg2_attack_loads_scipy_for_its_binomial_test(tmp_path):
    data = json.loads((SRC / "phaseagg" / "configs" / "attack_private_phase.json").read_text())
    config = write_config(tmp_path / "attack.json", dict(data, rounds=200))
    out = tmp_path / "out"
    steps = probe([["attack", "--config", config, "--out", str(out)]], tmp_path)
    assert steps == [[None, False, False, False], [0, True, False, True]]

    attack = json.loads((out / "report.json").read_text())["attack"]
    assert attack["trials"] == 200
    expected = scipy.stats.binomtest(attack["full_recoveries"], attack["trials"],
                                     1.0 / attack["modulus"]).pvalue
    assert attack["binomial_p_value"] == float(expected)
