"""Golden digests: fixed config and seed give these exact artifact bytes.

The transcript digests pin the keyed phase streams: each round's channel
and private phases are read from one SHAKE256 stream per domain
(`rng.keyed_turn_vector`), at each pair's place in the layout and each
client's row.  They must not change while the streams stay the same.
`history.csv` and the reports do not depend on the phases, because the
masks cancel exactly: a change to the streams moves the transcripts
alone.  A change to the streams or to the transcript format is made on
purpose and updates them here.
"""

import hashlib
import json

import pytest

from phaseagg.cli import main

ARTIFACTS = ("transcripts.jsonl", "history.csv", "report.json")

# One per-symbol round with two dropped clients and a delayed one.
PER_SYMBOL_ROUND = {
    "name": "per_symbol_round", "clients": 12, "dimension": 6,
    "samples_per_client": 8,
    "grouping": {"mode": "subgroup", "groups": 2, "subgroup_size": 3},
    "protocol_version": "alg2", "quantization": {"clip": 1.0, "levels": 16},
    "modulation": "auto", "fec": {"scheme": "none"},
    "dropout": {"probability": 0.0, "fixed": {"0": [1, 7]}},
    "delayed_client": 4, "rounds": 1, "learning_rate": 0.1, "seed": 3,
    "per_symbol_masks": True,
}

GOLDEN = {
    "alg1_baseline": {
        "transcripts.jsonl": "b202519b5051f2a494a36d5b16a811531f2aba953ad05450a7a589c76ed2ac7b",
        "history.csv": "0ac4f33860bcfa424f25c452fb397b721d68211e7d362969002995a35c377aae",
        "report.json": "a012224dbf91e9beb2f47f96a32b22b73e96bbf4339e12e2b7240f52e665e82e",
    },
    "alg2_dropout": {
        "transcripts.jsonl": "4311d43875e2c432d1f343fad0719e2ad6496297f8600592dd6cf6b3455e8980",
        "history.csv": "a6b3340d282d365f77da494cdcebd61673d4dec09b5ef282f8a707f18df02933",
        "report.json": "49f09152e69773524165ce9bc07784c7bd158faca233fa0949d80c5add943b13",
    },
    "per_symbol_round": {
        "transcripts.jsonl": "ef916084118916bbd8994ae98f6ef3fa54cda7ac9ffa732dd366087fec2b1060",
        "report.json": "97a8e2b5f0c8ead42587bbffe443a67b29ce89e1fa6b9ce93f2d08f49e6d5321",
    },
    # alg1, so the report holds no scipy p-value.
    "attack_naive": {
        "report.json": "2ccecfc092c14e4bc5dd1ec0176ef9e9121027d606bf669839ba37a17c36db09",
    },
}

def digests(out_dir) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS if (out_dir / name).exists()}


@pytest.mark.parametrize("config", ["alg1_baseline", "alg2_dropout"])
def test_bundled_run_digests(config, tmp_path):
    code = main(["run", "--config", config, "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    assert digests(tmp_path) == GOLDEN[config]


def run_golden(config, tmp_path):
    """Run one golden config into `tmp_path / "out"` and return that directory."""
    out = tmp_path / "out"
    if config == "per_symbol_round":
        path = tmp_path / "per_symbol_round.json"
        path.write_text(json.dumps(PER_SYMBOL_ROUND))
        assert main(["round", "--config", str(path), "--out", str(out)]) == 0
    else:
        assert main(["run", "--config", config, "--seed", "3", "--out", str(out)]) == 0
    return out


def test_per_symbol_round_digests(tmp_path):
    assert digests(run_golden("per_symbol_round", tmp_path)) == GOLDEN["per_symbol_round"]


def test_attack_naive_report_digest(tmp_path):
    assert main(["attack", "--config", "attack_naive", "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == GOLDEN["attack_naive"]
