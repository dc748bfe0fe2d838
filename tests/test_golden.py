"""Golden digests: fixed config and seed give these exact artifact bytes.

The digests were computed with the per-client round engine (each channel
pair and private phase hashed by its own `keyed_turn` call) and must not
change while the random streams stay the same.  A change to the streams
or to the transcript format is made on purpose and updates them here.

`LEGACY_TRANSCRIPTS` holds the `transcripts.jsonl` digests of the legacy
format (no `transcript_format` field): per-message iteration, direction,
mask mode and version, one reveal entry per share, and the
`correction_queries` list.  `legacy_row` rebuilds that form from a
format-2 line, so those digests show that format 2 lost no information.
"""

import hashlib
import json

import pytest

from phaseagg.cli import main
from phaseagg.protocol import TRANSCRIPT_FORMAT

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
        "transcripts.jsonl": "91c9d02108e1223e1d74f38bbcb23c6bb81724298ef887761f521b97e0b66e60",
        "history.csv": "0ac4f33860bcfa424f25c452fb397b721d68211e7d362969002995a35c377aae",
        "report.json": "a012224dbf91e9beb2f47f96a32b22b73e96bbf4339e12e2b7240f52e665e82e",
    },
    "alg2_dropout": {
        "transcripts.jsonl": "21a5eeb3ae4b5fdc740095e81ef2089d4030eb34c36b3ba7bce0e4d888455da0",
        "history.csv": "a6b3340d282d365f77da494cdcebd61673d4dec09b5ef282f8a707f18df02933",
        "report.json": "49f09152e69773524165ce9bc07784c7bd158faca233fa0949d80c5add943b13",
    },
    "per_symbol_round": {
        "transcripts.jsonl": "b2b0d67eb4b6418182c4aaad8f56a40cdf971736f7962c5b599b20eb3f287fa5",
        "report.json": "97a8e2b5f0c8ead42587bbffe443a67b29ce89e1fa6b9ce93f2d08f49e6d5321",
    },
    # alg1, so the report holds no scipy p-value.
    "attack_naive": {
        "report.json": "2ccecfc092c14e4bc5dd1ec0176ef9e9121027d606bf669839ba37a17c36db09",
    },
}

LEGACY_TRANSCRIPTS = {
    "alg1_baseline": "27799d0c2c0962ed13df52ec6ae9192d351e0874ad7ae32865dc4f12e9e9e7ed",
    "alg2_dropout": "585ba2bac0ab68c94c4401d88a732b1787f5434e871fa73379bae06f8d9cb115",
    "per_symbol_round": "673fcae950c07da3f8509fa1e08a3c396e4669f3d8d9912aa60e3d2f88cc5a9d",
}


def legacy_reveals(records) -> list:
    """The legacy per-share reveal log of a format-2 `reveals` list."""
    log = []
    for r in records:
        if r["kind"] == "mask-shares":
            log += [{"kind": "mask-share", "dropped": r["dropped"], "revealer": j,
                     "phase": phase} for j, phase in zip(r["revealers"], r["phases"])]
        else:
            log += [{"kind": "private-phase", "client": j, "phase": phase}
                    for j, phase in zip(r["clients"], r["phases"])]
    return log


def legacy_row(row: dict) -> dict:
    """A format-2 `transcripts.jsonl` row in the legacy schema."""
    assert row["transcript_format"] == TRANSCRIPT_FORMAT
    legacy = {k: v for k, v in row.items()
              if k not in ("transcript_format", "version", "mask_mode", "reveals")}
    tags = row["assignment"]["tag_of"]
    legacy["messages"] = [
        {"owner": m["owner"], "iteration": row["iteration"], "direction": tags[m["owner"]],
         "mask_mode": row["mask_mode"], "version": row["version"], "symbols": m["symbols"]}
        for m in row["messages"]]
    legacy["correction_queries"] = [
        {"kind": "mask-shares", "dropped": r["dropped"], "queried": r["revealers"]}
        if r["kind"] == "mask-shares" else {"kind": "private-phase", "queried": r["clients"]}
        for r in row["reveals"]]
    legacy["revealed_shares"] = legacy_reveals(row["reveals"])
    return legacy


def write_legacy(src, dst) -> bytes:
    """Rewrite the format-2 `transcripts.jsonl` in `src` legacy-style into `dst`."""
    lines = [json.dumps(legacy_row(json.loads(line)), sort_keys=True,
                        separators=(",", ":")) + "\n"
             for line in (src / "transcripts.jsonl").read_text().splitlines()]
    dst.mkdir(exist_ok=True)
    data = "".join(lines).encode()
    (dst / "transcripts.jsonl").write_bytes(data)
    return data


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


@pytest.mark.parametrize("config", sorted(LEGACY_TRANSCRIPTS))
def test_legacy_expansion_reproduces_the_legacy_bytes(config, tmp_path):
    out = run_golden(config, tmp_path)
    legacy = write_legacy(out, tmp_path / "legacy")
    assert hashlib.sha256(legacy).hexdigest() == LEGACY_TRANSCRIPTS[config]
    # `analyze` reads both forms and writes the same analysis.
    for directory in (out, tmp_path / "legacy"):
        assert main(["analyze", "--out", str(directory)]) == 0
    assert ((out / "analysis.json").read_bytes()
            == (tmp_path / "legacy" / "analysis.json").read_bytes())
