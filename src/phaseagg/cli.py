"""Scenario runner: JSON config in, deterministic artifacts out.

Subcommands:

* ``run``     - full training loop; writes history.csv, transcripts.jsonl,
                report.json
* ``round``   - round 0 of ``run``: `fl.run_training` for one round;
                writes transcripts.jsonl and report.json
* ``attack``  - delayed-client attack scenarios; writes report.json
* ``analyze`` - re-run the overhead analysis on existing transcripts;
                writes analysis.json and leaves the run's report.json alone

Configs are strict JSON, and a refused config exits 1 listing every
violation, because a silently ignored typo in a security parameter is
worse than a loud failure.  `parse_config` checks only the JSON's shape,
with `config.walk`, the walker the transcript reader uses too; only a
config whose shape holds is built into a `config.ScenarioConfig`.  Each
value rule has one owner (`ScenarioConfig`, `masking.check_layout`,
`QuantizationConfig`, `FecConfig`, `config.check_version`), and the
config collects what they refuse.  So a config's shape violations are
listed first, and its value violations only once its shape holds.
`run --jobs` below 1 exits 1 before any work; above 1, every seed runs,
each failed one prints one ``error: seed <s> (<dir>): ...`` line in seed
order, and any failure exits 2.  An explicit `--out` picks
the output directory; without one, the config's `output_dir` does, else
``out``.  Identical config and seed always produce byte-identical
artifacts.

Each line of transcripts.jsonl holds one round in transcript format
`transcript.TRANSCRIPT_FORMAT`: the parts of `RoundTranscript.to_json_parts`,
which `write_transcripts` passes to the file as they are rendered, a block
of symbol rows at a time (tests/test_golden.py pins the bytes).  `analyze` reads each line back through
`transcript.read_transcript_line`, the inverse of `to_json_parts`, which
also upgrades legacy lines.

Every artifact is written to a new file: `_create` removes what the path
held before.  A command whose artifacts fail a check (`_check`: the
overhead or recovery counts, or the plaintext baseline) raises
`CheckFailedError` after writing them, and `main` prints its one
``error:`` line and exits 2, as for every other runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, fl
from .config import ALG1, ScenarioConfig, walk
from .errors import CheckFailedError, ConfigValidationError, PhaseAggError, TranscriptFormatError
from .masking import SUBGROUP, TWO_GROUP
from .transcript import read_transcript_line

HISTORY_HEADER = ["round", "loss", "theta_norm", "phase_estimations", "uplink",
                  "recoveries"]

# A config's JSON types, as `config.walk` reads them.  `grouping`'s counts
# are read only in subgroup mode and `fec.repeat` only under the 'repetition'
# scheme; `dropout.fixed`, which maps each round index to a list of client
# ids, is read after the walk.
_SCHEMA = {
    "name": (str,), "clients": (int,), "dimension": (int,), "samples_per_client": (int,),
    "grouping": {"mode": (str,), "groups": (int,), "subgroup_size": (int,)},
    "protocol_version": (str,), "quantization": {"clip": (int, float), "levels": (int,)},
    "modulation": ("auto", int), "fec": {"scheme": (str,), "repeat": (int,)},
    "dropout": {"probability": (int, float), "fixed": (dict,)},
    "delayed_client": (int, type(None)), "rounds": (int,), "learning_rate": (int, float),
    "seed": (int,), "per_symbol_masks": (bool,), "loss_threshold": (int, float, type(None)),
    "compare_baseline": (bool,), "output_dir": (str, type(None)),
}
# The defaults of the keys and section fields a config may leave out.
_OPTIONAL = {
    "name": "scenario", "grouping": {"mode": TWO_GROUP}, "protocol_version": ALG1,
    "quantization": {"clip": 1.0, "levels": 16}, "modulation": "auto",
    "fec": {"scheme": "none", "repeat": 3}, "dropout": {"probability": 0.0, "fixed": {}},
    "delayed_client": None, "per_symbol_masks": False, "loss_threshold": None,
    "compare_baseline": False, "output_dir": None,
}


def parse_config(data: dict) -> ScenarioConfig:
    """Read a config's JSON into a ScenarioConfig, reporting every violation at once.

    The parser checks only the JSON's shape: a root object, no unknown key
    at any level, each value's type as `config.walk` reads `_SCHEMA`, the
    defaults of `_OPTIONAL`, `fec.repeat` only under the 'repetition'
    scheme, and, once the rest holds, the `dropout.fixed` map, in which
    "1" and "01" name one round.  A config whose shape holds is
    built into a ScenarioConfig, which checks every value rule where it
    lives.  So a config is refused with every shape violation, or else
    with every value violation, in one ConfigValidationError.
    """
    if not isinstance(data, dict):
        raise ConfigValidationError(["config root must be a JSON object"])
    bad = [f"unknown key {key!r}" for key in sorted(set(data) - set(_SCHEMA))]
    grouping, fec = (value if isinstance(value := data.get(key), dict) else {}
                     for key in ("grouping", "fec"))
    data, schema = {**_OPTIONAL, **data}, dict(_SCHEMA)
    if grouping.get("mode") != SUBGROUP:
        schema["grouping"] = {"mode": (str,)}
    if fec.get("scheme") != "repetition":
        schema["fec"] = {"scheme": (str,)}
        if "repeat" in fec:
            bad.append("'fec.repeat' is allowed only under the 'repetition' scheme")
    for key, fields in _SCHEMA.items():
        if isinstance(fields, dict) and isinstance(data[key], dict):
            bad.extend(f"unknown {key} key {k!r}" for k in sorted(set(data[key]) - set(fields)))
            data[key] = {**_OPTIONAL[key], **data[key]}
    known = walk(data, schema, "", bad)
    fixed = []
    for round_key, ids in [] if bad else sorted(known["dropout"]["fixed"].items()):
        try:
            round_index = int(round_key)
        except (TypeError, ValueError):
            bad.append(f"dropout round key {round_key!r} is not an integer")
            continue
        if type(ids) is not list or any(type(i) is not int for i in ids):
            bad.append(f"dropout ids for round {round_index} must be a list of ints")
            continue
        fixed.append((round_index, tuple(sorted(set(ids)))))
    if bad:
        raise ConfigValidationError(bad)
    grouping, quant, fec, dropout = (known.pop(key) for key in
                                     ("grouping", "quantization", "fec", "dropout"))
    rate, threshold = known.pop("learning_rate"), known.pop("loss_threshold")
    return ScenarioConfig(
        **known, learning_rate=float(rate),
        loss_threshold=None if threshold is None else float(threshold),
        grouping_mode=grouping["mode"], groups=grouping.get("groups"),
        subgroup_size=grouping.get("subgroup_size"), clip=float(quant["clip"]),
        levels=quant["levels"], fec_scheme=fec["scheme"], fec_repeat=fec.get("repeat", 1),
        dropout_probability=float(dropout["probability"]), dropout_fixed=tuple(fixed))


def load_config(spec: str, seed_override: int | None = None) -> ScenarioConfig:
    """Load a config from a path or a bundled name (e.g. 'alg1_baseline')."""
    path = Path(spec)
    if not path.is_file():
        path = resources.files("phaseagg").joinpath(f"configs/{spec}.json")
        if not path.is_file():
            raise ConfigValidationError(
                [f"config {spec!r} is neither a file nor a bundled scenario"]
            )
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigValidationError([f"config {spec!r} is not JSON: {exc}"]) from None
    if seed_override is not None:
        data = dict(data)
        data["seed"] = seed_override
    return parse_config(data)


def _float_text(value: float) -> str:
    return repr(float(value))


def _create(path: Path, mode: str, **kwargs):
    """Open `path` for writing as a new file, removing any file there first.

    Truncating a large file and writing it again can stall the writes on
    file systems that flush a truncated file's data before reusing its
    blocks (ext4's replace-via-truncate heuristic); a new file has no old
    blocks to flush.
    """
    path.unlink(missing_ok=True)
    return path.open(mode, **kwargs)


def write_history_csv(history: fl.TrainingHistory, path: Path) -> None:
    with _create(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HISTORY_HEADER)
        for row in history.rows:
            writer.writerow([
                row.round, _float_text(row.loss), _float_text(row.theta_norm),
                row.phase_estimations, row.uplink, row.recoveries,
            ])


def write_transcripts(transcripts, path: Path) -> None:
    """Write one compact, key-sorted JSON line per `RoundTranscript`.

    A line is the bytes of `json.dumps(t.to_json_dict(), sort_keys=True,
    separators=(",", ":"))`, passed to the file part by part as
    `RoundTranscript.to_json_parts` renders them, so no more than one block
    of symbol rows is held.  A transcript it refuses raises before any
    byte of its line is made, and a line whose rendering or write fails
    partway is cut off again, so the file holds only whole lines.
    """
    with _create(path, "wb") as handle:
        for t in transcripts:
            start = handle.tell()
            try:
                handle.writelines(t.to_json_parts())
            except BaseException:
                handle.truncate(start)
                raise
            handle.write(b"\n")


def write_report(report: dict, path: Path) -> None:
    with _create(path, "w") as handle:
        handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def run_scenario(config: ScenarioConfig, out_dir: Path, command: str = "run") -> dict:
    """Execute one scenario, write its artifacts and return its report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if command == "run":
        return _command_run(config, out_dir)
    if command == "round":
        return _command_round(config, out_dir)
    if command == "attack":
        return _command_attack(config, out_dir)
    raise ValueError(f"unknown command {command!r}")


def _check(overhead: analysis.OverheadReport, diverged: int | None = None) -> None:
    """Raise CheckFailedError naming the first failed check of written artifacts.

    `diverged` is the first round whose updated parameters differ from the
    plaintext baseline's, if one does.
    """
    if overhead.failure is not None:
        raise CheckFailedError(overhead.failure)
    if diverged is not None:
        raise CheckFailedError(f"baseline check failed: the secure parameters differ from "
                               f"the plaintext baseline's after round {diverged}")


def _command_run(config: ScenarioConfig, out_dir: Path) -> dict:
    history = fl.run_training(config, "secure")
    baseline_match = diverged = None
    if config.compare_baseline:
        # Equal parameters give equal losses, so both runs stop after the same round.
        plain = fl.run_training(config, "plaintext").thetas
        diverged = next((t for t, (a, b) in enumerate(zip(history.thetas, plain))
                         if not np.array_equal(a, b)), None)
        baseline_match = diverged is None
    write_history_csv(history, out_dir / "history.csv")
    write_transcripts(history.transcripts, out_dir / "transcripts.jsonl")
    overhead = analysis.verify_overhead(history.transcripts)
    counters_total = {
        "phase_estimations": sum(r.phase_estimations for r in history.rows),
        "uplink_messages": sum(r.uplink for r in history.rows),
        "recovery_messages": sum(r.recoveries for r in history.rows),
    }
    report = {
        "command": "run",
        "scenario": config.name,
        "seed": config.seed,
        "rounds_completed": len(history.rows),
        "initial_loss": history.initial_loss,
        "final_loss": history.final_loss,
        "loss_ratio": history.final_loss / history.initial_loss
        if history.initial_loss else None,
        "overhead": overhead.to_json_dict(),
        "codec": history.transcripts[0].codec_metrics,
        "counters_total": counters_total,
        "baseline_match": baseline_match,
    }
    write_report(report, out_dir / "report.json")
    _check(overhead, diverged)
    return report


def _command_round(config: ScenarioConfig, out_dir: Path) -> dict:
    (transcript,) = fl.run_training(dataclasses.replace(config, rounds=1)).transcripts
    write_transcripts([transcript], out_dir / "transcripts.jsonl")
    overhead = analysis.verify_overhead([transcript])
    leak = analysis.difference_leak_probe(transcript.symbols, transcript.mask_mode,
                                          config.quantization())
    report = {
        "command": "round",
        "scenario": config.name,
        "seed": config.seed,
        "counters": transcript.counters,
        "aggregate": transcript.aggregate.tolist(),
        "decoded_mean": transcript.decoded_mean.tolist(),
        "overhead": overhead.to_json_dict(),
        "difference_leak": dataclasses.asdict(leak),
    }
    write_report(report, out_dir / "report.json")
    _check(overhead)
    return report


def _command_attack(config: ScenarioConfig, out_dir: Path) -> dict:
    if config.delayed_client is None:
        raise ConfigValidationError(
            ["attack scenarios need 'delayed_client' set in the config"]
        )
    if config.per_symbol_masks:
        raise ConfigValidationError(
            ["the attack models scalar masks only; set 'per_symbol_masks' to false"]
        )
    outcome = analysis.delayed_client_attack(
        config.protocol_version,
        dimension=config.dimension,
        trials=config.rounds,
        seed=config.seed,
        delayed=config.delayed_client,
        assignment=config.build_assignment(),
        cfg=config.quantization(),
    )
    report = {"command": "attack", "scenario": config.name,
              "seed": config.seed, "attack": outcome.to_json_dict()}
    write_report(report, out_dir / "report.json")
    return report


def analyze_transcripts(out_dir: Path) -> dict:
    path = out_dir / "transcripts.jsonl"
    if not path.is_file():
        raise ConfigValidationError([f"no transcripts found at {path}"])
    with path.open("rb") as lines:
        rows = [read_transcript_line(line, number)
                for number, line in enumerate(lines, start=1) if line.strip()]
    if not rows:
        raise TranscriptFormatError(f"{path} holds no round transcripts")
    overhead = analysis.verify_overhead(rows)
    report = {
        "command": "analyze",
        "rounds": len(rows),
        "overhead": overhead.to_json_dict(),
    }
    write_report(report, out_dir / "analysis.json")
    _check(overhead)
    return report


def _run_job(config_spec: str, seed: int, out_dir: str) -> str | None:
    """Run one seed of `run --jobs`: None when it passes, else its error message."""
    try:
        run_scenario(load_config(config_spec, seed_override=seed), Path(out_dir), "run")
    except PhaseAggError as exc:
        return str(exc)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phaseagg",
        description="Deterministic phase-masked secure aggregation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("run", "run a full training scenario"),
        ("round", "run a single aggregation round"),
        ("attack", "run a delayed-client attack scenario"),
        ("analyze", "re-run analysis on existing transcripts"),
    ]:
        cmd = sub.add_parser(name, help=text)
        if name == "analyze":
            cmd.add_argument("--out", default="out", help="output directory")
        else:
            cmd.add_argument("--config", required=True,
                             help="config path or bundled name")
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the config seed")
            cmd.add_argument("--out", help="output directory "
                                           "(default: the config's output_dir, else out)")
        if name == "run":
            cmd.add_argument("--jobs", type=int, default=1,
                             help="fan out this many consecutive seeds "
                                 "(at most one worker process per CPU)")

    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1
    try:
        if args.command == "analyze":
            analyze_transcripts(Path(args.out))
            return 0
        config = load_config(args.config, seed_override=args.seed)
        out_dir = Path(args.out if args.out is not None else config.output_dir or "out")
        if args.command == "run" and args.jobs > 1:
            import concurrent.futures  # only here: it loads logging too

            seeds = [config.seed + k for k in range(args.jobs)]
            dirs = [str(out_dir / f"seed-{s}") for s in seeds]
            workers = min(args.jobs, os.cpu_count() or 1)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                errors = list(pool.map(_run_job, [args.config] * len(seeds), seeds, dirs))
            for seed, directory, error in zip(seeds, dirs, errors):
                if error is not None:
                    print(f"error: seed {seed} ({directory}): {error}", file=sys.stderr)
            return 2 if any(e is not None for e in errors) else 0
        run_scenario(config, out_dir, args.command)
        return 0
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return 1
    except PhaseAggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
