"""Scenario runner: JSON config in, deterministic artifacts out.

Subcommands:

* ``run``     - full training loop; writes history.csv, transcripts.jsonl,
                report.json
* ``round``   - round 0 of ``run``: `fl.run_training` for one round;
                writes transcripts.jsonl and report.json
* ``attack``  - delayed-client attack scenarios; writes report.json
* ``analyze`` - re-run the overhead analysis on existing transcripts;
                writes analysis.json and leaves the run's report.json alone

Configs are strict JSON, and every violated constraint is reported at
once (exit 1), because a silently ignored typo in a security parameter is
worse than a loud failure.  `parse_config` checks only the JSON's shape
and builds a `config.ScenarioConfig`; each value rule has one owner
(`ScenarioConfig`, `masking.check_layout`, `QuantizationConfig`,
`FecConfig`, `config.check_version`), and the config collects what they
refuse.  `run --jobs` below 1 exits 1 before any work; above 1, every
seed runs, each failed one prints one ``error: seed <s> (<dir>): ...``
line in seed order, and any failure exits 2.  An explicit `--out` picks
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
from .config import ALG1, ScenarioConfig
from .errors import CheckFailedError, ConfigValidationError, PhaseAggError, TranscriptFormatError
from .masking import SUBGROUP, TWO_GROUP
from .transcript import read_transcript_line

HISTORY_HEADER = ["round", "loss", "theta_norm", "phase_estimations", "uplink",
                  "recoveries"]

_TOP_KEYS = {
    "name", "clients", "dimension", "samples_per_client", "grouping",
    "protocol_version", "quantization", "modulation", "fec", "dropout",
    "delayed_client", "rounds", "learning_rate", "seed", "per_symbol_masks",
    "loss_threshold", "compare_baseline", "output_dir",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {
    "an integer": _is_int,
    "a number": lambda v: _is_int(v) or isinstance(v, float),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
}
_SECTION_KEYS = {
    "grouping": {"mode", "groups", "subgroup_size"},
    "quantization": {"clip", "levels"},
    "fec": {"scheme", "repeat"},
    "dropout": {"probability", "fixed"},
}
_REQUIRED = object()


def parse_config(data: dict) -> ScenarioConfig:
    """Read a config's JSON into a ScenarioConfig, reporting every violation at once.

    The parser checks only the JSON's shape: a root object, no unknown key
    at any level, each value's type, the defaults, and `fec.repeat` only
    under the 'repetition' scheme.  Every value rule is checked where it
    lives, by `ScenarioConfig` and the objects it builds; a mistyped value
    gets a placeholder so those rules still run, and their violations join
    the parser's in one ConfigValidationError.
    """
    if not isinstance(data, dict):
        raise ConfigValidationError(["config root must be a JSON object"])
    bad = [f"unknown key {key!r}" for key in sorted(set(data) - _TOP_KEYS)]

    def section(key):
        value = data.get(key, {})
        if not isinstance(value, dict):
            bad.append(f"{key!r} must be an object")
            return {}
        bad.extend(f"unknown {key} key {k!r}" for k in sorted(set(value) - _SECTION_KEYS[key]))
        return value

    def read(where, label, kind, default=_REQUIRED, placeholder=None):
        """`where`'s value for `label`'s last part, or a placeholder if misshapen.

        The placeholder is the default, if any.  A default of None allows null.
        """
        value = where.get(label.rpartition(".")[2], default)
        if value is _REQUIRED:
            bad.append(f"{label!r} is required")
        elif value is None and default is None:
            return None
        elif not _KINDS[kind](value):
            bad.append(f"{label!r} must be {kind}, got {value!r}")
        elif kind != "a number":
            return value
        else:
            try:
                return float(value)
            except OverflowError:
                bad.append(f"{label!r} is too large for a float")
        return default if placeholder is None else placeholder

    grouping, quant, fec, dropout = (section(key) for key in _SECTION_KEYS)
    mode = read(grouping, "grouping.mode", "a string", TWO_GROUP)
    groups = subgroup_size = None
    if mode == SUBGROUP:
        groups = read(grouping, "grouping.groups", "an integer", placeholder=1)
        subgroup_size = read(grouping, "grouping.subgroup_size", "an integer", placeholder=2)
    modulation = data.get("modulation", "auto")
    if modulation != "auto" and not _is_int(modulation):
        bad.append(f"'modulation' must be 'auto' or an integer, got {modulation!r}")
        modulation = "auto"
    fec_scheme = read(fec, "fec.scheme", "a string", "none")
    fec_repeat = 1
    if fec_scheme == "repetition":
        fec_repeat = read(fec, "fec.repeat", "an integer", 3)
    elif "repeat" in fec:
        bad.append("'fec.repeat' is allowed only under the 'repetition' scheme")
    fixed = []
    fixed_raw = dropout.get("fixed", {})
    if not isinstance(fixed_raw, dict):
        bad.append("'dropout.fixed' must map round index to client ids")
        fixed_raw = {}
    for round_key, ids in sorted(fixed_raw.items()):
        try:
            round_index = int(round_key)
        except (TypeError, ValueError):
            bad.append(f"dropout round key {round_key!r} is not an integer")
            continue
        if not isinstance(ids, list) or not all(_is_int(i) for i in ids):
            bad.append(f"dropout ids for round {round_index} must be a list of ints")
            continue
        fixed.append((round_index, tuple(sorted(set(ids)))))

    try:
        config = ScenarioConfig(
            name=read(data, "name", "a string", "scenario"),
            clients=read(data, "clients", "an integer", placeholder=4),
            dimension=read(data, "dimension", "an integer", placeholder=1),
            samples_per_client=read(data, "samples_per_client", "an integer", placeholder=1),
            grouping_mode=mode, groups=groups, subgroup_size=subgroup_size,
            protocol_version=read(data, "protocol_version", "a string", ALG1),
            clip=read(quant, "quantization.clip", "a number", 1.0),
            levels=read(quant, "quantization.levels", "an integer", 16),
            modulation=modulation, fec_scheme=fec_scheme, fec_repeat=fec_repeat,
            dropout_probability=read(dropout, "dropout.probability", "a number", 0.0),
            dropout_fixed=tuple(fixed),
            delayed_client=read(data, "delayed_client", "an integer", None),
            rounds=read(data, "rounds", "an integer", placeholder=1),
            learning_rate=read(data, "learning_rate", "a number", placeholder=1.0),
            seed=read(data, "seed", "an integer", placeholder=0),
            per_symbol_masks=read(data, "per_symbol_masks", "a boolean", False),
            loss_threshold=read(data, "loss_threshold", "a number", None),
            compare_baseline=read(data, "compare_baseline", "a boolean", False),
            output_dir=read(data, "output_dir", "a string", None),
        )
    except ConfigValidationError as exc:
        bad.extend(exc.violations)
    if bad:
        raise ConfigValidationError(bad)
    return config


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
