"""Scenario runner: JSON config in, deterministic artifacts out.

Subcommands:

* ``run``     - full training loop; writes history.csv, transcripts.jsonl,
                report.json
* ``round``   - round 0 of ``run``: `fl.run_training` for one round;
                writes transcripts.jsonl and report.json
* ``attack``  - delayed-client attack scenarios; writes report.json
* ``analyze`` - re-run the overhead analysis on existing transcripts;
                writes analysis.json and leaves the run's report.json alone

This module keeps the command line; each file format has its own owner.
`load_config` finds `--config` as a path or a bundled name, applies
`--seed`, and hands the JSON to `config.parse_config`, which owns the
config file's shape and defaults.  A refused config exits 1 listing
every violation, because a silently ignored typo in a security parameter
is worse than a loud failure.  `run` and `round` write
transcripts.jsonl with `transcript.write_transcripts`, and `analyze` reads
it back one line at a time with `transcript.read_transcripts`, so its
memory does not grow with the run; `analysis.json` is written only once
the last line has been read and checked.

`run --jobs` below 1, or whose last seed would pass 2**32 - 1, exits 1
before any work; otherwise every seed runs, each failed one prints one
``error: seed <s> (<dir>): ...`` line in seed order, and any failure
exits 2.  `attack` refuses a config without a delayed client, with
per-symbol masks or with a dropout model (exit 1).  An explicit `--out`
picks the output directory; without one, the config's `output_dir`
does, else ``out``.
Identical config and seed always produce byte-identical artifacts, each
written to a new file (`transcript.new_file`).

A command whose artifacts fail a check (`_check`: the overhead or
recovery counts, or the plaintext baseline, which `run`'s one training
pass checks round by round) raises `CheckFailedError`
after writing them, and `main` prints its one ``error:`` line and exits
2, as for every other runtime error and for an `OSError`, such as an
`--out` that names a regular file, or an `analyze --out` directory
without transcripts.jsonl: `analyze` makes no check of the file of its own.
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

from . import analysis, fl
from .config import ScenarioConfig, parse_config
from .errors import CheckFailedError, ConfigValidationError, PhaseAggError
from .transcript import new_file, read_transcripts, write_transcripts

HISTORY_HEADER = ["round", "loss", "theta_norm", "phase_estimations", "uplink",
                  "recoveries"]


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


def write_history_csv(history: fl.TrainingHistory, path: Path) -> None:
    with new_file(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HISTORY_HEADER)
        for row in history.rows:
            writer.writerow([
                row.round, _float_text(row.loss), _float_text(row.theta_norm),
                row.phase_estimations, row.uplink, row.recoveries,
            ])


def write_report(report: dict, path: Path) -> None:
    with new_file(path, "w") as handle:
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
    plaintext baseline's step, if one does (`fl.TrainingHistory.diverged`).
    """
    if overhead.failure is not None:
        raise CheckFailedError(overhead.failure)
    if diverged is not None:
        raise CheckFailedError(f"baseline check failed: the secure parameters differ from "
                               f"the plaintext baseline's after round {diverged}")


def _command_run(config: ScenarioConfig, out_dir: Path) -> dict:
    history = fl.run_training(config)
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
        "baseline_match": history.diverged is None if config.compare_baseline else None,
    }
    write_report(report, out_dir / "report.json")
    _check(overhead, history.diverged)
    return report


def _command_round(config: ScenarioConfig, out_dir: Path) -> dict:
    one = dataclasses.replace(config, rounds=1, compare_baseline=False)
    (transcript,) = fl.run_training(one).transcripts
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
    if config.has_dropouts:
        raise ConfigValidationError(
            ["the attack models rounds without drops; remove the 'dropout' model"]
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
    overhead = analysis.verify_overhead(read_transcripts(out_dir / "transcripts.jsonl"))
    report = {
        "command": "analyze",
        "rounds": overhead.rounds,
        "overhead": overhead.to_json_dict(),
    }
    write_report(report, out_dir / "analysis.json")
    _check(overhead)
    return report


def _run_job(config_spec: str, seed: int, out_dir: str) -> str | None:
    """Run one seed of `run --jobs`: None when it passes, else its error message."""
    try:
        run_scenario(load_config(config_spec, seed_override=seed), Path(out_dir), "run")
    except (PhaseAggError, OSError) as exc:
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
            # The last seed must make a valid config too, before any seed runs.
            dataclasses.replace(config, seed=config.seed + args.jobs - 1)
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
    except (PhaseAggError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
