"""Scenario runner: JSON config in, deterministic artifacts out.

Subcommands:

* ``run``     - full training loop; writes history.csv, transcripts.jsonl,
                report.json
* ``round``   - a single aggregation round; writes transcripts.jsonl and
                report.json
* ``attack``  - delayed-client attack scenarios; writes report.json
* ``analyze`` - re-run the overhead analysis on existing transcripts;
                writes analysis.json and leaves the run's report.json alone

Configs are strict JSON: unknown keys are rejected and every violated
constraint is reported at once, because a silently ignored typo in a
security parameter is worse than a loud failure.  Identical config and
seed always produce byte-identical artifacts.

Each line of transcripts.jsonl is one round's `RoundTranscript.to_json_dict()`
dumped with sorted keys and compact separators (transcript format
`protocol.TRANSCRIPT_FORMAT`; `analyze` also reads legacy lines, which
carry no `transcript_format`).  `write_transcripts` streams those exact
bytes to the file as `RoundTranscript.to_json_parts` renders them, an
array at a time, and never joins the line; tests/test_golden.py pins the
bytes.

Every artifact is written to a new file: `_create` removes what the path
held before.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, fl, protocol, rng
from .codec import FecConfig, QuantizationConfig
from .errors import ConfigValidationError, PhaseAggError, TranscriptFormatError
from .turns import MODULUS

HISTORY_HEADER = ["round", "loss", "theta_norm", "phase_estimations", "uplink",
                  "recoveries"]

_TOP_KEYS = {
    "name", "clients", "dimension", "samples_per_client", "grouping",
    "protocol_version", "quantization", "modulation", "fec", "dropout",
    "delayed_client", "rounds", "learning_rate", "seed", "per_symbol_masks",
    "loss_threshold", "compare_baseline", "output_dir",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, fully-resolved scenario parameters."""

    name: str
    clients: int
    dimension: int
    samples_per_client: int
    grouping_mode: str
    groups: int | None
    subgroup_size: int | None
    protocol_version: str
    clip: float
    levels: int
    modulation: int | str
    fec_scheme: str
    fec_repeat: int
    dropout_probability: float
    dropout_fixed: tuple[tuple[int, tuple[int, ...]], ...]
    delayed_client: int | None
    rounds: int
    learning_rate: float
    seed: int
    per_symbol_masks: bool
    loss_threshold: float | None
    compare_baseline: bool
    output_dir: str | None
    # dropout_fixed as round -> dropped ids, built once so a round's lookup
    # does not scan every entry.
    _fixed_by_round: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_round: dict[int, set[int]] = {}
        for round_index, ids in self.dropout_fixed:
            by_round.setdefault(round_index, set()).update(ids)
        object.__setattr__(self, "_fixed_by_round", by_round)

    def quantization(self) -> QuantizationConfig:
        if self.modulation == "auto":
            return QuantizationConfig.with_auto_modulus(
                clip=self.clip, levels=self.levels, max_clients=self.clients
            )
        cfg = QuantizationConfig(clip=self.clip, levels=self.levels,
                                 modulus=int(self.modulation))
        cfg.require_headroom(self.clients)
        return cfg

    def fec_config(self) -> FecConfig:
        return FecConfig(scheme=self.fec_scheme, repeat=self.fec_repeat)

    def build_assignment(self) -> protocol.GroupAssignment:
        if self.grouping_mode == protocol.TWO_GROUP:
            return protocol.assign_two_groups(self.clients, self.seed)
        return protocol.assign_subgroups(self.clients, self.groups,
                                         self.subgroup_size, self.seed)

    def dropouts_for_round(self, t: int) -> tuple[int, ...]:
        dropped = set(self._fixed_by_round.get(t, ()))
        if self.dropout_probability > 0:
            draws = rng.keyed_generator(self.seed, rng.DROPOUT_DOMAIN, t).random(
                self.clients
            )
            dropped.update(np.nonzero(draws < self.dropout_probability)[0].tolist())
        dropped.discard(self.delayed_client)
        return tuple(sorted(int(i) for i in dropped))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_config(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig, collecting every violation before failing."""
    bad: list[str] = []
    if not isinstance(data, dict):
        raise ConfigValidationError(["config root must be a JSON object"])
    for key in sorted(set(data) - _TOP_KEYS):
        bad.append(f"unknown key {key!r}")

    def get_int(key, default=None, minimum=None):
        value = data.get(key, default)
        if value is None:
            bad.append(f"{key!r} is required")
            return default if _is_int(default) else 0
        if not _is_int(value):
            bad.append(f"{key!r} must be an integer, got {value!r}")
            return 0
        if minimum is not None and value < minimum:
            bad.append(f"{key!r} must be >= {minimum}, got {value}")
        return value

    def get_number(key, default=None, positive=True):
        value = data.get(key, default)
        if value is None:
            bad.append(f"{key!r} is required")
            return 1.0
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            bad.append(f"{key!r} must be a number, got {value!r}")
            return 1.0
        if positive and not value > 0:
            bad.append(f"{key!r} must be positive, got {value}")
        return float(value)

    name = data.get("name", "scenario")
    if not isinstance(name, str):
        bad.append(f"'name' must be a string, got {name!r}")
        name = "scenario"

    clients = get_int("clients", minimum=2)
    dimension = get_int("dimension", minimum=1)
    samples = get_int("samples_per_client", minimum=1)
    rounds = get_int("rounds", minimum=1)
    seed = get_int("seed", minimum=0)
    learning_rate = get_number("learning_rate")

    grouping = data.get("grouping", {"mode": "two-group"})
    mode, groups, subgroup_size = "two-group", None, None
    if not isinstance(grouping, dict):
        bad.append("'grouping' must be an object")
    else:
        for key in sorted(set(grouping) - {"mode", "groups", "subgroup_size"}):
            bad.append(f"unknown grouping key {key!r}")
        mode = grouping.get("mode", "two-group")
        if mode not in (protocol.TWO_GROUP, protocol.SUBGROUP):
            bad.append(f"grouping mode must be 'two-group' or 'subgroup', got {mode!r}")
        elif mode == protocol.TWO_GROUP:
            if clients < 4:
                bad.append("two-group mode needs at least 4 clients")
        else:
            groups = grouping.get("groups")
            subgroup_size = grouping.get("subgroup_size")
            if not _is_int(groups) or groups < 1:
                bad.append("subgroup mode needs integer 'groups' >= 1")
            if not _is_int(subgroup_size):
                bad.append("subgroup mode needs integer 'subgroup_size'")
            elif subgroup_size < 2:
                bad.append(
                    "'subgroup_size' must be at least 2: with a lone counterpart, "
                    "one dropout leaves a single revealed share exposing a "
                    "client's whole mask (the security floor)"
                )
            if _is_int(groups) and _is_int(subgroup_size) and subgroup_size >= 2:
                per_group = 2 * subgroup_size
                if clients < groups * per_group:
                    bad.append(
                        f"{clients} clients cannot fill {groups} group(s) of {per_group}"
                    )
                elif clients - groups * per_group >= per_group:
                    bad.append(
                        f"'groups' must equal clients // (2 * subgroup_size) = "
                        f"{clients // per_group}, got {groups}"
                    )

    version = data.get("protocol_version", "alg1")
    if version not in (protocol.ALG1, protocol.ALG2):
        bad.append(f"protocol_version must be 'alg1' or 'alg2', got {version!r}")

    quant = data.get("quantization", {})
    clip, levels = 1.0, 2
    if not isinstance(quant, dict):
        bad.append("'quantization' must be an object")
    else:
        for key in sorted(set(quant) - {"clip", "levels"}):
            bad.append(f"unknown quantization key {key!r}")
        clip_raw = quant.get("clip", 1.0)
        if isinstance(clip_raw, bool) or not isinstance(clip_raw, (int, float)) or not clip_raw > 0:
            bad.append(f"quantization clip must be a positive number, got {clip_raw!r}")
        else:
            clip = float(clip_raw)
        levels_raw = quant.get("levels", 16)
        if not _is_int(levels_raw) or levels_raw < 2:
            bad.append(f"quantization levels must be an integer >= 2, got {levels_raw!r}")
        else:
            levels = levels_raw

    modulation = data.get("modulation", "auto")
    if modulation != "auto":
        if not _is_int(modulation):
            bad.append(f"modulation must be 'auto' or an integer, got {modulation!r}")
        elif modulation < 2 or modulation & (modulation - 1) or modulation > MODULUS:
            bad.append(f"modulation must be a power of two dividing 2**32, got {modulation}")
        elif _is_int(clients) and modulation < clients * (levels - 1) + 1:
            bad.append(
                f"modulation {modulation} can wrap: {clients} clients at {levels} "
                f"levels need at least {clients * (levels - 1) + 1}"
            )
    elif _is_int(clients) and clients * (levels - 1) + 1 > MODULUS:
        bad.append(f"{clients} clients at {levels} levels exceed the 2**32 grid")

    fec = data.get("fec", {"scheme": "none"})
    fec_scheme, fec_repeat = "none", 1
    if not isinstance(fec, dict):
        bad.append("'fec' must be an object")
    else:
        for key in sorted(set(fec) - {"scheme", "repeat"}):
            bad.append(f"unknown fec key {key!r}")
        fec_scheme = fec.get("scheme", "none")
        if fec_scheme not in ("none", "repetition"):
            bad.append(f"fec scheme must be 'none' or 'repetition', got {fec_scheme!r}")
        elif fec_scheme == "repetition":
            fec_repeat = fec.get("repeat", 3)
            if not _is_int(fec_repeat) or fec_repeat < 2:
                bad.append(f"repetition fec needs integer repeat >= 2, got {fec_repeat!r}")
        elif "repeat" in fec:
            bad.append("fec scheme 'none' takes no repeat factor")

    dropout = data.get("dropout", {"probability": 0.0})
    probability = 0.0
    fixed: list[tuple[int, tuple[int, ...]]] = []
    if not isinstance(dropout, dict):
        bad.append("'dropout' must be an object")
    else:
        for key in sorted(set(dropout) - {"probability", "fixed"}):
            bad.append(f"unknown dropout key {key!r}")
        prob_raw = dropout.get("probability", 0.0)
        if isinstance(prob_raw, bool) or not isinstance(prob_raw, (int, float)) or not 0 <= prob_raw <= 1:
            bad.append(f"dropout probability must be in [0, 1], got {prob_raw!r}")
        else:
            probability = float(prob_raw)
        fixed_raw = dropout.get("fixed", {})
        if not isinstance(fixed_raw, dict):
            bad.append("dropout 'fixed' must map round index to client ids")
        else:
            for round_key, ids in sorted(fixed_raw.items()):
                try:
                    round_index = int(round_key)
                except (TypeError, ValueError):
                    bad.append(f"dropout round key {round_key!r} is not an integer")
                    continue
                if round_index < 0:
                    bad.append(f"dropout round {round_index} is negative")
                    continue
                if not isinstance(ids, list) or not all(_is_int(i) for i in ids):
                    bad.append(f"dropout ids for round {round_index} must be a list of ints")
                    continue
                out_of_range = [i for i in ids if not 0 <= i < clients]
                if out_of_range:
                    bad.append(
                        f"dropout ids {out_of_range} out of range for {clients} clients"
                    )
                fixed.append((round_index, tuple(sorted(set(int(i) for i in ids)))))
    has_dropouts = probability > 0 or any(ids for _, ids in fixed)
    if has_dropouts and version == protocol.ALG1:
        bad.append(
            "a dropout model requires protocol_version 'alg2'; the group-mask-only "
            "protocol cannot recover dropped clients without exposing masks"
        )

    delayed = data.get("delayed_client")
    if delayed is not None:
        if not _is_int(delayed):
            bad.append(f"delayed_client must be an integer or null, got {delayed!r}")
            delayed = None
        elif not 0 <= delayed < clients:
            bad.append(f"delayed_client {delayed} out of range for {clients} clients")

    per_symbol = data.get("per_symbol_masks", False)
    if not isinstance(per_symbol, bool):
        bad.append(f"per_symbol_masks must be a boolean, got {per_symbol!r}")
        per_symbol = False
    compare_baseline = data.get("compare_baseline", False)
    if not isinstance(compare_baseline, bool):
        bad.append(f"compare_baseline must be a boolean, got {compare_baseline!r}")
        compare_baseline = False

    threshold = data.get("loss_threshold")
    if threshold is not None and (
        isinstance(threshold, bool) or not isinstance(threshold, (int, float))
    ):
        bad.append(f"loss_threshold must be a number or null, got {threshold!r}")
        threshold = None

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        bad.append(f"output_dir must be a string or null, got {output_dir!r}")
        output_dir = None

    if bad:
        raise ConfigValidationError(bad)
    return ScenarioConfig(
        name=name, clients=clients, dimension=dimension,
        samples_per_client=samples, grouping_mode=mode, groups=groups,
        subgroup_size=subgroup_size, protocol_version=version, clip=clip,
        levels=levels, modulation=modulation, fec_scheme=fec_scheme,
        fec_repeat=fec_repeat, dropout_probability=probability,
        dropout_fixed=tuple(fixed), delayed_client=delayed, rounds=rounds,
        learning_rate=learning_rate, seed=seed, per_symbol_masks=per_symbol,
        loss_threshold=None if threshold is None else float(threshold),
        compare_baseline=compare_baseline, output_dir=output_dir,
    )


def load_config(spec: str, seed_override: int | None = None) -> ScenarioConfig:
    """Load a config from a path or a bundled name (e.g. 'alg1_baseline')."""
    path = Path(spec)
    if path.is_file():
        data = json.loads(path.read_text())
    else:
        bundled = resources.files("phaseagg").joinpath(f"configs/{spec}.json")
        if not bundled.is_file():
            raise ConfigValidationError(
                [f"config {spec!r} is neither a file nor a bundled scenario"]
            )
        data = json.loads(bundled.read_text())
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
    """Write one compact, key-sorted JSON line per round transcript (or dict).

    A line is the bytes of `json.dumps(t.to_json_dict(), sort_keys=True,
    separators=(",", ":"))`, passed to the file part by part as
    `RoundTranscript.to_json_parts` (or `protocol.compact_json_parts` for a
    dict) renders it, so the whole line is never held in memory.  A line
    refused partway is cut off again, so the file holds only whole lines.
    """
    with _create(path, "wb") as handle:
        for t in transcripts:
            start = handle.tell()
            try:
                handle.writelines(t.to_json_parts() if isinstance(t, protocol.RoundTranscript)
                                  else protocol.compact_json_parts(t))
            except BaseException:
                handle.truncate(start)
                raise
            handle.write(b"\n")


def write_report(report: dict, path: Path) -> None:
    with _create(path, "w") as handle:
        handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def run_scenario(config: ScenarioConfig, out_dir: Path, command: str = "run") -> tuple[int, dict]:
    """Execute one scenario and write its artifacts; returns (exit code, report)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if command == "run":
        return _command_run(config, out_dir)
    if command == "round":
        return _command_round(config, out_dir)
    if command == "attack":
        return _command_attack(config, out_dir)
    raise ValueError(f"unknown command {command!r}")


def _command_run(config: ScenarioConfig, out_dir: Path) -> tuple[int, dict]:
    history = fl.run_training(config, "secure")
    baseline_match = None
    if config.compare_baseline:
        baseline = fl.run_training(config, "plaintext")
        baseline_match = len(history.thetas) == len(baseline.thetas) and all(
            np.array_equal(a, b) for a, b in zip(history.thetas, baseline.thetas)
        )
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
    violated = (not overhead.exact_match or not overhead.recovery_messages_exact
                or baseline_match is False)
    return (2 if violated else 0), report


def _command_round(config: ScenarioConfig, out_dir: Path) -> tuple[int, dict]:
    state = fl.ModelState(theta=np.zeros(config.dimension), iteration=0,
                          learning_rate=config.learning_rate)
    transcript, _ = protocol.run_iteration(state, config)
    write_transcripts([transcript], out_dir / "transcripts.jsonl")
    overhead = analysis.verify_overhead([transcript])
    leak = analysis.difference_leak_probe(transcript.messages, config.quantization())
    report = {
        "command": "round",
        "scenario": config.name,
        "seed": config.seed,
        "counters": transcript.counters,
        "aggregate": transcript.aggregate.tolist(),
        "decoded_mean": transcript.decoded_mean.tolist(),
        "overhead": overhead.to_json_dict(),
        "difference_leak": leak.to_json_dict(),
    }
    write_report(report, out_dir / "report.json")
    violated = not overhead.exact_match or not overhead.recovery_messages_exact
    return (2 if violated else 0), report


def _command_attack(config: ScenarioConfig, out_dir: Path) -> tuple[int, dict]:
    if config.delayed_client is None:
        raise ConfigValidationError(
            ["attack scenarios need 'delayed_client' set in the config"]
        )
    scenario = (analysis.NAIVE_REMEDY_SCENARIO
                if config.protocol_version == protocol.ALG1
                else analysis.PRIVATE_PHASE_SCENARIO)
    outcome = analysis.delayed_client_attack(
        scenario,
        num_clients=config.clients,
        dimension=config.dimension,
        levels=config.levels,
        clip=config.clip,
        trials=config.rounds,
        seed=config.seed,
        delayed=config.delayed_client,
    )
    report = {"command": "attack", "scenario": config.name,
              "seed": config.seed, "attack": outcome.to_json_dict()}
    write_report(report, out_dir / "report.json")
    return 0, report


def analyze_transcripts(out_dir: Path) -> tuple[int, dict]:
    path = out_dir / "transcripts.jsonl"
    if not path.is_file():
        raise ConfigValidationError([f"no transcripts found at {path}"])
    rows = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TranscriptFormatError(f"{path} line {number} is not JSON: {exc}") from None
    try:
        overhead = analysis.verify_overhead(rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise TranscriptFormatError(
            f"{path} does not hold round transcripts: {type(exc).__name__}: {exc}"
        ) from None
    report = {
        "command": "analyze",
        "rounds": len(rows),
        "overhead": overhead.to_json_dict(),
    }
    write_report(report, out_dir / "analysis.json")
    violated = not overhead.exact_match or not overhead.recovery_messages_exact
    return (2 if violated else 0), report


def _run_job(config_spec: str, seed: int, out_dir: str) -> int:
    config = load_config(config_spec, seed_override=seed)
    code, _ = run_scenario(config, Path(out_dir), "run")
    return code


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
        if name != "analyze":
            cmd.add_argument("--config", required=True,
                             help="config path or bundled name")
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the config seed")
        cmd.add_argument("--out", default="out", help="output directory")
        if name == "run":
            cmd.add_argument("--jobs", type=int, default=1,
                             help="fan out this many consecutive seeds "
                                 "(at most one worker process per CPU)")

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            code, _ = analyze_transcripts(Path(args.out))
            return code
        config = load_config(args.config, seed_override=args.seed)
        out_dir = Path(args.out) if args.out != "out" or config.output_dir is None \
            else Path(config.output_dir)
        if args.command == "run" and args.jobs > 1:
            seeds = [config.seed + k for k in range(args.jobs)]
            workers = min(args.jobs, os.cpu_count() or 1)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                codes = list(pool.map(
                    _run_job,
                    [args.config] * len(seeds),
                    seeds,
                    [str(out_dir / f"seed-{s}") for s in seeds],
                ))
            return max(codes)
        code, _ = run_scenario(config, out_dir, args.command)
        return code
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return 1
    except PhaseAggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
