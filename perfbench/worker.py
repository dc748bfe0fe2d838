"""One workload in one process: set up, run a fixed number of rounds, check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up and exit, so the parent can time setup once
more), `main` (timed rounds, every check and a digest of the whole
transcript stream) or `traced` (as `main`, with spans recorded around
phaseagg's public functions).  The last stdout line is one JSON object
for `run.py`.  Times that cross the process boundary use
`time.monotonic`, which is system-wide on Linux, so the parent can time
setup from launch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
CLIP = 1.0
LEVELS = 16


@dataclass(frozen=True)
class Workload:
    clients: int
    dimension: int
    subgroup_size: int | None  # None: the two-group layout
    per_symbol: bool
    drops: int  # clients dropped in every round
    rounds_per_s: float  # rounds per requested second; fixes the round count
    via_cli: bool = False


# Every workload drops fewer clients per round than a subgroup side holds,
# so no generated dropout set can leave a side without a survivor.
WORKLOADS = {
    "wide_vector": Workload(64, 4096, None, False, 0, 4.0),
    "many_clients_dropout": Workload(128, 64, 8, False, 6, 5.0),
    "per_symbol_dropout": Workload(32, 1024, 4, True, 2, 6.0),
    "small_training": Workload(32, 16, 4, False, 2, 10.0, via_cli=True),
}
MAINS = 2  # main processes per run; each runs the same rounds, so they replay each other
MIN_ROUNDS = 40  # over all main processes: a tail percentile needs ten rounds beyond it


def round_count(spec: Workload, seconds: float) -> int:
    """Rounds of one main process."""
    return max(MIN_ROUNDS, int(spec.rounds_per_s * seconds)) // MAINS


def round_digits(np, seed: int, index: int, t: int, spec: Workload):
    gen = np.random.default_rng([seed, index, t, 0])
    return gen.integers(0, LEVELS, size=(spec.clients, spec.dimension), dtype=np.int64)


def round_dropouts(np, seed: int, index: int, t: int, spec: Workload) -> list[int]:
    gen = np.random.default_rng([seed, index, t, 1])
    return sorted(int(i) for i in gen.choice(spec.clients, spec.drops, replace=False))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_calls(module, attr: str, durations: list) -> None:
    """Record the wall time of every call to a phaseagg function that returns."""
    from tracer import replace_everywhere

    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        durations.append(time.perf_counter() - start)
        return result

    replace_everywhere(original, timed)


def library_rounds(pa, np, chk, spec, index, seed, rounds, out_dir, setup):
    """Drive sample_round_channel -> run_round -> write_transcripts per round."""
    import checks

    cfg, assignment = setup
    group_of, tag_of = assignment.group_of, assignment.tag_of
    layout = "two-group" if spec.subgroup_size is None else "subgroup"
    step = checks.GRID // checks.psk_modulus(spec.clients, LEVELS)
    if cfg.modulus != checks.psk_modulus(spec.clients, LEVELS):
        chk.fail(f"PSK order {cfg.modulus} is not the smallest that cannot wrap")
    path = out_dir / "round.jsonl"
    digest, durations = hashlib.sha256(), []
    nbytes = failed = 0
    for t in range(rounds):
        digits = round_digits(np, seed, index, t, spec)
        dropped = round_dropouts(np, seed, index, t, spec)
        checks.check_dropout_set(chk, f"round {t}", dropped, group_of, tag_of)
        start = time.perf_counter()
        try:
            channel = pa.channel.sample_round_channel(spec.clients, t, seed)
            transcript = pa.protocol.run_round(
                list(digits), assignment, channel, cfg, version="alg2", seed=seed,
                dropped=dropped, per_symbol=spec.per_symbol)
            pa.cli.write_transcripts([transcript], path)
        except pa.errors.PhaseAggError as exc:
            # A failed round counts in `failed`; the checks speak of the others.
            failed += 1
            print(f"round {t} failed: {exc}", file=sys.stderr)
            continue
        durations.append(time.perf_counter() - start)
        written = path.read_bytes()
        nbytes += len(written)
        digest.update(written)
        senders = [i for i in range(spec.clients) if i not in set(dropped)]
        checks.check_round(
            chk, f"round {t}", aggregate=transcript.aggregate,
            decoded_mean=transcript.decoded_mean, counters=transcript.counters,
            sums=digits[senders].sum(axis=0), senders=len(senders),
            expected=checks.expected_counters(dropped, group_of, tag_of, layout,
                                              spec.subgroup_size),
            clip=CLIP, levels=LEVELS)
        checks.check_symbol_differences(
            chk, f"round {t}", [m.masked.symbols for m in transcript.messages],
            step, spec.per_symbol)
    return {"durations": durations, "loop_s": sum(durations), "failed": failed,
            "transcript_bytes": nbytes, "digest": digest.hexdigest(),
            "peak_rss_mb": peak_rss_mb()}


def training_config(spec, seed, rounds, dropouts) -> dict:
    return {
        "name": "small_training", "clients": spec.clients,
        "dimension": spec.dimension, "samples_per_client": 16,
        "grouping": {"mode": "subgroup",
                     "groups": spec.clients // (2 * spec.subgroup_size),
                     "subgroup_size": spec.subgroup_size},
        "protocol_version": "alg2",
        "quantization": {"clip": CLIP, "levels": LEVELS}, "modulation": "auto",
        "fec": {"scheme": "none"},
        "dropout": {"probability": 0.0,
                    "fixed": {str(t): dropouts[t] for t in range(rounds)}},
        "delayed_client": None, "rounds": rounds, "learning_rate": 0.1,
        "seed": seed, "per_symbol_masks": False, "loss_threshold": None,
        "compare_baseline": True,
    }


def training_inputs(np, spec, index, seed, rounds, out_dir):
    """Generate the dropout sets and write the run's config file."""
    dropouts = [round_dropouts(np, seed, index, t, spec) for t in range(rounds)]
    path = out_dir / "config.json"
    path.write_text(json.dumps(training_config(spec, seed, rounds, dropouts)))
    return path, dropouts


def training_run(pa, chk, spec, rounds, out_dir, setup):
    """`phaseagg run` on the generated config, then check its artifacts."""
    import checks

    config, assignment, dropouts = setup
    run_dir = out_dir / "run"
    path = out_dir / "config.json"
    durations: list[float] = []
    time_calls(pa.protocol, "run_iteration", durations)
    start = time.perf_counter()
    code = pa.cli.main(["run", "--config", str(path), "--out", str(run_dir)])
    loop_s = time.perf_counter() - start
    rss = peak_rss_mb()
    transcript_path = run_dir / "transcripts.jsonl"
    transcripts = transcript_path.read_bytes() if transcript_path.exists() else b""
    lines = transcripts.splitlines(keepends=True)
    result = {"durations": durations, "loop_s": loop_s, "failed": rounds - len(durations),
              "transcript_bytes": len(transcripts),
              "digest": hashlib.sha256(transcripts).hexdigest(), "peak_rss_mb": rss}
    if code != 0:
        chk.fail(f"phaseagg run exited with status {code}")
        return result

    report = json.loads((run_dir / "report.json").read_text())
    if report.get("baseline_match") is not True:
        chk.fail(f"report.json baseline_match is {report.get('baseline_match')!r}")
    with (run_dir / "history.csv").open() as handle:
        rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    datasets, _ = pa.fl.make_synthetic_task(config.clients, config.dimension,
                                            config.samples_per_client, config.seed)
    losses, sums, senders = checks.plaintext_training(
        [(d.features, d.targets) for d in datasets], rounds, config.learning_rate,
        CLIP, LEVELS, dropouts)
    checks.check_losses(chk, [float(r[1]) for r in rows], losses)
    step = checks.GRID // checks.psk_modulus(spec.clients, LEVELS)
    group_of, tag_of = assignment.group_of, assignment.tag_of
    if len(lines) != rounds:
        chk.fail(f"transcripts.jsonl has {len(lines)} rounds, expected {rounds}")
    for t, line in enumerate(lines[:rounds]):
        row = json.loads(line)
        checks.check_dropout_set(chk, f"round {t}", dropouts[t], group_of, tag_of)
        checks.check_round(
            chk, f"round {t}", aggregate=row["aggregate"],
            decoded_mean=row["decoded_mean"], counters=row["counters"],
            sums=sums[t], senders=senders[t],
            expected=checks.expected_counters(dropouts[t], group_of, tag_of,
                                              "subgroup", spec.subgroup_size),
            clip=CLIP, levels=LEVELS)
        checks.check_symbol_differences(
            chk, f"round {t}", [m["symbols"] for m in row["messages"]], step, False)
    return result


def layer_metrics(tracer, rounds: int, transcript_bytes: int, durations) -> dict:
    """Per-round self times and call counts from the traced run's spans."""
    import statistics

    from tracer import FEC_ROUNDTRIP, span_cost

    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}

    def per_round(name, key="self_ms"):
        if name in tracer.absent:
            return
        calls, _, own = totals.get(name, (0, 0.0, 0.0))
        if key == "self_ms":
            metrics[f"{name}.self_ms"] = (own * 1e3 / rounds, "ms")
        else:
            metrics[f"{name}.calls_per_round"] = (calls / rounds, "count")

    for name in ("rng.keyed_turn", "rng.keyed_turn_vector", "channel.pair_phase_stream",
                 "masking.compute_group_mask", "masking.sample_private_phase"):
        per_round(name, "calls")
    for name in ("rng.keyed_turn", "rng.keyed_turn_vector", "channel.sample_round_channel",
                 "channel.pair_phase_stream", "masking.compute_group_mask",
                 "masking.sample_private_phase", "masking.apply_mask", "masking.mask_shares",
                 "codec.modulate", "codec.decode_sum", "protocol.run_round",
                 "protocol.client_message", "protocol.ps_aggregate_and_decode",
                 "protocol.dropout_correction", "protocol.RoundTranscript.to_json_dict",
                 "cli.write_transcripts", "fl.quantized_digits", "fl.sample_loss",
                 "fl.sgd_update", "analysis.verify_overhead"):
        per_round(name)
    present = [n for n in FEC_ROUNDTRIP if n not in tracer.absent]
    if present:
        own = sum(totals.get(n, (0, 0.0, 0.0))[2] for n in present)
        metrics["codec.fec_roundtrip.self_ms"] = (own * 1e3 / rounds, "ms")
    if "cli.parse_config" not in tracer.absent:
        calls, _, own = totals.get("cli.parse_config", (0, 0.0, 0.0))
        metrics["cli.parse_config.ms"] = (own * 1e3 / max(calls, 1), "ms")
    if "cli.write_transcripts" not in tracer.absent:
        metrics["cli.write_transcripts.bytes_per_round"] = (transcript_bytes / rounds, "bytes")
    # The wrappers' own cost, from this process: the cost of one span times
    # the spans per round, against the round time without it.  Comparing
    # with a separate untraced process would mostly measure the host's noise.
    spans = sum(calls for calls, _, _ in tracer.edges.values())
    overhead = span_cost() * spans / rounds
    untraced = statistics.median(durations) - overhead
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "main", "traced"), required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    index = sorted(WORKLOADS).index(args.workload)
    rounds = round_count(spec, args.seconds)
    out_dir = OUT / f"{args.workload}-{args.seed}-{args.mode}"
    out_dir.mkdir(parents=True, exist_ok=True)

    import_start = time.perf_counter()
    import phaseagg as pa
    import_s = time.perf_counter() - import_start
    if Path(pa.__file__).resolve().parent != ROOT / "src" / "phaseagg":
        print(f"error: imported phaseagg from {pa.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy as np
    import phaseagg.cli  # noqa: F401  (the transcript writer and the CLI)
    import checks

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    gen_s = 0.0
    if spec.via_cli:
        gen_start = time.monotonic()
        path, dropouts = training_inputs(np, spec, index, args.seed, rounds, out_dir)
        gen_s = time.monotonic() - gen_start
        config = pa.cli.load_config(str(path))
        setup = (config, config.build_assignment(), dropouts)
    else:
        cfg = pa.codec.QuantizationConfig.with_auto_modulus(
            clip=CLIP, levels=LEVELS, max_clients=spec.clients)
        if spec.subgroup_size is None:
            assignment = pa.protocol.assign_two_groups(spec.clients, args.seed)
        else:
            assignment = pa.protocol.assign_subgroups(
                spec.clients, spec.clients // (2 * spec.subgroup_size),
                spec.subgroup_size, args.seed)
        setup = (cfg, assignment)
    setup_end = time.monotonic()
    timing = {"setup_end": setup_end, "gen_s": gen_s, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(timing))
        return 0

    chk = checks.Checker()
    if spec.via_cli:
        result = training_run(pa, chk, spec, rounds, out_dir, setup)
    else:
        result = library_rounds(pa, np, chk, spec, index, args.seed, rounds, out_dir, setup)
    result.update(timing, rounds=rounds, failures=chk.failures)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, rounds, result["transcript_bytes"],
                                         result["durations"])
        result["absent"] = tracer.absent
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans(), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
