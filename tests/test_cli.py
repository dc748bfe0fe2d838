import concurrent.futures
import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_cases
from phaseagg import analysis, cli, fl, masking, protocol, rng, transcript
from phaseagg.cli import (
    HISTORY_HEADER,
    analyze_transcripts,
    load_config,
    main,
    run_scenario,
)
from phaseagg.codec import QuantizationConfig
from phaseagg.config import ScenarioConfig, parse_config, walk
from phaseagg.errors import ConfigValidationError, TranscriptFormatError
from test_golden import PER_SYMBOL_ROUND


def valid_data(**overrides):
    data = {
        "name": "unit",
        "clients": 4,
        "dimension": 2,
        "samples_per_client": 4,
        "grouping": {"mode": "two-group"},
        "protocol_version": "alg1",
        "quantization": {"clip": 1.0, "levels": 4},
        "modulation": "auto",
        "fec": {"scheme": "none"},
        "dropout": {"probability": 0.0},
        "delayed_client": None,
        "rounds": 2,
        "learning_rate": 0.1,
        "seed": 1,
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_valid_config_parses(self):
        config = parse_config(valid_data())
        assert isinstance(config, ScenarioConfig)
        assert config.clients == 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(valid_data(surprise=1, qdepth=2))
        text = str(err.value)
        assert "surprise" in text and "qdepth" in text

    def test_all_violations_reported_at_once(self):
        data = valid_data(clients=1, rounds=0, learning_rate=-1)
        data["quantization"]["levels"] = 1
        with pytest.raises(ConfigValidationError) as err:
            parse_config(data)
        assert len(err.value.violations) >= 4

    def test_security_floor_named(self):
        data = valid_data(
            clients=8,
            grouping={"mode": "subgroup", "groups": 2, "subgroup_size": 1},
        )
        with pytest.raises(ConfigValidationError) as err:
            parse_config(data)
        assert any("security floor" in v for v in err.value.violations)

    def test_subgroup_arithmetic_checked(self):
        data = valid_data(
            clients=8,
            grouping={"mode": "subgroup", "groups": 1, "subgroup_size": 2},
        )
        with pytest.raises(ConfigValidationError) as err:
            parse_config(data)
        assert any("groups" in v for v in err.value.violations)

    def test_modulation_headroom_checked(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(valid_data(modulation=8))
        assert any("wrap" in v for v in err.value.violations)

    def test_dropouts_require_alg2(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(valid_data(dropout={"probability": 0.2}))
        assert any("alg2" in v for v in err.value.violations)

    def test_dropout_ids_in_range(self):
        data = valid_data(protocol_version="alg2",
                          dropout={"fixed": {"0": [7]}})
        with pytest.raises(ConfigValidationError):
            parse_config(data)

    def test_a_misshapen_config_is_not_checked_for_values(self):
        # No stand-in count replaces the misshapen clients, so neither the
        # dropout id 7 nor the delayed client 6 is called out of range.
        with pytest.raises(ConfigValidationError) as err:
            parse_config(valid_data(clients="8", protocol_version="alg2", delayed_client=6,
                                    dropout={"fixed": {"0": [7]}}))
        assert err.value.violations == ["'clients' must be int, got '8'"]

    def test_shape_violations_are_listed_before_any_value_rule(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(valid_data(name=5, seed="1", rounds=0))
        assert err.value.violations == ["'name' must be str, got 5",
                                        "'seed' must be int, got '1'"]

    def test_bundled_configs_load(self):
        for name in ["alg1_baseline", "alg2_dropout", "attack_naive",
                     "attack_private_phase"]:
            config = load_config(name)
            assert config.name == name

    def test_missing_config(self):
        with pytest.raises(ConfigValidationError):
            load_config("no_such_scenario")


class TestWalk:
    def test_every_violation_is_listed_by_its_path(self):
        schema = {"n": (int,), "mode": ("a", 2), "xs": [(float,)], "sub": {"flag": (bool,)}}
        bad = []
        walk({"n": True, "mode": 2.0, "xs": [1.5, 1], "sub": {}}, schema, "", bad)
        assert bad == ["'n' must be int, got True", "'mode' must be 'a' or 2, got 2.0",
                       "'xs[1]' must be float, got 1", "'sub.flag' is missing"]

    def test_an_object_is_projected_onto_its_named_fields(self):
        bad = []
        value = {"n": 2**64 - 1, "mode": "a", "note": 1}
        assert walk(value, {"n": (int,), "mode": ("a", 2)}, "top", bad) == {
            "n": 2**64 - 1, "mode": "a"}
        assert bad == []
        walk({"n": 2**64}, {"n": (int, float)}, "top", bad)
        assert bad == [f"'top.n' must fit in 64 bits, got {2**64}"]


MISSING = object()


def mutated(data: dict, mutations) -> dict:
    """A copy of `data` with each (dotted path, value) set, or removed for MISSING."""
    data = copy.deepcopy(data)
    for path, value in mutations:
        *parents, key = path.split(".")
        where = data
        for parent in parents:
            where = where.get(parent) if isinstance(where, dict) else None
        if not isinstance(where, dict):
            continue
        if value is MISSING:
            where.pop(key, None)
        else:
            where[key] = copy.deepcopy(value)
    return data


def config_text(*path_value_pairs) -> str:
    """valid_data() as JSON, with each (dotted path, value) pair set as `mutated` sets it."""
    return json.dumps(mutated(valid_data(), path_value_pairs))


SUBGROUPS = ("grouping", {"mode": "subgroup", "groups": 2, "subgroup_size": 2})
ALG2 = ("protocol_version", "alg2")
INFINITE_CLIP = [
    ("clip-1e999", config_text(("quantization.clip", 1e999), ("delayed_client", 0))
     .replace("Infinity", "1e999"), "clip"),
    ("clip-Infinity", config_text(("quantization.clip", math.inf), ("delayed_client", 0)),
     "clip"),
]
# One row per rule the parser used to check itself, plus the non-finite
# numbers it let through: (id, config file text, a word the message must hold).
INVALID_CONFIGS = [
    ("root-not-an-object", "[1, 2]", "JSON object"),
    ("not-json", "{", "not JSON"),
    ("unknown-key", config_text(("surprise", 1)), "surprise"),
    ("clients-missing", config_text(("clients", MISSING)), "clients"),
    ("clients-one", config_text(("clients", 1)), "clients"),
    ("dimension-zero", config_text(("dimension", 0)), "dimension"),
    ("samples-zero", config_text(("samples_per_client", 0)), "samples_per_client"),
    ("rounds-zero", config_text(("rounds", 0)), "rounds"),
    ("seed-negative", config_text(("seed", -1)), "seed"),
    ("seed-2**32", config_text(("seed", 2**32)), "seed"),
    ("learning-rate-zero", config_text(("learning_rate", 0)), "learning_rate"),
    ("name-not-a-string", config_text(("name", 5)), "name"),
    ("grouping-not-an-object", config_text(("grouping", [])), "grouping"),
    ("grouping-unknown-key", config_text(("grouping.ring", 1)), "ring"),
    ("grouping-mode-unknown", config_text(("grouping.mode", "ring")), "ring"),
    ("two-group-three-clients", config_text(("clients", 3)), "4 clients"),
    ("subgroup-groups-missing", config_text(("grouping", {"mode": "subgroup", "subgroup_size": 2})),
     "groups"),
    ("subgroup-groups-zero", config_text(SUBGROUPS, ("grouping.groups", 0)), "group"),
    ("subgroup-size-not-an-int", config_text(SUBGROUPS, ("grouping.subgroup_size", "2")),
     "subgroup_size"),
    ("subgroup-size-one", config_text(SUBGROUPS, ("grouping.subgroup_size", 1)),
     "security floor"),
    ("subgroup-cannot-fill", config_text(SUBGROUPS, ("clients", 7)), "groups"),
    ("subgroup-group-count", config_text(SUBGROUPS, ("clients", 8), ("grouping.groups", 1)),
     "groups"),
    ("protocol-version-unknown", config_text(("protocol_version", "alg3")), "alg3"),
    ("quantization-unknown-key", config_text(("quantization.depth", 2)), "depth"),
    ("clip-negative", config_text(("quantization.clip", -1.0)), "clip"),
    ("levels-one", config_text(("quantization.levels", 1)), "levels"),
    ("modulation-not-an-int", config_text(("modulation", "fast")), "modulation"),
    ("modulation-not-a-power-of-two", config_text(("modulation", 48)), "power of two"),
    ("modulation-wraps", config_text(("modulation", 8)), "wrap"),
    ("grid-exceeded", config_text(("clients", 2**31)), "2**32"),
    ("fec-scheme-unknown", config_text(("fec.scheme", "turbo")), "turbo"),
    ("fec-repeat-one", config_text(("fec", {"scheme": "repetition", "repeat": 1})), "repeat"),
    ("fec-none-with-repeat", config_text(("fec.repeat", 1)), "repeat"),
    ("dropout-probability-above-one", config_text(ALG2, ("dropout.probability", 1.5)),
     "probability"),
    ("dropout-fixed-not-a-map", config_text(ALG2, ("dropout.fixed", [1])), "fixed"),
    ("dropout-round-not-an-int", config_text(ALG2, ("dropout.fixed", {"a": [1]})), "round"),
    ("dropout-round-negative", config_text(ALG2, ("dropout.fixed", {"-1": [1]})), "negative"),
    ("dropout-round-underscore", config_text(ALG2, ("dropout.fixed", {"1_0": [1]})), "round"),
    ("dropout-round-spaces-and-plus", config_text(ALG2, ("dropout.fixed", {" +3 ": [2]})),
     "round"),
    ("dropout-round-arabic-indic-digit", config_text(ALG2, ("dropout.fixed", {"\u0663": [1]})),
     "round"),
    ("dropout-ids-not-ints", config_text(ALG2, ("dropout.fixed", {"0": ["1"]})), "ids"),
    ("dropout-ids-out-of-range", config_text(ALG2, ("dropout.fixed", {"0": [4]})), "range"),
    ("dropouts-under-alg1", config_text(("dropout.probability", 0.2)), "alg2"),
    ("delayed-client-not-an-int", config_text(("delayed_client", "0")), "delayed_client"),
    ("delayed-client-out-of-range", config_text(("delayed_client", 4)), "delayed_client"),
    ("per-symbol-not-a-bool", config_text(("per_symbol_masks", 1)), "per_symbol_masks"),
    ("compare-baseline-not-a-bool", config_text(("compare_baseline", "yes")), "compare_baseline"),
    ("loss-threshold-not-a-number", config_text(("loss_threshold", "low")), "loss_threshold"),
    ("loss-threshold-NaN", config_text(("loss_threshold", math.nan)), "loss_threshold"),
    ("loss-threshold-1e999",
     config_text(("loss_threshold", 1e999)).replace("Infinity", "1e999"), "loss_threshold"),
    ("output-dir-not-a-string", config_text(("output_dir", 1)), "output_dir"),
] + INFINITE_CLIP


class TestInvalidConfigExitsOne:
    """Every refused config exits 1 with the violation list and writes nothing."""

    def refused(self, command, text, word, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("invalid scenario configuration")
        assert "Traceback" not in err
        assert word in err
        assert list(out.iterdir()) == []
        return err

    @pytest.mark.parametrize("text, word", [row[1:] for row in INVALID_CONFIGS],
                             ids=[row[0] for row in INVALID_CONFIGS])
    def test_run(self, text, word, tmp_path, capsys):
        self.refused("run", text, word, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["round", "attack"])
    @pytest.mark.parametrize("text, word", [row[1:] for row in INFINITE_CLIP],
                             ids=[row[0] for row in INFINITE_CLIP])
    def test_round_and_attack_refuse_an_infinite_clip(self, command, text, word, tmp_path,
                                                      capsys):
        self.refused(command, text, word, tmp_path, capsys)

    def test_zero_clients_name_the_count_not_a_modulus(self, tmp_path, capsys):
        err = self.refused("run", config_text(("clients", 0)), "at least 1 client, got 0",
                           tmp_path, capsys)
        assert "got 1" not in err


FIELD_PATHS = [
    "name", "clients", "dimension", "samples_per_client", "grouping", "grouping.mode",
    "grouping.groups", "grouping.subgroup_size", "protocol_version", "quantization",
    "quantization.clip", "quantization.levels", "modulation", "fec", "fec.scheme",
    "fec.repeat", "dropout", "dropout.probability", "dropout.fixed", "delayed_client",
    "rounds", "learning_rate", "seed", "per_symbol_masks", "loss_threshold",
    "compare_baseline", "output_dir",
]
VALUE_POOL = [
    MISSING, None, True, False, -1, 0, 1, 2, 3, 4, 8, 16, 2**32, 2**33, 0.5, 1.5,
    math.nan, math.inf, -math.inf, "x", "auto", "alg2", "subgroup", "repetition",
    [], [1], {}, {"0": [1]},
]
BASES = [
    valid_data(),
    valid_data(clients=8, grouping={"mode": "subgroup", "groups": 2, "subgroup_size": 2}),
    valid_data(clients=8, protocol_version="alg2", delayed_client=3, modulation=64,
               fec={"scheme": "repetition", "repeat": 3},
               dropout={"probability": 0.2, "fixed": {"1": [0, 5]}}),
]


def parses_to_a_buildable_config(data: dict) -> None:
    """parse_config refuses `data` with a violation list, or everything it names builds."""
    try:
        config = parse_config(data)
    except ConfigValidationError as exc:
        assert exc.violations
        return
    config.build_assignment()
    config.quantization()
    config.fec_config()


class TestParsedConfigsBuild:
    def test_every_single_field_mutation(self):
        for base in BASES:
            for path in FIELD_PATHS:
                for value in VALUE_POOL:
                    parses_to_a_buildable_config(mutated(base, [(path, value)]))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BASES),
           st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.sampled_from(VALUE_POOL)),
                    min_size=2, max_size=4))
    def test_mutations_of_several_fields(self, base, mutations):
        parses_to_a_buildable_config(mutated(base, mutations))

    def test_replace_cannot_make_an_invalid_config(self):
        config = parse_config(valid_data())
        with pytest.raises(ConfigValidationError, match="clip"):
            dataclasses.replace(config, clip=float("inf"))
        with pytest.raises(ConfigValidationError, match="learning_rate"):
            dataclasses.replace(config, learning_rate=float("inf"))
        with pytest.raises(ConfigValidationError, match="security floor"):
            dataclasses.replace(config, clients=8, grouping_mode="subgroup", groups=2,
                                subgroup_size=1)


def scanned_dropouts(config: ScenarioConfig, t: int) -> tuple[int, ...]:
    """A round's dropouts found by scanning every fixed entry (the reference)."""
    dropped = set()
    for round_index, ids in config.dropout_fixed:
        if round_index == t:
            dropped.update(ids)
    if config.dropout_probability > 0:
        draws = rng.keyed_generator(config.seed, rng.DROPOUT_DOMAIN, t).random(config.clients)
        dropped.update(np.nonzero(draws < config.dropout_probability)[0].tolist())
    dropped.discard(config.delayed_client)
    return tuple(sorted(int(i) for i in dropped))


class TestDropoutLookup:
    @pytest.mark.parametrize("probability", [0.0, 0.3])
    def test_lookup_equals_a_scan_of_every_entry(self, probability):
        # "1" and "01" name the same round, and the delayed client 2 is
        # listed as dropped in round 3: both stay as the scan has them.
        config = parse_config(valid_data(
            clients=8, protocol_version="alg2", delayed_client=2, rounds=6,
            dropout={"probability": probability,
                     "fixed": {"1": [5], "01": [0, 5], "3": [2, 7], "4": []}}))
        for t in range(8):
            got = config.dropouts_for_round(t)
            assert got == scanned_dropouts(config, t)
            assert all(type(i) is int for i in got)
        assert {0, 5} <= set(config.dropouts_for_round(1))
        assert 7 in config.dropouts_for_round(3) and 2 not in config.dropouts_for_round(3)

    def test_replace_rebuilds_the_lookup(self):
        config = parse_config(valid_data(clients=8, protocol_version="alg2",
                                         dropout={"fixed": {"0": [1]}}))
        changed = dataclasses.replace(config, dropout_fixed=((0, (3,)), (2, (4, 6))))
        assert changed.dropouts_for_round(0) == (3,)
        assert changed.dropouts_for_round(2) == (4, 6)
        assert changed == dataclasses.replace(changed)


class TestRoundVectors:
    def test_the_decoded_mean_reaches_sgd_update_as_the_transcript_array(self, monkeypatch):
        config = parse_config(valid_data(dimension=5))
        seen, update = [], fl.sgd_update

        def spy(theta, mean_gradient, eta, t):
            seen.append(mean_gradient)
            return update(theta, mean_gradient, eta, t)

        monkeypatch.setattr(fl, "sgd_update", spy)
        (transcript,) = fl.training_rounds(dataclasses.replace(config, rounds=1),
                                           fl.TrainingHistory())
        assert len(seen) == 1 and seen[0] is transcript.decoded_mean
        for vector, dtype in ((transcript.aggregate, np.int64),
                              (transcript.decoded_mean, np.float64)):
            assert isinstance(vector, np.ndarray) and vector.dtype == dtype
            assert vector.shape == (5,) and not vector.flags.writeable

    def test_round_report_holds_plain_numbers(self, tmp_path):
        report = run_scenario(parse_config(valid_data()), tmp_path, "round")
        assert all(type(x) is int for x in report["aggregate"])
        assert all(type(x) is float for x in report["decoded_mean"])

    def test_round_report_writes_every_leak_and_uniformity_field(self, tmp_path):
        # 9 senders of 200 symbols give 1,791 differences, enough for the
        # chi-square test; its p-value comes from scipy, so keys are pinned, not bytes.
        path = tmp_path / "per_symbol.json"
        path.write_text(json.dumps(dict(PER_SYMBOL_ROUND, dimension=200)))
        assert main(["round", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        leak = json.loads((tmp_path / "out" / "report.json").read_text())["difference_leak"]
        assert leak["num_differences"] >= 1600
        assert sorted(leak) == ["digit_differences_recovered", "mask_mode", "num_differences",
                                "num_messages", "on_grid_fraction", "recovered_sample",
                                "uniformity"]
        assert sorted(leak["uniformity"]) == ["alpha", "bins", "p_value", "passed",
                                              "sample_count", "statistic"]


class TestRunScenario:
    def test_run_writes_artifacts(self, tmp_path):
        config = parse_config(valid_data(rounds=3))
        report = run_scenario(config, tmp_path, "run")
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == ",".join(HISTORY_HEADER)
        assert len(history) == 4
        lines = (tmp_path / "transcripts.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["iteration"] == 0
        assert (tmp_path / "report.json").is_file()
        assert report["overhead"]["exact_match"]

    def test_identical_seed_byte_identical_outputs(self, tmp_path):
        config = load_config("alg2_dropout")
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(config, a, "run")
        run_scenario(config, b, "run")
        for name in ["history.csv", "transcripts.jsonl", "report.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_config(valid_data(rounds=3)), a, "run")
        run_scenario(parse_config(valid_data(rounds=3, seed=2)), b, "run")
        assert (a / "transcripts.jsonl").read_bytes() != (b / "transcripts.jsonl").read_bytes()

    def test_baseline_comparison_flag(self, tmp_path):
        config = parse_config(valid_data(rounds=3, compare_baseline=True))
        report = run_scenario(config, tmp_path, "run")
        assert report["baseline_match"] is True

    def test_round_command(self, tmp_path):
        config = parse_config(valid_data())
        report = run_scenario(config, tmp_path, "round")
        assert len((tmp_path / "transcripts.jsonl").read_text().splitlines()) == 1
        assert "difference_leak" in report

    def test_attack_command_requires_delayed_client(self, tmp_path):
        config = parse_config(valid_data(rounds=5))
        with pytest.raises(ConfigValidationError):
            run_scenario(config, tmp_path / "out", "attack")
        assert not (tmp_path / "out").exists()

    def test_attack_command(self, tmp_path):
        config = parse_config(valid_data(rounds=5, delayed_client=0))
        report = run_scenario(config, tmp_path, "attack")
        assert report["attack"]["scenario"] == "alg1_naive_remedy"
        assert report["attack"]["succeeded"] is True

    def test_attack_runs_on_the_configured_layout_and_modulation(self, tmp_path):
        # The alg2 residual is the delayed client's private phase whatever the
        # layout, so only the modulus moves the recovery rates.
        config = parse_config(valid_data(
            clients=8, protocol_version="alg2", delayed_client=3, rounds=300,
            modulation=128, grouping={"mode": "subgroup", "groups": 2, "subgroup_size": 2}))
        report = run_scenario(config, tmp_path, "attack")
        common = {"dimension": config.dimension, "trials": config.rounds,
                  "seed": config.seed, "delayed": 3}
        direct = analysis.delayed_client_attack(
            config.protocol_version, assignment=config.build_assignment(),
            cfg=config.quantization(), **common)
        assert report["attack"] == direct.to_json_dict()
        assert direct.modulus == 128
        two_groups = analysis.delayed_client_attack(
            config.protocol_version,
            assignment=masking.assign_two_groups(8, config.seed),
            cfg=QuantizationConfig.with_auto_modulus(config.clip, config.levels, 8),
            **common)
        assert two_groups.modulus == 32
        assert two_groups.element_accuracy != direct.element_accuracy

    def test_attack_runs_per_symbol_masks(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(valid_data(protocol_version="alg2", delayed_client=0,
                                              dimension=8, per_symbol_masks=True, rounds=20)))
        code = main(["attack", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0 and capsys.readouterr().err == ""
        attack = json.loads((tmp_path / "out" / "report.json").read_text())["attack"]
        assert (attack["scenario"], attack["trials"], attack["status"]) == ("alg2", 20,
                                                                            "completed")
        assert attack["full_recoveries"] == 0 and attack["binomial_p_value"] is not None

    def test_rewriting_longer_files_leaves_exactly_the_new_bytes(self, tmp_path):
        config = parse_config(valid_data(rounds=3))
        run_scenario(config, tmp_path / "fresh", "run")
        names = ("history.csv", "transcripts.jsonl", "report.json")
        again = tmp_path / "again"
        again.mkdir()
        for name in names:
            (again / name).write_bytes((tmp_path / "fresh" / name).read_bytes() * 2 + b"old")
        run_scenario(config, again, "run")
        for name in names:
            assert (again / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_analyze_roundtrip(self, tmp_path):
        config = parse_config(valid_data(rounds=3))
        run_scenario(config, tmp_path, "run")
        report = analyze_transcripts(tmp_path)
        assert report["rounds"] == 3
        assert report["overhead"]["exact_match"]


class TestRoundIsRoundZeroOfRun:
    @pytest.mark.parametrize("config, seed", [(name, seed)
                                              for name in ("alg1_baseline", "alg2_dropout")
                                              for seed in ("3", "5", "7")]
                             + [("per_symbol_round", None)])
    def test_round_writes_the_first_line_of_run(self, config, seed, tmp_path):
        if config == "per_symbol_round":
            config = tmp_path / "per_symbol_round.json"
            config.write_text(json.dumps(PER_SYMBOL_ROUND))
        args = ["--config", str(config)] + ([] if seed is None else ["--seed", seed])
        assert main(["run", *args, "--out", str(tmp_path / "run")]) == 0
        assert main(["round", *args, "--out", str(tmp_path / "round")]) == 0
        first = (tmp_path / "run" / "transcripts.jsonl").read_bytes().splitlines(keepends=True)[0]
        assert (tmp_path / "round" / "transcripts.jsonl").read_bytes() == first


class TestFailedChecksExitTwo:
    @pytest.mark.parametrize("command", ["run", "round"])
    def test_an_overhead_mismatch_prints_one_line(self, command, tmp_path, capsys,
                                                  monkeypatch):
        verdict = analysis.OverheadAudit.report

        def miscount(audit):
            return dataclasses.replace(verdict(audit), exact_match=False,
                                       failure="overhead check failed: round 0 miscounted")

        # `run` folds the audit over its stream; `round` through `verify_overhead`.
        monkeypatch.setattr(analysis.OverheadAudit, "report", miscount)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(valid_data()))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: overhead check failed: round 0 miscounted\n"
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["overhead"]["exact_match"] is False

    def test_a_baseline_divergence_names_the_first_round(self, tmp_path, capsys,
                                                         monkeypatch):
        step = fl.baseline_step

        def drift(theta, config, digits, t):
            return step(theta, config, digits, t) + (1.0 if t == 1 else 0.0)

        monkeypatch.setattr(fl, "baseline_step", drift)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(valid_data(rounds=3, compare_baseline=True)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: baseline check failed: ") and "after round 1" in err
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["baseline_match"] is False

    def test_a_run_with_the_baseline_trains_once(self, tmp_path, monkeypatch):
        counts = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(fl, "make_synthetic_task")
        count(fl, "client_gradients")
        count(protocol, "run_iteration")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(valid_data(rounds=5, compare_baseline=True)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "report.json").read_text())["baseline_match"]
        # The baseline sums the digits the round sent: one gradient a round.
        assert counts == {"make_synthetic_task": 1, "client_gradients": 5,
                          "run_iteration": 5}


@st.composite
def baseline_runs(draw):
    """A small alg2 config with the baseline on and fixed drops that leave every side a sender.

    Up to 16 clients, 8 dimensions, 6 rounds and 30 samples per client, a
    delayed client or none, and a loss threshold or none.
    """
    if draw(st.booleans()):
        clients, grouping = draw(st.integers(4, 16)), {"mode": "two-group"}
    else:
        size = draw(st.integers(2, 3))
        groups = draw(st.integers(1, 16 // (2 * size)))
        clients = draw(st.integers(2 * size * groups, min(16, 2 * size * (groups + 1) - 1)))
        grouping = {"mode": "subgroup", "groups": groups, "subgroup_size": size}
    rounds = draw(st.integers(1, 6))
    data = valid_data(
        clients=clients, dimension=draw(st.integers(1, 8)),
        samples_per_client=draw(st.integers(1, 30)), grouping=grouping,
        protocol_version="alg2", rounds=rounds, seed=draw(st.integers(0, 2**32 - 1)),
        quantization={"clip": 1.0, "levels": draw(st.sampled_from([4, 16, 256]))},
        delayed_client=draw(st.none() | st.integers(0, clients - 1)),
        loss_threshold=draw(st.none() | st.floats(0.01, 5.0)), compare_baseline=True)
    assignment = parse_config(data).build_assignment()
    sides = [set(side) for run in assignment.runs for side in (*run.plus, *run.minus)]
    fixed = {}
    for t in range(rounds):
        dropped = set(draw(st.lists(st.integers(0, clients - 1), unique=True)))
        dropped.discard(data["delayed_client"])
        absent = dropped | {data["delayed_client"]}
        for side in sides:
            if side <= absent:  # every side keeps a sender: give one back
                dropped.discard(min(side & dropped))
        if dropped:
            fixed[str(t)] = sorted(dropped)
    data["dropout"] = {"probability": 0.0, "fixed": fixed}
    return data


class TestInLoopBaselineProperty:
    """`run` checks every round against the plaintext step and names the first that differs."""

    @settings(max_examples=40, deadline=None)
    @given(baseline_runs(), st.data())
    def test_a_drift_from_round_r_on_is_named_as_round_r(self, data, draws):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(data))
            assert main(["run", "--config", str(path), "--out", str(Path(tmp) / "a")]) == 0
            report = json.loads((Path(tmp) / "a" / "report.json").read_text())
            assert report["baseline_match"] is True
            r = draws.draw(st.integers(0, report["rounds_completed"] - 1), label="r")
            step = fl.baseline_step

            def drift(theta, config, digits, t):
                return step(theta, config, digits, t) + (1.0 if t >= r else 0.0)

            with pytest.MonkeyPatch.context() as patch, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                patch.setattr(fl, "baseline_step", drift)
                code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "b")])
            assert code == 2
            assert err.getvalue() == ("error: baseline check failed: the secure parameters "
                                      "differ from the plaintext baseline's after round "
                                      f"{r}\n")
            drifted = json.loads((Path(tmp) / "b" / "report.json").read_text())
            assert drifted["baseline_match"] is False
            # The baseline never moves the run: every artifact but the report is equal.
            for name in ("history.csv", "transcripts.jsonl"):
                assert (Path(tmp) / "a" / name).read_bytes() \
                    == (Path(tmp) / "b" / name).read_bytes()


class TestMain:
    def test_run_exit_zero(self, tmp_path):
        code = main(["run", "--config", "alg1_baseline", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["baseline_match"] is True

    def test_bad_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(valid_data(clients=1)))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "invalid scenario configuration" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        code = main(["round", "--config", "alg2_dropout", "--seed", "99",
                     "--out", str(tmp_path)])
        assert code == 0
        line = json.loads((tmp_path / "transcripts.jsonl").read_text())
        assert line["iteration"] == 0

    def test_seeds_below_2_to_the_32_load_and_the_next_one_exits_one(self, tmp_path, capsys):
        assert load_config("alg1_baseline", seed_override=2**32 - 1).seed == 2**32 - 1
        out = tmp_path / "o"
        code = main(["run", "--config", "alg1_baseline", "--seed", str(2**32), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "'seed' must be below 2**32, got 4294967296" in err and "Traceback" not in err
        assert not out.exists()

    def test_a_job_reports_its_os_error_as_its_message(self, tmp_path):
        target = tmp_path / "F"
        target.write_bytes(b"")
        error = cli._run_job("alg1_baseline", 1, str(target / "seed-1"))
        assert str(target / "seed-1") in error
        assert target.read_bytes() == b""

    def test_jobs_fan_out(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(valid_data(rounds=3)))
        code = main(["run", "--config", str(cfg_path), "--jobs", "2",
                     "--out", str(tmp_path / "fan")])
        assert code == 0
        assert (tmp_path / "fan" / "seed-1" / "history.csv").is_file()
        assert (tmp_path / "fan" / "seed-2" / "history.csv").is_file()

    def test_jobs_capped_at_cpu_count(self, tmp_path, monkeypatch):
        # A stand-in executor records the pool size and runs nothing, so
        # no large pool is ever started.
        seen = {}

        class RecordingPool:
            def __init__(self, max_workers):
                seen["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                seen["seeds"] = list(iterables[1])
                return [None] * len(seen["seeds"])

        # `main` imports concurrent.futures in its --jobs branch and reads
        # the executor from the module there.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(valid_data()))
        code = main(["run", "--config", str(cfg_path), "--jobs", "64",
                     "--out", str(tmp_path / "fan")])
        assert code == 0
        assert seen["max_workers"] == 2
        assert seen["seeds"] == list(range(1, 65))

    def test_jobs_report_every_failed_seed_in_seed_order(self, tmp_path, monkeypatch, capsys):
        # A stand-in executor runs the jobs in this process, the last seed
        # first, and returns their outcomes in seed order, as `map` does.
        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                jobs = list(zip(*iterables))
                done = {job: fn(*job) for job in reversed(jobs)}
                return [done[job] for job in jobs]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        out = tmp_path / "fan"
        # alg2_dropout refuses a round at seeds 1, 2 and 4, and passes at seed 3.
        code = main(["run", "--config", "alg2_dropout", "--seed", "1", "--jobs", "4",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line, seed in zip(err, (1, 2, 4)):
            assert line.startswith(f"error: seed {seed} ({out / f'seed-{seed}'}): the ")
            assert "lost all its clients" in line
        assert (out / "seed-3" / "report.json").is_file()

    def test_an_explicit_out_wins_over_the_config_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(valid_data(output_dir="cfgdir")))
        assert main(["round", "--config", str(path), "--out", "out"]) == 0
        assert (tmp_path / "out" / "report.json").is_file()
        assert not (tmp_path / "cfgdir").exists()
        # Without --out the config's directory is used, and without either, out.
        assert main(["round", "--config", str(path)]) == 0
        assert (tmp_path / "cfgdir" / "report.json").is_file()
        (tmp_path / "out" / "report.json").unlink()
        path.write_text(json.dumps(valid_data()))
        assert main(["round", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "report.json").is_file()

    def test_analyze_malformed_transcripts_one_line_error(self, tmp_path, capsys):
        (tmp_path / "transcripts.jsonl").write_text('{"iteration": 0,\n')
        code = main(["analyze", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 1 is not JSON" in err
        assert len(err.strip().splitlines()) == 1

    def test_analyze_rows_that_are_not_transcripts(self, tmp_path):
        (tmp_path / "transcripts.jsonl").write_text('{"iteration": 0}\n')
        with pytest.raises(TranscriptFormatError,
                           match="^line 1: 'transcript_format' is missing$"):
            analyze_transcripts(tmp_path)

    def test_analyze_holds_at_most_two_rounds_at_once(self, tmp_path, monkeypatch, capsys):
        run_scenario(parse_config(valid_data(rounds=20)), tmp_path, "run")
        read, reads, alive, peak = transcript.read_transcript_line, [], set(), [0]

        def counted(line, number=None):
            t = read(line, number)
            reads.append(number)
            alive.add(number)
            weakref.finalize(t, alive.discard, number)
            peak[0] = max(peak[0], len(alive))
            return t

        monkeypatch.setattr(transcript, "read_transcript_line", counted)
        assert main(["analyze", "--out", str(tmp_path)]) == 0
        assert reads == list(range(1, 21))
        assert peak[0] <= 2
        assert json.loads((tmp_path / "analysis.json").read_text())["rounds"] == 20
        # analysis.json is written only once the last line is read and checked.
        (tmp_path / "analysis.json").unlink()
        with (tmp_path / "transcripts.jsonl").open("a") as handle:
            handle.write("{}\n")
        assert main(["analyze", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 21: ")
        assert not (tmp_path / "analysis.json").exists()

    def test_run_memory_does_not_grow_with_the_round_count(self, tmp_path, monkeypatch):
        # Each round's transcript (symbols alone are 8 * 1024 words) is written
        # and let go as the round finishes; a run that kept them would hold
        # over 40 KB a round.  What a run keeps by design is one history row
        # a round (about 0.2 KB, for history.csv) and its window of keyed
        # phases, bounded by masking._WINDOW_WORDS; the window is held to one
        # round here, so that bound does not count.
        data = valid_data(clients=8, dimension=1024, protocol_version="alg2")
        monkeypatch.setattr(masking, "_WINDOW_WORDS", 1)

        def run(rounds: int) -> None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(dict(data, rounds=rounds)))
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

        def traced_peak(rounds: int) -> int:
            run(2)  # warm the imports and caches outside the trace
            tracemalloc.start()
            try:
                run(rounds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(400) <= 1.25 * traced_peak(40)

    def test_analyze_an_empty_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "transcripts.jsonl").write_text("\n")
        assert main(["analyze", "--out", str(tmp_path)]) == 2
        assert "holds no round transcripts" in capsys.readouterr().err

    def test_unrecoverable_run_exits_nonzero(self, tmp_path):
        # drop probability 0.1 with subgroups of 2: some seeds lose a whole
        # subgroup in one round, which must surface as a failure, not a fudge
        code = main(["run", "--config", "alg2_dropout", "--seed", "6",
                     "--out", str(tmp_path)])
        assert code == 2


@pytest.fixture(scope="module")
def case_runner(tmp_path_factory):
    """The in-process runner of `cli_cases`, whose base runs the module's rows share."""
    return cli_cases.Runner(cli_cases.in_process, tmp_path_factory.mktemp("cases"))


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda case: case.id)
def test_cli_case(case, case_runner):
    case_runner.run(case)


LINE_REFUSALS = [case for case in cli_cases.CASES
                 if case.edit is not None and case.stderr.startswith(r"\Aerror: line ")]


@pytest.mark.parametrize("case", LINE_REFUSALS, ids=lambda case: case.id)
def test_the_reader_refuses_the_edited_line_as_analyze_does(case, case_runner):
    index, edit = case.edit
    line = (case_runner.base(case) / "transcripts.jsonl").read_text().splitlines()[index]
    with pytest.raises(TranscriptFormatError) as err:
        transcript.read_transcript_line(edit(line), index + 1)
    assert re.search(case.stderr, f"error: {err.value}\n")
