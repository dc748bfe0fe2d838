"""The command line's contract, one row per case.

Each `Case` runs one `phaseagg` command and states what it must do: the
exit code, the exact number of ``error:`` lines, a pattern over stderr,
no traceback, and checks of the artifacts it leaves.  One runner serves
the rows through two backends:

* in process, through `phaseagg.cli.main`: `tests/test_cli.py::test_cli_case`;
* through the installed ``phaseagg`` entry point, one subprocess per
  command, when this file is run as a script::

      python tests/cli_cases.py

An ``analyze`` row with a config reads a copy of that config's ``run``,
made once per backend and shared by every row that names the same config
and seed; its `edit` changes one line of the copy's transcripts.jsonl.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "phaseagg" / "configs"


@dataclass(frozen=True)
class Case:
    """One command and what it must do.

    `argv` is the subcommand and its options; the runner adds ``--config``
    and ``--seed`` from `config` and `seed`, and ``--out``.  `out` is what
    the ``--out`` target is before the command: ``"new"`` (absent),
    ``"empty"`` (an empty directory) or ``"file"`` (a regular file); an
    ``analyze`` row with a config reads a copy of that config's run instead.
    `stderr` is searched in the command's stderr, with ``{out}`` standing
    for the escaped ``--out`` path.  Stderr holds exactly `errors` lines
    that start with ``error:``, and, on any exit but 1, no other line.
    Each check is called with the ``--out`` path and its `snapshot` from
    before the command.  With `pool` false, starting a worker pool fails
    the row in process; through the entry point, the unchanged ``--out``
    target stands for it.
    """

    id: str
    argv: tuple[str, ...]
    config: str | dict | None = None
    seed: int | None = None
    edit: tuple[int, Callable[[str], str]] | None = None
    out: str = "new"
    code: int = 0
    errors: int = 0
    stderr: str = r"\A\Z"
    checks: tuple[Callable[[Path, object], None], ...] = ()
    pool: bool = True


def snapshot(path: Path):
    """None for a missing path, a file's bytes, or a directory's entries and file bytes."""
    if not path.exists():
        return None
    if path.is_file():
        return path.read_bytes()
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


# Artifact checks.


def unchanged(out: Path, before) -> None:
    assert snapshot(out) == before, f"{out} changed"


def kept(name: str):
    def check(out: Path, before) -> None:
        assert (out / name).read_bytes() == before[name], f"{name} changed"
    return check


def field(name: str, path: str, want):
    """`name`'s JSON value at the dotted `path` is `want`, of the same type."""
    def check(out: Path, before) -> None:
        got = json.loads((out / name).read_text())
        for key in path.split("."):
            got = got[key]
        assert got == want and type(got) is type(want), f"{name} {path} is {got!r}, not {want!r}"
    return check


def overhead_agrees(out: Path, before) -> None:
    run = json.loads((out / "report.json").read_text())["overhead"]
    analyzed = json.loads((out / "analysis.json").read_text())["overhead"]
    assert run == analyzed, f"overhead differs: run {run}, analyze {analyzed}"


def every_line(**want):
    """Every transcript line holds these field values."""
    def check(out: Path, before) -> None:
        for number, line in enumerate((out / "transcripts.jsonl").read_text().splitlines(), 1):
            row = json.loads(line)
            got = {key: row[key] for key in want}
            assert got == want, f"line {number} holds {got}"
    return check


def drops_in_groups(*groups: int):
    """Every line's dropped clients lie in exactly these groups."""
    def check(out: Path, before) -> None:
        for number, line in enumerate((out / "transcripts.jsonl").read_text().splitlines(), 1):
            row = json.loads(line)
            got = {row["assignment"]["group_of"][i] for i in row["dropped"]}
            assert got == set(groups), f"line {number} drops clients of groups {sorted(got)}"
    return check


def no_round_finished(out: Path, before) -> None:
    """The refused run left only an empty transcripts.jsonl."""
    assert snapshot(out) == {"transcripts.jsonl": b""}, f"{out} holds {snapshot(out)}"


def finished_rounds(count: int):
    """The refused run left only transcripts.jsonl, whole lines that read back as
    rounds 0 to `count` - 1."""
    def check(out: Path, before) -> None:
        from phaseagg.transcript import read_transcripts

        names = sorted(p.name for p in out.iterdir())
        assert names == ["transcripts.jsonl"], f"{out} holds {names}"
        assert (out / "transcripts.jsonl").read_bytes().endswith(b"\n"), "a line is cut off"
        rounds = [t.iteration for t in read_transcripts(out / "transcripts.jsonl")]
        assert rounds == list(range(count)), f"transcripts.jsonl holds rounds {rounds}"
    return check


# Configs and line edits.


def bundled(name: str, **changes) -> dict:
    """A bundled config's JSON with top-level keys replaced."""
    return dict(json.loads((CONFIGS / f"{name}.json").read_text()), **changes)


def on_row(change: Callable[[dict], None]) -> Callable[[str], str]:
    """A line edit that changes the line's JSON object in place."""
    def edit(line: str) -> str:
        row = json.loads(line)
        change(row)
        return json.dumps(row)
    return edit


def not_an_object(line: str) -> str:
    return json.dumps(list(json.loads(line)))


def first_mean_1e999(line: str) -> str:
    line, count = re.subn(r'("decoded_mean":\[)[^,\]]+', r"\g<1>1e999", line, count=1)
    assert count == 1, "the line holds no decoded_mean number"
    return line


def first_symbol(value):
    return on_row(lambda row: row["messages"][0]["symbols"].__setitem__(0, value))


def set_format(value):
    return on_row(lambda row: row.update(transcript_format=value))


def bump_phase_estimations(row: dict) -> None:
    row["counters"]["phase_estimations"] += 1


def with_second_line_drops(change: Callable[[dict], None]) -> Callable[[str], str]:
    """An edit of `alg2_dropout --seed 3`'s line 2, which drops client 7 only."""
    def checked(row: dict) -> None:
        assert (row["dropped"], row["delayed"], row["assignment"]["subgroup_size"]) \
            == ([7], None, 2), "line 2 is not the expected round"
        change(row)
    return on_row(checked)


def subgroups_of_one(row: dict) -> None:
    """The line's layout split into groups of one plus-side and one minus-side client:
    sides of the shape subgroups of 1 have, below the security floor."""
    layout = row["assignment"]
    group_of = layout["group_of"]
    for side in ("+", "-"):
        members = [i for i, tag in enumerate(layout["tag_of"]) if tag == side]
        for group, i in enumerate(members):
            group_of[i] = group
    layout.update(num_groups=len(group_of) // 2, subgroup_size=1)


def drop_revealed_phase(row: dict) -> None:
    record = row["reveals"][0]
    assert (record["kind"], record["dropped"], len(record["revealers"])) \
        == ("mask-shares", 7, 2), f"unexpected first record: {record}"
    record["phases"].pop()


def withhold_a_revealer(row: dict) -> None:
    """Line 5 of `alg2_dropout --seed 3` (round 4) without one revealer of client 2's
    record, and without that revealer's phase row."""
    record = row["reveals"][0]
    assert (row["dropped"], record["dropped"], len(record["revealers"])) == ([2, 11], 2, 2), \
        f"unexpected round: dropped {row['dropped']}, first record {record}"
    record["revealers"].pop()
    record["phases"].pop()


REMAINDER = {"clients": 17, "dimension": 2, "samples_per_client": 4, "rounds": 3,
             "learning_rate": 0.1, "seed": 1, "protocol_version": "alg2",
             "quantization": {"clip": 1.0, "levels": 4},
             "grouping": {"mode": "subgroup", "groups": 4, "subgroup_size": 2}}
# Four groups of two subgroups of 2 and a remainder of one client, which
# joins the last group: 3 * 2**2 + 3 * 2 = 18 phase estimations per round.
EXACT_REMAINDER = tuple(field("report.json", f"overhead.{key}", value) for key, value in (
    ("group_parameters", {"K": 4, "L": 2}), ("measured_per_round", 18),
    ("formula_per_round", 18), ("exact_match", True), ("recovery_messages_exact", True)))
MANY_GROUPS = {"clients": 64, "dimension": 3, "samples_per_client": 4, "rounds": 4,
               "learning_rate": 0.1, "seed": 5, "protocol_version": "alg2",
               "quantization": {"clip": 1.0, "levels": 4},
               "grouping": {"mode": "subgroup", "groups": 16, "subgroup_size": 2},
               "dropout": {"fixed": {"0": [1, 9, 33], "1": [2, 40, 63], "3": [5, 6, 7, 8]}},
               "compare_baseline": True}
LOST_SIDE = dict(MANY_GROUPS, dropout={"fixed": dict(MANY_GROUPS["dropout"]["fixed"],
                                                     **{"2": [42, 63]})})
# 4,097 clients in subgroups of 2: 1,023 groups of (2, 2) and a last of
# (3, 2), so the layout has two runs.  Seed 11 puts clients 31, 3123, 3170
# and 3319 in the last group, 656 and 1741 in group 0, 818 and 3700 in 500.
DIVERGING = {"clients": 6, "dimension": 2, "samples_per_client": 4, "rounds": 5,
             "learning_rate": 1e200, "seed": 1, "protocol_version": "alg2",
             "quantization": {"clip": 1.0, "levels": 4}}
MANY_CLIENTS = {"clients": 4097, "dimension": 2, "samples_per_client": 2, "rounds": 2,
                "learning_rate": 0.1, "seed": 11, "protocol_version": "alg2",
                "quantization": {"clip": 1.0, "levels": 4},
                "grouping": {"mode": "subgroup", "groups": 1024, "subgroup_size": 2},
                "dropout": {"fixed": {"0": [31, 656, 3170, 3700],
                                      "1": [818, 1741, 3123, 3319]}},
                "compare_baseline": True}
BASELINE_MATCH = field("report.json", "baseline_match", True)
INVALID = r"\Ainvalid scenario configuration:\n"
LAST_LINE = 7  # alg2_dropout runs 8 rounds


def refused_line(id: str, index: int, edit, problem: str) -> Case:
    """`analyze` of `alg2_dropout --seed 3` refuses line `index + 1` after `edit`,
    naming it, and writes nothing."""
    return Case(id, ("analyze",), "alg2_dropout", 3, (index, edit), code=2, errors=1,
                stderr=rf"\Aerror: line {index + 1}: {problem}", checks=(unchanged,))


def refused_config(id: str, argv, config, problem: str, seed=None, **rest) -> Case:
    """Exit 1 with the violation list, which matches `problem`, and no artifact."""
    rest.setdefault("checks", (unchanged,))
    return Case(id, argv, config, seed, code=1, stderr=INVALID + problem, **rest)


def side_lost(id: str, config, seed, group: int, **rest) -> Case:
    return Case(id, ("run",), config, seed, code=2, errors=1,
                stderr=rf"\Aerror: the '\+' side of group {group} lost all its clients", **rest)


def out_is_a_file(command: str, config: str) -> Case:
    return Case(f"{command}-out-is-a-regular-file", (command,), config, out="file", code=2,
                errors=1, stderr=r"\Aerror: .*{out}", checks=(unchanged,))


CASES = [
    # Runs that analyze agrees with.
    Case("alg2-run-then-analyze", ("analyze",), "alg2_dropout", 3,
         checks=(overhead_agrees, kept("report.json"),
                 field("analysis.json", "command", "analyze"),
                 field("analysis.json", "overhead.exact_match", True))),
    Case("remainder-run-then-analyze", ("analyze",), REMAINDER,
         checks=(overhead_agrees,) + EXACT_REMAINDER),
    Case("remainder-round", ("round",), REMAINDER, checks=EXACT_REMAINDER),
    Case("sixteen-groups-baseline-then-analyze", ("analyze",), MANY_GROUPS,
         checks=(BASELINE_MATCH, overhead_agrees,
                 field("analysis.json", "overhead.exact_match", True))),
    Case("many-clients-two-runs-baseline-then-analyze", ("analyze",), MANY_CLIENTS,
         checks=(BASELINE_MATCH, overhead_agrees, drops_in_groups(0, 500, 1023),
                 field("analysis.json", "overhead.exact_match", True))),
    Case("per-symbol-baseline-then-analyze", ("analyze",),
         bundled("alg2_dropout", per_symbol_masks=True, compare_baseline=True), 3,
         checks=(BASELINE_MATCH, overhead_agrees)),
    Case("delayed-baseline-then-analyze", ("analyze",),
         bundled("alg2_dropout", delayed_client=5, compare_baseline=True), 5,
         checks=(BASELINE_MATCH, overhead_agrees,
                 every_line(delayed=5, delayed_discarded=True))),
    # Rounds that lose a side.
    side_lost("sixteen-groups-lost-side", LOST_SIDE, None, 1),
    side_lost("delayed-lost-side", bundled("alg2_dropout", delayed_client=5,
                                           compare_baseline=True), 3, 0),
    # Round 4 is refused; the four rounds before it keep their lines.
    side_lost("refused-run-keeps-its-finished-lines", "alg2_dropout", 1, 0,
              checks=(finished_rounds(4),)),
    # Round 0's step leaves theta finite but its loss at round 1 overflows.
    Case("diverging-run-keeps-its-finished-lines", ("run",), DIVERGING, code=2, errors=1,
         stderr=r"\Aerror: round 1 diverged: its loss is inf and its theta norm ",
         checks=(finished_rounds(1),)),
    # Round 0's update overflows: the refusal names the round.
    Case("overflowing-update-names-its-round", ("run",),
         dict(DIVERGING, rounds=3, learning_rate=1e10,
              quantization={"clip": 1e300, "levels": 4}), code=2, errors=1,
         stderr=r"\Aerror: round 0 diverged: its update produced non-finite parameters\n\Z",
         checks=(no_round_finished,)),
    Case("jobs-every-seed-fails", ("run", "--jobs", "2"), "alg2_dropout", 1, code=2, errors=2,
         stderr=r"\Aerror: seed 1 .*\nerror: seed 2 "),
    # Refused configs and options.
    refused_config("constructors-refuse", ("run",),
                   {"clients": 8, "dimension": 2, "samples_per_client": 4, "rounds": 1,
                    "learning_rate": 0.1, "seed": 1, "quantization": {"clip": math.inf},
                    "grouping": {"mode": "subgroup", "groups": 2, "subgroup_size": 1}},
                   r"(?s:.*)security floor(?s:.*)clip must be positive and finite"),
    refused_config("clip-past-the-float-range", ("run",),
                   dict(DIVERGING, learning_rate=0.1, quantization={"clip": 1.7e308}),
                   r"  - clip 1\.7e\+308 at 16 levels overflows the quantizer: "
                   r"2 \* clip \* \(levels - 1\) must be finite\n\Z"),
    refused_config("learning-rate-1e999", ("run",),
                   {"clients": 8, "dimension": 2, "samples_per_client": 4, "rounds": 2,
                    "learning_rate": math.inf, "seed": 1}, r"(?s:.*)learning_rate"),
    Case("jobs-0", ("run", "--jobs", "0"), "alg1_baseline", code=1, errors=1,
         stderr=r"\Aerror: --jobs must be at least 1, got 0\n\Z", checks=(unchanged,),
         pool=False),
    Case("jobs-minus-1", ("run", "--jobs", "-1"), "alg1_baseline", code=1, errors=1,
         stderr=r"\Aerror: --jobs must be at least 1, got -1\n\Z", checks=(unchanged,),
         pool=False),
    refused_config("jobs-seeds-past-the-seed-range", ("run", "--jobs", "2"), "alg1_baseline",
                   r"  - 'seed' must be below 2\*\*32, got 4294967296\n\Z", seed=2**32 - 1,
                   pool=False),
    refused_config("attack-refuses-a-dropout-model", ("attack",),
                   bundled("attack_private_phase",
                           dropout={"probability": 0.5, "fixed": {"0": [1, 2, 3]}}),
                   r"  - .*'dropout'"),
    # Operating system errors.
    out_is_a_file("run", "alg1_baseline"),
    out_is_a_file("round", "alg1_baseline"),
    out_is_a_file("attack", "attack_naive"),
    Case("analyze-without-transcripts", ("analyze",), out="empty", code=2, errors=1,
         stderr=r"\Aerror: .*{out}/transcripts\.jsonl", checks=(unchanged,)),
    # Transcript lines that analyze refuses.  Line 5 is round 4.
    Case("counter-bumped", ("analyze",), "alg2_dropout", 3,
         (4, on_row(bump_phase_estimations)), code=2, errors=1,
         stderr=r"\Aerror: overhead check failed: round 4 "
                r".*measured 17 phase estimations, the formula gives 16",
         checks=(field("analysis.json", "overhead.exact_match", False),)),
    Case("revealer-withheld", ("analyze",), "alg2_dropout", 3,
         (4, on_row(withhold_a_revealer)), code=2, errors=1,
         stderr=r"\Aerror: recovery check failed: round 4 "
                r"revealed 1 mask shares of client 2, 2 expected\n\Z",
         checks=(field("analysis.json", "overhead.recovery_messages_exact", False),)),
    refused_line("counters-missing", 2, on_row(lambda row: row.pop("counters")),
                 "'counters' is missing"),
    refused_line("symbols-ragged", 2, on_row(lambda row: row["messages"][1]["symbols"].pop()),
                 r"'messages\[\]\.symbols' "),
    refused_line("symbol-too-large", 2, first_symbol(2**32), r"'messages\[\]\.symbols' "),
    refused_line("symbol-negative", 2, first_symbol(-1), r"'messages\[\]\.symbols' "),
    refused_line("symbol-not-an-integer", 2, first_symbol(1.5), r"'messages\[\]\.symbols' "),
    refused_line("format-3", 2, set_format(3), "'transcript_format' "),
    refused_line("last-line-format-1", LAST_LINE, set_format(1), "'transcript_format' "),
    refused_line("last-line-format-3", LAST_LINE, set_format(3), "'transcript_format' "),
    refused_line("last-line-format-string", LAST_LINE, set_format("2"), "'transcript_format' "),
    refused_line("format-missing", 0, on_row(lambda row: row.pop("transcript_format")),
                 "'transcript_format' is missing"),
    refused_line("dropped-client-out-of-range", 2,
                 on_row(lambda row: row.update(dropped=[len(row["assignment"]["group_of"])])),
                 r"'dropped\[0\]' "),
    refused_line("mean-NaN", 1, on_row(lambda row: row["decoded_mean"].__setitem__(0, math.nan)),
                 r"'decoded_mean\[0\]' must be float, got NaN"),
    refused_line("mean-1e999", 1, first_mean_1e999, r"'decoded_mean\[0\]' "),
    refused_line("contributors-miscounted", 2,
                 on_row(lambda row: row.update(num_contributors=99)), "'num_contributors' "),
    refused_line("group-99", 1,
                 on_row(lambda row: row["assignment"]["group_of"].__setitem__(15, 99)),
                 "'assignment' "),
    refused_line("subgroup-size-null", 0,
                 on_row(lambda row: row["assignment"].update(subgroup_size=None)),
                 "'assignment' "),
    refused_line("two-group-of-four-groups", 2,
                 on_row(lambda row: row["assignment"].update(mode="two-group", num_groups=4)),
                 "'assignment' "),
    refused_line("line-not-an-object", 2, not_an_object, "'line' "),
    refused_line("delayed-and-dropped", 1,
                 with_second_line_drops(lambda row: row.update(delayed=7)),
                 r"'delayed' names client 7, who is also dropped\n\Z"),
    refused_line("subgroup-size-0", 1,
                 with_second_line_drops(lambda row: row["assignment"].update(subgroup_size=0)),
                 "'assignment' is not a group assignment: "
                 r"subgroup size must be at least 2, got 0: .*\(the security floor\)\n\Z"),
    refused_line("subgroup-size-3", 1,
                 with_second_line_drops(lambda row: row["assignment"].update(subgroup_size=3)),
                 "'assignment' is not a group assignment: "
                 r"16 clients at subgroup size 3 need 2 groups, not 4\n\Z"),
    refused_line("subgroups-of-one", 1, with_second_line_drops(subgroups_of_one),
                 "'assignment' is not a group assignment: "
                 r"subgroup size must be at least 2, got 1: .*\(the security floor\)\n\Z"),
    refused_line("revealed-phase-lost", 1, on_row(drop_revealed_phase),
                 r"'reveals\[0\]\.phases' "),
]


# The runner and its two backends.


def in_process(argv: list[str], pool: bool) -> tuple[int, str]:
    """`cli.main`, with an escaping exception reported as the interpreter would."""
    import concurrent.futures

    from phaseagg import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.ExitStack() as stack:
        if not pool:
            stack.enter_context(mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                                                  no_pool))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=err)
            code = 1
    return code, err.getvalue()


def entry_point(argv: list[str], pool: bool) -> tuple[int, str]:
    """The installed `phaseagg` command in a subprocess."""
    proc = subprocess.run(["phaseagg", *argv], capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stderr


class Runner:
    """Runs rows through one backend, each in its own directory under `root`."""

    def __init__(self, call: Callable[[list[str], bool], tuple[int, str]], root: Path):
        self.call, self.root, self.bases = call, root, {}

    def config_args(self, config, seed, where: Path) -> list[str]:
        if isinstance(config, dict):
            path = where / "config.json"
            # Strict JSON has no infinity; a number too large for a float reads as one.
            path.write_text(json.dumps(config).replace("Infinity", "1e999"))
            config = str(path)
        return ["--config", config] + ([] if seed is None else ["--seed", str(seed)])

    def base(self, case: Case) -> Path:
        """The directory of `run` on the row's config and seed, made once."""
        key = (json.dumps(case.config, sort_keys=True), case.seed)
        if key not in self.bases:
            where = self.root / f"base-{len(self.bases)}"
            where.mkdir()
            argv = ["run", *self.config_args(case.config, case.seed, where),
                    "--out", str(where / "out")]
            code, err = self.call(argv, True)
            assert (code, err) == (0, ""), f"{' '.join(argv)} exited {code}: {err}"
            self.bases[key] = where / "out"
        return self.bases[key]

    def run(self, case: Case) -> None:
        """Run one row; raise AssertionError naming what it broke."""
        where = self.root / case.id
        where.mkdir()
        out = where / "out"
        argv = list(case.argv)
        if case.argv[0] == "analyze" and case.config is not None:
            shutil.copytree(self.base(case), out)
        else:
            argv += self.config_args(case.config, case.seed, where) if case.config else []
            if case.out == "empty":
                out.mkdir()
            elif case.out == "file":
                out.write_bytes(b"a regular file\n")
        if case.edit is not None:
            index, edit = case.edit
            path = out / "transcripts.jsonl"
            lines = path.read_text().splitlines()
            lines[index] = edit(lines[index])
            path.write_text("".join(line + "\n" for line in lines))
        before = snapshot(out)
        code, err = self.call(argv + ["--out", str(out)], case.pool)
        shown = f"{case.id} exited {code} with stderr:\n{err}"
        assert "Traceback" not in err, shown
        assert code == case.code, shown
        lines = err.splitlines()
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == case.errors, f"{len(errors)} error lines, not {case.errors}: {shown}"
        assert case.code == 1 or len(lines) == len(errors), f"a line other than error: {shown}"
        pattern = case.stderr.replace("{out}", re.escape(str(out)))
        assert re.search(pattern, err), f"stderr does not match {pattern!r}: {shown}"
        for check in case.checks:
            check(out, before)
        for path in sorted(out.rglob("*.json")) if out.is_dir() else ():
            strict_json(path)


def strict_json(path: Path) -> None:
    """`path` parses as strict JSON: NaN and Infinity are not JSON numbers."""
    def refuse(name: str):
        raise AssertionError(f"{path.name} holds {name}, which strict JSON has no number for")
    try:
        json.loads(path.read_text(), parse_constant=refuse)
    except ValueError as exc:
        raise AssertionError(f"{path.name} is not JSON: {exc}") from None


def main() -> int:
    if not __debug__:
        sys.exit("the checks are assert statements; run without -O")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        runner = Runner(entry_point, Path(tmp))
        for case in CASES:
            try:
                runner.run(case)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {case.id}: {exc}", flush=True)
            else:
                print(f"ok   {case.id}", flush=True)
    print(f"{len(CASES) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
