"""The package's modules import downward only.

The layers, lowest first: errors, turns, rng, channel and codec, masking,
config, transcript, protocol, fl, analysis, cli.  A module may import a module of a
lower layer only, whether at the top level, inside a function or under
`TYPE_CHECKING`.  The one upward import left, `protocol -> fl`, is listed
by kind in `UPWARD`: `protocol.run_iteration` composes a training round
from `fl`'s steps, and `fl.training_rounds` calls it.  A new upward import
fails here, and so does the listed one once it is gone.
The package's `__init__` imports every module and is not a layer.
Keyed values have one source too: only `rng` imports `hashlib` or names
numpy's `SeedSequence`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phaseagg"

LAYERS = [("errors",), ("turns",), ("rng",), ("channel", "codec"), ("masking",),
          ("config",), ("transcript",), ("protocol",), ("fl",), ("analysis",), ("cli",)]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}

TOP, FUNCTION, TYPE_CHECKING = "top-level", "function", "TYPE_CHECKING"
UPWARD = {("protocol", "fl", TOP)}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _targets(node) -> list[str]:
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("phaseagg.")]
    if node.level == 0 and node.module != "phaseagg" and not (
            node.module or "").startswith("phaseagg."):
        return []
    module = node.module if node.level else node.module.partition(".")[2]
    if module:
        return [module.split(".")[0]]
    return [alias.name for alias in node.names]


def imports(source: str) -> set[tuple[str, str]]:
    """(imported package module, kind) for every import statement in `source`."""
    found = set()

    def visit(nodes, kind):
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update((target, kind) for target in _targets(node))
            elif isinstance(node, ast.If) and _is_type_checking(node.test):
                visit(node.body, TYPE_CHECKING)
                visit(node.orelse, kind)
            else:
                inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                visit(ast.iter_child_nodes(node), FUNCTION if inner else kind)

    visit(ast.parse(source).body, TOP)
    return found


def edges() -> set[tuple[str, str, str]]:
    return {(path.stem, target, kind)
            for path in PACKAGE.glob("*.py") if path.stem != "__init__"
            for target, kind in imports(path.read_text())}


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(RANK)


def test_imports_point_down_apart_from_the_listed_ones():
    upward = {(src, dst, kind) for src, dst, kind in edges() if RANK[dst] >= RANK[src]}
    assert upward - UPWARD == set()


def test_every_listed_upward_import_still_exists():
    assert UPWARD - edges() == set()


def test_no_import_waits_under_type_checking():
    assert {edge for edge in edges() if edge[2] == TYPE_CHECKING} == set()


def test_moved_names_stay_where_the_benchmark_reaches_them():
    # perfbench builds layouts through `protocol`, times `protocol.run_iteration`
    # and drives the command line through `cli`, whatever module owns a name.
    # Its tracer rebinds a wrapped function in every module that names it, so
    # `cli.parse_config` and `cli.write_transcripts` stay traced as long as
    # `cli` names and calls their owners' functions.
    from phaseagg import cli, config, fl, masking, protocol, transcript

    assert protocol.assign_two_groups is masking.assign_two_groups
    assert protocol.assign_subgroups is masking.assign_subgroups
    assert protocol.run_iteration.__module__ == "phaseagg.protocol"
    assert "protocol.run_iteration(" in Path(fl.__file__).read_text()
    assert callable(config.ScenarioConfig.build_assignment)
    for name in ("main", "load_config"):
        assert getattr(cli, name).__module__ == "phaseagg.cli"
    assert cli.parse_config is config.parse_config
    assert cli.write_transcripts is transcript.write_transcripts
    # The server half's correction and decode are traced as `protocol.*`.
    assert protocol.dropout_correction is transcript.dropout_correction
    assert protocol.ps_aggregate_and_decode is transcript.ps_aggregate_and_decode
    assert protocol.aggregate is transcript.aggregate


def test_the_server_half_derives_no_phase():
    # `transcript.aggregate` reads only what the server holds; no phase
    # source is at hand in its module.
    found = {target for target, _ in imports((PACKAGE / "transcript.py").read_text())}
    assert found.isdisjoint({"channel", "rng"})


def test_the_walker_sees_every_kind_of_import():
    source = """
from __future__ import annotations
import numpy as np
import phaseagg.rng
from phaseagg import turns
from phaseagg.codec import modulate
from . import channel, masking
from .errors import ShapeError
from typing import TYPE_CHECKING
import typing
if TYPE_CHECKING:
    from .cli import ScenarioConfig
else:
    from . import fl
if typing.TYPE_CHECKING:
    import phaseagg.analysis
def f():
    from . import protocol
class C:
    def method(self):
        if True:
            import phaseagg.cli
"""
    assert imports(source) == {
        ("rng", TOP), ("turns", TOP), ("codec", TOP), ("channel", TOP), ("masking", TOP),
        ("errors", TOP), ("cli", TYPE_CHECKING), ("fl", TOP), ("analysis", TYPE_CHECKING),
        ("protocol", FUNCTION), ("cli", FUNCTION),
    }


KEYED = {"hashlib", "SeedSequence", "generate_state"}


def keyed_names(source: str) -> set[tuple[str, str | None]]:
    """(name, enclosing top-level function or None) for every import of `hashlib`
    and every use of `SeedSequence` or `generate_state` in `source`."""
    found = set()

    def visit(node, function):
        if isinstance(node, ast.Import):
            found.update((alias.name.split(".")[0], function) for alias in node.names
                         if alias.name.split(".")[0] in KEYED)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] in KEYED:
                found.add((node.module.split(".")[0], function))
            found.update((alias.name, function) for alias in node.names
                         if alias.name in KEYED)
        elif isinstance(node, ast.Name) and node.id in KEYED:
            found.add((node.id, function))
        elif isinstance(node, ast.Attribute) and node.attr in KEYED:
            found.add((node.attr, function))
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_rng_derives_a_keyed_value():
    # One keyed function: `rng.keyed_turn_vector` alone hashes a key, and
    # SeedSequence seeds only the Generator of `keyed_generator`.
    found = {path.stem: keyed_names(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {module for module, names in found.items() if names} == {"rng"}
    assert found["rng"] == {("hashlib", None), ("hashlib", "keyed_turn_vector"),
                            ("SeedSequence", "keyed_generator")}


def test_the_keyed_name_scan_sees_each_kind_of_use():
    source = """
import hashlib
from numpy.random import SeedSequence
def f(ss):
    return np.random.SeedSequence(1).generate_state(4), ss.generate_state
"""
    assert keyed_names(source) == {("hashlib", None), ("SeedSequence", None),
                                   ("SeedSequence", "f"), ("generate_state", "f")}
