"""A scenario's parameters, checked once: `ScenarioConfig`, and `walk`, the JSON shape check.

A config is valid by construction.  `ScenarioConfig` checks the rules no
domain object holds and collects every other refusal from the rule's
owner: `masking.check_layout` for the grouping, `QuantizationConfig` and
`FecConfig` for the codec, and `check_version` here for the protocol
version, whose names (`ALG1`, `ALG2`) live here too.  `parse_config`
owns the config file's JSON: its shape (`_SCHEMA`), its defaults
(`_OPTIONAL`) and its section names; it builds a `ScenarioConfig` once
`walk` finds the shape sound.  `cli.load_config` finds the file and hands
its JSON here; `protocol.run_iteration` and `fl.training_rounds` read the
config.  `walk` is the one schema walker of the package's JSON inputs:
`transcript.read_transcript_line` reads a transcript line with it too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .codec import FecConfig, QuantizationConfig
from .errors import ConfigValidationError, PhaseAggError
from .masking import (
    SUBGROUP,
    TWO_GROUP,
    GroupAssignment,
    assign_subgroups,
    assign_two_groups,
    check_layout,
)

ALG1 = "alg1"
ALG2 = "alg2"


def walk(value, schema, name: str, bad: list):
    """`value` as `schema` admits it, each object holding only the fields named.

    A tuple lists the types a value may have, matched exactly (a bool is not
    an int), and the values it may be, each matching only a value of its own
    type; a dict names an object's fields, each required; a one-item list
    gives a list's items.  An integer must fit in 64 bits.  Each violation
    is appended to `bad` as its path, `name` and the keys and indices below
    it, and the problem: ``'a.b[2]' must be int, got 'x'`` or ``'a.c' is
    missing``.  A value that violates its schema is returned as it is.
    """
    kinds = {dict: (dict,), list: (list,)}.get(type(schema), schema)
    if type(value) is int and not -2**63 <= value < 2**64:  # orjson writes no wider one
        bad.append(f"{name!r} must fit in 64 bits, got {value!r:.40}")
        return value
    if type(value) not in kinds and not any(type(k) is type(value) and k == value for k in kinds):
        kinds = " or ".join(getattr(k, "__name__", repr(k)) for k in kinds)
        bad.append(f"{name!r} must be {kinds}, got {value!r:.40}")
        return value
    if isinstance(schema, list):
        return [walk(item, schema[0], f"{name}[{k}]", bad) for k, item in enumerate(value)]
    if not isinstance(schema, dict):
        return value
    fields = {}
    for key, inner in schema.items():
        path = f"{name}.{key}" if name else key
        if key in value:
            fields[key] = walk(value[key], inner, path, bad)
        else:
            bad.append(f"{path!r} is missing")
    return fields


def check_version(version: str) -> None:
    if version not in (ALG1, ALG2):
        raise ValueError(f"unknown protocol version {version!r}")


# A config's JSON types, as `walk` reads them.  `grouping`'s counts
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
# A `dropout.fixed` round key: decimal ASCII digits, a minus sign allowed
# first, so that `int` reads no '_', space, '+' or other script's digit.
_ROUND_KEY = re.compile(r"-?[0-9]+")


def parse_config(data: dict) -> ScenarioConfig:
    """Read a config's JSON into a ScenarioConfig, reporting every violation at once.

    The parser checks only the JSON's shape: a root object, no unknown key
    at any level, each value's type as `walk` reads `_SCHEMA`, the
    defaults of `_OPTIONAL`, `fec.repeat` only under the 'repetition'
    scheme, and, once the rest holds, the `dropout.fixed` map, whose round
    keys are `_ROUND_KEY`'s decimal digits, so "1" and "01" name one round.
    A config whose shape holds is built into a ScenarioConfig, which checks
    every value rule where it lives.  So a config is refused with every
    shape violation, or else with every value violation, in one
    ConfigValidationError.
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
        if not _ROUND_KEY.fullmatch(str(round_key)):
            bad.append(f"dropout round key {round_key!r} is not an integer")
            continue
        round_index = int(round_key)
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


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-resolved scenario parameters, valid by construction.

    Construction, `dataclasses.replace` included, raises one
    ConfigValidationError listing every violation.  The rules no domain
    object holds are checked here: `dimension`, `samples_per_client` and
    `rounds` >= 1, `seed` in [0, 2**32), `learning_rate` positive and finite,
    `loss_threshold` finite or None, a dropout probability in [0, 1],
    fixed dropout rounds and ids in range, `delayed_client` in range, and
    dropouts only under alg2.  Every other rule is collected from
    its owner: `masking.check_layout` (grouping), `QuantizationConfig`
    (clip, levels, PSK order), `FecConfig` and `check_version`.  The codec
    configs are built once, here, and `quantization()` and `fec_config()`
    return them, so a run's rounds share them.
    """

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
    # does not scan every entry; the codec configs, built once per config.
    _fixed_by_round: dict = field(init=False, repr=False, compare=False)
    _quantization: QuantizationConfig = field(init=False, repr=False, compare=False)
    _fec: FecConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = [f"{key!r} must be >= {low}, got {getattr(self, key)}"
               for key, low in (("dimension", 1), ("samples_per_client", 1),
                                ("rounds", 1), ("seed", 0))
               if getattr(self, key) < low]
        if self.seed >= 2**32:  # two key words in `rng`, whose keys can equal another seed's
            bad.append(f"'seed' must be below 2**32, got {self.seed}")
        if not 0 < self.learning_rate < math.inf:
            bad.append(f"'learning_rate' must be positive and finite, got {self.learning_rate}")
        if self.loss_threshold is not None and not math.isfinite(self.loss_threshold):
            bad.append(f"'loss_threshold' must be finite or null, got {self.loss_threshold}")
        if not 0 <= self.dropout_probability <= 1:
            bad.append(f"dropout probability must be in [0, 1], got {self.dropout_probability}")
        by_round: dict[int, set[int]] = {}
        for round_index, ids in self.dropout_fixed:
            if round_index < 0:
                bad.append(f"dropout round {round_index} is negative")
            out_of_range = [i for i in ids if not 0 <= i < self.clients]
            if out_of_range:
                bad.append(f"dropout ids {out_of_range} out of range for {self.clients} clients")
            by_round.setdefault(round_index, set()).update(ids)
        if self.delayed_client is not None and not 0 <= self.delayed_client < self.clients:
            bad.append(f"delayed_client {self.delayed_client} out of range for "
                       f"{self.clients} clients")
        if self.has_dropouts and self.protocol_version == ALG1:
            bad.append("a dropout model requires protocol_version 'alg2'; the group-mask-only "
                       "protocol cannot recover dropped clients without exposing masks")

        def keep(name, value):
            object.__setattr__(self, name, value)

        for owner in (lambda: check_layout(self.grouping_mode, self.clients,
                                           self.groups, self.subgroup_size),
                      lambda: keep("_quantization", self._build_quantization()),
                      lambda: keep("_fec", FecConfig(scheme=self.fec_scheme,
                                                     repeat=self.fec_repeat)),
                      lambda: check_version(self.protocol_version)):
            try:
                owner()
            except (ValueError, PhaseAggError) as exc:
                bad.append(str(exc))
        if bad:
            raise ConfigValidationError(bad)
        keep("_fixed_by_round", by_round)

    @property
    def has_dropouts(self) -> bool:
        """Whether some round can drop a client: a positive probability or a fixed drop."""
        return self.dropout_probability > 0 or any(ids for _, ids in self.dropout_fixed)

    def _build_quantization(self) -> QuantizationConfig:
        if self.modulation == "auto":
            return QuantizationConfig.with_auto_modulus(
                clip=self.clip, levels=self.levels, max_clients=self.clients
            )
        cfg = QuantizationConfig(clip=self.clip, levels=self.levels,
                                 modulus=int(self.modulation))
        cfg.require_headroom(self.clients)
        return cfg

    def quantization(self) -> QuantizationConfig:
        """The config's codec, built once, when the config is."""
        return self._quantization

    def fec_config(self) -> FecConfig:
        """The config's channel code, built once, when the config is."""
        return self._fec

    @property
    def phase_length(self) -> int | None:
        """A round's phase length: None for scalar masks, `dimension` per symbol."""
        return self.dimension if self.per_symbol_masks else None

    def build_assignment(self) -> GroupAssignment:
        if self.grouping_mode == TWO_GROUP:
            return assign_two_groups(self.clients, self.seed)
        return assign_subgroups(self.clients, self.groups, self.subgroup_size, self.seed)

    def dropouts_for_round(self, t: int) -> tuple[int, ...]:
        dropped = set(self._fixed_by_round.get(t, ()))
        if self.dropout_probability > 0:
            draws = rng.keyed_generator(self.seed, rng.DROPOUT_DOMAIN, t).random(
                self.clients
            )
            dropped.update(np.nonzero(draws < self.dropout_probability)[0].tolist())
        dropped.discard(self.delayed_client)
        return tuple(sorted(int(i) for i in dropped))
