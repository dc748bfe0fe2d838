"""Aggregation round orchestration: messages, decoding, recovery.

Clients are integers 0..S-1.  A `masking.GroupAssignment` splits them into
mask-exchange groups, each with a plus side and a minus side; every client
rotates its symbols by the summed channel phases to the opposite side,
plus side adding, minus side subtracting.  Summing all received messages
cancels every mask pairwise and leaves the exact digit sum.

Two protocol versions exist on the wire, named in `config` (`ALG1`,
`ALG2`):

* ``alg1`` - group mask only.  Exact and minimal, but once a client is
  presumed dropped and its mask reconstructed, a late message from it can
  be unmasked by the aggregator.
* ``alg2`` - each message additionally carries a private uniform phase
  known only to its sender.  Recovery then needs mask shares for dropped
  clients and private phases for survivors, never both for one client, so
  late messages stay protected.

A round is one matrix sum.  `run_round` checks the drop set and lists
the senders once, modulates every sender's digits in one (senders, d)
uint64 matrix and adds each sender's offset to its row in place: its
private phase (alg2) plus its group mask, negated on the minus side,
which it reads from the round's row with one `take`.  The offsets are an
(senders, 1) column in scalar mode and an (senders, d) array per symbol,
so broadcasting serves both.  Neither the masks nor the recovery check
nor the decode loops over groups: a scalar round takes a fixed number of
array calls whatever its group count.  The aggregate is the matrix's
column sum plus the correction.  Every phase and mask of a round comes
from one `masking.RoundPhases` row: a training run hands each round its
row of a `masking.phase_window`, and a direct call derives its own
(`masking.round_phases`).  Below `run_round`, the mask mode is only the
`length` of the row's phases (None for a scalar, d per symbol), and every
phase, mask, symbol row and correction is an int or an integer array;
`per_symbol` is set only by `run_round`'s callers.  `client_message`
builds one client's message on its own, taking the same `length`; it is
the reference the rows are tested against.  The transcript keeps the
read-only matrix and the sender ids; `RoundTranscript.messages` builds
the `ClientMessage` tuple only when first read, each message its owner
and a read-only view of its row.

The dropout correction implemented here is
``+ sum(masks of dropped plus-side) - sum(masks of dropped minus-side)
- sum(private phases of survivors)`` with dropped-to-dropped channel terms
excluded; they cancel pairwise by reciprocity, which the test suite checks
exhaustively.  Every dropped client's shares are read from the round's
row of cross-pair values, never from its masks, at the positions its
layout caches (`GroupAssignment.pair_positions`): one `take` for all of
them, signed and summed by one product.  The recovery check looks only
at the sides that hold a dropped client.  `run_round` hands the
correction the drop set and survivors it has checked and listed.
`dropout_correction` returns the correction and its reveal records, and
`ps_aggregate_and_decode` the decoded digit sums and their mean;
`run_round` counts the recovery messages and private-phase reveals from
the records.
The reveal log holds one record per query, each naming the clients it
asked and holding their answers as one read-only uint64 array:
``{"kind": "mask-shares", "dropped": i, "revealers": [...], "phases": ...}``
per dropped client, then ``{"kind": "private-phases", "clients": [...],
"phases": ...}`` once under alg2.  The phases are (k,) scalars or (k, d)
per-symbol streams, row r answered by the r-th listed client.

`RoundTranscript.to_json_dict` defines the transcript's JSON schema,
format `TRANSCRIPT_FORMAT`.  A message is its owner and symbols, in
memory as on a line; the iteration, version and mask mode are the
transcript's, written once per line, and a message's direction is its
owner's side tag in the transcript's assignment.
`RoundTranscript.to_json_parts` yields the same document as compact,
key-sorted JSON byte parts, one per array, which `compact_json_parts`
renders: integer arrays with orjson's numpy encoder, imported on first
use, and float arrays with `json` (orjson writes 1e-05 as 0.00001).
`read_transcript_line`, the one reader of a written line, is its inverse.

`run_iteration` composes one training round from `fl`'s steps around
`run_round`: `fl.client_digits` before it and `fl.sgd_update` after.  It
derives nothing: `fl.run_training` hands it theta, the stacked datasets,
the layout, the round's phase row and the round's residual, which the
loss has read too, and it reads the round from that
row and the learning rate and codec from the config, which builds its
`QuantizationConfig` and `FecConfig` once.  It is the one import of a
higher layer in the package, and `fl.run_training` calls it through this
module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import fl, turns
from .channel import ChannelMatrix, sample_round_channel
from .codec import FecConfig, QuantizationConfig, dequantize_mean, decode_sum, modulate
from .config import ALG1, ALG2, ScenarioConfig, check_version
from .errors import (
    RevealSafetyError,
    ShapeError,
    TranscriptFormatError,
    UnrecoverableRoundError,
)
from .masking import (
    PER_SYMBOL_MASKS,
    PLUS,
    SCALAR_MASKS,
    GroupAssignment,
    MaskedSymbols,
    RoundPhases,
    apply_mask,
    check_pair_row,
    # perfbench builds its layouts as `protocol.assign_*`.
    assign_subgroups,  # noqa: F401
    assign_two_groups,  # noqa: F401
    compute_group_mask,
    round_phases,
    sample_private_phase,
)

TRANSCRIPT_FORMAT = 2


@dataclass(frozen=True)
class ClientMessage:
    """One client's uplink message: its owner and its masked symbols."""

    owner: int
    masked: MaskedSymbols


def client_message(i: int, digits, assignment: GroupAssignment,
                   channel: ChannelMatrix, version: str, seed: int,
                   cfg: QuantizationConfig, *,
                   length: int | None = None) -> ClientMessage:
    """Build client i's message alone: modulate, add private phase (alg2), rotate.

    The group-mask rotation direction follows the client's side tag: plus
    side adds its mask, minus side subtracts it.  The private phase is
    always added.  Masks are scalar, or with `length` (the symbol count)
    per symbol.  `run_round` builds every sender's message at once; this
    per-client definition is the reference its rows are tested against.
    A `length` other than the digit count raises ShapeError.
    """
    check_version(version)
    if not (0 <= i < assignment.num_clients):
        raise IndexError(f"client {i} is not covered by the assignment")
    t = channel.iteration
    symbols = modulate(digits, cfg)
    if length is not None and symbols.shape != (length,):
        raise ShapeError(f"client {i}'s {symbols.size} symbols cannot take masks "
                         f"of length {length}")
    if version == ALG2:
        symbols = apply_mask(symbols, sample_private_phase(i, t, seed, length=length), PLUS)
    mask = compute_group_mask(i, assignment, channel, length=length)
    return ClientMessage(owner=i, masked=MaskedSymbols(
        symbols=apply_mask(symbols, mask, assignment.tag_of[i])))


def ps_aggregate_and_decode(symbols: np.ndarray, correction, num_contributors: int,
                            cfg: QuantizationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sum received phases, apply the correction, decode: (digit sums, mean).

    `symbols` is a round's (senders, d) uint64 symbol matrix, and
    `correction` an int or uint64 array in [0, 2**32), as
    `dropout_correction` returns it.  With every mask cancelled the
    per-element phase sum is an exact grid multiple; anything else raises
    ResidualMaskError.  The mean averages the exact integer digit sums over
    `num_contributors`.
    """
    if not len(symbols):
        raise UnrecoverableRoundError("no messages arrived; nothing to decode")
    # uint64 wraps mod 2**64, which 2**32 divides; `decode_sum` reduces the
    # sum, once.
    agg = symbols.sum(axis=0, dtype=np.uint64)
    agg += correction
    sums = decode_sum(agg, cfg)
    return sums, dequantize_mean(sums, num_contributors, cfg)


def _drop_set(ids: Iterable[int], assignment: GroupAssignment) -> frozenset[int]:
    """`ids` as a frozenset of ints, or IndexError naming the first not in `assignment`."""
    ids = frozenset(map(int, ids))
    if ids and (min(ids) < 0 or max(ids) >= assignment.num_clients):
        bad = min(i for i in ids if not 0 <= i < assignment.num_clients)
        raise IndexError(f"dropped client {bad} is not in the assignment")
    return ids


def _check_recovery_feasible(dropped: frozenset[int], survivors: Sequence[int],
                             assignment: GroupAssignment) -> None:
    """Raise UnrecoverableRoundError when recovery cannot proceed.

    Every side of every group must keep at least one survivor: a dropped
    client with a fully-dropped complementary side has nobody left to
    reveal its mask shares, and a surviving client with a fully-dropped
    complementary side would have its whole mask exposed by those same
    reveals on top of its private phase.
    """
    if not survivors:
        raise UnrecoverableRoundError("every client dropped out")
    # Only a side holding a dropped client can have lost them all.  The
    # error names the first such side in (group, tag) order, '+' < '-'.
    for g, tag in sorted({(assignment.group_of[i], assignment.tag_of[i]) for i in dropped}):
        if dropped.issuperset(assignment.side(g, tag)):
            raise UnrecoverableRoundError(
                f"the {tag!r} side of group {g} lost all its clients; "
                "masks touching it can be neither reconstructed nor kept private"
            )


def _audit_reveal_safety(reveals: Sequence[Mapping],
                         assignment: GroupAssignment) -> None:
    """Check no client has both its private phase and its full mask revealed.

    `reveals` holds the round's reveal records, one per query.  The share
    phi(dropped, revealer) is a component of both clients' masks.  A
    client dropped in no record is touched by at most one share per
    record, so only one whose mask has no more shares than there are
    records is checked share by share, beside every record's dropped client.
    """
    private: set[int] = set()
    shares = []
    for r in reveals:
        if r["kind"] == "private-phases":
            private.update(r["clients"])
        else:
            shares.append(r)
    suspects = {r["dropped"] for r in shares}
    suspects.update(j for r in shares for j in r["revealers"]
                    if len(assignment.complementary_set(j)) <= len(shares))
    for client in sorted(private.intersection(suspects)):
        exposed = set()
        for r in shares:
            if r["dropped"] == client:
                exposed.update(r["revealers"])
            elif client in r["revealers"]:
                exposed.add(r["dropped"])
        comp = assignment.complementary_set(client)
        if comp and exposed.issuperset(comp):
            raise RevealSafetyError(
                f"reveal-safety audit failed: client {client}'s private phase "
                "and every share of its mask were both revealed"
            )


# A minus side's shares enter the correction's signed sum with this sign:
# -1 mod 2**64, and so mod 2**32.
_MINUS_ONE = 2**64 - 1


def dropout_correction(dropped: Iterable[int], assignment: GroupAssignment,
                       pairs: np.ndarray, private_phases: np.ndarray | None, *,
                       survivors: Sequence[int] | None = None) -> tuple[int | np.ndarray, tuple]:
    """(correction, reveals): what the aggregator adds so survivors' sums decode exactly.

    Reconstructed masks of dropped plus-side clients are added and
    minus-side ones subtracted; with `private_phases` given (alg2) the
    survivors' private phases are subtracted as well.  `private_phases` is
    an array of their phases, one row per survivor in increasing client
    order.  `pairs` is the round's row of cross-pair values
    (`RoundPhases.pairs`); a dropped client's shares are read from it at the
    positions `GroupAssignment.pair_positions` caches, and its phase width
    sets the correction's: an int for scalar phases, a (length,) array for
    per-symbol streams.  Every dropped client's shares are gathered with
    one `take` and signed and summed with one product.  The reveals are a
    tuple of records, one per query: the revealers of one dropped client's
    shares, or the survivors whose private phases are asked, with the
    revealed phases as one read-only uint64 array.  The never-both rule is
    audited on those records.

    Called on its own, the function range-checks `dropped` (IndexError
    for an id outside the assignment), checks the row and lists the
    survivors.  `run_round` has done all three and passes its `survivors`,
    the clients not in `dropped` in increasing order, with `dropped` as
    the frozenset it checked; neither is derived again.
    """
    if survivors is None:
        dropped = _drop_set(dropped, assignment)
        check_pair_row(assignment, pairs)
        survivors = [i for i in range(assignment.num_clients) if i not in dropped]
    _check_recovery_feasible(dropped, survivors, assignment)

    reveals, positions, signs = [], [], []
    for i in sorted(dropped):
        revealers = []
        for j, k in zip(assignment.complementary_set(i), assignment.pair_positions[i].tolist()):
            if j not in dropped:
                revealers.append(j)
                positions.append(k)
        signs += [1 if assignment.tag_of[i] == PLUS else _MINUS_ONE] * len(revealers)
        reveals.append({"kind": "mask-shares", "dropped": i, "revealers": revealers})
    # `take` copies; per-symbol streams are uint32.  Each record's phases
    # are a view of its stretch of the gathered rows.
    shares = pairs.take(positions, axis=0).astype(np.uint64, copy=False)
    shares.setflags(write=False)
    start = 0
    for record in reveals:
        record["phases"] = shares[start:start + len(record["revealers"])]
        start += len(record["revealers"])
    # uint64 products and sums wrap mod 2**64, which 2**32 divides, so the
    # total is reduced once at the end; () makes a scalar total.
    total = np.matmul(np.array(signs, dtype=np.uint64), shares,
                      out=np.empty(pairs.shape[1:], dtype=np.uint64))

    if private_phases is not None:
        if len(private_phases) != len(survivors):
            raise ValueError(f"need {len(survivors)} survivors' private phases, "
                             f"got {len(private_phases)}")
        phases = private_phases.astype(np.uint64, copy=False).view()
        phases.setflags(write=False)  # on the view: the caller's array stays writable
        reveals.append({"kind": "private-phases", "clients": survivors, "phases": phases})
        total -= phases.sum(axis=0, dtype=np.uint64)

    _audit_reveal_safety(reveals, assignment)
    correction = turns.reduce(int(total)) if total.ndim == 0 else turns.reduce_in_place(total)
    return correction, tuple(reveals)


# --- transcript encoding ----------------------------------------------------

def _integer_list_parts(arrays: Sequence, after: Sequence[bytes]) -> Iterator:
    """Each integer array's JSON list text, then `after[k]`, in order.

    An array's text is `json.dumps(array.tolist(), separators=(",", ":"))`,
    written by orjson's numpy encoder.  An array that is not
    one-dimensional or not integer raises ValueError before any part is
    yielded; a value outside [0, 2**32) raises ValueError when its array
    is reached, instead of being truncated.
    """
    arrays = [np.asarray(a) for a in arrays]
    if any(a.ndim != 1 for a in arrays):
        raise ValueError("each row must be a one-dimensional array")
    kinds = {a.dtype.kind for a in arrays if a.size}
    if not kinds <= {"i", "u"}:
        raise ValueError(f"cannot write values of dtype kinds {sorted(kinds)} as integers")
    import orjson

    for array, tail in zip(arrays, after, strict=True):
        # Native order and C layout: orjson reads the raw buffer as it finds
        # it.  A negative value wraps to 2**63 or more here.
        values = np.ascontiguousarray(array, dtype=np.uint64)
        if values.size and values.max() >= turns.MODULUS:
            raise ValueError(
                f"values must lie in [0, 2**32), got range [{array.min()}, {array.max()}]"
            )
        yield orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
        yield tail


_COMPACT = json.JSONEncoder(separators=(",", ":"))


def float_list_json(values) -> bytes:
    """JSON text of a float vector: `json.dumps(values.tolist(), separators=(",", ":"))`.

    Each distinct float64 bit pattern is rendered once, by `json` itself,
    and the texts are gathered by index.  A decoded mean is a function of
    an integer digit sum, so a round's vector holds few distinct values.
    The key is the bit pattern, never the value, so 0.0 and -0.0 stay apart.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("a float list must be a one-dimensional array")
    distinct, index = np.unique(values.view(np.uint64), return_inverse=True)
    texts = _COMPACT.encode(distinct.view(np.float64).tolist())
    texts = np.array(texts[1:-1].encode().split(b","), dtype=object)
    return b"[" + b",".join(texts[index].tolist()) + b"]"


_SLOT = "\0"
_SLOT_JSON = json.dumps(_SLOT).encode()


def compact_json_parts(obj) -> Iterator:
    """`json.dumps(obj, sort_keys=True, separators=(",", ":"))` as ASCII byte parts.

    The parts come in document order; joined, they are the dump's bytes.
    ndarrays anywhere in `obj` are written as JSON lists of their values,
    a two-dimensional one as a list of its rows: the dump leaves a
    placeholder string for each one-dimensional array, in document order.
    `float_list_json` renders each float array first, into the text between
    two integer arrays, and `_integer_list_parts` renders each integer
    array as one part.  Every refusal raises while the parts are iterated,
    so a writer may already hold the earlier parts.
    """
    arrays = []

    def slot(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if value.ndim > 1:
            return list(value)  # the dump passes each row back to this hook
        arrays.append(value)
        return _SLOT

    parts = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       default=slot).encode().split(_SLOT_JSON)
    if len(parts) != len(arrays) + 1:
        raise ValueError("a string in the document equals the array placeholder")
    # glue[k] is the text after the k-th integer array, up to the next one.
    integers, glue = [], [parts[0]]
    for array, part in zip(arrays, parts[1:]):
        if array.dtype.kind == "f":
            glue[-1] += float_list_json(array) + part
        else:
            integers.append(array)
            glue.append(part)
    yield glue[0]
    yield from _integer_list_parts(integers, glue[1:])


@dataclass(frozen=True, eq=False)
class RoundTranscript:
    """Everything one aggregation round produced, ready to serialize.

    `symbols` is the round's read-only (senders, d) uint64 matrix of masked
    symbols, row k sent by client `senders[k]`; `aggregate` (int64) and
    `decoded_mean` (float64) are read-only arrays.  `reveals` holds the
    dropout correction's reveal records, one per query.  `messages` is
    built on first access.  Instances compare by identity: their fields
    hold arrays.
    """

    iteration: int
    assignment: GroupAssignment
    symbols: np.ndarray
    senders: tuple[int, ...]
    version: str
    mask_mode: str
    dropped: tuple[int, ...]
    delayed: int | None
    delayed_discarded: bool | None
    reveals: tuple
    counters: dict
    num_contributors: int
    aggregate: np.ndarray
    decoded_mean: np.ndarray
    codec_metrics: dict

    @cached_property
    def messages(self) -> tuple[ClientMessage, ...]:
        """Every sender's `ClientMessage`, in sender order.

        Each message's symbols are a read-only view of its row of `symbols`.
        """
        return tuple(ClientMessage(owner=i, masked=MaskedSymbols(symbols=row))
                     for i, row in zip(self.senders, self.symbols))

    def to_json_dict(self) -> dict:
        """The transcript's JSON form, the one definition of its schema.

        Every array becomes a (nested) list of Python numbers.
        """
        return self._json_dict(np.ndarray.tolist)

    def to_json_parts(self) -> Iterator:
        """One `transcripts.jsonl` line without its newline, as byte parts.

        Joined, the parts equal `json.dumps(self.to_json_dict(),
        sort_keys=True, separators=(",", ":"))`; the symbol rows, the
        revealed phases, the aggregate and the decoded mean stay arrays
        until `compact_json_parts` renders them.
        """
        return compact_json_parts(self._json_dict(np.asarray))

    def to_json_line(self) -> bytes:
        """`to_json_parts()` joined into one line."""
        return b"".join(self.to_json_parts())

    def _json_dict(self, array) -> dict:
        """The schema, with every array field passed through `array`."""
        return {
            "transcript_format": TRANSCRIPT_FORMAT,
            "iteration": self.iteration,
            "version": self.version,
            "mask_mode": self.mask_mode,
            "assignment": self.assignment.to_json_dict(),
            "messages": [{"owner": i, "symbols": row}
                         for i, row in zip(self.senders, array(self.symbols))],
            "dropped": list(self.dropped),
            "delayed": self.delayed,
            "delayed_discarded": self.delayed_discarded,
            "reveals": [dict(r, phases=array(r["phases"])) for r in self.reveals],
            "counters": dict(self.counters),
            "num_contributors": self.num_contributors,
            "aggregate": array(self.aggregate),
            "decoded_mean": array(self.decoded_mean),
            "codec_metrics": dict(self.codec_metrics),
        }


# A format-2 line's schema: a tuple holds the JSON types or values a value
# may have (`_CLIENT`: a client id of the line's assignment), a dict an
# object's fields, and a one-item list a list's items.
_CLIENT = object()
_LINE_SCHEMA = {
    "transcript_format": (TRANSCRIPT_FORMAT,), "iteration": (int,),
    "assignment": {"mode": (str,), "group_of": [(int,)], "tag_of": [(str,)],
                   "num_groups": (int,), "subgroup_size": (int, type(None))},
    "version": (ALG1, ALG2), "mask_mode": (SCALAR_MASKS, PER_SYMBOL_MASKS),
    "messages": [{"owner": (_CLIENT,), "symbols": (list,)}], "dropped": [(_CLIENT,)],
    "delayed": (_CLIENT, type(None)), "delayed_discarded": (bool, type(None)),
    "reveals": [{"kind": ("mask-shares", "private-phases"), "phases": (list,)}],
    "counters": dict.fromkeys(("phase_estimations", "uplink_messages", "recovery_messages",
                               "private_phase_reveals"), (int,)),
    "num_contributors": (int,), "aggregate": (list,), "decoded_mean": [(float,)],
    "codec_metrics": (dict,)}
_REVEAL_SCHEMA = {"mask-shares": {"dropped": (_CLIENT,), "revealers": [(_CLIENT,)]},
                  "private-phases": {"clients": [(_CLIENT,)]}}
_LEGACY_SCHEMA = {"messages": [{"version": (str,), "mask_mode": (str,)}],
                  "correction_queries": [{"kind": ("mask-shares", "private-phase"),
                                          "queried": [(int,)]}],
                  "revealed_shares": [{"phase": (int, list)}]}


def read_transcript_line(line, number: int | None = None) -> RoundTranscript:
    """One `transcripts.jsonl` line read back: the inverse of `RoundTranscript.to_json_parts`.

    A legacy line (no `transcript_format`; each message repeats the version
    and mask mode, and `revealed_shares` holds one entry per phase, in query
    order) is upgraded here and nowhere else.  The arrays are read-only:
    (senders, d) uint64 `symbols`, uint64 reveal phases, int64 `aggregate`
    and float64 `decoded_mean`.  Any other line raises TranscriptFormatError
    naming line `number` and the field.
    """
    where = "transcript line" if number is None else f"line {number}"
    clients = 0  # the assignment's client count, once it is read

    def fail(name, problem):
        return TranscriptFormatError(f"{where}: {name!r} {problem}")

    def check(value, schema, name):
        if isinstance(schema, dict):
            check(value, (dict,), name)
            for key, inner in schema.items():
                path = f"{name}.{key}" if name else key
                if key not in value:
                    raise fail(path, "is missing")
                check(value[key], inner, path)
        elif isinstance(schema, list):
            check(value, (list,), name)
            for k, item in enumerate(value):
                check(item, schema[0], f"{name}[{k}]")
        elif type(value) not in schema and value not in schema and not (
                _CLIENT in schema and type(value) is int and 0 <= value < clients):
            kinds = [f"a client id below {clients}" if t is _CLIENT
                     else getattr(t, "__name__", repr(t)) for t in schema]
            raise fail(name, f"must be {' or '.join(kinds)}, got {value!r:.40}")

    def array(value, name, dtype, ndim):
        try:
            arr = np.array(value)
        except ValueError:  # a ragged list
            arr = np.array(None)
        # The schema has checked that a float array holds floats only.
        if arr.ndim != ndim or dtype is not np.float64 and not (arr.dtype.kind in "iu" and (
                not arr.size or 0 <= arr.min() <= arr.max() < turns.MODULUS)):
            raise fail(name, f"must be a {ndim}-deep rectangular list of integers in [0, 2**32)")
        arr = arr.astype(dtype)
        arr.setflags(write=False)
        return arr

    try:
        row = json.loads(line)
    except ValueError as exc:
        raise TranscriptFormatError(f"{where} is not JSON: {exc}") from None
    check(row, (dict,), "line")
    if "transcript_format" not in row:  # a legacy line
        check(row, _LEGACY_SCHEMA, "")
        first = row["messages"][0] if row["messages"] else {}
        row.update(transcript_format=TRANSCRIPT_FORMAT, version=first.get("version"),
                   mask_mode=first.get("mask_mode"), reveals=[])
        phases = iter([entry["phase"] for entry in row.pop("revealed_shares")])
        for query in row.pop("correction_queries"):
            asked = query["queried"]
            record = {"kind": "private-phases", "clients": asked}
            if query["kind"] == "mask-shares":
                record = {"kind": "mask-shares", "dropped": query.get("dropped"),
                          "revealers": asked}
            row["reveals"].append(dict(record, phases=[next(phases, None) for _ in asked]))
    check(row, {key: _LINE_SCHEMA[key] for key in ("transcript_format", "assignment")}, "")
    fields = row["assignment"]
    try:
        assignment = GroupAssignment(**dict(fields, group_of=tuple(fields["group_of"]),
                                            tag_of=tuple(fields["tag_of"])))
    except (TypeError, ValueError) as exc:  # an unknown field, or a refused layout
        raise fail("assignment", f"is not a group assignment: {exc}") from None
    clients = assignment.num_clients
    check(row, _LINE_SCHEMA, "")
    for k, record in enumerate(row["reveals"]):
        check(record, _REVEAL_SCHEMA[record["kind"]], f"reveals[{k}]")
    ndim = 1 if row["mask_mode"] == SCALAR_MASKS else 2
    reveals = tuple(dict(r, phases=array(r["phases"], f"reveals[{k}].phases", np.uint64, ndim))
                    for k, r in enumerate(row["reveals"]))
    return RoundTranscript(
        iteration=row["iteration"], assignment=assignment, version=row["version"],
        mask_mode=row["mask_mode"], senders=tuple(m["owner"] for m in row["messages"]),
        symbols=array([m["symbols"] for m in row["messages"]], "messages[].symbols", np.uint64, 2),
        dropped=tuple(row["dropped"]), delayed=row["delayed"],
        delayed_discarded=row["delayed_discarded"], reveals=reveals, counters=row["counters"],
        num_contributors=row["num_contributors"], codec_metrics=row["codec_metrics"],
        aggregate=array(row["aggregate"], "aggregate", np.int64, 1),
        decoded_mean=array(row["decoded_mean"], "decoded_mean", np.float64, 1))


def run_round(digits_by_client, assignment: GroupAssignment,
              channel: ChannelMatrix, cfg: QuantizationConfig, *,
              version: str = ALG1, seed: int, dropped: Iterable[int] = (),
              delayed: int | None = None, per_symbol: bool = False,
              naive_remedy: bool = False,
              fec: FecConfig | None = None,
              phases: RoundPhases | None = None) -> RoundTranscript:
    """One full aggregation round over prepared digit vectors.

    `digits_by_client` holds one digit vector per client: a (clients, d)
    matrix or a sequence of rows.  The senders' rows are modulated into one
    (senders, d) symbol matrix, and each sender's offset (its private
    phase plus its group mask, signed by its side) is added to its row in
    place: an (senders, 1) column in scalar mode, an (senders, d) array
    per symbol.  The transcript keeps the matrix; its `messages` are views
    of the rows, built when first read.

    Dropped clients estimate phases but never transmit.  A delayed client
    is treated as dropped at aggregation time; under alg2 its late message
    is logged and discarded, while `naive_remedy` (the deliberately unsafe
    alg1 recovery used by the attack oracle) leaves it for the caller.

    Every phase comes from `phases`, this round's `masking.RoundPhases`
    row: the senders' masks and private phases are read from it by client
    id, each with one `take`, and the dropout correction reads its pairs.
    Without a row the round derives its own (`masking.round_phases`): the
    pairs from `channel` and the private phases from `seed`.  A row from
    another round, of the other mask mode or of another layout is refused
    with ValueError.

    The drop set is range-checked first, under every version: an id
    outside the assignment raises IndexError.  The senders are listed
    once, and the dropout correction reads the checked set and that list.
    """
    s = assignment.num_clients
    if len(digits_by_client) != s:
        raise ShapeError(
            f"need digits for all {s} clients, got {len(digits_by_client)}"
        )
    digits = digits_by_client
    if isinstance(digits, np.ndarray) and digits.ndim == 2:
        dimension = digits.shape[1]
    else:
        digits = [np.atleast_1d(d) for d in digits]
        dims = {len(r) for r in digits}
        if len(dims) != 1:
            raise ShapeError(f"clients disagree on dimension: {sorted(dims)}")
        (dimension,) = dims

    dropped = _drop_set(dropped, assignment)
    if delayed is not None:
        if delayed in dropped:
            raise ValueError(f"client {delayed} cannot be both dropped and delayed")
        if not (0 <= delayed < s):
            raise IndexError(f"delayed client {delayed} out of range")
    absent = dropped | {delayed} if delayed is not None else dropped
    check_version(version)
    length = dimension if per_symbol else None
    t = channel.iteration

    # Phase estimation happens at round start for every cross pair, before
    # anyone can drop: each cross pair's phase (or per-symbol stream) is
    # derived once, for both endpoints' masks and the correction alike.
    if phases is None:
        phases = round_phases(assignment, channel, seed, private=version == ALG2,
                              length=length)
    elif (phases.iteration, phases.length) != (t, length):
        raise ValueError(f"phases of round {phases.iteration}, length {phases.length} "
                         f"cannot serve round {t}, length {length}")
    elif version == ALG2 and phases.private is None:
        raise ValueError("an alg2 round's derived phases must hold private phases")
    else:
        check_pair_row(assignment, phases.pairs)
        if len(phases.masks) != s:
            raise ValueError(f"need {s} clients' masks, got shape {phases.masks.shape}")

    senders = [i for i in range(s) if i not in absent]
    # `take` copies, so the row's masks stay as they are.  It is several
    # times faster than fancy indexing, and faster still given the ids as
    # one array, made once.
    index = np.array(senders, dtype=np.intp)
    offsets = phases.masks.reshape(s, -1).take(index, axis=0)
    if absent:
        digits = (digits.take(index, axis=0) if isinstance(digits, np.ndarray)
                  else [digits[i] for i in senders])
    # With no sender left, modulate gets an empty sequence and returns shape (0,).
    symbols = modulate(digits, cfg).reshape(len(senders), dimension)
    private = None
    if version == ALG2:
        private = phases.private.take(index, axis=0)
        offsets += private.reshape(offsets.shape)
    symbols += offsets
    turns.reduce_in_place(symbols)
    symbols.setflags(write=False)

    # The channel is noiseless, so the FEC code only sets the reported bit
    # counts; tests/test_codec.py checks that it is a lossless inverse pair.
    payload_bits = cfg.payload_bits(dimension)
    redundancy = (fec or FecConfig(scheme="none")).redundancy_bits(payload_bits)

    delayed_discarded: bool | None = None
    correction, reveals = 0, ()
    if version == ALG2:
        correction, reveals = dropout_correction(absent, assignment, phases.pairs, private,
                                                 survivors=senders)
        if delayed is not None:
            delayed_discarded = True
    elif absent:
        if not naive_remedy:
            raise UnrecoverableRoundError(
                "dropouts under the group-mask-only protocol cannot be "
                "recovered without exposing masks; use version 'alg2'"
            )
        correction, reveals = dropout_correction(absent, assignment, phases.pairs, None,
                                                 survivors=senders)
        if delayed is not None:
            delayed_discarded = False

    digit_sums, mean = ps_aggregate_and_decode(symbols, correction, len(senders), cfg)
    for vector in (digit_sums, mean):
        vector.setflags(write=False)

    # One message per revealed phase: a revealer's mask share or a survivor's private phase.
    counters = {
        "phase_estimations": assignment.cross_pair_count(),
        "uplink_messages": len(senders),
        "recovery_messages": sum(len(r["phases"]) for r in reveals
                                 if r["kind"] == "mask-shares"),
        "private_phase_reveals": sum(len(r["phases"]) for r in reveals
                                     if r["kind"] == "private-phases"),
    }
    return RoundTranscript(
        iteration=t,
        assignment=assignment,
        symbols=symbols,
        senders=tuple(senders),
        version=version,
        mask_mode=PER_SYMBOL_MASKS if per_symbol else SCALAR_MASKS,
        dropped=tuple(sorted(dropped)),
        delayed=delayed,
        delayed_discarded=delayed_discarded,
        reveals=reveals,
        counters=counters,
        num_contributors=len(senders),
        aggregate=digit_sums,
        decoded_mean=mean,
        codec_metrics={
            "payload_bits": payload_bits,
            "redundancy_bits": redundancy,
            "symbols_per_message": dimension,
        },
    )


def run_iteration(theta: np.ndarray, config: ScenarioConfig, datasets: fl.ClientDatasets,
                  assignment: GroupAssignment, phases: RoundPhases, residual: np.ndarray):
    """One federated round at parameters `theta`: gradients, masked aggregation, SGD step.

    The round is `phases.iteration`, and `phases` is its row of a
    `masking.phase_window`.  Every client's digits come from one batched
    gradient over `datasets`, as `fl.make_synthetic_task` stacks them, at
    `residual`, the round's `fl.client_residuals(theta, datasets)` that
    the loss has read too.  The decoded mean takes one step at the
    config's learning rate.  Returns (transcript, updated theta).
    """
    cfg = config.quantization()
    t = phases.iteration
    transcript = run_round(
        fl.client_digits(theta, datasets, cfg, residual=residual), assignment,
        sample_round_channel(config.clients, t, config.seed), cfg,
        version=config.protocol_version,
        seed=config.seed,
        dropped=config.dropouts_for_round(t),
        delayed=config.delayed_client,
        per_symbol=config.per_symbol_masks,
        fec=config.fec_config(),
        phases=phases,
    )
    return transcript, fl.sgd_update(theta, transcript.decoded_mean, config.learning_rate)
